"""Arithmetic and enumeration of the Brandt semigroup B_n.

B_n is ([n] x [n]) together with a zero; pairs add by (i,j) + (k,l) = (i,l)
when j == k and zero otherwise, and zero absorbs on both sides. The zero is
represented as None and pair coordinates are 0-based internally; labels are
1-based, with the zero printed as "0".
"""

from __future__ import annotations

from typing import TypeAlias

from .engine import FiniteSemigroup
from .errors import InvalidParameterError

BnElement: TypeAlias = "tuple[int, int] | None"

ZERO: BnElement = None


def check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")


def validate_element(n: int, x: BnElement) -> None:
    if x is None:
        return
    i, j = x
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidParameterError(f"pair {x!r} out of range for n={n}")


def bn_elements(n: int) -> list[BnElement]:
    """All elements of B_n: zero first, then pairs in row-major order."""
    check_n(n)
    out: list[BnElement] = [ZERO]
    out.extend((i, j) for i in range(n) for j in range(n))
    return out


def bn_add(n: int, a: BnElement, b: BnElement) -> BnElement:
    check_n(n)
    validate_element(n, a)
    validate_element(n, b)
    if a is None or b is None:
        return None
    return (a[0], b[1]) if a[1] == b[0] else None


def bn_index(n: int, x: BnElement) -> int:
    """Position of ``x`` in the canonical order of ``bn_elements(n)``."""
    return 0 if x is None else 1 + x[0] * n + x[1]


def bn_label(x: BnElement) -> str:
    return "0" if x is None else f"({x[0] + 1},{x[1] + 1})"


def brandt_semigroup(n: int) -> FiniteSemigroup:
    """B_n as a FiniteSemigroup in canonical element order, its table
    ``bn_index`` of each ``bn_add``. The table is handed in whole, so Light's
    test checks it; the A+(B_n) certificate takes this validated B_n as its
    codomain (``affine.a_plus_semigroup``)."""
    elems = bn_elements(n)
    table = [[bn_index(n, bn_add(n, x, y)) for y in elems] for x in elems]
    return FiniteSemigroup([bn_label(x) for x in elems], table, n=n)
