"""Canonical elements of the additive semigroup of affine maps over B_n.

Every element of the semigroup is one of four shapes: the zero-constant
map, a nonzero constant map, a singleton-support map sending one pair to
one pair, or an n-support map (p, q; sigma) sending (i, p) to (i sigma, q).
Arguments are written on the left, so ``apply_map(n, f, x)`` is x f.
Equality of elements is field-wise; the brute-force oracles at the end work
on plain value tables instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import TypeAlias

from .brandt import (
    BnElement,
    bn_add,
    bn_elements,
    bn_index,
    check_n,
    validate_element,
)
from .engine import FiniteSemigroup
from .errors import CapabilityError, InvalidParameterError

Permutation: TypeAlias = "tuple[int, ...]"


@dataclass(frozen=True, slots=True)
class ConstZero:
    """The map sending every argument to the zero of B_n."""


@dataclass(frozen=True, slots=True)
class Const:
    """The constant map onto the nonzero pair ``c``."""

    c: tuple[int, int]


@dataclass(frozen=True, slots=True)
class Singleton:
    """The map sending (k, l) to (p, q) and everything else to zero."""

    k: int
    l: int
    p: int
    q: int


@dataclass(frozen=True, slots=True)
class NSupport:
    """The map (p, q; sigma): (i, p) goes to (sigma[i], q), all else to zero."""

    p: int
    q: int
    sigma: Permutation


AffineMapElement: TypeAlias = "ConstZero | Const | Singleton | NSupport"

CONST_ZERO = ConstZero()


def all_permutations(n: int) -> list[Permutation]:
    """Permutations of range(n) in lexicographic order of image sequences."""
    return list(itertools.permutations(range(n)))


def perm_inverse(sigma: Permutation) -> Permutation:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def validate_map(n: int, f: AffineMapElement) -> None:
    check_n(n)
    if isinstance(f, ConstZero):
        return
    if isinstance(f, Const):
        if f.c is None:
            raise InvalidParameterError("constant map onto zero must be ConstZero")
        validate_element(n, f.c)
        return
    if isinstance(f, Singleton):
        validate_element(n, (f.k, f.l))
        validate_element(n, (f.p, f.q))
        return
    if isinstance(f, NSupport):
        validate_element(n, (f.p, f.q))
        if sorted(f.sigma) != list(range(n)):
            raise InvalidParameterError(f"{f.sigma!r} is not a permutation of range({n})")
        return
    raise InvalidParameterError(f"not an affine map element: {f!r}")


def apply_map(n: int, f: AffineMapElement, x: BnElement) -> BnElement:
    """The value x f."""
    validate_map(n, f)
    validate_element(n, x)
    if isinstance(f, ConstZero):
        return None
    if isinstance(f, Const):
        return f.c
    if isinstance(f, Singleton):
        return (f.p, f.q) if x == (f.k, f.l) else None
    if x is not None and x[1] == f.p:
        return (f.sigma[x[0]], f.q)
    return None


def map_table(n: int, f: AffineMapElement) -> tuple[BnElement, ...]:
    """The full value table of ``f`` in canonical B_n order."""
    if isinstance(f, ConstZero):
        return (None,) * (n * n + 1)
    if isinstance(f, Const):
        return (f.c,) * (n * n + 1)
    table: list[BnElement] = [None] * (n * n + 1)
    if isinstance(f, Singleton):
        table[bn_index(n, (f.k, f.l))] = (f.p, f.q)
    else:
        for i in range(n):
            table[bn_index(n, (i, f.p))] = (f.sigma[i], f.q)
    return tuple(table)


def support(n: int, f: AffineMapElement) -> set[BnElement]:
    """Arguments mapped to something other than zero."""
    if isinstance(f, ConstZero):
        return set()
    if isinstance(f, Const):
        return set(bn_elements(n))
    if isinstance(f, Singleton):
        return {(f.k, f.l)}
    return {(i, f.p) for i in range(n)}


def support_size(n: int, f: AffineMapElement) -> int:
    """|supp(f)|: 0, n*n+1, 1 or n by shape."""
    if isinstance(f, ConstZero):
        return 0
    if isinstance(f, Const):
        return n * n + 1
    if isinstance(f, Singleton):
        return 1
    return n


def _canonical_fixup(n: int, f: AffineMapElement) -> AffineMapElement:
    # For n == 1 the single-point shape coincides with (1, 1; id); the
    # n-support form is the canonical representative.
    if n == 1 and isinstance(f, Singleton):
        return NSupport(0, 0, (0,))
    return f


def add_maps(n: int, f: AffineMapElement, g: AffineMapElement) -> AffineMapElement:
    """Pointwise sum of two maps, in canonical form.

    The semigroup is closed over the four shapes, so the sum is one of them.
    """
    return _canonical_fixup(n, _add_canonical(f, g))


def _add_canonical(f: AffineMapElement, g: AffineMapElement) -> AffineMapElement:
    # Case analysis on shapes; supp(f+g) is contained in supp(f) & supp(g)
    # because the zero of B_n absorbs.
    match f, g:
        case (ConstZero(), _) | (_, ConstZero()):
            return CONST_ZERO
        case Const((a, b)), Const((c, d)):
            return Const((a, d)) if b == c else CONST_ZERO
        case Const((a, b)), Singleton(k, l, p, q):
            return Singleton(k, l, a, q) if b == p else CONST_ZERO
        case Singleton(k, l, p, q), Const((a, b)):
            return Singleton(k, l, p, b) if q == a else CONST_ZERO
        case Const((a, b)), NSupport(p, q, sigma):
            return Singleton(perm_inverse(sigma)[b], p, a, q)
        case NSupport(p, q, sigma), Const((a, b)):
            return NSupport(p, b, sigma) if q == a else CONST_ZERO
        case Singleton(k, l, p, q), Singleton(k2, l2, p2, q2):
            if k == k2 and l == l2 and q == p2:
                return Singleton(k, l, p, q2)
            return CONST_ZERO
        case Singleton(k, l, p, q), NSupport(a, b, sigma):
            return Singleton(k, l, p, b) if l == a and q == sigma[k] else CONST_ZERO
        case NSupport(a, b, sigma), Singleton(k, l, p, q):
            return Singleton(k, l, sigma[k], q) if l == a and b == p else CONST_ZERO
        case NSupport(p, q, sigma), NSupport(p2, q2, tau):
            if p != p2:
                return CONST_ZERO
            i0 = perm_inverse(tau)[q]
            return Singleton(i0, p, sigma[i0], q2)
    raise InvalidParameterError(f"cannot add {f!r} and {g!r}")


def a_plus_size(n: int) -> int:
    """Element count of the semigroup: 3 for n=1, else (n!+1)n^2 + n^4 + 1."""
    check_n(n)
    if n == 1:
        return 3
    return (factorial(n) + 1) * n * n + n**4 + 1


def enumerate_a_plus(n: int) -> list[AffineMapElement]:
    """All canonical elements, in the fixed documented order.

    Constants first (zero-constant, then nonzero constants in row-major
    order), then singleton maps lexicographically by (k, l, p, q), then
    n-support maps lexicographically by (p, q, sigma). n = 1 is the special
    three-element case.
    """
    check_n(n)
    if n == 1:
        return [CONST_ZERO, Const((0, 0)), NSupport(0, 0, (0,))]
    elems: list[AffineMapElement] = [CONST_ZERO]
    rng = range(n)
    elems.extend(Const((p, q)) for p in rng for q in rng)
    elems.extend(
        Singleton(k, l, p, q) for k in rng for l in rng for p in rng for q in rng
    )
    perms = all_permutations(n)
    elems.extend(NSupport(p, q, s) for p in rng for q in rng for s in perms)
    assert len(elems) == a_plus_size(n)
    return elems


def map_label(f: AffineMapElement) -> str:
    """Label grammar: xi(0), xi(p,q), s(k,l->p,q), ns(p,q;[a1,...,an])."""
    if isinstance(f, ConstZero):
        return "xi(0)"
    if isinstance(f, Const):
        return f"xi({f.c[0] + 1},{f.c[1] + 1})"
    if isinstance(f, Singleton):
        return f"s({f.k + 1},{f.l + 1}->{f.p + 1},{f.q + 1})"
    images = ",".join(str(i + 1) for i in f.sigma)
    return f"ns({f.p + 1},{f.q + 1};[{images}])"


@lru_cache(maxsize=4)
def a_plus_semigroup(n: int) -> FiniteSemigroup:
    """The additive semigroup as a FiniteSemigroup in canonical order."""
    elems = enumerate_a_plus(n)
    return FiniteSemigroup.from_elements(
        elems,
        lambda f, g: add_maps(n, f, g),
        labels=[map_label(f) for f in elems],
        n=n,
    )


# --- brute-force oracles -----------------------------------------------------

_ORACLE_MAX_N = 2


def endomorphisms_bruteforce(n: int) -> list[tuple[BnElement, ...]]:
    """Value tables of all additive endomorphisms of B_n, by scanning every self-map.

    The search space is (n^2+1)^(n^2+1), so this is capped at n <= 2.
    """
    check_n(n)
    if n > _ORACLE_MAX_N:
        raise CapabilityError(
            f"endomorphism scan needs {(n * n + 1) ** (n * n + 1)} candidates; capped at n <= {_ORACLE_MAX_N}"
        )
    elems = bn_elements(n)
    m = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    sums = [[index[bn_add(n, a, b)] for b in elems] for a in elems]
    out = []
    for images in itertools.product(range(m), repeat=m):
        ok = True
        for i in range(m):
            row = sums[i]
            img_i = images[i]
            for j in range(m):
                if images[row[j]] != sums[img_i][images[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(elems[k] for k in images))
    return out


def affine_closure_oracle(n: int) -> set[tuple[BnElement, ...]]:
    """Independent reconstruction of the semigroup from first principles.

    Forms every endomorphism-plus-constant sum, then closes the resulting
    set of value tables under pointwise addition. The closure works on full
    tables throughout and never assumes the four-shape classification.
    """
    check_n(n)
    if n > _ORACLE_MAX_N:
        raise CapabilityError(f"affine closure oracle is capped at n <= {_ORACLE_MAX_N}")
    elems = bn_elements(n)
    constants = [tuple([c] * len(elems)) for c in elems]
    endos = endomorphisms_bruteforce(n)
    aff = {
        tuple(bn_add(n, x, y) for x, y in zip(g, h)) for g in endos for h in constants
    }
    worklist = list(aff)
    members = set(aff)
    while worklist:
        t = worklist.pop()
        for u in list(members):
            for a, b in ((t, u), (u, t)):
                s = tuple(bn_add(n, x, y) for x, y in zip(a, b))
                if s not in members:
                    members.add(s)
                    worklist.append(s)
    return members
