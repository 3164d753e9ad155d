"""Canonical elements of the additive semigroup of affine maps over B_n.

Every element of the semigroup is one of four shapes: the zero-constant
map, a nonzero constant map, a singleton-support map sending one pair to
one pair, or an n-support map (p, q; sigma) sending (i, p) to (i sigma, q).
Arguments are written on the left: ``map_table(n, f)``, the one description
of what f does, holds x f at the canonical B_n index of x. Equality of
elements is field-wise; the brute-force oracles at the end work on plain
value tables instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import TypeAlias

from .brandt import BnElement, bn_add, bn_elements, bn_index, bn_table, check_n
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


def add_maps(n: int, f: AffineMapElement, g: AffineMapElement) -> AffineMapElement:
    """Pointwise sum of two maps, in canonical form.

    The semigroup is closed over the four shapes, so the sum is one of them.
    The case is looked up by the pair of operand shapes.
    """
    try:
        case = _ADD_CASES[type(f), type(g)]
    except KeyError:
        raise InvalidParameterError(f"cannot add {f!r} and {g!r}") from None
    h = case(f, g)
    # For n == 1 the single-point shape coincides with (1, 1; id); the
    # n-support form is the canonical representative.
    if n == 1 and type(h) is Singleton:
        return _N1_IDENTITY
    return h


_N1_IDENTITY = NSupport(0, 0, (0,))

# One function per shape pair; supp(f+g) is contained in supp(f) & supp(g)
# because the zero of B_n absorbs.


def _add_zero(f, g):
    return CONST_ZERO


def _add_const_const(f, g):
    a, b = f.c
    c, d = g.c
    return Const((a, d)) if b == c else CONST_ZERO


def _add_const_singleton(f, g):
    a, b = f.c
    return Singleton(g.k, g.l, a, g.q) if b == g.p else CONST_ZERO


def _add_singleton_const(f, g):
    a, b = g.c
    return Singleton(f.k, f.l, f.p, b) if f.q == a else CONST_ZERO


def _add_const_nsupport(f, g):
    a, b = f.c
    return Singleton(g.sigma.index(b), g.p, a, g.q)


def _add_nsupport_const(f, g):
    a, b = g.c
    return NSupport(f.p, b, f.sigma) if f.q == a else CONST_ZERO


def _add_singleton_singleton(f, g):
    if f.k == g.k and f.l == g.l and f.q == g.p:
        return Singleton(f.k, f.l, f.p, g.q)
    return CONST_ZERO


def _add_singleton_nsupport(f, g):
    k = f.k
    if f.l == g.p and f.q == g.sigma[k]:
        return Singleton(k, f.l, f.p, g.q)
    return CONST_ZERO


def _add_nsupport_singleton(f, g):
    k = g.k
    if g.l == f.p and f.q == g.p:
        return Singleton(k, g.l, f.sigma[k], g.q)
    return CONST_ZERO


def _add_nsupport_nsupport(f, g):
    p = f.p
    if p != g.p:
        return CONST_ZERO
    i0 = g.sigma.index(f.q)
    return Singleton(i0, p, f.sigma[i0], g.q)


_SHAPES = (ConstZero, Const, Singleton, NSupport)
_ADD_CASES = {(s, t): _add_zero for s in _SHAPES for t in _SHAPES}
_ADD_CASES.update(
    {
        (Const, Const): _add_const_const,
        (Const, Singleton): _add_const_singleton,
        (Singleton, Const): _add_singleton_const,
        (Const, NSupport): _add_const_nsupport,
        (NSupport, Const): _add_nsupport_const,
        (Singleton, Singleton): _add_singleton_singleton,
        (Singleton, NSupport): _add_singleton_nsupport,
        (NSupport, Singleton): _add_nsupport_singleton,
        (NSupport, NSupport): _add_nsupport_nsupport,
    }
)


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


# The largest n whose table is built. A+(B_6) has 27,253 elements, within
# the int16 cap, but its table alone takes 1.49 GB, and the build, m * |G|
# ``add_maps`` calls (2.3 million already at n = 5), has no budget.
_MAX_TABLE_N = 5


def check_table_n(n: int) -> None:
    """Raise InvalidParameterError unless A+(B_n)'s table can be built (n <= 5)."""
    check_n(n)
    if n > _MAX_TABLE_N:
        raise InvalidParameterError(
            f"A+(B_{n}) has {a_plus_size(n)} elements; its table is built only for "
            f"n <= {_MAX_TABLE_N} (`rank --which formulas` gives the closed-form ranks)"
        )


@lru_cache(maxsize=4)
def a_plus_semigroup(n: int) -> FiniteSemigroup:
    """The additive semigroup as a FiniteSemigroup in canonical order.

    The table is certified through each element's ``map_table`` values in
    B_n, whose own table is ``bn_table`` (see
    ``engine._check_representation``). n >= 6 is refused before anything is
    built (``check_table_n``).
    """
    check_table_n(n)
    elems = enumerate_a_plus(n)
    values = [[bn_index(n, x) for x in map_table(n, f)] for f in elems]
    return FiniteSemigroup.from_elements(
        elems,
        lambda f, g: add_maps(n, f, g),
        labels=[map_label(f) for f in elems],
        n=n,
        representation=(values, bn_table(n)),
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
    sums = bn_table(n)
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
