import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt_ranks.affine import (
    CONST_ZERO,
    Const,
    NSupport,
    Singleton,
    a_plus_size,
    add_maps,
    affine_closure_oracle,
    all_permutations,
    apply_map,
    endomorphisms_bruteforce,
    enumerate_a_plus,
    map_label,
    map_table,
    support_size,
)
from brandt_ranks.brandt import bn_add, bn_elements, bn_index
from brandt_ranks.errors import CapabilityError, InvalidParameterError

IDENT2 = (0, 1)
SWAP2 = (1, 0)


def table_sum(n, s, t):
    return tuple(bn_add(n, x, y) for x, y in zip(s, t))


def raw_sum(n, f, g):
    return table_sum(n, map_table(n, f), map_table(n, g))


# --- apply -----------------------------------------------------------------


def test_apply_nsupport():
    # (1, 2; id) sends (2, 1) to (2, 2), written 1-based
    f = NSupport(0, 1, IDENT2)
    assert apply_map(2, f, (1, 0)) == (1, 1)


def test_apply_singleton_outside_support():
    f = Singleton(0, 0, 1, 1)
    assert apply_map(2, f, (0, 1)) is None


def test_apply_const_on_zero():
    f = Const((0, 2))
    assert apply_map(3, f, None) == (0, 2)


def test_apply_validates():
    with pytest.raises(InvalidParameterError):
        apply_map(2, Const((0, 2)), (0, 0))
    with pytest.raises(InvalidParameterError):
        apply_map(2, NSupport(0, 0, (0, 0)), (0, 0))


# --- addition ----------------------------------------------------------------


def test_add_constants_chain():
    # xi_(1,2) + xi_(2,1) = xi_(1,1)
    assert add_maps(2, Const((0, 1)), Const((1, 0))) == Const((0, 0))


def test_add_constants_to_zero():
    # xi_(1,2) + xi_(1,2) = zero-constant
    assert add_maps(2, Const((0, 1)), Const((0, 1))) == CONST_ZERO


def test_add_nsupport_plus_constant():
    # (1, 1; id) + xi_(1,2) = (1, 2; id)
    f = NSupport(0, 0, IDENT2)
    out = add_maps(2, f, Const((0, 1)))
    assert out == NSupport(0, 1, IDENT2)
    assert map_table(2, out) == raw_sum(2, f, Const((0, 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_add_matches_pointwise_oracle_exhaustive(n):
    elems = enumerate_a_plus(n)
    for f in elems:
        for g in elems:
            assert map_table(n, add_maps(n, f, g)) == raw_sum(n, f, g)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 656), st.integers(0, 656))
def test_add_matches_pointwise_oracle_n4(i, j):
    elems = enumerate_a_plus(4)
    f, g = elems[i], elems[j]
    assert map_table(4, add_maps(4, f, g)) == raw_sum(4, f, g)


@pytest.mark.parametrize("bad", [None, (0, 1), "xi(0)", NSupport])
def test_add_rejects_a_non_element(bad):
    for f, g in ((bad, Const((0, 1))), (Const((0, 1)), bad), (bad, CONST_ZERO)):
        with pytest.raises(InvalidParameterError, match="cannot add"):
            add_maps(2, f, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_under_addition(n):
    elems = enumerate_a_plus(n)
    universe = set(elems)
    for f in elems:
        for g in elems:
            assert add_maps(n, f, g) in universe


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_bound_under_sums(n):
    elems = enumerate_a_plus(n)
    sizes = {f: support_size(n, f) for f in elems}
    for f in elems:
        for g in elems:
            s = support_size(n, add_maps(n, f, g))
            assert s <= sizes[f] and s <= sizes[g]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 656), st.integers(0, 656))
def test_support_bound_under_sums_n4(i, j):
    elems = enumerate_a_plus(4)
    f, g = elems[i], elems[j]
    s = support_size(4, add_maps(4, f, g))
    assert s <= support_size(4, f) and s <= support_size(4, g)


# --- support ----------------------------------------------------------------


def test_support_sizes():
    assert support_size(2, CONST_ZERO) == 0
    assert support_size(2, Singleton(1, 0, 0, 0)) == 1
    assert support_size(3, NSupport(0, 0, (0, 1, 2))) == 3
    assert support_size(2, Const((0, 0))) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_size_matches_table_scan(n):
    for f in enumerate_a_plus(n):
        assert support_size(n, f) == sum(v is not None for v in map_table(n, f))


# --- automorphisms and decomposition ---------------------------------------------


def test_phi_identity(phi_table):
    assert phi_table(2, IDENT2) == tuple(bn_elements(2))


def test_phi_swap(phi_table):
    assert phi_table(2, SWAP2)[bn_index(2, (0, 1))] == (1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_kills_zero_and_is_additive(n, phi_table):
    elems = bn_elements(n)
    for sigma in all_permutations(n):
        phi = dict(zip(elems, phi_table(n, sigma)))
        assert phi[None] is None
        for a in elems:
            for b in elems:
                assert phi[bn_add(n, a, b)] == bn_add(n, phi[a], phi[b])


def phi_plus_const(n, sigma, c, phi_table):
    """The pointwise sum phi_sigma + xi_c, as a value table."""
    return table_sum(n, phi_table(n, sigma), map_table(n, Const(c)))


def test_decompose_affine_n2(phi_table):
    f = NSupport(0, 1, IDENT2)  # (1, 2; id) = phi_id + xi_(1,2)
    assert map_table(2, f) == phi_plus_const(2, IDENT2, (0, 1), phi_table)


def test_decompose_affine_non_nsupport(phi_table):
    # every phi_sigma + xi_c is an n-support map, so no other shape decomposes
    sums = {
        phi_plus_const(2, sigma, c, phi_table)
        for sigma in all_permutations(2)
        for c in bn_elements(2)
        if c is not None
    }
    assert map_table(2, Const((0, 0))) not in sums
    assert map_table(2, CONST_ZERO) not in sums
    shapes = {type(f) for f in enumerate_a_plus(2) if map_table(2, f) in sums}
    assert shapes == {NSupport}


def test_decompose_affine_n3_cycle(phi_table):
    # (2, 3; sigma) with sigma the 3-cycle is phi_sigma + xi_(3,3), 1-based
    sigma = (1, 2, 0)
    f = NSupport(1, 2, sigma)
    assert map_table(3, f) == phi_plus_const(3, sigma, (2, 2), phi_table)


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_affine_recomposes_everywhere(n, phi_table):
    # (p, q; sigma) = phi_sigma + xi_(sigma p, q), pointwise
    for f in enumerate_a_plus(n):
        if isinstance(f, NSupport):
            c = (f.sigma[f.p], f.q)
            assert map_table(n, f) == phi_plus_const(n, f.sigma, c, phi_table)


@pytest.mark.parametrize("n", [2, 3])
def test_singleton_splits_into_constant_plus_nsupport(n):
    # every singleton map is a constant plus an n-support map
    for f in enumerate_a_plus(n):
        if not isinstance(f, Singleton):
            continue
        found = False
        for rho in all_permutations(n):
            if rho[f.k] != f.q:
                continue
            combo = add_maps(n, Const((f.p, f.q)), NSupport(f.l, f.q, rho))
            assert combo == f
            found = True
        assert found


# --- enumeration ---------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 29), (3, 145), (4, 657)])
def test_counts(n, expected):
    assert a_plus_size(n) == expected
    assert len(enumerate_a_plus(n)) == expected


def test_enumeration_order():
    elems = enumerate_a_plus(2)
    assert elems[0] == CONST_ZERO
    assert elems[1:5] == [Const((0, 0)), Const((0, 1)), Const((1, 0)), Const((1, 1))]
    assert isinstance(elems[5], Singleton)
    assert isinstance(elems[-1], NSupport)


def test_enumeration_n1_special_case():
    assert enumerate_a_plus(1) == [CONST_ZERO, Const((0, 0)), NSupport(0, 0, (0,))]


def test_enumeration_rejects_zero():
    with pytest.raises(InvalidParameterError):
        enumerate_a_plus(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_equality_iff_table_equality(n):
    elems = enumerate_a_plus(n)
    tables = [map_table(n, f) for f in elems]
    assert len(set(tables)) == len(elems)


def test_labels():
    assert map_label(CONST_ZERO) == "xi(0)"
    assert map_label(Const((0, 1))) == "xi(1,2)"
    assert map_label(Singleton(0, 1, 1, 0)) == "s(1,2->2,1)"
    assert map_label(NSupport(0, 1, SWAP2)) == "ns(1,2;[2,1])"


# --- brute-force oracles -----------------------------------------------------


def test_endomorphisms_n1():
    endos = set(endomorphisms_bruteforce(1))
    assert tuple(bn_elements(1)) in endos  # the identity map
    assert (None, None) in endos  # everything to zero


def test_endomorphisms_n2_frozen(phi_table):
    endos = set(endomorphisms_bruteforce(2))
    expected = {
        map_table(2, CONST_ZERO),
        map_table(2, Const((0, 0))),
        map_table(2, Const((1, 1))),
        phi_table(2, IDENT2),
        phi_table(2, SWAP2),
    }
    assert endos == expected


def test_endomorphism_zero_image_is_idempotent():
    # zero + zero = zero forces the image of zero to be idempotent; the
    # constant maps onto (1,1) and (2,2) show it need not be zero itself.
    for e in endomorphisms_bruteforce(2):
        z = e[0]
        assert bn_add(2, z, z) == z
    assert any(e[0] is not None for e in endomorphisms_bruteforce(2))


def test_oracles_capability_error():
    with pytest.raises(CapabilityError):
        endomorphisms_bruteforce(3)
    with pytest.raises(CapabilityError):
        affine_closure_oracle(3)


@pytest.mark.parametrize("n", [1, 2])
def test_affine_closure_oracle_matches_enumeration(n):
    assert affine_closure_oracle(n) == {map_table(n, f) for f in enumerate_a_plus(n)}


def test_affine_closure_oracle_support_profile():
    shape = {map_table(2, f): type(f).__name__ for f in enumerate_a_plus(2)}
    profile = {}
    for t in affine_closure_oracle(2):
        profile.setdefault(sum(v is not None for v in t), set()).add(shape[t])
    assert profile == {
        0: {"ConstZero"},
        1: {"Singleton"},
        2: {"NSupport"},
        5: {"Const"},
    }
