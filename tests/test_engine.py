import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brandt_ranks import engine
from brandt_ranks.affine import (
    Const,
    ConstZero,
    NSupport,
    a_plus_semigroup,
    add_maps,
    enumerate_a_plus,
    map_label,
)
from brandt_ranks.brandt import bn_add, bn_elements, brandt_semigroup
from brandt_ranks.engine import (
    FiniteSemigroup,
    IndexSet,
    closure,
    closure_bits,
    export_table,
    extend_closure,
    greens_classes,
    import_table,
    indecomposables,
    is_band,
    is_generating,
    is_independent,
    is_prime_subset,
)
from brandt_ranks.errors import (
    ClosureViolationError,
    InvalidParameterError,
    TableParseError,
    TableValidationError,
)
from brandt_ranks.ranks import construct_witness

ONE = FiniteSemigroup(["e"], [[0]])


# --- IndexSet -----------------------------------------------------------------


def test_indexset_basics():
    s = IndexSet(10, [3, 1, 7])
    assert list(s) == [1, 3, 7]
    assert len(s) == 3
    assert 3 in s and 4 not in s
    s.add(4)
    assert 4 in s
    with pytest.raises(InvalidParameterError):
        s.add(10)


def test_indexset_union():
    a = IndexSet(6, [0, 2])
    b = IndexSet(6, [2, 5])
    assert list(a | b) == [0, 2, 5]
    with pytest.raises(InvalidParameterError):
        a.union(IndexSet(7, [1]))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 28)), st.sets(st.integers(0, 28)))
def test_indexset_matches_set_semantics(xs, ys):
    a, b = IndexSet(29, xs), IndexSet(29, ys)
    assert set(a | b) == xs | ys
    assert len(a) == len(xs)
    assert all(x in a for x in xs)


# --- construction --------------------------------------------------------------


def test_from_elements_b2(b2):
    assert b2.m == 5
    assert b2.table.shape == (5, 5)


def test_a_plus_semigroup_element_counts(ab2, ab3):
    assert ab2.m == 29
    assert ab3.m == 145


def _per_pair_rows(elements, add_fn):
    """Reference loop: one ``add_fn`` call per pair, rows[a][b] = a + b."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[add_fn(a, b)] for b in elements] for a in elements]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_plus_table_equals_the_per_pair_table(n):
    rows = _per_pair_rows(enumerate_a_plus(n), functools.partial(add_maps, n))
    assert a_plus_semigroup(n).rows == rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brandt_table_equals_the_per_pair_table(n):
    rows = _per_pair_rows(bn_elements(n), functools.partial(bn_add, n))
    assert brandt_semigroup(n).rows == rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_table_equals_the_per_pair_table(n):
    consts = [e for e in enumerate_a_plus(n) if isinstance(e, (ConstZero, Const))]
    add = functools.partial(add_maps, n)
    assert FiniteSemigroup.from_elements(consts, add).rows == _per_pair_rows(consts, add)


def _closure_greedy_generators(sg):
    """Each element, in index order, that the earlier picks do not generate."""
    bits, gens = 0, []
    for g in range(sg.m):
        if not bits >> g & 1:
            gens.append(g)
            bits = extend_closure(sg.sums, bits, g)
    return gens


@pytest.mark.parametrize("n, calls", [(1, 9), (2, 348), (3, 4_785), (4, 78_840)])
def test_from_elements_calls_add_fn_only_for_generator_columns(n, calls):
    elems = enumerate_a_plus(n)
    index = {e: i for i, e in enumerate(elems)}
    right = []

    def add(f, g):
        right.append(index[g])
        return add_maps(n, f, g)

    sg = FiniteSemigroup.from_elements(elems, add, [map_label(f) for f in elems], n=n)
    gens = sorted(set(right))
    assert len(right) == calls == sg.m * len(gens)  # |G| = 3, 12, 33, 120
    assert sg == a_plus_semigroup(n)
    # G is the greedy generating set, each element that the earlier ones do
    # not generate; Light's test walks the rows to the same G
    assert gens == _closure_greedy_generators(sg) == engine._generating_set(sg.rows)


def test_from_elements_names_both_labels_of_a_sum_outside_the_list():
    nsupport = [f for f in enumerate_a_plus(2) if isinstance(f, NSupport)]
    labels = [map_label(f) for f in nsupport]
    with pytest.raises(ClosureViolationError) as err:
        FiniteSemigroup.from_elements(nsupport, functools.partial(add_maps, 2), labels)
    left, right = err.value.left_label, err.value.right_label
    assert (left, right) == ("ns(1,1;[1,2])", "ns(1,1;[1,2])")
    assert f"sum of {left!r} and {right!r}" in str(err.value)
    total = add_maps(2, nsupport[labels.index(left)], nsupport[labels.index(right)])
    assert total not in nsupport


def test_from_elements_closure_violation():
    with pytest.raises(ClosureViolationError) as err:
        FiniteSemigroup.from_elements([1, 2], lambda a, b: a + b, labels=["one", "two"])
    assert "one" in str(err.value) and "two" in str(err.value)


def test_from_elements_duplicates():
    with pytest.raises(InvalidParameterError):
        FiniteSemigroup.from_elements([1, 1], lambda a, b: 1)


def test_non_associative_table_rejected():
    with pytest.raises(TableValidationError) as err:
        FiniteSemigroup(["a", "b"], [[1, 1], [0, 0]])
    assert "associativity" in str(err.value)


def test_table_entry_range_checked():
    with pytest.raises(TableValidationError):
        FiniteSemigroup(["a", "b"], [[0, 1], [1, 2]])


def test_sampled_associativity_path():
    # left-zero semigroup a + b = a, larger than the 256 elements up to which
    # the table used to be checked in full; here every element is a generator
    m = 300
    table = [[a] * m for a in range(m)]
    sg = FiniteSemigroup([f"x{i}" for i in range(m)], table)
    assert sg.m == m
    table[5][7] = 9  # break associativity off the diagonal structure
    with pytest.raises(TableValidationError):
        FiniteSemigroup([f"x{i}" for i in range(m)], table)


def _one_bad_triple_table(m, a, b, c, d, e, z):
    """a + b = d, d + c = e, every other sum z; with d, e, z distinct and not
    among a, b, c, the triple (a, b, c) is the only one that breaks
    associativity: (a + b) + c = e but a + (b + c) = z."""
    table = [[z] * m for _ in range(m)]
    table[a][b] = d
    table[d][c] = e
    return table


def _violations(table):
    """Every triple (x, y, w) with (x + y) + w != x + (y + w), by brute force."""
    t = np.asarray(table)
    out = []
    for x in range(len(t)):
        bad = t[t[x]] != t[x][t]  # [y, w]: (x + y) + w against x + (y + w)
        out.extend((x, int(y), int(w)) for y, w in np.argwhere(bad))
    return out


def test_single_bad_triple_rejected_above_256():
    m, (a, b, c, d, e, z) = 300, (17, 123, 250, 40, 299, 0)
    table = _one_bad_triple_table(m, a, b, c, d, e, z)
    assert _violations(table) == [(a, b, c)]
    with pytest.raises(TableValidationError) as err:
        FiniteSemigroup([f"x{i}" for i in range(m)], table)
    assert f"associativity fails at (x{a}, x{b}, x{c})" in str(err.value)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_single_bad_triple_rejected_large_random(data):
    m = data.draw(st.integers(257, 320))
    a, b, c = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    d, e, z = data.draw(
        st.lists(st.integers(0, m - 1).filter(lambda v: v not in (a, b, c)),
                 min_size=3, max_size=3, unique=True)
    )
    table = _one_bad_triple_table(m, a, b, c, d, e, z)
    with pytest.raises(TableValidationError) as err:
        FiniteSemigroup([f"x{i}" for i in range(m)], table)
    assert f"associativity fails at (x{a}, x{b}, x{c})" in str(err.value)


SEMIGROUP_KINDS = ("left", "right", "const", "max", "cyclic")


@st.composite
def small_tables(draw, kinds=("random",) + SEMIGROUP_KINDS):
    """Tables of m <= 12 elements: a random one, or a semigroup (left zero,
    right zero, constant, max semilattice, cyclic group) with up to two
    entries overwritten. ``kinds`` narrows the choice; most random tables
    are not associative."""
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(kinds))
    entry = st.integers(0, m - 1)
    if kind == "random":
        return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    base = {
        "left": lambda x, y: x,
        "right": lambda x, y: y,
        "const": lambda x, y: 0,
        "max": max,
        "cyclic": lambda x, y: (x + y) % m,
    }[kind]
    table = [[base(x, y) for y in range(m)] for x in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        table[draw(entry)][draw(entry)] = draw(entry)
    return table


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_light_test_matches_exhaustive_check(table):
    expected = _violations(table)
    rows = [list(r) for r in table]
    found = engine._associativity_failure(np.asarray(table, dtype=np.int32), rows)
    if expected:
        assert found in expected
        with pytest.raises(TableValidationError):
            FiniteSemigroup([f"x{i}" for i in range(len(table))], table)
    else:
        assert found is None
        FiniteSemigroup([f"x{i}" for i in range(len(table))], table)


# --- closure and generation -------------------------------------------------------


def test_closure_of_single_constant(ab2):
    got = closure(ab2, [ab2.index_of("xi(1,2)")])
    assert sorted(got) == [0, ab2.index_of("xi(1,2)")]


def test_closure_of_s_union_t_is_everything(ab2):
    w = construct_witness(2, "S") | construct_witness(2, "T")
    assert len(closure(ab2, w)) == 29
    assert is_generating(ab2, w)


def test_closure_of_empty_is_empty(ab2):
    assert len(closure(ab2, [])) == 0


def test_s_alone_generates_only_constants(ab2):
    got = closure(ab2, construct_witness(2, "S"))
    assert sorted(got) == [0, 1, 2, 3, 4]
    assert not is_generating(ab2, got)


def test_full_set_generates(b2):
    assert is_generating(b2, range(b2.m))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 28)), st.sets(st.integers(0, 28)))
def test_closure_monotone(ab2, xs, ys):
    u = IndexSet(29, xs)
    w = IndexSet(29, xs | ys)
    cu = closure(ab2, u)
    cw = closure(ab2, w)
    assert cu.bits & cw.bits == cu.bits


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 28), min_size=1))
def test_closure_is_idempotent_and_contains_seed(ab2, xs):
    c = closure(ab2, IndexSet(29, xs))
    assert xs <= set(c)
    assert closure(ab2, c) == c


def _check_sums(sg):
    """``sg.sums`` reproduces the table: each (a, b) lies in exactly one
    fiber of row a and one of column b, the one of a + b, and each value
    mask is its line's set of values."""
    sums, rows, m = sg.sums, sg.rows, sg.m
    assert sums.rows is rows
    for a in range(m):
        row, col = rows[a], [rows[b][a] for b in range(m)]
        for line, values, fibers in (
            (row, sums.row_values[a], sums.row_fibers[a]),
            (col, sums.col_values[a], sums.col_fibers[a]),
        ):
            assert values == sum(1 << c for c in set(line))
            got = [None] * m
            for c, fiber in fibers.items():
                for b in engine.iter_bits(fiber):
                    assert got[b] is None
                    got[b] = c
            assert got == line


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sums_reproduce_the_a_plus_table(n):
    _check_sums(a_plus_semigroup(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sums_reproduce_the_brandt_table(n):
    _check_sums(brandt_semigroup(n))


@settings(max_examples=100, deadline=None)
@given(small_tables(SEMIGROUP_KINDS).map(lambda t: semigroup_or_none(t)))
def test_sums_reproduce_small_tables(sg):
    assume(sg is not None)
    _check_sums(sg)


def _extend_closure_oracle(rows, bits, elems, x):
    """The per-member loop: both products of each popped element with every member."""
    if bits >> x & 1:
        return bits
    bits |= 1 << x
    elems.append(x)
    stack = [x]
    while stack:
        a = stack.pop()
        for b in elems:
            for c in (rows[a][b], rows[b][a]):
                if not bits >> c & 1:
                    bits |= 1 << c
                    elems.append(c)
                    stack.append(c)
    return bits


def _oracle_closure(sg, seed):
    bits, elems = 0, []
    for x in seed:
        bits = _extend_closure_oracle(sg.rows, bits, elems, x)
    return bits


def _check_extend(sg, bits, x):
    """Extend the closed set ``bits`` by x with the kernel, check it, and
    return the result."""
    got = extend_closure(sg.sums, bits, x)
    assert got == _extend_closure_oracle(sg.rows, bits, list(engine.iter_bits(bits)), x)
    return got


@pytest.mark.parametrize("n, kinds", [(2, ("S", "I")), (3, ("S", "T"))])
def test_extend_closure_matches_oracle_on_both_sides_of_the_scan_threshold(n, kinds, request):
    # the kernel scans the members where a line of the table holds more
    # values than the set has members, and reads the fibers elsewhere: the
    # closure of S is shorter than the longest lines, that of I or T longer
    # than the average line
    sg = request.getfixturevalue(f"ab{n}")
    starts = [_oracle_closure(sg, construct_witness(n, kind)) for kind in kinds]
    sizes = [bits.bit_count() for bits in starts]
    lines = [v.bit_count() for v in sg.sums.row_values + sg.sums.col_values]
    assert min(sizes) < max(lines) and sum(lines) / len(lines) < max(sizes) < sg.m
    for bits in starts:
        for x in range(sg.m):
            _check_extend(sg, bits, x)


def _extensions(n, m, max_seed):
    """A seed, then extension steps (element, whether to roll the step back).

    Random elements mostly generate small closed sets; seeds drawn from the
    independent witness I also reach large ones.
    """
    seed = st.one_of(
        st.lists(st.integers(0, m - 1), max_size=3),
        st.lists(st.sampled_from(sorted(construct_witness(n, "I"))), max_size=max_seed),
    )
    return st.tuples(
        seed,
        st.lists(st.tuples(st.integers(0, m - 1), st.booleans()), min_size=1, max_size=6),
    )


def _run_extensions(sg, seed, steps):
    bits = 0
    for x in seed:
        bits = _check_extend(sg, bits, x)
    for x, roll_back in steps:
        before = bits
        bits = _check_extend(sg, bits, x)
        if roll_back:
            bits = before


@settings(max_examples=100, deadline=None)
@given(_extensions(2, 29, 10))
def test_extend_closure_matches_oracle_b2(ab2, case):
    _run_extensions(ab2, *case)


@settings(max_examples=40, deadline=None)
@given(_extensions(3, 145, 30))
def test_extend_closure_matches_oracle_b3(ab3, case):
    _run_extensions(ab3, *case)


@settings(max_examples=10, deadline=None)
@given(_extensions(4, 657, 30))
def test_extend_closure_matches_oracle_on_sampled_b4_subsets(ab4, case):
    _run_extensions(ab4, *case)


def test_greens_l_classes_are_the_r_classes_of_the_opposite_semigroup(ab2, ab3):
    for sg in (ab2, ab3):
        opposite = FiniteSemigroup(sg.labels, sg.table.T)
        assert greens_classes(sg, "L") == greens_classes(opposite, "R")


# --- independence ---------------------------------------------------------------


def test_p_witness_independent(ab2):
    assert is_independent(ab2, construct_witness(2, "P2"))


def test_dependent_pair(ab2):
    # the zero-constant is the double of xi_(1,2)
    assert not is_independent(ab2, [0, ab2.index_of("xi(1,2)")])


def test_singletons_always_independent(ab2, ab3):
    for sg in (ab2, ab3):
        for i in range(sg.m):
            assert is_independent(sg, [i])


def test_independent_rejects_empty(ab2):
    with pytest.raises(InvalidParameterError):
        is_independent(ab2, [])
    with pytest.raises(InvalidParameterError):
        is_independent(ab2, IndexSet(ab2.m))


def _independent_oracle(sg, subset):
    """The per-member definition: one full closure of the others per member."""
    bits = engine._coerce_bits(sg, subset)
    return all(
        not closure_bits(sg.sums, bits & ~(1 << a)) >> a & 1
        for a in engine.iter_bits(bits)
    )


def _witness_plus_extras(n, m):
    """Subsets of the independent witness I plus a few arbitrary elements.

    Random subsets of A+(B_n) are nearly always dependent; starting from I
    gives the kernel independent sets to accept as well.
    """
    witness = sorted(construct_witness(n, "I"))
    return st.tuples(
        st.lists(st.sampled_from(witness), min_size=1, unique=True),
        st.sets(st.integers(0, m - 1), max_size=2),
    ).map(lambda t: set(t[0]) | t[1])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sets(st.integers(0, 28), min_size=1), _witness_plus_extras(2, 29)))
def test_independence_matches_per_member_oracle_b2(ab2, xs):
    assert is_independent(ab2, xs) == _independent_oracle(ab2, xs)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.sets(st.integers(0, 144), min_size=1, max_size=40), _witness_plus_extras(3, 145)
    )
)
def test_independence_matches_per_member_oracle_b3(ab3, xs):
    assert is_independent(ab3, xs) == _independent_oracle(ab3, xs)


def _single_product_semigroup(m, a, b, d, z):
    """a + b = d and every other sum is z: all triple sums are z, so associative.

    Among the members [0, m) minus z, d is the only dependent one, and only
    a and b together generate it.
    """
    table = [[z] * m for _ in range(m)]
    table[a][b] = d
    return FiniteSemigroup([f"x{i}" for i in range(m)], table)


@pytest.mark.parametrize(
    "a, b, d, z",
    [
        (3, 7, 0, 8),  # d first; a and b in different halves
        (1, 6, 7, 8),  # d last
        (1, 2, 4, 8),  # d alone in a half: [0,1,2,3 | 4,5,6,7] -> [4,5] -> [4]
        (0, 1, 2, 8),  # a, b and d all in the first half
        (7, 0, 3, 8),  # a after b, d in the middle
        (2, 5, 1, 0),  # z first, so the members start at 1
    ],
)
def test_independence_single_dependent_member(a, b, d, z):
    m = 9
    sg = _single_product_semigroup(m, a, b, d, z)
    members = [i for i in range(m) if i != z]
    assert not is_independent(sg, members)
    assert not _independent_oracle(sg, members)
    rest = [i for i in members if i != d]
    assert is_independent(sg, rest) and _independent_oracle(sg, rest)
    # without a or without b, d is no longer generated
    for drop in (a, b):
        others = [i for i in members if i != drop]
        assert is_independent(sg, others) and _independent_oracle(sg, others)


def test_independence_only_dependent_member_at_each_position():
    # zero-sum semigroup: x + y = z for all x, y, so z is the only dependent
    # member of any set holding z and one other element, wherever z sorts
    m = 8
    for z in range(m):
        sg = FiniteSemigroup([f"x{i}" for i in range(m)], [[z] * m for _ in range(m)])
        for size in range(2, m + 1):
            for members in itertools.combinations(range(m), size):
                if z not in members:
                    continue
                assert not is_independent(sg, members)
                rest = [i for i in members if i != z]
                assert is_independent(sg, rest)


def _independence_table(sg, max_size):
    """Memoized independence of every subset of size <= max_size."""
    sums = sg.sums
    m = sg.m
    closure_memo = {0: 0}
    for size in range(1, max_size):
        for combo in itertools.combinations(range(m), size):
            bits = 0
            for i in combo:
                bits |= 1 << i
            closure_memo[bits] = closure_bits(sums, bits)
    ind = {}
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(m), size):
            bits = 0
            for i in combo:
                bits |= 1 << i
            ind[bits] = all(
                not closure_memo[bits & ~(1 << a)] >> a & 1 for a in combo
            )
    return ind


def test_hereditary_independence_exhaustive_to_size_4(ab2):
    ind = _independence_table(ab2, 4)
    for bits, independent in ind.items():
        if not independent or bits.bit_count() < 2:
            continue
        for a in engine.iter_bits(bits):
            assert ind[bits & ~(1 << a)], "subset of an independent set must be independent"


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 28), min_size=5, max_size=9), st.randoms())
def test_hereditary_independence_randomized(ab2, xs, rng):
    u = IndexSet(29, xs)
    if not is_independent(ab2, u):
        return
    drop = rng.choice(sorted(xs))
    v = IndexSet(29, xs - {drop})
    assert is_independent(ab2, v)


# --- principal ideals ----------------------------------------------------------


def _ideal_reference(sg, x):
    """S¹xS¹ = {x} ∪ {a + x} ∪ {x + b} ∪ {a + x + b}, read off the table."""
    t = sg.table
    return {x} | set(t[:, x].tolist()) | set(t[x].tolist()) | set(t[t[:, x]].ravel().tolist())


def _semigroup(m, op):
    return FiniteSemigroup([f"x{i}" for i in range(m)], [[op(a, b) for b in range(m)] for a in range(m)])


CYCLIC_7 = _semigroup(7, lambda a, b: (a + b) % 7)
LEFT_ZERO_6 = _semigroup(6, lambda a, b: a)
MAX_CHAIN_6 = _semigroup(6, max)


@pytest.mark.parametrize("name", ["ab1", "ab2", "ab3", "b3"])
def test_ideals_match_the_table(name, request):
    sg = request.getfixturevalue(name)
    for x in range(sg.m):
        assert set(engine.iter_bits(sg.ideals[x])) == _ideal_reference(sg, x)


def test_ideals_of_small_semigroups():
    # a group and a left-zero band: every ideal is everything, so the ideal
    # filter skips no member; a chain under max: the ideal of x is [x, m)
    for sg in (CYCLIC_7, LEFT_ZERO_6):
        assert sg.ideals == [(1 << sg.m) - 1] * sg.m
    assert MAX_CHAIN_6.ideals == [((1 << 6) - 1) & ~((1 << x) - 1) for x in range(6)]


def test_ideals_are_built_on_first_use():
    sg = _semigroup(4, max)
    assert "ideals" not in vars(sg)
    assert sg.ideals is sg.ideals


@pytest.mark.parametrize(
    "sg", [CYCLIC_7, LEFT_ZERO_6, MAX_CHAIN_6], ids=["cyclic-7", "left-zero-6", "max-chain-6"]
)
def test_independence_matches_oracle_on_every_subset(sg):
    for bits in range(1, 1 << sg.m):
        members = list(engine.iter_bits(bits))
        assert is_independent(sg, members) == _independent_oracle(sg, members)


# --- Green's relations ------------------------------------------------------------


def test_nsupport_r_class_counts(ab2, ab3):
    for sg, n, expected in ((ab2, 2, 4), (ab3, 3, 18)):
        elems = enumerate_a_plus(n)
        classes = greens_classes(sg, "R")
        nsup = [c for c in classes if any(isinstance(elems[i], NSupport) for i in c)]
        assert len(nsup) == expected


def test_zero_alone_in_its_r_class(b2, b3):
    for sg in (b2, b3):
        classes = greens_classes(sg, "R")
        assert [0] in classes


def test_greens_partitions(b2):
    for side in ("R", "L"):
        classes = greens_classes(b2, side)
        flat = sorted(i for c in classes for i in c)
        assert flat == list(range(b2.m))


def test_greens_rejects_bad_side(b2):
    with pytest.raises(InvalidParameterError):
        greens_classes(b2, "H")


# --- predicates ---------------------------------------------------------------


def test_is_band(ab2, b2):
    assert not is_band(ab2)  # xi_(1,2) is not idempotent
    assert not is_band(b2)  # (1,2)+(1,2) = zero
    assert is_band(ONE)


def test_indecomposables(ab2, ab3):
    ind2 = indecomposables(ab2)
    assert ab2.index_of("xi(1,2)") in ind2
    assert len(indecomposables(ab3)) == 0
    assert list(indecomposables(ONE)) == [0]


def _indecomposables_oracle(sg):
    """The definition read pair by pair: c is decomposable iff some a + b = c
    with a != c and b != c."""
    decomposable = set()
    for a, row in enumerate(sg.rows):
        for b, c in enumerate(row):
            if c != a and c != b:
                decomposable.add(c)
    return [c for c in range(sg.m) if c not in decomposable]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_indecomposables_match_the_pair_oracle(ab2, data):
    sg = data.draw(
        st.just(ab2)
        | small_tables(SEMIGROUP_KINDS).map(semigroup_or_none).filter(lambda sg: sg is not None)
    )
    assert list(indecomposables(sg)) == _indecomposables_oracle(sg)


def test_prime_subsets(ab2, ab3):
    assert is_prime_subset(ab3, construct_witness(3, "V"))
    assert is_prime_subset(ab2, [ab2.index_of("xi(1,2)")])
    # zero-constant alone is not prime: xi_(1,2) + xi_(1,2) lands in it
    assert not is_prime_subset(ab2, [0])
    with pytest.raises(InvalidParameterError):
        is_prime_subset(ab2, [])


def test_prime_subset_complement_is_subsemigroup(ab3):
    v = construct_witness(3, "V")
    comp = [i for i in range(ab3.m) if i not in v]
    assert closure(ab3, comp) == IndexSet(ab3.m, comp)


def _is_prime_subset_oracle(sg, bits):
    """The definition read pair by pair: no two non-members add up to a member."""
    for a, row in enumerate(sg.rows):
        if bits >> a & 1:
            continue
        for b, c in enumerate(row):
            if not bits >> b & 1 and bits >> c & 1:
                return False
    return True


def semigroup_or_none(table):
    """The table as a FiniteSemigroup, or None if it is not associative."""
    try:
        return FiniteSemigroup([f"x{i}" for i in range(len(table))], table)
    except TableValidationError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prime_subset_matches_the_pair_oracle(ab2, data):
    sg = data.draw(
        st.just(ab2)
        | small_tables(SEMIGROUP_KINDS).map(semigroup_or_none).filter(lambda sg: sg is not None)
    )
    full = (1 << sg.m) - 1
    seed = data.draw(st.integers(0, full))
    # random subsets are rarely prime; complements of subsemigroups always are
    bits = data.draw(st.sampled_from([full, seed, full & ~closure_bits(sg.sums, seed)]))
    assume(bits)
    assert is_prime_subset(sg, IndexSet.from_bits(sg.m, bits)) == _is_prime_subset_oracle(sg, bits)


# --- IO -----------------------------------------------------------------------


def test_json_round_trip(ab2):
    text = export_table(ab2, "json")
    sg = import_table(text)
    assert sg == ab2
    assert export_table(sg, "json") == text


def test_csv_round_trip(b2):
    text = export_table(b2, "csv")
    sg = import_table(text)
    assert sg.labels == b2.labels
    assert (sg.table == b2.table).all()
    assert export_table(sg, "csv") == text


def test_csv_quotes_comma_labels(ab2):
    text = export_table(ab2, "csv")
    sg = import_table(text.encode("utf-8"))
    assert sg.labels == ab2.labels


def test_exported_zero_row(ab2):
    sg = import_table(export_table(ab2, "json"))
    assert all(v == 0 for v in sg.rows[0])


def test_import_rejects_non_associative():
    with pytest.raises(TableValidationError):
        import_table('{"n": null, "labels": ["a", "b"], "table": [[1, 1], [0, 0]]}')


def test_import_parse_errors_carry_location():
    with pytest.raises(TableParseError) as err:
        import_table('{"labels": ["a"], "table": [[0]')
    assert "line" in str(err.value)
    with pytest.raises(TableParseError) as err:
        import_table("a,b\n0,1\n")
    assert "row" in str(err.value) or "line" in str(err.value) or "expected" in str(err.value)
    with pytest.raises(TableParseError):
        import_table("a,b\n0,x\n0,0\n")


def test_import_rejects_bad_schema():
    with pytest.raises(TableParseError):
        import_table('{"labels": ["a"]}')
    with pytest.raises(TableParseError):
        import_table('{"n": 0, "labels": ["a"], "table": [[0]]}')


def test_import_rejects_bool_n():
    with pytest.raises(TableParseError):
        import_table('{"n": true, "labels": ["a"], "table": [[0]]}')


BIG = 2**32  # wraps to 0 when narrowed to int32


def test_import_json_rejects_entries_past_int32():
    with pytest.raises(TableValidationError):
        import_table(
            f'{{"n": null, "labels": ["a", "b"], "table": [[{BIG}, {BIG}], [{BIG}, {BIG + 1}]]}}'
        )


def test_import_csv_rejects_entries_past_int32():
    with pytest.raises(TableValidationError):
        import_table(f"a,b\n{BIG},{BIG}\n{BIG},{BIG + 1}\n")


def test_import_rejects_bytes_that_are_not_utf8():
    with pytest.raises(TableParseError):
        import_table(b"\xff\xfe")


def test_import_rejects_deep_json_and_huge_csv_fields():
    with pytest.raises(TableParseError):
        import_table('{"labels": ' + "[" * 100_000)
    with pytest.raises(TableParseError):
        import_table("a\n" + "x" * 200_000 + "\n")


def _import_or_table_error(data):
    """import_table gives a semigroup or raises one of its two table errors."""
    try:
        sg = import_table(data)
    except (TableParseError, TableValidationError):
        return
    assert isinstance(sg, FiniteSemigroup)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)
SNIPPETS = st.binary(max_size=4) | st.sampled_from(
    [b"{", b"}", b"[", b"]", b",", b'"', b":", b"\n", b"-1", b"7", b"true", b"null", b"1e400"]
)


@st.composite
def mutated(draw, data):
    """``data`` with up to three slices deleted, replaced or inserted."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data = data[:i] + draw(SNIPPETS) + data[j:]
    return data


B2_TABLES = [export_table(brandt_semigroup(2), fmt).encode("utf-8") for fmt in ("json", "csv")]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200) | st.one_of(*(mutated(t) for t in B2_TABLES)))
def test_import_fuzz_gives_a_table_or_a_table_error(data):
    _import_or_table_error(data)


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({"labels": JSON_VALUES, "table": JSON_VALUES}, optional={"n": JSON_VALUES}))
def test_import_fuzz_json_payloads(payload):
    _import_or_table_error(json.dumps(payload))


def test_import_rejects_ragged_or_float_tables():
    with pytest.raises(TableValidationError):
        import_table('{"n": null, "labels": ["a", "b"], "table": [[0, 1], [0]]}')
    with pytest.raises(TableValidationError):
        import_table('{"n": null, "labels": ["a"], "table": [[0.5]]}')
