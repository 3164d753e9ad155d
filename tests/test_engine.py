import functools
import itertools
import json
import tracemalloc

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
    map_table,
)
from brandt_ranks.brandt import bn_add, bn_elements, brandt_semigroup
from brandt_ranks.engine import (
    FiniteSemigroup,
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
from brandt_ranks.ranks import construct_witness, generating_witness

ONE = FiniteSemigroup(["e"], [[0]])


# --- construction --------------------------------------------------------------


def test_brandt_semigroup_b2_shape(b2):
    assert b2.m == 5
    assert b2.table.shape == (5, 5)


def test_construction_keeps_only_the_table(ab2):
    sg = FiniteSemigroup(ab2.labels, ab2.table, n=2)
    assert not hasattr(sg, "rows")
    assert "sums" not in sg.__dict__
    assert [list(row) for row in sg.sums.rows] == sg.table.tolist()


def test_sums_rows_view_the_table_without_a_copy(ab3):
    kept = np.array(ab3.table)  # C-contiguous int16, so kept as given
    sg = FiniteSemigroup(ab3.labels, kept)
    assert sg.table is kept
    rows, cols = sg.sums.rows, sg.sums.cols
    assert len(rows) == len(cols) == sg.m
    for line in rows + cols:
        assert isinstance(line, memoryview) and line.readonly
        assert (line.format, line.ndim, len(line)) == ("h", 1, sg.m)
        assert line.obj is kept
    for a in range(sg.m):
        # row a starts at the address of the table's row a: a view, no copy
        assert np.frombuffer(rows[a], dtype=np.int16).ctypes.data == kept[a].ctypes.data
        # column a steps through the same buffer one row at a time
        assert cols[a].strides == (2 * sg.m,)
        assert np.asarray(cols[a]).ctypes.data == kept[:, a].ctypes.data
    for line in (rows[0], cols[0]):
        with pytest.raises(TypeError):
            line[0] = 1


def test_transposed_table_gives_the_semigroup_of_its_contiguous_copy(ab3):
    transposed = ab3.table.T
    assert not transposed.flags.c_contiguous
    sg = FiniteSemigroup(ab3.labels, transposed)
    copy = FiniteSemigroup(ab3.labels, np.ascontiguousarray(transposed))
    assert sg.table.flags.c_contiguous and np.array_equal(sg.table, transposed)
    assert [list(row) for row in sg.sums.rows] == transposed.tolist()
    for side in ("R", "L"):
        assert greens_classes(sg, side) == greens_classes(copy, side)
    for a in range(sg.m):
        seed = [a, (37 * a + 11) % sg.m]
        assert closure(sg, seed) == closure(copy, seed)


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
    assert a_plus_semigroup(n).table.tolist() == rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brandt_table_equals_the_per_pair_table(n):
    # built by the column walk and checked by Light's test: a table with no
    # representation
    add = functools.partial(bn_add, n)
    sg = FiniteSemigroup.from_elements(bn_elements(n), add)
    assert sg.table.tolist() == _per_pair_rows(bn_elements(n), add)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_table_equals_the_per_pair_table(n):
    consts = [e for e in enumerate_a_plus(n) if isinstance(e, (ConstZero, Const))]
    add = functools.partial(add_maps, n)
    sg = FiniteSemigroup.from_elements(consts, add)
    assert sg.table.tolist() == _per_pair_rows(consts, add)


def _closure_greedy_generators(sg):
    """Each element, in index order, that the earlier picks do not generate."""
    bits, gens = 0, []
    for g in range(sg.m):
        if not bits >> g & 1:
            gens.append(g)
            bits = extend_closure(sg.sums, bits, g)
    return gens


@pytest.mark.parametrize("n, calls", [(1, 9), (2, 348), (3, 4_785), (4, 78_840)])
def test_from_elements_calls_add_fn_only_for_generator_rows(n, calls):
    elems = enumerate_a_plus(n)
    index = {e: i for i, e in enumerate(elems)}
    left = []

    def add(f, g):
        left.append(index[f])
        return add_maps(n, f, g)

    sg = FiniteSemigroup.from_elements(elems, add, [map_label(f) for f in elems], n=n)
    gens = sorted(set(left))
    assert len(left) == calls == sg.m * len(gens)  # |G| = 3, 12, 33, 120
    assert sg == a_plus_semigroup(n)
    # G is the greedy generating set, each element that the earlier ones do
    # not generate; the walk over the finished table's rows (Light's test)
    # finds the same G
    walked, _ = engine._left_cayley_walk(sg.m, lambda g: sg.table[g].tolist())
    assert gens == _closure_greedy_generators(sg) == walked


def test_light_test_peak_stays_below_three_tables(ab4):
    # two reused m x m int16 gather buffers and one bool compare buffer; the
    # transposed copy of the table that the check once made took it to 3.5
    table = ab4.table
    tracemalloc.start()
    try:
        assert engine._associativity_failure(table) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.nbytes


def _check_walk_steps(sg):
    """Every step (c, y, h) of the walk over the table's rows has h in G,
    y a generator or reached by an earlier step, and row c = row h read at
    row y; G and the steps reach every element once."""
    table = sg.table
    gens, steps = engine._left_cayley_walk(sg.m, lambda g: table[g].tolist())
    assert sorted(gens + [c for c, _, _ in steps]) == list(range(sg.m))
    reached = set(gens)
    for c, y, h in steps:
        assert h in gens and y in reached
        assert table[h, y] == c
        assert table[c].tolist() == table[h, table[y]].tolist()
        reached.add(c)


@pytest.mark.parametrize("name", ["ab2", "ab3", "b3"])
def test_walk_steps_compose_rows(name, request):
    _check_walk_steps(request.getfixturevalue(name))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_plus_table_is_int16(n):
    assert a_plus_semigroup(n).table.dtype == np.int16


def test_int16_table_is_kept_and_wider_tables_are_narrowed():
    labels = ["a", "b", "c"]
    cyclic = [[(x + y) % 3 for y in range(3)] for x in range(3)]
    kept = np.array(cyclic, dtype=np.int16)
    sg = FiniteSemigroup(labels, kept)
    assert sg.table is kept and not kept.flags.writeable
    for dtype in (np.int32, np.int64, np.uint64):
        wide = np.array(cyclic, dtype=dtype)
        sg = FiniteSemigroup(labels, wide)
        assert sg.table.dtype == np.int16 and sg.table.tolist() == cyclic
        assert wide.flags.writeable
    assert FiniteSemigroup(labels, cyclic).table.dtype == np.int16


@pytest.mark.parametrize(
    "labels, table",
    [
        (["a", "b"], [[0, True], [True, True]]),
        (["a", "b"], [[False, 1], [1, 1]]),
        (["a", "b"], [[0, 1], [1, np.True_]]),
        (["a", "b"], [[False, True], [True, True]]),
        (["a"], [[True]]),
        (["a", "b"], np.array([[0, 1], [1, 1]], dtype=bool)),
    ],
    ids=["true", "false", "numpy-true", "all-bool", "one-bool", "bool-array"],
)
def test_bool_table_entries_refused(labels, table):
    # numpy would read True and False as 1 and 0, and every table would pass
    with pytest.raises(TableValidationError, match="must be integers"):
        FiniteSemigroup(labels, table)


class _Untouchable:
    """A table that records every attempt to read it."""

    def __init__(self):
        self.reads = []

    def __getattr__(self, name):
        self.reads.append(name)
        raise AttributeError(name)


def test_more_than_32768_labels_refused_before_the_table_is_read():
    table = _Untouchable()
    with pytest.raises(TableValidationError) as err:
        FiniteSemigroup([f"x{i}" for i in range(32_769)], table)
    assert "at most 32768" in str(err.value)
    assert table.reads == []
    # 32,768 labels pass the count and reach the table
    with pytest.raises(TableValidationError):
        FiniteSemigroup([f"x{i}" for i in range(32_768)], table)
    assert table.reads


def test_from_elements_refuses_more_than_32768_elements_before_adding():
    def add(a, b):
        raise AssertionError("add_fn called")

    with pytest.raises(InvalidParameterError) as err:
        FiniteSemigroup.from_elements(range(32_769), add)
    assert "at most 32768" in str(err.value)


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
    # only 0 + 1 falls outside {0, 1}, so the labels come in the sum's order
    with pytest.raises(ClosureViolationError) as err:
        FiniteSemigroup.from_elements(
            [0, 1], lambda a, b: a + 2 * b if a < b else a, labels=["zero", "one"]
        )
    assert (err.value.left_label, err.value.right_label) == ("zero", "one")


def test_from_elements_duplicates():
    with pytest.raises(InvalidParameterError):
        FiniteSemigroup.from_elements([1, 1], lambda a, b: 1)


def test_from_elements_refuses_an_empty_element_list():
    with pytest.raises(InvalidParameterError, match=r"^element list must be nonempty$"):
        FiniteSemigroup.from_elements([], lambda a, b: a)


def test_index_of_refuses_an_unknown_label(b2):
    assert b2.index_of(b2.labels[1]) == 1
    with pytest.raises(InvalidParameterError, match=r"^unknown element label 'nope'$"):
        b2.index_of("nope")


def test_from_elements_checks_the_label_count_before_adding():
    def add(a, b):
        raise AssertionError("add_fn called")

    for labels in (["a"], ["a", "b", "c", "d"]):
        with pytest.raises(InvalidParameterError, match=f"{len(labels)} labels for 3 elements"):
            FiniteSemigroup.from_elements([0, 1, 2], add, labels=labels)
    # 1 + 2 falls outside the list too: the label count is still named first
    with pytest.raises(InvalidParameterError, match="1 labels for 3 elements"):
        FiniteSemigroup.from_elements([0, 1, 2], lambda a, b: a + b, labels=["a"])


@pytest.mark.parametrize("n", [0, -3, True, np.bool_(True), 2.5, "2"])
def test_semigroup_refuses_an_n_that_is_no_positive_integer(n):
    with pytest.raises(InvalidParameterError, match="^n "):
        FiniteSemigroup(["e"], [[0]], n=n)


@pytest.mark.parametrize("n", [None, 1, 4, np.int64(3)])
def test_semigroup_n_round_trips_through_export(n):
    sg = FiniteSemigroup(["e"], [[0]], n=n)
    assert sg.n == n and (n is None or type(sg.n) is int)
    assert import_table(export_table(sg)) == sg


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
    found = engine._associativity_failure(np.asarray(table, dtype=np.int16))
    if expected:
        assert found in expected
        with pytest.raises(TableValidationError):
            FiniteSemigroup([f"x{i}" for i in range(len(table))], table)
    else:
        assert found is None
        FiniteSemigroup([f"x{i}" for i in range(len(table))], table)


@settings(max_examples=100, deadline=None)
@given(small_tables(SEMIGROUP_KINDS))
def test_walk_steps_compose_rows_of_small_tables(table):
    sg = semigroup_or_none(table)
    assume(sg is not None)
    _check_walk_steps(sg)


def _a_plus_values(n):
    """The value rows of A+(B_n) in B_n, as ``a_plus_semigroup`` passes them,
    rebuilt here from ``map_table``."""
    index = {x: i for i, x in enumerate(bn_elements(n))}
    return [[index[x] for x in map_table(n, f)] for f in enumerate_a_plus(n)]


def _certify(sg, table=None, values=None, codomain=None):
    """Build ``sg``'s labels over ``table`` with the A+(B_n) representation
    into ``brandt_semigroup(n)``, either part of which may be replaced."""
    return FiniteSemigroup(
        sg.labels,
        sg.table if table is None else table,
        n=sg.n,
        representation=(
            _a_plus_values(sg.n) if values is None else values,
            brandt_semigroup(sg.n) if codomain is None else codomain,
        ),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_accepts_the_a_plus_tables(n):
    assert _certify(a_plus_semigroup(n)) == a_plus_semigroup(n)


def test_certificate_refuses_a_relabelled_table_that_light_accepts(ab3):
    # swapping the zero map with a constant is no automorphism, so the
    # relabelled table is associative but is not A+(B_3) in these labels
    perm = np.arange(ab3.m)
    perm[[0, 1]] = [1, 0]
    relabelled = np.empty_like(ab3.table)
    relabelled[np.ix_(perm, perm)] = perm[ab3.table]
    assert not np.array_equal(relabelled, ab3.table)
    assert engine._associativity_failure(relabelled) is None
    FiniteSemigroup(ab3.labels, relabelled)
    with pytest.raises(TableValidationError, match="is not their sum at coordinate"):
        _certify(ab3, table=relabelled)


@pytest.mark.parametrize("name, a, b", [("ab3", 120, 7), ("ab4", 203, 600), ("ab4", 656, 3)])
def test_certificate_refuses_one_corrupted_entry(name, a, b, request):
    # the certificate takes 45 rows at a time at n = 3 and 5 at n = 4, so
    # row 120 is in the third block, row 203 inside one, and row 656 is the
    # second of the last block
    sg = request.getfixturevalue(name)
    table = sg.table.copy()
    table[a, b] = (table[a, b] + 1) % sg.m
    wrong = sg.labels[table[a, b]]
    with pytest.raises(TableValidationError) as err:
        _certify(sg, table=table)
    assert str(err.value).startswith(f"{sg.labels[a]} + {sg.labels[b]} = {wrong} is not their sum")


def test_certificate_refuses_two_equal_value_rows(ab2):
    values = _a_plus_values(2)
    values[7] = values[3]
    with pytest.raises(TableValidationError) as err:
        _certify(ab2, values=values)
    assert str(err.value) == f"{ab2.labels[3]} and {ab2.labels[7]} have the same values"


def test_certificate_refuses_a_non_associative_codomain(b2):
    # a codomain is a FiniteSemigroup, so a non-associative "B_2" is refused
    # by Light's test before it can become one
    codomain = b2.table.tolist()
    codomain[1][1] = 2  # (1,1) + (1,1) = (1,2) in B_2
    assert _violations(codomain)
    with pytest.raises(TableValidationError, match="associativity fails at"):
        FiniteSemigroup(b2.labels, codomain)


def test_certificate_refuses_a_list_codomain(ab2, b2):
    # B_2's own table, correct but not a FiniteSemigroup
    with pytest.raises(TableValidationError, match="codomain must be a FiniteSemigroup"):
        _certify(ab2, codomain=b2.table.tolist())


@pytest.mark.parametrize(
    "values, codomain, message",
    [
        ([[0], [1], [1]], [[0, 2], [0, 1]], "table entries must be element indices in"),
        ([[0], [1]], [[0, 0], [0, 1]], "values must be an integer matrix with 3 rows"),
        ([[0], [1], [2]], [[0, 0], [0, 1]], "values must be codomain indices in"),
        ([[0], [1], [1]], [[0, 0], [0, 1]], "b and c have the same values"),
        ([[0, 0], [0, 0]], [[0, 0], [0, 1]], "values must be an integer matrix with 3 rows"),
        ([[0.0], [1.0], [1.0]], [[0, 0], [0, 1]], "values must be an integer matrix"),
        ([[0], [1], [1]], [[0, 1]], "table shape"),
    ],
)
def test_certificate_refuses_malformed_representations(values, codomain, message):
    # a + b = a on {a, b, c}, a left-zero semigroup; the codomain table is
    # made a FiniteSemigroup first, which refuses an out-of-range or
    # non-square one before any certificate sees it
    with pytest.raises(TableValidationError, match=message):
        FiniteSemigroup(["a", "b", "c"], [[0] * 3, [1] * 3, [2] * 3],
                        representation=(values, FiniteSemigroup(["0", "1"], codomain)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_plus_semigroup_runs_light_test_only_on_b_n(n, monkeypatch):
    # Light's test runs once per build, on the table of the codomain B_n,
    # and never on A+(B_n)'s table, which the certificate checks instead
    calls = []

    def counted(table):
        calls.append(len(table))
        return light(table)

    light = engine._associativity_failure
    monkeypatch.setattr(engine, "_associativity_failure", counted)
    assert a_plus_semigroup.__wrapped__(n) == a_plus_semigroup(n)
    assert calls == [n * n + 1]


def test_imported_and_brandt_tables_still_get_light_test(ab3, monkeypatch):
    calls = []

    def counted(table):
        calls.append(len(table))
        return light(table)

    light = engine._associativity_failure
    monkeypatch.setattr(engine, "_associativity_failure", counted)
    assert import_table(export_table(ab3)) == ab3
    assert brandt_semigroup(3).m == 10
    assert calls == [ab3.m, 10]


# --- closure and generation -------------------------------------------------------


def test_closure_of_single_constant(ab2):
    got = closure(ab2, [ab2.index_of("xi(1,2)")])
    assert sorted(got) == [0, ab2.index_of("xi(1,2)")]


def test_closure_of_s_union_t_is_everything(ab2):
    w = generating_witness(2)
    assert len(closure(ab2, w)) == 29
    assert is_generating(ab2, w)


def test_closure_of_empty_is_empty(ab2):
    assert len(closure(ab2, [])) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_subsets_go_out_as_ascending_tuples(n, request):
    sg = request.getfixturevalue(f"ab{n}")
    outs = [
        closure(sg, [17, 5, 9]),
        indecomposables(sg),
        generating_witness(n),
        *(construct_witness(n, kind) for kind in ("S", "T", "SprimeUnionT", "I", "V")),
    ]
    for out in outs:
        assert type(out) is tuple
        assert list(out) == sorted(set(out))
    assert generating_witness(n) == tuple(sorted(construct_witness(n, "S") + construct_witness(n, "T")))


@pytest.mark.parametrize(
    "subset, message",
    [
        ([2.9], "not an integer"),
        (["3"], "not an integer"),
        ([True], "not an integer"),
        ([np.bool_(True)], "not an integer"),
        ([0, None], "not an integer"),
        ([29], "out of range"),
        ([-1], "out of range"),
    ],
    ids=["float", "str", "bool", "numpy-bool", "none", "m", "negative"],
)
@pytest.mark.parametrize("fn", [closure, is_generating, is_independent, is_prime_subset])
def test_subset_indices_must_be_integers_in_range(ab2, fn, subset, message):
    with pytest.raises(InvalidParameterError, match=message):
        fn(ab2, subset)


def test_subset_indices_take_numpy_integers(ab2):
    got = closure(ab2, np.array([ab2.index_of("xi(1,2)")], dtype=np.int64))
    assert got == closure(ab2, [ab2.index_of("xi(1,2)")]) == (0, ab2.index_of("xi(1,2)"))
    assert is_prime_subset(ab2, [np.int32(ab2.index_of("xi(1,2)"))])


def test_s_alone_generates_only_constants(ab2):
    got = closure(ab2, construct_witness(2, "S"))
    assert sorted(got) == [0, 1, 2, 3, 4]
    assert not is_generating(ab2, got)


def test_full_set_generates(b2):
    assert is_generating(b2, range(b2.m))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 28)), st.sets(st.integers(0, 28)))
def test_closure_monotone(ab2, xs, ys):
    cu = closure(ab2, xs)
    cw = closure(ab2, xs | ys)
    assert set(cu) <= set(cw)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 28), min_size=1))
def test_closure_is_idempotent_and_contains_seed(ab2, xs):
    c = closure(ab2, xs)
    assert xs <= set(c)
    assert closure(ab2, c) == c


def _check_sums(sg):
    """``sg.sums`` reproduces the table: each (a, b) lies in exactly one
    fiber of row a and one of column b, the one of a + b, and each value
    mask is its line's set of values."""
    sums, rows, m = sg.sums, sg.table.tolist(), sg.m
    assert [list(row) for row in sums.rows] == rows
    for a in range(m):
        row, col = rows[a], list(sums.cols[a])
        assert col == [rows[b][a] for b in range(m)]
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


def _sums_content(sums):
    """Every field of ``sums`` but the views, with each fiber dict in insertion order."""
    return (
        sums.row_values,
        sums.col_values,
        [list(f.items()) for f in sums.row_fibers],
        [list(f.items()) for f in sums.col_fibers],
    )


def _check_blocks(sg, lines):
    """A fresh copy of ``sg`` built ``lines`` lines per block has the same
    ``sums`` as one built in a single block, and the right indecomposables."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_BLOCK_ENTRIES", lines * sg.m)
        blocked = FiniteSemigroup(sg.labels, sg.table, n=sg.n)
        _check_sums(blocked)
        assert list(indecomposables(blocked)) == _indecomposables_oracle(sg)
        mp.setattr(engine, "_BLOCK_ENTRIES", sg.m * sg.m)
        whole = FiniteSemigroup(sg.labels, sg.table, n=sg.n)
        assert _sums_content(blocked.sums) == _sums_content(whole.sums)
        assert blocked.indecomposable_bits == whole.indecomposable_bits


@pytest.mark.parametrize("lines", [1, 2, 3])
@pytest.mark.parametrize("name", ["ab2", "b3", "ab3"])
def test_sums_and_indecomposables_across_block_seams(name, lines, request):
    # m = 29, 10 and 145: 2 and 3 lines per block leave a partial last
    # block, except 2 lines at m = 10
    _check_blocks(request.getfixturevalue(name), lines)


@settings(max_examples=60, deadline=None)
@given(small_tables(SEMIGROUP_KINDS).map(lambda t: semigroup_or_none(t)), st.integers(1, 3))
def test_sums_and_indecomposables_of_small_tables_across_block_seams(sg, lines):
    assume(sg is not None)
    _check_blocks(sg, lines)


def test_sums_build_peak_stays_far_below_the_table_size(ab4):
    # the 657 lines span several blocks, the last one partial
    k = engine._block_lines(ab4.m)
    assert ab4.m == 657 and 1 < k < 657 and 657 % k != 0
    # whole-table temporaries peaked at 14 MB here; blocks of lines keep the
    # peak of the two passes that build the masks and fibers near the 2.7 MB
    # they keep. ``sums`` then views the table's rows and columns, no copy.
    tracemalloc.start()
    try:
        passes = engine._line_fibers(ab4.table), engine._line_fibers(ab4.table.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(values) for values, _ in passes] == [657, 657]
    assert peak < 6_000_000


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
    bits, elems, rows = 0, [], sg.table.tolist()
    for x in seed:
        bits = _extend_closure_oracle(rows, bits, elems, x)
    return bits


def _check_extend(sg, rows, bits, x, stop=-1):
    """Extend the closed set ``bits`` by x with the kernel, check it against
    the two-sided oracle on ``rows`` (``sg.table.tolist()``), and return the
    closure.

    The kernel is also run with ``stop`` and with one element the extension
    adds as ``stop`` (the one at ``stop`` modulo their number): its set lies
    between ``bits`` with x and the closure, holds the stop exactly when the
    closure does, and is the closure whenever it does not.
    """
    want = _extend_closure_oracle(rows, bits, list(engine.iter_bits(bits)), x)
    assert extend_closure(sg.sums, bits, x) == want
    stops = [stop]
    if added := list(engine.iter_bits(want & ~bits & ~(1 << x))):
        stops.append(added[stop % len(added)])
    for s in stops:
        got = extend_closure(sg.sums, bits, x, s)
        assert got & (bits | 1 << x) == bits | 1 << x and got & ~want == 0
        if s >= 0 and want >> s & 1:
            assert got >> s & 1
        else:
            assert got == want
    return want


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
    rows = sg.table.tolist()
    for bits in starts:
        for x in range(sg.m):
            _check_extend(sg, rows, bits, x)


def _extensions(n, m, max_seed):
    """A seed, then extension steps (element, whether to roll the step back,
    the kernel's ``stop``, -1 for none).

    Random elements mostly generate small closed sets; seeds drawn from the
    independent witness I also reach large ones.
    """
    seed = st.one_of(
        st.lists(st.integers(0, m - 1), max_size=3),
        st.lists(st.sampled_from(sorted(construct_witness(n, "I"))), max_size=max_seed),
    )
    return st.tuples(
        seed,
        st.lists(
            st.tuples(st.integers(0, m - 1), st.booleans(), st.integers(-1, m - 1)),
            min_size=1,
            max_size=6,
        ),
    )


def _run_extensions(sg, seed, steps):
    bits, rows = 0, sg.table.tolist()
    for x in seed:
        bits = _check_extend(sg, rows, bits, x)
    for x, roll_back, stop in steps:
        before = bits
        bits = _check_extend(sg, rows, bits, x, stop)
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
        is_independent(ab2, closure(ab2, []))


def _independent_oracle(sg, subset):
    """The leave-one-out definition: no member lies in the two-sided oracle
    closure of all the other members."""
    members = sorted(set(subset))
    return all(
        not _oracle_closure(sg, [g for g in members if g != a]) >> a & 1 for a in members
    )


@pytest.mark.parametrize(
    "n, kind", [(2, "I"), (2, "P2"), (2, "SprimeUnionT"), (3, "I"), (3, "SprimeUnionT")]
)
def test_independence_of_the_witnesses_matches_leave_one_out_oracle(n, kind, request):
    sg = request.getfixturevalue(f"ab{n}")
    witness = construct_witness(n, kind)
    assert is_independent(sg, witness) and _independent_oracle(sg, witness)
    # any element the witness generates makes it dependent
    extra = next(iter(set(closure(sg, witness)) - set(witness)))
    dependent = witness + (extra,)
    assert not is_independent(sg, dependent) and not _independent_oracle(sg, dependent)


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
    if not is_independent(ab2, xs):
        return
    drop = rng.choice(sorted(xs))
    assert is_independent(ab2, xs - {drop})


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)))
def test_transpose_bits_matches_the_double_loop(rows):
    m = len(rows)
    expected = [sum(1 << j for j in range(m) if rows[j] >> i & 1) for i in range(m)]
    # members as lists, then as the generators the searches pass
    out = engine.transpose_bits(((j, list(engine.iter_bits(r))) for j, r in enumerate(rows)), m)
    assert out == expected
    assert engine.transpose_bits(((i, engine.iter_bits(t)) for i, t in enumerate(out)), m) == rows


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
    # the left-zero band a + b = a and the semilattice a + b = max(a, b)
    assert is_band(FiniteSemigroup("abc", [[0] * 3, [1] * 3, [2] * 3]))
    assert is_band(FiniteSemigroup("abc", [[max(a, b) for b in range(3)] for a in range(3)]))


def test_indecomposables(ab2, ab3):
    ind2 = indecomposables(ab2)
    assert ab2.index_of("xi(1,2)") in ind2
    assert len(indecomposables(ab3)) == 0
    assert list(indecomposables(ONE)) == [0]


def _indecomposables_oracle(sg):
    """The definition read pair by pair: c is decomposable iff some a + b = c
    with a != c and b != c."""
    decomposable = set()
    for a, row in enumerate(sg.table.tolist()):
        for b, c in enumerate(row):
            if c != a and c != b:
                decomposable.add(c)
    return [c for c in range(sg.m) if c not in decomposable]


def test_indecomposables_are_found_once_per_table(ab2, monkeypatch):
    sg = FiniteSemigroup(ab2.labels, ab2.table, n=2)
    sg.sums
    assert "indecomposable_bits" not in sg.__dict__
    monkeypatch.setattr(engine, "np", None)  # read off the fibers: no numpy pass
    first = indecomposables(sg)
    assert sg.indecomposable_bits == sum(1 << i for i in first)
    del sg.__dict__["sums"]  # a second pass would rebuild sums, which needs numpy
    assert indecomposables(sg) == first == (2, 3)


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
    assert closure(ab3, comp) == tuple(comp)


def _is_prime_subset_oracle(sg, bits):
    """The definition read pair by pair: no two non-members add up to a member."""
    for a, row in enumerate(sg.table.tolist()):
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
    assert is_prime_subset(sg, engine.iter_bits(bits)) == _is_prime_subset_oracle(sg, bits)


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


@pytest.mark.parametrize("first", ["{x", " {x", "{}", "\t{"])
def test_csv_round_trips_a_first_label_that_opens_like_json(first):
    sg = FiniteSemigroup([first, "b"], [[0, 0], [0, 1]])
    text = export_table(sg, "csv")
    back = import_table(text)
    assert back.labels == sg.labels
    assert (back.table == sg.table).all()
    assert export_table(back, "csv") == text


def test_export_refuses_an_unknown_format(b2):
    with pytest.raises(InvalidParameterError, match=r"^unknown format 'xml'$"):
        export_table(b2, "xml")


def test_csv_quotes_comma_labels(ab2):
    text = export_table(ab2, "csv")
    sg = import_table(text.encode("utf-8"))
    assert sg.labels == ab2.labels


def test_exported_zero_row(ab2):
    sg = import_table(export_table(ab2, "json"))
    assert all(v == 0 for v in sg.table.tolist()[0])


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


@pytest.mark.parametrize("n", ["0", "-1", "1.5", '"2"', "true", "[1]"])
def test_import_rejects_an_n_that_is_not_a_positive_integer(n):
    # the rule is FiniteSemigroup's own, and its error becomes a parse error
    with pytest.raises(TableParseError, match="^n "):
        import_table(f'{{"n": {n}, "labels": ["a"], "table": [[0]]}}')


def test_import_keeps_a_positive_or_null_n():
    assert import_table('{"n": 2, "labels": ["a"], "table": [[0]]}').n == 2
    assert import_table('{"n": null, "labels": ["a"], "table": [[0]]}').n is None
    assert import_table('{"labels": ["a"], "table": [[0]]}').n is None


@pytest.mark.parametrize(
    "labels, table",
    [('["a", "b"]', "[[0, true], [true, true]]"), ('["a", "b"]', "[[false, 1], [1, 1]]"),
     ('["a"]', "[[true]]")],
    ids=["true", "false", "bool-only"],
)
def test_import_rejects_bool_table_entries(labels, table):
    # numpy would read true and false as 1 and 0, and both 2 x 2 tables would pass
    with pytest.raises(TableParseError, match="not true or false"):
        import_table(f'{{"labels": {labels}, "table": {table}}}')


BIG = 2**32  # wraps to 0 when narrowed to int16 or int32


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
