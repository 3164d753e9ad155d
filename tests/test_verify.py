import dataclasses
import types

import numpy as np
import pytest
from test_affine import support_size

from brandt_ranks import engine, verify
from brandt_ranks.affine import a_plus_semigroup, enumerate_a_plus
from brandt_ranks.errors import (
    ClosureViolationError,
    InvalidParameterError,
    WitnessVerificationError,
)
from brandt_ranks.ranks import PROV_BOUNDS, RANK_KEYS, RankValue, SearchBudget, plan_rank, rank_formulas
from brandt_ranks.verify import _support_sum_bound, verify_all

BIG = SearchBudget(seconds=600.0, node_limit=10**9)


def _first_violation(n, table):
    """Reference loop: the first (f, g) in row-major order whose sum grows the support."""
    elems = enumerate_a_plus(n)
    sizes = [support_size(n, e) for e in elems]
    for i in range(len(elems)):
        for j in range(len(elems)):
            s = sizes[table[i][j]]
            if s > sizes[i] or s > sizes[j]:
                return elems[i], elems[j]
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_sum_bound_holds(n):
    sg = a_plus_semigroup(n)
    assert _first_violation(n, sg.table.tolist()) is None
    assert _support_sum_bound(n, enumerate_a_plus(n), sg) == (
        f"all {sg.m ** 2} pairs respect the support bound"
    )


def test_support_sum_bound_reports_first_failing_pair():
    sg = a_plus_semigroup(2)
    const = sg.index_of("xi(1,2)")  # full support, n*n + 1 points
    table = sg.table.copy()
    table[7, 3] = const
    table[4, 20] = const
    f, g = _first_violation(2, table.tolist())
    with pytest.raises(WitnessVerificationError) as err:
        _support_sum_bound(2, enumerate_a_plus(2), types.SimpleNamespace(table=np.asarray(table)))
    assert str(err.value) == f"support bound fails for {f!r} + {g!r}"
    assert f == enumerate_a_plus(2)[4]


@pytest.mark.parametrize("row", [0, 656])
def test_support_sum_bound_names_a_violation_in_any_block(row):
    elems, table = enumerate_a_plus(4), a_plus_semigroup(4).table.copy()
    assert _support_sum_bound(4, elems, types.SimpleNamespace(table=table)).startswith("all ")
    # 99 rows per block: row 656 lies in the last, short block, at 62
    assert engine._block_lines(len(elems)) == 99
    sizes = [support_size(4, e) for e in elems]
    big = sizes.index(max(sizes))
    col = max(j for j, size in enumerate(sizes) if size < sizes[big])
    assert sizes[row] < sizes[big]
    table[row, col] = big
    with pytest.raises(WitnessVerificationError) as err:
        _support_sum_bound(4, elems, types.SimpleNamespace(table=table))
    assert str(err.value) == f"support bound fails for {elems[row]!r} + {elems[col]!r}"


def _untimed(rv):
    return dataclasses.replace(rv, elapsed_ms=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_reports_the_planned_ranks(n):
    report = verify_all(n, BIG)
    assert report.ok
    for key in RANK_KEYS:
        got = _untimed(report.ranks.ranks[key])
        if key == "r4" and n == 3:
            # verify leaves the open r4 search at 3 <= n <= 5 to search-r4
            assert got == RankValue(
                bounds=rank_formulas(3).ranks["r4"].bounds, provenance=PROV_BOUNDS,
                detail="independent-set construction vs stratified cap",
            )
        else:
            assert got == _untimed(plan_rank(n, key, BIG)), key


def test_verify_times_the_r4_bounds_it_leaves_open():
    rv = verify_all(3, BIG).ranks.ranks["r4"]
    assert rv.bounds == rank_formulas(3).ranks["r4"].bounds
    assert rv.elapsed_ms > 0


def test_verify_computes_the_r_classes_once(monkeypatch):
    sides = []
    greens_classes = engine.greens_classes

    def counted(sg, side):
        sides.append(side)
        return greens_classes(sg, side)

    monkeypatch.setattr(engine, "greens_classes", counted)
    assert verify_all(1, BIG).ok
    assert sides == ["R", "L"]


def test_verify_reports_r1_cut_short_by_its_bounds():
    report = verify_all(1, SearchBudget(node_limit=1))
    r1 = next(c for c in report.checks if c.name == "rank-r1")
    assert not r1.passed
    assert r1.detail == "WitnessVerificationError: r1 (1, 3) != 3"
    assert not report.ok


def test_verify_stops_after_a_failed_closure_check(monkeypatch):
    def violated(n):
        raise ClosureViolationError("xi(1,1)", "xi(2,2)")

    monkeypatch.setattr(verify, "a_plus_semigroup", violated)
    report = verify_all(2, BIG)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("element-count", True), ("closure", False),
    ]
    assert report.checks[1].detail == (
        "ClosureViolationError: sum of 'xi(1,1)' and 'xi(2,2)' is not in the element list"
    )
    assert not report.ok
    assert report.ranks.ranks == {}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_enumerates_the_elements_once(n, monkeypatch):
    calls = []
    enumerate_a_plus = verify.enumerate_a_plus

    def counted(k):
        calls.append(k)
        return enumerate_a_plus(k)

    monkeypatch.setattr(verify, "enumerate_a_plus", counted)
    assert verify_all(n, BIG).ok
    assert calls == [n]


def test_verify_checks_the_lower_bound_witness_of_r4_at_n_4():
    report = verify_all(4, BIG)
    assert report.ok
    check = next(c for c in report.checks if c.name == "witness-I-independent")
    assert check.detail == "I independent, size 388"
    assert report.ranks.ranks["r4"].bounds == (388, 520)


def test_verify_all_refuses_n6_before_it_enumerates(monkeypatch):
    def no_enumeration(n):
        raise AssertionError(f"enumerated A+(B_{n})")

    monkeypatch.setattr(verify, "enumerate_a_plus", no_enumeration)
    with pytest.raises(InvalidParameterError, match="rank --which formulas"):
        verify_all(6)
