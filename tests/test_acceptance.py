"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import itertools
import time
from math import factorial

from test_affine import support_size

from brandt_ranks import engine
from brandt_ranks.affine import (
    Const,
    ConstZero,
    NSupport,
    a_plus_size,
    add_maps,
    affine_closure_oracle,
    enumerate_a_plus,
    map_label,
    map_table,
)
from brandt_ranks.engine import FiniteSemigroup, closure_bits, export_table, import_table
from brandt_ranks.ranks import (
    SearchBudget,
    construct_witness,
    generating_witness,
    intermediate_rank_verify,
    large_rank_exact,
    lower_rank_exact,
    rank_formulas,
    small_rank,
    smallest_prime_subset,
    upper_rank_search,
)
from brandt_ranks.ranks import _Clock, _small_rank_bruteforce
from brandt_ranks.verify import _greens_l_constants, _greens_r_characterization

BIG = SearchBudget(seconds=3600.0, node_limit=10**9)


class _Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_element_counts():
    details = []
    for n, expected in ((1, 3), (2, 29), (3, 145), (4, 657)):
        with _Timer() as t:
            elems = enumerate_a_plus(n)
            assert len(elems) == expected == a_plus_size(n)
            universe = set(elems)
            assert len(universe) == expected
            for f in elems:
                for g in elems:
                    assert add_maps(n, f, g) in universe
        assert t.elapsed < 5.0, f"n={n} took {t.elapsed:.1f}s"
        details.append(f"|A+(B_{n})|={expected} closed in {t.elapsed:.1f}s")
    _report(1, True, "; ".join(details))


def test_criterion_2_oracle_equivalence():
    with _Timer() as t:
        oracle = affine_closure_oracle(2)
        direct = {map_table(2, f) for f in enumerate_a_plus(2)}
        ok = oracle == direct
    _report(2, ok and t.elapsed < 30.0,
            f"brute-force closure = enumerated 29 maps in {t.elapsed:.1f}s")


def test_criterion_3_greens(ab2, ab3):
    with _Timer() as t:
        for sg, n, expected in ((ab2, 2, 4), (ab3, 3, 18)):
            elems = enumerate_a_plus(n)
            classes = engine.greens_classes(sg, "R")
            nsup = sum(1 for c in classes if any(isinstance(elems[i], NSupport) for i in c))
            assert nsup == expected == factorial(n) * n
            _greens_r_characterization(n, elems, classes)
            _greens_l_constants(elems, sg)
    _report(3, t.elapsed < 30.0,
            f"(n!)n R-classes = 4, 18 and ideal/characterization partitions agree in {t.elapsed:.1f}s")


def test_criterion_4_small_rank(ab1, ab2, ab3):
    with _Timer() as t:
        assert small_rank(ab2).value == 1
        assert small_rank(ab3).value == 1
        assert _small_rank_bruteforce(ab2, BIG).value == 1
        for rank_value in (
            small_rank(ab1),
            lower_rank_exact(ab1, BIG),
            large_rank_exact(ab1),
            upper_rank_search(ab1, BIG),
        ):
            assert rank_value.value == 3
    _report(4, t.elapsed < 10.0,
            f"r1 = 1 for n=2,3 (shortcut = brute force); all ranks 3 at n=1; {t.elapsed:.1f}s")


def test_criterion_5_lower_rank(ab2, ab3):
    with _Timer() as t:
        wit2 = generating_witness(2)
        assert engine.is_generating(ab2, wit2)
        rv2 = lower_rank_exact(ab2, BIG, witness=wit2)
        assert rv2.value == 6 and rv2.provenance == "exact-search"
        assert rv2.detail == "no generating subset of size 5 (exhaustive)"
        wit3 = generating_witness(3)
        rv3 = lower_rank_exact(ab3, BIG, witness=wit3)
        assert rv3.value == 21 and rv3.provenance == "witness"
    _report(5, t.elapsed < 300.0,
            f"r2 = 6 (no 5-subset of 29 generates, exhaustive) and 21 via witness+bound; {t.elapsed:.1f}s")


def test_criterion_6_intermediate_rank(ab2, ab3):
    with _Timer() as t:
        rv2 = intermediate_rank_verify(2, BIG)
        assert rv2.value == 6 and rv2.provenance == "exact-search"
        rv3 = intermediate_rank_verify(3, BIG)
        assert rv3.value == 22
        for n, rv in ((2, rv2), (3, rv3)):
            assert rv.value == n * factorial(n) + 2 * n - 2
    _report(6, t.elapsed < 300.0,
            f"S'uT independent+generating, sizes 6 and 22; n=2 maximality exhausted; {t.elapsed:.1f}s")


def test_criterion_7_upper_rank(ab2, ab3):
    details = []
    with _Timer() as t:
        for n, sg in ((2, ab2), (3, ab3)):
            w = construct_witness(n, "I")
            assert len(w) == (10 if n == 2 else 57)
            assert engine.is_independent(sg, w)
        p = construct_witness(2, "P2")
        assert len(p) == 14 and engine.is_independent(ab2, p)

        consts = [e for e in enumerate_a_plus(3) if isinstance(e, (ConstZero, Const))]
        cb3 = FiniteSemigroup.from_elements(
            consts, lambda f, g: add_maps(3, f, g), labels=[map_label(e) for e in consts]
        )
        best = 0
        for bits in range(1, 1 << cb3.m):
            if bits.bit_count() > best and engine.is_independent(
                cb3, engine.iter_bits(bits)
            ):
                best = bits.bit_count()
        assert best == 5
        assert upper_rank_search(cb3, BIG).value == 5
        details.append("r4(C_B3) = 5 (exhaustive scan and search agree)")

        rv = upper_rank_search(ab2, BIG, seed=p)
        assert rv.exact, "branch and bound must terminate"
        assert 14 <= rv.value <= 23
        details.append(f"r4(A+(B_2)) = {rv.value} exactly (open case; conjectured 14)")
    assert t.elapsed < 1800.0
    _report(7, True, "; ".join(details) + f"; {t.elapsed:.1f}s")


def test_criterion_8_large_rank(ab2, ab3):
    with _Timer() as t:
        rv2 = large_rank_exact(ab2)
        assert rv2.value == 29
        assert "xi(1,2)" in rv2.detail  # the singleton prime subset found
        rv3 = large_rank_exact(ab3)
        assert rv3.value == 144 == factorial(3) * 9 + 9 + 81 - 3 + 3
        assert len(smallest_prime_subset(ab3, 3, _Clock())[0]) == 2
        assert len(engine.indecomposables(ab3)) == 0
    _report(8, t.elapsed < 120.0,
            f"r5 = 29 (prime {{xi(1,2)}}) and 144 (prime pair); no indecomposables at n=3; {t.elapsed:.1f}s")


def test_criterion_9_property_suites(ab2, ab3):
    with _Timer() as t:
        # chain inequality on all exact results
        for n in (1, 2, 3, 4, 5, 6, 8):
            assert rank_formulas(n).chain_violations() == []
        # hereditary independence, exhaustive over all subsets of size <= 4
        sums = ab2.sums
        closure_memo = {0: 0}
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(29), size):
                bits = sum(1 << i for i in combo)
                closure_memo[bits] = closure_bits(sums, bits)
        ind_cache = {}
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations(range(29), size):
                bits = sum(1 << i for i in combo)
                ind_cache[bits] = all(
                    not closure_memo[bits & ~(1 << a)] >> a & 1 for a in combo
                )
        for bits, independent in ind_cache.items():
            if independent:
                for a in engine.iter_bits(bits):
                    smaller = bits & ~(1 << a)
                    if smaller:
                        assert ind_cache[smaller]
        # randomized beyond size 4
        rng = __import__("random").Random(0)
        for _ in range(200):
            subset = rng.sample(range(29), rng.randint(5, 9))
            if engine.is_independent(ab2, subset):
                subset.remove(rng.choice(subset))
                if subset:
                    assert engine.is_independent(ab2, subset)
        # support bound under sums, exhaustive n <= 3
        for n in (1, 2, 3):
            elems = enumerate_a_plus(n)
            sizes = [support_size(n, e) for e in elems]
            for i, f in enumerate(elems):
                for j, g in enumerate(elems):
                    s = support_size(n, add_maps(n, f, g))
                    assert s <= sizes[i] and s <= sizes[j]
        # witness soundness re-verification
        assert engine.is_independent(ab2, construct_witness(2, "P2"))
        assert engine.is_generating(ab2, generating_witness(2))
        assert engine.is_prime_subset(ab3, construct_witness(3, "V"))
        # table round-trip byte-exactness
        for sg in (ab2, ab3):
            for fmt in ("json", "csv"):
                text = export_table(sg, fmt)
                assert export_table(import_table(text), fmt) == text
    _report(9, True,
            f"chain, hereditary independence, support bounds, witness re-checks, IO round-trips; {t.elapsed:.1f}s")


def test_headline_formulas_for_large_n():
    # n >= 6 values are formula-evaluated and chain-checked only
    assert rank_formulas(6).ranks["r4"].value == (factorial(6)) * 36 + 6 == 25926
    for n in (6, 7, 10):
        report = rank_formulas(n)
        assert report.chain_violations() == []
        assert report.ranks["r4"].provenance == "formula"
