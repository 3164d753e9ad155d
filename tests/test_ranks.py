import itertools
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_engine import semigroup_or_none, small_tables

from brandt_ranks import engine, ranks
from brandt_ranks.affine import Const, ConstZero, add_maps, enumerate_a_plus, map_label
from brandt_ranks.engine import FiniteSemigroup, closure_bits
from brandt_ranks.errors import (
    InvalidParameterError,
    WitnessVerificationError,
)
from brandt_ranks.ranks import (
    PROV_BOUNDS,
    PROV_SEARCH,
    PROV_WITNESS,
    RankReport,
    RankValue,
    SearchBudget,
    construct_witness,
    first_factor_lower_bound,
    generating_witness,
    intermediate_rank_bruteforce,
    intermediate_rank_verify,
    kappa_upper_bound,
    large_rank_exact,
    lower_rank_exact,
    plan_rank,
    rank_formulas,
    small_rank,
    smallest_prime_subset,
    upper_rank_search,
)
from brandt_ranks.ranks import _Clock

BIG = SearchBudget(seconds=600.0, node_limit=10**9)


def constants_semigroup(n):
    consts = [e for e in enumerate_a_plus(n) if isinstance(e, (ConstZero, Const))]
    return FiniteSemigroup.from_elements(
        consts, lambda f, g: add_maps(n, f, g), labels=[map_label(e) for e in consts]
    )


# --- closed forms ---------------------------------------------------------------


def test_formulas_n1():
    report = rank_formulas(1)
    assert all(report.ranks[k].value == 3 for k in ("r1", "r2", "r3", "r4", "r5"))


def test_formulas_n2():
    r = rank_formulas(2).ranks
    assert r["r1"].value == 1
    assert r["r2"].value == 6
    assert r["r3"].value == 6
    assert r["r4"].bounds == (14, 23)
    assert r["r5"].value == 29


def test_formulas_n3():
    r = rank_formulas(3).ranks
    assert (r["r2"].value, r["r3"].value, r["r5"].value) == (21, 22, 144)
    assert r["r4"].bounds == (57, kappa_upper_bound(3))
    assert kappa_upper_bound(3) == 104


def test_formulas_n6_exact_r4():
    r = rank_formulas(6).ranks
    assert r["r4"].value == 25926  # (6!)*36 + 6
    assert r["r4"].provenance == "formula"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 30])
def test_formula_chain(n):
    report = rank_formulas(n)
    assert report.chain_violations() == []


def test_kappa_values():
    assert kappa_upper_bound(2) == 23
    assert kappa_upper_bound(3) == 104


def test_formulas_reject_zero():
    with pytest.raises(InvalidParameterError):
        rank_formulas(0)


@pytest.mark.parametrize(
    "seconds, node_limit",
    [(0.0, 1), (-1.0, 1), (float("nan"), 1), (float("inf"), 1), (10**400, 1), (1.0, 0)],
    ids=["zero", "negative", "nan", "inf", "past-float", "no-nodes"],
)
def test_search_budget_rejects_limits_that_never_or_always_stop(seconds, node_limit):
    # a NaN deadline compares False with every time, so it would never pass
    with pytest.raises(InvalidParameterError):
        SearchBudget(seconds=seconds, node_limit=node_limit)


@pytest.mark.parametrize("node_limit", [True, 2.5, "3", None])
def test_search_budget_rejects_a_node_limit_that_is_no_integer(node_limit):
    # a limit of 2.5 would run 3 nodes, and True would pass as 1
    with pytest.raises(InvalidParameterError, match="not an integer"):
        SearchBudget(node_limit=node_limit)


@pytest.mark.parametrize("seconds", [True, "3", None, 1j])
def test_search_budget_rejects_seconds_that_are_no_number(seconds):
    # True would pass as one second
    with pytest.raises(InvalidParameterError, match="not a number"):
        SearchBudget(seconds=seconds)


@pytest.mark.parametrize("seconds", [1, 0.5, Fraction(1, 2), np.float64(2.0), np.int64(3)])
def test_search_budget_accepts_real_seconds(seconds):
    assert SearchBudget(seconds=seconds).seconds == seconds


def test_rank_value_validation():
    with pytest.raises(InvalidParameterError):
        RankValue()
    with pytest.raises(InvalidParameterError):
        RankValue(value=3, bounds=(1, 2))


# --- witnesses -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_witness_sizes(n):
    assert len(construct_witness(n, "S")) == n
    assert len(construct_witness(n, "T")) == n * factorial(n)
    assert len(construct_witness(n, "SprimeUnionT")) == n * factorial(n) + 2 * n - 2
    assert len(construct_witness(n, "I")) == factorial(n) * n * n + n
    assert len(construct_witness(n, "V")) == n - 1


def test_witness_t_members_are_nsupport(ab2, phi_table):
    elems = enumerate_a_plus(2)
    from brandt_ranks.affine import NSupport, map_table, all_permutations
    from brandt_ranks.brandt import bn_add

    t = construct_witness(2, "T")
    assert all(isinstance(elems[i], NSupport) for i in t)
    # cross-check: T is exactly the set of automorphism + cycle-constant sums
    oracle = set()
    for sigma in all_permutations(2):
        for c in (Const((0, 1)), Const((1, 0))):
            oracle.add(tuple(bn_add(2, x, y) for x, y in zip(phi_table(2, sigma), map_table(2, c))))
    assert {map_table(2, elems[i]) for i in t} == oracle


def test_witness_p2(ab2):
    p = construct_witness(2, "P2")
    assert len(p) == 14
    assert engine.is_independent(ab2, p)
    with pytest.raises(InvalidParameterError):
        construct_witness(3, "P2")


def test_witness_v_prime(ab3):
    v = construct_witness(3, "V")
    assert sorted(ab3.label_list(v)) == ["xi(3,1)", "xi(3,2)"]
    assert engine.is_prime_subset(ab3, v)


def test_witness_needs_n_at_least_2():
    with pytest.raises(InvalidParameterError):
        construct_witness(1, "S")
    with pytest.raises(InvalidParameterError):
        construct_witness(2, "nope")


# --- r1 -------------------------------------------------------------------------


def test_small_rank_shortcut(ab2):
    rv = small_rank(ab2)
    assert rv.value == 1


def test_small_rank_brute_force_agreement(ab2):
    from brandt_ranks.ranks import _small_rank_bruteforce

    assert _small_rank_bruteforce(ab2, BIG).value == 1


def test_small_rank_b2(b2):
    from brandt_ranks.ranks import _small_rank_bruteforce

    assert small_rank(b2).value == 1  # not a band
    assert _small_rank_bruteforce(b2, BIG).value == 1  # definitional confirmation


def test_small_rank_a_plus_b1(ab1):
    rv = small_rank(ab1)
    assert rv.value == 3  # the whole three-element semigroup is independent


def test_small_rank_band_b1(b1):
    assert small_rank(b1).value == 2  # both subsets of B_1 are independent


def test_small_rank_one_element():
    one = FiniteSemigroup(["e"], [[0]])
    assert small_rank(one).value == 1


# --- r2 -------------------------------------------------------------------------


def test_first_factor_bounds(ab2, ab3):
    assert first_factor_lower_bound(ab2)[0] == 6
    assert first_factor_lower_bound(ab3)[0] == 21


def _first_factor_per_pair(sg):
    """Reference loop: every pair (a, b) marks a as a first factor of a + b."""
    first = [1 << f for f in range(sg.m)]
    rows = sg.table.tolist()
    for a in range(sg.m):
        for b in range(sg.m):
            first[rows[a][b]] |= 1 << a
    taken, picks = 0, []
    for f in sorted(range(sg.m), key=lambda f: (first[f].bit_count(), f)):
        if not first[f] & taken:
            taken |= first[f]
            picks.append(f)
    return len(picks), sorted(picks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_factor_bound_matches_a_per_pair_loop(n, request):
    sg = request.getfixturevalue(f"ab{n}")
    assert first_factor_lower_bound(sg) == _first_factor_per_pair(sg)


def _first_minimum_generating_set(sg):
    """Oracle: the lexicographically first generating subset of least size."""
    full = (1 << sg.m) - 1
    for k in range(1, sg.m + 1):
        for combo in itertools.combinations(range(sg.m), k):
            if closure_bits(sg.sums, sum(1 << i for i in combo)) == full:
                return combo
    return None


def test_lower_rank_b2_matches_exhaustive_oracle(b2):
    oracle = _first_minimum_generating_set(b2)
    assert len(oracle) == 2
    rv = lower_rank_exact(b2, BIG)
    assert rv.value == 2
    assert rv.witness == oracle
    assert rv.provenance == PROV_SEARCH


def test_lower_rank_a_plus_b1(ab1):
    rv = lower_rank_exact(ab1, BIG)
    assert rv.value == 3
    # no proper subset generates
    assert rv.witness == (0, 1, 2) == _first_minimum_generating_set(ab1)


def test_lower_rank_a_plus_b2_exhaustive(ab2):
    wit = generating_witness(2)
    rv = lower_rank_exact(ab2, BIG, witness=wit)
    assert rv.value == 6
    assert rv.provenance == PROV_SEARCH  # the 5-subset sweep completed
    # the indecomposables 2 and 3 lie in every generating set, S ∪ T too
    assert set(engine.indecomposables(ab2)) == {2, 3} <= set(rv.witness) == set(wit)


def test_lower_rank_a_plus_b3_witness_bound_match(ab3):
    wit = generating_witness(3)
    rv = lower_rank_exact(ab3, BIG, witness=wit)
    assert rv.value == 21
    assert rv.provenance == PROV_WITNESS


def test_lower_rank_bound_match_skips_sweep(ab2):
    # with only 10 nodes the sweep cannot run, but the first-factor bound
    # already matches the witness size, so the value is still exact
    wit = generating_witness(2)
    rv = lower_rank_exact(ab2, SearchBudget(seconds=600, node_limit=10), witness=wit)
    assert rv.exact and rv.value == 6
    assert rv.provenance == PROV_WITNESS


def test_lower_rank_budget_exhaustion(ab2):
    # a non-minimal generating witness (size 7) with no budget to sweep
    wit = generating_witness(2) + (5,)
    rv = lower_rank_exact(ab2, SearchBudget(seconds=600, node_limit=10), witness=wit)
    assert not rv.exact
    assert rv.bounds == (6, 7)


@pytest.mark.parametrize(
    "node_limit, provenance, detail",
    [
        # the 5-subset sweep visits 3,283 prefixes: those that hold every
        # indecomposable below their last element (C(29, 1) + ... + C(29, 5)
        # = 146,595 without that pruning)
        (3_283, PROV_SEARCH, "no generating subset of size 5 (exhaustive)"),
        (3_282, PROV_WITNESS, "first-factor lower bound 6 matches witness size"),
    ],
    ids=["sweep-fits", "one-node-short"],
)
def test_lower_rank_sweeps_only_within_the_node_budget(ab2, node_limit, provenance, detail):
    wit = generating_witness(2)
    rv = lower_rank_exact(ab2, SearchBudget(seconds=600, node_limit=node_limit), witness=wit)
    assert rv.value == 6
    assert (rv.provenance, rv.detail) == (provenance, detail)
    assert set(rv.witness) == set(wit)


@pytest.mark.parametrize(
    "witness",
    [None, tuple(range(29)), (2, 3, 5, 22, 23, 25, 28)],
    ids=["no-witness", "all-29-elements", "S-T-plus-element-5"],
)
def test_lower_rank_finds_the_first_minimum_below_any_witness(ab2, witness):
    # the sweep rises from the first-factor bound 6 whatever the witness size,
    # so a witness too large to sweep below still gives the exact value
    rv = lower_rank_exact(ab2, BIG, witness=witness)
    assert rv.value == 6
    assert rv.provenance == PROV_SEARCH
    assert rv.witness == (2, 3, 21, 22, 25, 26)  # opens with the indecomposables 2, 3
    assert rv.detail == ""


def test_lower_rank_deadline_mid_sweep_keeps_the_witness(ab2):
    # a 1 us budget is gone before the first sweep node
    wit = generating_witness(2) + (5,)
    rv = lower_rank_exact(ab2, SearchBudget(seconds=1e-6), witness=wit)
    assert rv.bounds == (6, 7)
    assert rv.detail == "budget exhausted mid-sweep"
    assert set(rv.witness) == set(wit)


def test_lower_rank_rejects_non_generating_witness(ab2):
    with pytest.raises(WitnessVerificationError):
        lower_rank_exact(ab2, BIG, witness=[0, 1, 2])


def test_generating_subset_sweep_none_at_5(ab2):
    # the exhaustive sweep of all 5-subsets that settles r2 = 6
    wit = generating_witness(2)
    rv = lower_rank_exact(ab2, BIG, witness=wit)
    assert rv.value == 6
    assert rv.detail == "no generating subset of size 5 (exhaustive)"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_indecomposables_are_exactly_the_elements_every_generating_set_needs(n, request):
    # x is indecomposable iff the other elements do not generate it, so every
    # generating set holds every indecomposable (the r2 sweep's pruning lemma)
    sg = request.getfixturevalue(f"ab{n}")
    full = (1 << sg.m) - 1
    needed = [x for x in range(sg.m) if not closure_bits(sg.sums, full ^ 1 << x) >> x & 1]
    assert needed == list(engine.indecomposables(sg))


def test_lower_rank_without_indecomposables_matches_the_oracle():
    # the Klein four-group has no indecomposable, so the sweep prunes
    # nothing; b2 (indecomposables 2, 3) and ab1 (all three) are checked above
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    klein = FiniteSemigroup([f"k{i}" for i in range(4)], xor)
    assert len(engine.indecomposables(klein)) == 0
    assert lower_rank_exact(klein, BIG).witness == _first_minimum_generating_set(klein) == (1, 2)


def _count_search_work(monkeypatch):
    """Count a search's ``extend_closure`` calls and the nodes it spends."""
    counts = {"extensions": 0, "nodes": 0}
    extend, spend = ranks.extend_closure, ranks._Clock.spend

    def counting_extend(*args):
        counts["extensions"] += 1
        return extend(*args)

    def counting_spend(self):
        ok = spend(self)
        counts["nodes"] += ok
        return ok

    monkeypatch.setattr(ranks, "extend_closure", counting_extend)
    monkeypatch.setattr(ranks._Clock, "spend", counting_spend)
    return counts


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_lower_rank_checks_the_s_t_witness_once(n, ab2, ab3, monkeypatch):
    # n = 2 sweeps every 5-subset, n = 3 stops at the first-factor bound;
    # both return the witness, checked on entry and not again
    sg = (ab2, ab3)[n - 2]
    calls = _count_calls(monkeypatch, ranks, "closure_bits")
    rv = lower_rank_exact(sg, BIG, witness=generating_witness(n))
    assert len(calls) == 1
    assert rv.value == n * (factorial(n) + 1)
    assert rv.provenance == (PROV_SEARCH if n == 2 else PROV_WITNESS)


def test_lower_rank_sweep_size_with_the_s_t_witness_n2(ab2, monkeypatch):
    # every 5-subset is ruled out, but only prefixes holding the
    # indecomposables 2 and 3 are walked past them: 3,283 of 146,595
    # nodes, each one closure extension
    counts = _count_search_work(monkeypatch)
    wit = generating_witness(2)
    rv = lower_rank_exact(ab2, BIG, witness=wit)
    assert counts == {"extensions": 3_283, "nodes": 3_283}
    assert (rv.value, rv.provenance) == (6, PROV_SEARCH)
    assert rv.detail == "no generating subset of size 5 (exhaustive)"


def test_lower_rank_sweep_size_without_a_witness_n2(ab2, monkeypatch):
    counts = _count_search_work(monkeypatch)
    rv = lower_rank_exact(ab2, BIG)
    assert counts == {"extensions": 20_372, "nodes": 20_372}
    assert rv.witness == (2, 3, 21, 22, 25, 26)


# --- r3 -------------------------------------------------------------------------


def test_intermediate_rank_n2():
    rv = intermediate_rank_verify(2, BIG)
    assert rv.value == 6
    assert rv.provenance == PROV_SEARCH


def test_intermediate_rank_n3():
    rv = intermediate_rank_verify(3, BIG)
    assert rv.value == 22
    assert rv.provenance == PROV_WITNESS


def test_intermediate_rank_n4():
    rv = intermediate_rank_verify(4)
    assert rv.value == 102
    assert rv.provenance == PROV_WITNESS


def test_intermediate_rank_n2_keeps_budget(ab2):
    # one node per stratified candidate: the limit stops the confirmation
    # after the first, and the verified witness still proves the lower bound
    rv = intermediate_rank_verify(2, SearchBudget(node_limit=1))
    assert not rv.exact and rv.provenance == PROV_BOUNDS
    assert rv.bounds == (6, 29)
    assert len(rv.witness) == 6 and engine.is_independent(ab2, rv.witness)
    assert "budget exhausted" in rv.detail
    assert not plan_rank(2, "r3", SearchBudget(node_limit=1)).exact


def test_intermediate_rank_bruteforce_b1(ab1):
    assert intermediate_rank_bruteforce(ab1, BIG).value == 3


def test_intermediate_rank_rejects_n1():
    with pytest.raises(InvalidParameterError):
        intermediate_rank_verify(1)


@pytest.mark.parametrize("n", [2, 3])
def test_independent_generating_witnesses_respect_size_cap(n, ab2, ab3):
    # every independent generating set is capped at n(n!) + 2n - 2
    sg = ab2 if n == 2 else ab3
    cap = n * factorial(n) + 2 * n - 2
    rv = intermediate_rank_verify(n, BIG)
    assert len(rv.witness) == rv.value <= cap
    sut = generating_witness(n)
    if engine.is_independent(sg, sut) and engine.is_generating(sg, sut):
        assert len(sut) <= cap


# --- r4 -------------------------------------------------------------------------


def test_upper_rank_one_element():
    one = FiniteSemigroup(["e"], [[0]])
    assert upper_rank_search(one, BIG).value == 1


def test_upper_rank_a_plus_b1(ab1):
    assert upper_rank_search(ab1, BIG).value == 3


def test_upper_rank_constants_b3_matches_scan_oracle():
    cb3 = constants_semigroup(3)
    # full scan over all 2^10 subsets
    best = 0
    for bits in range(1, 1 << cb3.m):
        if bits.bit_count() > best and engine.is_independent(
            cb3, engine.iter_bits(bits)
        ):
            best = bits.bit_count()
    assert best == 5  # floor(9/4) + 3
    rv = upper_rank_search(cb3, BIG)
    assert rv.value == best
    assert rv.provenance == PROV_SEARCH


def test_upper_rank_deterministic():
    cb3 = constants_semigroup(3)
    a = upper_rank_search(cb3, BIG)
    b = upper_rank_search(cb3, BIG)
    assert a.value == b.value and a.witness == b.witness


def test_upper_rank_budget_exhaustion(ab2):
    rv = upper_rank_search(ab2, SearchBudget(seconds=600, node_limit=50))
    assert not rv.exact
    assert rv.provenance == PROV_BOUNDS
    assert rv.bounds[0] <= rv.bounds[1] == 29


def test_upper_rank_search_tree_size_n2(ab2):
    # the exact n = 2 search from P2 takes 50,255 nodes; one fewer leaves it
    # unfinished, so any change to the tree shows here
    seed = construct_witness(2, "P2")
    rv = upper_rank_search(ab2, SearchBudget(seconds=600, node_limit=50_255), seed=seed)
    assert rv.exact and rv.value == 14
    rv = upper_rank_search(ab2, SearchBudget(seconds=600, node_limit=50_254), seed=seed)
    assert rv.bounds == (14, 29)


def test_upper_rank_extension_sequence_n2(ab2, monkeypatch):
    # the exact n = 2 search from P2: same tree, same closure extensions
    counts = _count_search_work(monkeypatch)
    rv = upper_rank_search(ab2, BIG, seed=construct_witness(2, "P2"))
    assert rv.exact and rv.value == 14
    assert counts == {"extensions": 66_286, "nodes": 50_255}


def test_upper_rank_extension_sequence_n3(ab3, monkeypatch):
    # the open n = 3 search from I, cut at 8,000 nodes, keeps its golden witness
    counts = _count_search_work(monkeypatch)
    rv = upper_rank_search(ab3, SearchBudget(seconds=600, node_limit=8_000),
                           seed=construct_witness(3, "I"))
    assert counts == {"extensions": 8_560, "nodes": 8_000}
    assert rv.bounds == (57, 145)
    golden = json.loads((Path(__file__).parent / "golden" / "search-r4-n3-8000.json")
                        .read_text(encoding="utf-8"))
    assert list(rv.witness_labels) == golden["output"]["ranks"]["r4"]["witness"]


def test_upper_rank_search_with_many_chosen_members_n4(ab4):
    # from the 388-element I witness the chosen set holds hundreds of
    # members; the cut-short search keeps an independent witness of its bound
    rv = upper_rank_search(ab4, SearchBudget(seconds=600, node_limit=2_000),
                           seed=construct_witness(4, "I"))
    assert not rv.exact
    assert len(rv.witness) == rv.lower == 388
    assert engine.is_independent(ab4, rv.witness)


def test_upper_rank_reads_a_one_shot_seed_once(ab2):
    # a seed given as an iterator still primes the incumbent
    budget = SearchBudget(seconds=600, node_limit=5)
    seed = construct_witness(2, "P2")
    rv = upper_rank_search(ab2, budget, seed=iter(seed))
    assert rv.bounds == (14, 29) and rv.witness == seed


def test_upper_rank_empty_seed_is_no_incumbent():
    # the empty set is independent; it primes nothing, as no seed at all
    cb3 = constants_semigroup(3)
    a, b = upper_rank_search(cb3, BIG, seed=[]), upper_rank_search(cb3, BIG)
    assert a.value == 5 and (a.value, a.witness) == (b.value, b.witness)


def test_upper_rank_rejects_bad_seed(ab2):
    with pytest.raises(WitnessVerificationError):
        upper_rank_search(ab2, BIG, seed=[0, ab2.index_of("xi(1,2)")])


def test_i_witness_independent(ab2, ab3):
    assert engine.is_independent(ab2, construct_witness(2, "I"))
    assert engine.is_independent(ab3, construct_witness(3, "I"))


def test_i_witness_independent_n4(ab4):
    # the construction behind the reported lower bound r4 >= 388 at n = 4
    w = construct_witness(4, "I")
    assert len(w) == factorial(4) * 16 + 4
    assert engine.is_independent(ab4, w)


def test_upper_rank_search_keeps_budget(ab3):
    # the clock is read at every node, so the search stops within the
    # margin stated on SearchBudget
    budget = SearchBudget(seconds=0.5)
    rv = upper_rank_search(ab3, budget, seed=construct_witness(3, "I"))
    assert not rv.exact and rv.lower >= 57
    assert rv.elapsed_ms <= (budget.seconds + SearchBudget.OVERSHOOT_MARGIN_S) * 1000.0


def test_plan_rank_r4_n4_lower_bound_has_its_witness(ab4):
    # the search starts from I, so the reported lower bound 388 is the size of
    # the independent witness that comes with it
    rv = plan_rank(4, "r4", SearchBudget(seconds=600, node_limit=20))
    assert not rv.exact
    assert len(rv.witness) == rv.lower == 388
    assert rv.upper == kappa_upper_bound(4) == 520
    assert engine.is_independent(ab4, rv.witness)
    assert rv.detail == "budget exhausted; best witness kept; merged with construction/cap bounds"


def test_plan_rank_r4_checks_the_seed_once(monkeypatch):
    # the search keeps the 57-element seed, so its end check is skipped
    calls = _count_calls(monkeypatch, engine, "is_independent")
    rv = plan_rank(3, "r4", SearchBudget(seconds=600, node_limit=8_000))
    assert rv.bounds == (57, 104)
    assert len(calls) == 1


def test_upper_rank_rechecks_a_set_the_search_found(ab2, monkeypatch):
    # with no seed the best set is the search's own, checked once at the end
    calls = _count_calls(monkeypatch, engine, "is_independent")
    rv = upper_rank_search(ab2, SearchBudget(seconds=600, node_limit=50))
    assert [set(c[1]) for c in calls] == [set(rv.witness)]


def test_plan_rank_r4_n2_merges_an_unfinished_search(ab2):
    rv = plan_rank(2, "r4", SearchBudget(seconds=600, node_limit=50))
    assert rv.bounds == (14, 23)
    assert len(rv.witness) == 14 and engine.is_independent(ab2, rv.witness)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("key", ["r1", "r2", "r3", "r4", "r5"])
def test_plan_rank_labels_and_times_every_result(n, key, ab1, ab2, ab3):
    sg = (ab1, ab2, ab3)[n - 1]
    rv = plan_rank(n, key, SearchBudget(seconds=600, node_limit=20_000))
    if rv.witness:
        assert rv.witness_labels == tuple(sg.label_list(rv.witness))
    else:
        assert rv.witness_labels is None
    assert rv.elapsed_ms >= 0


def _forbid_table_builds(monkeypatch):
    def build(n):
        raise AssertionError(f"a_plus_semigroup({n}) was built")

    monkeypatch.setattr(ranks, "a_plus_semigroup", build)


def test_plan_rank_r4_closed_form_from_n6(monkeypatch):
    # n >= 6 reads the closed form and never touches the table
    _forbid_table_builds(monkeypatch)
    for n, r4 in ((6, 25_926), (7, 246_967)):
        rv = plan_rank(n, "r4")
        formula = rank_formulas(n).ranks["r4"]
        assert rv.exact and (rv.value, rv.provenance) == (formula.value, formula.provenance)
        assert rv.value == r4


def test_plan_rank_checks_n_and_key_before_building_a_table(monkeypatch):
    _forbid_table_builds(monkeypatch)
    for n, key in ((0, "r1"), (True, "r1"), (2.0, "r1"), (2, "r6"), (6, "r6")):
        with pytest.raises(InvalidParameterError):
            plan_rank(n, key)


# --- r5 -------------------------------------------------------------------------


def test_large_rank_a_plus_b2(ab2):
    rv = large_rank_exact(ab2)
    assert rv.value == 29
    assert "xi(1,2)" in rv.detail  # singleton prime subset found
    assert len(rv.witness) == 28


def test_large_rank_a_plus_b3(ab3):
    rv = large_rank_exact(ab3)
    assert rv.value == 144
    assert len(rv.witness) == 143  # smallest prime subset has size 2


def test_smallest_prime_subset_n3_matches_naive_scan(ab3):
    found, proven = smallest_prime_subset(ab3, _Clock())
    assert len(found) == 2 and proven == 1
    # naive oracle: no singleton is prime, some pair is
    assert all(not engine.is_prime_subset(ab3, [i]) for i in range(ab3.m))
    first_pair = None
    for pair in itertools.combinations(range(ab3.m), 2):
        if engine.is_prime_subset(ab3, pair):
            first_pair = pair
            break
    assert first_pair is not None
    assert engine.is_prime_subset(ab3, found)


def _pairs_into_reference(rows, m):
    """The pair lists as (a, b) tuples, built by the row-major loop."""
    out = [[] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            out[rows[a][b]].append((a, b))
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_violated_pair_is_the_first_in_pair_order(ab2, ab3, data):
    # the fibers give the first violated decomposition that the row-major
    # pair lists give, so the prime-subset search tree is that of the lists
    sg = data.draw(st.sampled_from([ab2, ab3]))
    # random sets are rarely prime; small ones often are
    small = st.sets(st.integers(0, sg.m - 1), min_size=1, max_size=4)
    bits = data.draw(st.integers(1, (1 << sg.m) - 1) | small.map(lambda xs: sum(1 << i for i in xs)))
    pairs = _pairs_into_reference(sg.table.tolist(), sg.m)
    expected = next(((a, b) for u in engine.iter_bits(bits) for a, b in pairs[u]
                     if not bits >> a & 1 and not bits >> b & 1), None)
    first = engine.transpose_bits(enumerate(sg.sums.row_fibers), sg.m)
    assert ranks._violated_pair(sg.sums.row_fibers, first, bits) == expected


def test_large_rank_keeps_budget(ab3):
    # A+(B_3) has no indecomposable element, so the search for a prime pair
    # starts and the one-node limit stops it: only size 1 is excluded
    rv = large_rank_exact(ab3, budget=SearchBudget(node_limit=1))
    assert not rv.exact and rv.provenance == PROV_BOUNDS
    assert rv.bounds == (2, 144)
    assert rv.detail == "budget exhausted; no proper prime subset of size <= 1"
    assert smallest_prime_subset(ab3, _Clock(SearchBudget(node_limit=1))) == (None, 1)
    assert plan_rank(3, "r5", SearchBudget(node_limit=1)).bounds == (2, 144)


def test_large_rank_checks_its_witness_once_under_one_clock(ab3, monkeypatch):
    clocks = []

    class CountingClock(_Clock):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            clocks.append(self)

    monkeypatch.setattr(ranks, "_Clock", CountingClock)
    calls = _count_calls(monkeypatch, engine, "is_prime_subset")
    rv = large_rank_exact(ab3)
    assert rv.value == 144
    assert len(clocks) == 1
    assert len(calls) == 1


def test_large_rank_rejects_a_witness_that_fails_its_check(ab2, ab3, monkeypatch):
    monkeypatch.setattr(engine, "is_prime_subset", lambda sg, subset: False)
    for sg in (ab2, ab3):  # a singleton (indecomposable) and a searched pair
        with pytest.raises(WitnessVerificationError, match="prime subset witness"):
            large_rank_exact(sg)


def test_large_rank_b2(b2):
    rv = large_rank_exact(b2)
    assert rv.value == 5  # B_2 has indecomposable elements


def test_large_rank_one_element():
    assert large_rank_exact(FiniteSemigroup(["e"], [[0]])).value == 1


def test_large_rank_cap_bounds():
    # Z_11 under addition: its only proper subsemigroup is {0}, so its
    # smallest proper prime subset has 10 elements, above the cap min(6, m - 1)
    z11 = FiniteSemigroup(
        [str(i) for i in range(11)], [[(i + j) % 11 for j in range(11)] for i in range(11)]
    )
    rv = large_rank_exact(z11)
    assert not rv.exact
    assert rv.bounds == (2, 5)
    assert rv.detail == "no proper prime subset of size <= 6"


def test_rank_routines_ignore_the_n_tag(ab3, b2, b3):
    # the n a table carries is a file field: A+(B_3) tagged n = 1, and B_n
    # with its own n, get what their untagged copies get
    small = SearchBudget(seconds=600, node_limit=2_000)
    for sg in (FiniteSemigroup(ab3.labels, ab3.table, n=1), b2, b3):
        plain = FiniteSemigroup(sg.labels, sg.table)
        assert sg.n is not None and plain.n is None
        for routine, budget in ((small_rank, BIG), (lower_rank_exact, small),
                                (upper_rank_search, small), (large_rank_exact, BIG)):
            got, want = routine(sg, budget), routine(plain, budget)
            got.elapsed_ms = want.elapsed_ms = 0.0
            assert got == want, (sg, routine.__name__)
    assert large_rank_exact(FiniteSemigroup(ab3.labels, ab3.table, n=1)).value == 144


def test_chain_violation_detection():
    report = RankReport(n=2)
    report.ranks["r1"] = RankValue(value=4)
    report.ranks["r2"] = RankValue(value=3)
    assert report.chain_violations() == ["r1 >= 4 > 3 >= r2"]
    # disjoint bounds: r1 >= 5 cannot sit below r2 <= 3
    report.ranks["r1"] = RankValue(bounds=(5, 10), provenance=PROV_BOUNDS)
    report.ranks["r2"] = RankValue(bounds=(1, 3), provenance=PROV_BOUNDS)
    assert report.chain_violations() == ["r1 >= 5 > 3 >= r2"]


def test_chain_allows_values_inside_overlapping_bounds():
    # r3 = 60 <= r4 <= r5 = 90 holds for any r4 in [60, 90], inside [57, 104]
    report = RankReport(n=3)
    report.ranks["r3"] = RankValue(value=60)
    report.ranks["r4"] = RankValue(bounds=(57, 104), provenance=PROV_BOUNDS)
    report.ranks["r5"] = RankValue(value=90)
    assert report.chain_violations() == []


# --- differential checks against brute force ------------------------------------


def _sub_semigroup(sg, seed_indices):
    bits = closure_bits(sg.sums, sum(1 << i for i in seed_indices))
    idx = [i for i in range(sg.m) if bits >> i & 1]
    pos = {i: p for p, i in enumerate(idx)}
    rows = sg.table.tolist()
    table = [[pos[rows[a][b]] for b in idx] for a in idx]
    return FiniteSemigroup([sg.labels[i] for i in idx], table)


def test_searches_match_brute_force_on_random_subsemigroups(ab2):
    import random

    rng = random.Random(7)
    checked = 0
    while checked < 25:
        sub = _sub_semigroup(ab2, rng.sample(range(29), rng.randint(1, 4)))
        if sub.m > 14:
            continue
        best = 0
        for bits in range(1, 1 << sub.m):
            if bits.bit_count() > best and engine.is_independent(
                sub, engine.iter_bits(bits)
            ):
                best = bits.bit_count()
        assert upper_rank_search(sub, BIG).value == best
        assert lower_rank_exact(sub, BIG).witness == _first_minimum_generating_set(sub)
        checked += 1


def _max_independent_bruteforce(sg):
    """Size of a largest independent subset, from the closure of every subset.

    Each closure extends the closure of the subset without its lowest
    member by the per-member loop: no ideal filter, no closure code from
    ``engine``.
    """
    rows, m = sg.table.tolist(), sg.m
    closed = [0] * (1 << m)
    for bits in range(1, 1 << m):
        low = bits & -bits
        c = closed[bits ^ low] | low
        elems = list(engine.iter_bits(c))
        stack = [low.bit_length() - 1]
        while stack:
            a = stack.pop()
            for b in elems[:]:
                for p in (rows[a][b], rows[b][a]):
                    if not c >> p & 1:
                        c |= 1 << p
                        elems.append(p)
                        stack.append(p)
        closed[bits] = c
    return max(
        bits.bit_count()
        for bits in range(1, 1 << m)
        if all(not closed[bits & ~(1 << a)] >> a & 1 for a in engine.iter_bits(bits))
    )


@st.composite
def _b2_subsemigroups(draw, ab2, max_gens=4):
    sub = _sub_semigroup(ab2, draw(st.sets(st.integers(0, 28), min_size=1, max_size=max_gens)))
    assume(sub.m <= 12)
    return sub


def _small_semigroups(ab2):
    """Subsemigroups of A+(B_2) and small tables, both of at most 12 elements."""
    return _b2_subsemigroups(ab2) | small_tables().map(semigroup_or_none).filter(
        lambda sg: sg is not None
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_upper_rank_search_matches_brute_force(ab2, data):
    sg = data.draw(_small_semigroups(ab2))
    rv = upper_rank_search(sg, BIG)
    assert rv.value == _max_independent_bruteforce(sg) == len(rv.witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_upper_rank_search_is_exact_from_any_seed(ab2, data):
    # a child is skipped unbuilt only when its bound already fails, so the
    # value is the largest independent subset with or without an incumbent
    sg = data.draw(_b2_subsemigroups(ab2, max_gens=5))
    independent = [bits for bits in range(1, 1 << sg.m)
                   if engine.independent_bits(sg.sums, sg.ideals, bits)]
    best = max(bits.bit_count() for bits in independent)
    seed = tuple(engine.iter_bits(data.draw(st.sampled_from(independent))))
    assert upper_rank_search(sg, BIG).value == best
    assert upper_rank_search(sg, BIG, seed=seed).value == best


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lower_rank_matches_the_first_minimum_oracle(ab2, data):
    sg = data.draw(_small_semigroups(ab2))
    assert lower_rank_exact(sg, BIG).witness == _first_minimum_generating_set(sg)
