"""The five ranks r1..r5: closed forms, witness constructions, exact search.

Rank computations return RankValue records carrying either an exact value
or (lower, upper) bounds, a provenance tag, an optional witness, and the
elapsed time. Budget exhaustion is a first-class bounds result, never an
error. Every witness is re-verified against the Cayley table before it is
returned. ``plan_rank`` decides how each rank of A+(B_n) is obtained.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from . import engine
from .affine import (
    Const,
    NSupport,
    Singleton,
    a_plus_semigroup,
    a_plus_size,
    all_permutations,
    enumerate_a_plus,
    perm_inverse,
)
from .brandt import brandt_semigroup, check_n
from .engine import FiniteSemigroup, IndexSet, closure_bits, extend_closure, iter_bits
from .errors import InvalidParameterError, WitnessVerificationError

PROV_FORMULA = "formula"
PROV_WITNESS = "witness"
PROV_SEARCH = "exact-search"
PROV_BOUNDS = "bounds"

RANK_KEYS = ("r1", "r2", "r3", "r4", "r5")


@dataclass(frozen=True)
class SearchBudget:
    """Wall-clock and node limits for the exhaustive searches.

    The clock is read at every search node, so a search stops at the first
    node after its deadline; it then re-checks its best witness. Work before
    the first node (a seed check, for one) cannot be cut short. The stated
    margin is OVERSHOOT_MARGIN_S past ``seconds``; a 1 s r4 search at n = 3
    or n = 4 returns about 0.02 s late on a 2-vCPU VM.
    """

    seconds: float = 60.0
    node_limit: int = 100_000_000

    OVERSHOOT_MARGIN_S = 1.0

    def __post_init__(self):
        if self.seconds <= 0 or self.node_limit <= 0:
            raise InvalidParameterError("budget limits must be positive")


class _Clock:
    """Budget tracker; ``spend`` returns False once the budget is gone."""

    __slots__ = ("deadline", "nodes_left", "ok")

    def __init__(self, budget: SearchBudget):
        self.deadline = time.monotonic() + budget.seconds
        self.nodes_left = budget.node_limit
        self.ok = True

    def spend(self) -> bool:
        if not self.ok:
            return False
        self.nodes_left -= 1
        if self.nodes_left < 0 or time.monotonic() > self.deadline:
            self.ok = False
            return False
        return True


@dataclass
class RankValue:
    """One rank: exact value or bounds, with provenance and witness."""

    value: int | None = None
    bounds: tuple[int, int] | None = None
    provenance: str = PROV_FORMULA
    witness: tuple[int, ...] | None = None
    witness_labels: tuple[str, ...] | None = None
    elapsed_ms: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if (self.value is None) == (self.bounds is None):
            raise InvalidParameterError("exactly one of value/bounds must be set")

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def lower(self) -> int:
        return self.value if self.value is not None else self.bounds[0]

    @property
    def upper(self) -> int:
        return self.value if self.value is not None else self.bounds[1]

    def to_json_dict(self) -> dict:
        out: dict = {"provenance": self.provenance}
        if self.value is not None:
            out["value"] = self.value
        else:
            out["bounds"] = list(self.bounds)
        out["witness"] = list(self.witness_labels) if self.witness_labels else None
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class RankReport:
    """All five ranks with provenance per value."""

    n: int | None
    ranks: dict[str, RankValue] = field(default_factory=dict)

    def chain_violations(self) -> list[str]:
        """Check r1 <= r2 <= r3 <= r4 <= r5 on the available values/bounds."""
        out = []
        present = [k for k in RANK_KEYS if k in self.ranks]
        for a, b in zip(present, present[1:]):
            ra, rb = self.ranks[a], self.ranks[b]
            if ra.exact and rb.exact and ra.value > rb.value:
                out.append(f"{a}={ra.value} > {b}={rb.value}")
            elif ra.exact and not rb.exact and ra.value > rb.lower:
                out.append(f"{a}={ra.value} > lower({b})={rb.lower}")
            elif not ra.exact and rb.exact and ra.upper > rb.value:
                out.append(f"upper({a})={ra.upper} > {b}={rb.value}")
        return out

    def to_json_dict(self) -> dict:
        return {"n": self.n, "ranks": {k: v.to_json_dict() for k, v in self.ranks.items()}}


def _finish(rv: RankValue, start: float) -> RankValue:
    rv.elapsed_ms = (time.monotonic() - start) * 1000.0
    return rv


# --- closed forms --------------------------------------------------------------


def kappa_upper_bound(n: int) -> int:
    """Stratified cap on independent-set size: sum of the per-stratum maxima."""
    check_n(n)
    q = n * n // 4
    return factorial(n) * n * n + q + n + n * n * (q + n)


def rank_formulas(n: int) -> RankReport:
    """The closed-form ranks; r4 is exact for n >= 6, bounds for 2 <= n <= 5."""
    check_n(n)
    start = time.monotonic()
    report = RankReport(n=n)
    if n == 1:
        for key in RANK_KEYS:
            report.ranks[key] = _finish(RankValue(value=3), start)
        return report
    f = factorial(n)
    report.ranks["r1"] = _finish(RankValue(value=1), start)
    report.ranks["r2"] = _finish(RankValue(value=n * (f + 1)), start)
    report.ranks["r3"] = _finish(RankValue(value=n * f + 2 * n - 2), start)
    r4_lower = 14 if n == 2 else f * n * n + n
    if n >= 6:
        report.ranks["r4"] = _finish(RankValue(value=f * n * n + n), start)
    else:
        report.ranks["r4"] = _finish(
            RankValue(bounds=(r4_lower, kappa_upper_bound(n)), provenance=PROV_BOUNDS),
            start,
        )
    report.ranks["r5"] = _finish(
        RankValue(value=f * n * n + n * n + n**4 - n + 3), start
    )
    return report


# --- witness constructions -------------------------------------------------------


def _cycle_constants(n: int) -> list[Const]:
    # xi_(i, i+1) for i < n-1 plus xi_(n, 1), 0-based.
    return [Const((i, i + 1)) for i in range(n - 1)] + [Const((n - 1, 0))]


def _witness_elements(n: int, kind: str, q_subset=None):
    if kind == "S":
        return _cycle_constants(n)
    if kind == "T":
        # phi_sigma + xi_(r, s) is the n-support map (r sigma^-1, s; sigma).
        out = []
        for sigma in all_permutations(n):
            inv = perm_inverse(sigma)
            for c in _cycle_constants(n):
                r, s = c.c
                out.append(NSupport(inv[r], s, sigma))
        return out
    if kind == "SprimeUnionT":
        sprime = [Const((0, i)) for i in range(1, n)] + [Const((j, 0)) for j in range(1, n)]
        return sprime + _witness_elements(n, "T")
    if kind == "I":
        nsup = [
            NSupport(p, q, sigma)
            for p in range(n)
            for q in range(n)
            for sigma in all_permutations(n)
        ]
        return nsup + [Const((i, i)) for i in range(n)]
    if kind == "P2":
        if n != 2:
            raise InvalidParameterError("the 14-element independent set is specific to n=2")
        q_vals = [(0, 0), (0, 1), (1, 1)]
        sing = [Singleton(k, l, a, b) for k in range(2) for l in range(2) for (a, b) in q_vals]
        return sing + [Const((0, 0)), Const((1, 1))]
    if kind == "V":
        return [Const((n - 1, k)) for k in range(n - 1)]
    if kind == "Qprime":
        if not q_subset:
            raise InvalidParameterError("Qprime needs a nonempty independent subset of B_n")
        pairs = []
        for x in q_subset:
            if x is None:
                raise InvalidParameterError("Qprime values must be nonzero pairs")
            i, j = x
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameterError(f"pair {x!r} out of range for n={n}")
            pairs.append((i, j))
        bsg = brandt_semigroup(n)
        idx = [1 + i * n + j for (i, j) in pairs]
        if not engine.is_independent(bsg, idx):
            raise InvalidParameterError("Qprime requires an independent subset of B_n")
        return [Singleton(k, l, a, b) for k in range(n) for l in range(n) for (a, b) in pairs]
    raise InvalidParameterError(f"unknown witness kind {kind!r}")


def construct_witness(n: int, kind: str, q_subset=None) -> IndexSet:
    """Index set of a named witness inside the canonical enumeration.

    Kinds: S (cycle constants), T (automorphism + S sums), SprimeUnionT,
    I (all n-support maps plus diagonal constants), P2 (the 14-element
    independent set, n=2 only), V (the small prime subset), Qprime (singleton
    maps over an independent subset of B_n).
    """
    check_n(n)
    if n < 2:
        raise InvalidParameterError("witness constructions need n >= 2")
    elems = _witness_elements(n, kind, q_subset)
    index = {e: i for i, e in enumerate(enumerate_a_plus(n))}
    out = IndexSet(a_plus_size(n))
    for e in elems:
        out.add(index[e])
    expected = {
        "S": n,
        "T": n * factorial(n),
        "SprimeUnionT": n * factorial(n) + 2 * n - 2,
        "I": factorial(n) * n * n + n,
        "P2": 14,
        "V": n - 1,
    }.get(kind, len(out))
    if len(out) != expected:
        raise WitnessVerificationError(f"witness {kind} has size {len(out)}, expected {expected}")
    return out


def generating_witness(n: int) -> IndexSet:
    """S ∪ T: a generating set of size n(n! + 1), the closed-form r2."""
    return construct_witness(n, "S") | construct_witness(n, "T")


# --- r1: small rank -----------------------------------------------------------


def small_rank(sg: FiniteSemigroup, budget: SearchBudget | None = None) -> RankValue:
    """Largest k such that every k-subset is independent.

    Shortcut: a non-band with at least two elements has small rank 1.
    Otherwise the definition is brute-forced level by level (a dependent
    subset stays dependent under supersets, so the first failing level ends
    the scan).
    """
    start = time.monotonic()
    if sg.m >= 2 and not engine.is_band(sg):
        return _finish(RankValue(value=1, provenance=PROV_FORMULA), start)
    return _finish(_small_rank_bruteforce(sg, budget), start)


def _small_rank_bruteforce(sg: FiniteSemigroup, budget: SearchBudget | None) -> RankValue:
    clock = _Clock(budget or SearchBudget())
    rows, cols, ideals = sg.rows, sg.cols, sg.ideals
    m = sg.m
    # singletons are always independent (nothing generates from the empty
    # set), so the scan starts at pairs and the first failing level ends it
    for k in range(2, m + 1):
        for combo in itertools.combinations(range(m), k):
            if not clock.spend():
                return RankValue(bounds=(k - 1, m), provenance=PROV_BOUNDS,
                                 detail="budget exhausted during brute-force scan")
            bits = 0
            for i in combo:
                bits |= 1 << i
            if not engine.independent_bits(rows, cols, ideals, bits):
                return RankValue(value=k - 1, provenance=PROV_SEARCH,
                                 detail=f"dependent {k}-subset found")
    return RankValue(value=m, provenance=PROV_SEARCH, detail="every subset is independent")


# --- r2: lower rank ------------------------------------------------------------


def first_factor_lower_bound(sg: FiniteSemigroup) -> tuple[int, list[int]]:
    """Sound lower bound on minimum generating size from the table alone.

    For every element f, any generating set must contain f itself or some a
    that opens a two-term product a + b = f. A family of elements whose
    first-factor sets are pairwise disjoint therefore bounds the minimum
    generating size from below; a greedy pass picks such a family.
    """
    rows = sg.rows
    m = sg.m
    first = [1 << f for f in range(m)]
    for a in range(m):
        row = rows[a]
        abit = 1 << a
        for b in range(m):
            first[row[b]] |= abit
    order = sorted(range(m), key=lambda f: (first[f].bit_count(), f))
    taken = 0
    picks: list[int] = []
    for f in order:
        if not first[f] & taken:
            taken |= first[f]
            picks.append(f)
    return len(picks), sorted(picks)


def _sweep_generating_subsets(
    rows: list[list[int]], cols: list[list[int]], m: int, k: int, clock: _Clock
) -> tuple[bool, list[tuple[int, ...]]]:
    """DFS over ascending-index subsets of size <= k with incremental closure.

    Stops at the first visited prefix whose closure is the whole semigroup
    (so it may be shorter than k). Returns (completed, found), where found
    holds that prefix or is empty.
    """
    found: list[tuple[int, ...]] = []
    elems: list[int] = []
    chosen: list[int] = []

    def rec(start: int, bits: int, depth: int) -> bool:
        # False stops the sweep: a generating prefix was found or the budget ran out
        limit = m - (k - depth) + 1
        for i in range(start, limit):
            if not clock.spend():
                return False
            mark = len(elems)
            nb = extend_closure(rows, cols, bits, elems, i)
            chosen.append(i)
            if len(elems) == m:
                found.append(tuple(chosen))
                return False
            if depth + 1 < k and not rec(i + 1, nb, depth + 1):
                return False
            chosen.pop()
            del elems[mark:]
        return True

    completed = rec(0, 0, 0)
    return completed or bool(found), found


def _sweep_node_estimate(m: int, k: int) -> int:
    return sum(comb(m, d) for d in range(1, k + 1))


def lower_rank_exact(
    sg: FiniteSemigroup,
    budget: SearchBudget | None = None,
    witness=None,
) -> RankValue:
    """Exact minimum generating set size, with witness.

    With a known generating witness of size t, a single exhaustive sweep of
    all (t-1)-subsets settles exactness (a smaller generating set would
    extend to a generating (t-1)-subset). Without one, iterative deepening
    from the first-factor lower bound finds the minimum; the first witness
    found is the lexicographically smallest. Budget exhaustion yields
    (proven lower, best upper) bounds.
    """
    start = time.monotonic()
    clock = _Clock(budget or SearchBudget())
    rows, cols = sg.rows, sg.cols
    m = sg.m
    lb, _family = first_factor_lower_bound(sg)
    lb = max(lb, 1)

    wit: tuple[int, ...] | None = None
    if witness is not None:
        bits = engine._coerce_bits(sg, witness)
        if closure_bits(rows, cols, bits) != (1 << m) - 1:
            raise WitnessVerificationError("provided witness does not generate")
        wit = tuple(iter_bits(bits))

    def done(value: int, w: tuple[int, ...], prov: str, detail: str = "") -> RankValue:
        if closure_bits(rows, cols, sum(1 << i for i in w)) != (1 << m) - 1:
            raise WitnessVerificationError("minimum generating witness failed re-check")
        return _finish(
            RankValue(value=value, provenance=prov, witness=w,
                      witness_labels=tuple(sg.label_list(w)), detail=detail),
            start,
        )

    if wit is not None:
        while True:
            k = len(wit) - 1
            if k == 0:
                return done(1, wit, PROV_SEARCH, "single generator")
            if lb == len(wit) and _sweep_node_estimate(m, k) > clock.nodes_left:
                return done(len(wit), wit, PROV_WITNESS,
                            f"first-factor lower bound {lb} matches witness size")
            if _sweep_node_estimate(m, k) > clock.nodes_left:
                return _finish(
                    RankValue(bounds=(lb, len(wit)), provenance=PROV_BOUNDS, witness=wit,
                              witness_labels=tuple(sg.label_list(wit)),
                              detail=f"sweep of {k}-subsets exceeds node budget"),
                    start,
                )
            completed, found = _sweep_generating_subsets(rows, cols, m, k, clock)
            if found:
                wit = found[0]  # smaller generating set; tighten and repeat
                continue
            if completed:
                return done(len(wit), wit, PROV_SEARCH,
                            f"no generating subset of size {k} (exhaustive)")
            if lb == len(wit):
                return done(len(wit), wit, PROV_WITNESS,
                            f"first-factor lower bound {lb} matches witness size")
            return _finish(
                RankValue(bounds=(lb, len(wit)), provenance=PROV_BOUNDS, witness=wit,
                          witness_labels=tuple(sg.label_list(wit)),
                          detail="budget exhausted mid-sweep"),
                start,
            )

    for k in range(lb, m + 1):
        if _sweep_node_estimate(m, k) > clock.nodes_left:
            return _finish(
                RankValue(bounds=(k, m), provenance=PROV_BOUNDS,
                          detail=f"sweep of {k}-subsets exceeds node budget"),
                start,
            )
        completed, found = _sweep_generating_subsets(rows, cols, m, k, clock)
        if found:
            return done(len(found[0]), found[0], PROV_SEARCH)
        if not completed:
            return _finish(
                RankValue(bounds=(k, m), provenance=PROV_BOUNDS,
                          detail="budget exhausted mid-sweep"),
                start,
            )
    raise WitnessVerificationError("the full element set failed to generate itself")


# --- r3: intermediate rank -------------------------------------------------------


def intermediate_rank_verify(
    n: int, budget: SearchBudget | None = None, sg: FiniteSemigroup | None = None
) -> RankValue:
    """Verify the maximal independent generating set construction.

    Builds the witness (boundary constants plus automorphism translates),
    asserts it is independent and generating, and for n = 2 confirms
    maximality exhaustively over the stratified candidate space: independent
    generating sets carry no singleton maps, exactly n*n! n-support maps and
    between n and 2n-2 full-support constants, so all admissible candidates
    (plus their zero-constant augmentations) are enumerated and checked, one
    budget node per candidate. If the budget runs out first, the verified
    witness still proves the lower bound, and the result is (witness size, m).
    """
    check_n(n)
    if n < 2:
        raise InvalidParameterError("intermediate rank verification needs n >= 2")
    start = time.monotonic()
    clock = _Clock(budget or SearchBudget())
    sg = sg if sg is not None else a_plus_semigroup(n)
    w = construct_witness(n, "SprimeUnionT")
    if not engine.is_generating(sg, w):
        raise WitnessVerificationError("independent generating witness does not generate")
    if not engine.is_independent(sg, w):
        raise WitnessVerificationError("independent generating witness is not independent")
    expected = n * factorial(n) + 2 * n - 2
    if len(w) != expected:
        raise WitnessVerificationError(f"witness size {len(w)} != {expected}")
    wit = tuple(iter_bits(w.bits))
    prov = PROV_WITNESS
    detail = "witness verified independent and generating"
    if n == 2:
        elems = enumerate_a_plus(2)
        full_idx = [i for i, e in enumerate(elems) if isinstance(e, Const)]
        nsup_idx = [i for i, e in enumerate(elems) if isinstance(e, NSupport)]
        hits = 0
        for fc in itertools.combinations(full_idx, 2):
            for ns in itertools.combinations(nsup_idx, 4):
                if not clock.spend():
                    return _finish(
                        RankValue(bounds=(expected, sg.m), provenance=PROV_BOUNDS,
                                  witness=wit, witness_labels=tuple(sg.label_list(wit)),
                                  detail=f"{detail}; budget exhausted during stratified "
                                         "confirmation"),
                        start,
                    )
                cand = fc + ns
                if engine.is_generating(sg, cand) and engine.is_independent(sg, cand):
                    hits += 1
                aug = (0,) + cand
                if engine.is_generating(sg, aug) and engine.is_independent(sg, aug):
                    raise WitnessVerificationError(
                        "unexpected 7-element independent generating set"
                    )
        if hits == 0:
            raise WitnessVerificationError("no stratified candidate verified")
        prov = PROV_SEARCH
        detail = f"stratified exhaustive confirmation: {hits} maximal candidates"
    return _finish(
        RankValue(value=expected, provenance=prov, witness=wit,
                  witness_labels=tuple(sg.label_list(wit)), detail=detail),
        start,
    )


def intermediate_rank_bruteforce(sg: FiniteSemigroup, budget: SearchBudget | None = None) -> RankValue:
    """Max size of an independent generating set by scanning all subsets (tiny m)."""
    start = time.monotonic()
    if sg.m > 16:
        raise InvalidParameterError("brute-force intermediate rank is capped at m <= 16")
    clock = _Clock(budget or SearchBudget())
    best: tuple[int, ...] | None = None
    for bits in range(1, 1 << sg.m):
        if not clock.spend():
            return _finish(RankValue(bounds=(0, sg.m), provenance=PROV_BOUNDS), start)
        idx = tuple(iter_bits(bits))
        if best is not None and len(idx) <= len(best):
            continue
        if engine.is_generating(sg, idx) and engine.is_independent(sg, idx):
            best = idx
    if best is None:
        raise WitnessVerificationError("no independent generating set found")
    return _finish(
        RankValue(value=len(best), provenance=PROV_SEARCH, witness=best,
                  witness_labels=tuple(sg.label_list(best))),
        start,
    )


# --- r4: upper rank ---------------------------------------------------------------


def upper_rank_search(
    sg: FiniteSemigroup,
    budget: SearchBudget | None = None,
    seed=None,
) -> RankValue:
    """Maximum independent set size by branch and bound over the hereditary system.

    Elements are branched in canonical index order, include before exclude.
    At each node the optimistic bound is |current| + |remaining compatible
    candidates|. ``seed`` may prime the incumbent with a known independent
    set; it is verified first and only strengthens pruning.

    For each chosen member c the search keeps a leave-one-out closure
    ``minus_bits[r]`` (c = chosen[r]): the closure of some G_r with
    (chosen minus c) ∩ up(c) ⊆ G_r ⊆ chosen minus c, where up(c) is the set
    of elements whose principal ideal holds c (``FiniteSemigroup.ideals``).
    A new member x extends only the closures of the c in its own ideal. The
    test "c in minus_bits[r]" stays exact, because a sum equal to c lies in
    the ideal of each of its terms, so c is generated by chosen minus c iff
    it is generated by the members in up(c). The tree is the one the
    unfiltered closures give, with far fewer closure extensions.
    """
    start = time.monotonic()
    clock = _Clock(budget or SearchBudget())
    rows, cols, ideals = sg.rows, sg.cols, sg.ideals
    m = sg.m
    full_mask = (1 << m) - 1

    cyc = [closure_bits(rows, cols, 1 << i) for i in range(m)]
    comp: list[int] = []
    for i in range(m):
        mask = 0
        ci = cyc[i]
        for j in range(m):
            if j != i and not ci >> j & 1 and not cyc[j] >> i & 1:
                mask |= 1 << j
        comp.append(mask)

    best_size = 0
    best: tuple[int, ...] = ()
    if seed is not None:
        if not engine.is_independent(sg, seed):
            raise WitnessVerificationError("seed witness is not independent")
        best = tuple(iter_bits(engine._coerce_bits(sg, seed)))
        best_size = len(best)

    chosen: list[int] = []
    minus_bits: list[int] = []
    minus_elems: list[list[int]] = []
    all_elems: list[int] = []
    state = {"all_bits": 0, "complete": True}

    def rec(cand: int) -> None:
        # recursion only on include; exclude shrinks cand in place, so the
        # stack depth is bounded by the incumbent size rather than by m
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        while cand:
            if len(chosen) + cand.bit_count() <= best_size:
                return
            if not clock.spend():
                state["complete"] = False
                return
            x = (cand & -cand).bit_length() - 1
            cand &= ~(1 << x)

            ideal = ideals[x]
            marks = [len(e) for e in minus_elems]
            new_minus: list[int] = []
            ok = True
            for r, c in enumerate(chosen):
                nb = minus_bits[r]
                if ideal >> c & 1:  # otherwise x is no factor of any sum equal to c
                    nb = extend_closure(rows, cols, nb, minus_elems[r], x)
                new_minus.append(nb)
                if nb >> c & 1:
                    ok = False
                    break
            if ok:
                saved_minus = minus_bits[:]
                for r, nb in enumerate(new_minus):
                    minus_bits[r] = nb
                minus_bits.append(state["all_bits"])
                minus_elems.append(all_elems[:])
                saved_all = (state["all_bits"], len(all_elems))
                state["all_bits"] = extend_closure(rows, cols, state["all_bits"], all_elems, x)
                chosen.append(x)
                rec(cand & comp[x] & ~state["all_bits"])
                chosen.pop()
                state["all_bits"] = saved_all[0]
                del all_elems[saved_all[1]:]
                minus_bits.pop()
                minus_elems.pop()
                minus_bits[:] = saved_minus
            for r, mark in zip(range(len(new_minus)), marks):
                del minus_elems[r][mark:]

    rec(full_mask)

    if best:
        if not engine.is_independent(sg, best):
            raise WitnessVerificationError("maximum independent witness failed re-check")
    labels = tuple(sg.label_list(best)) if best else None
    if state["complete"]:
        return _finish(
            RankValue(value=best_size, provenance=PROV_SEARCH, witness=best or None,
                      witness_labels=labels),
            start,
        )
    return _finish(
        RankValue(bounds=(best_size, m), provenance=PROV_BOUNDS,
                  witness=best or None, witness_labels=labels,
                  detail="budget exhausted; best witness kept"),
        start,
    )


# --- r5: large rank ---------------------------------------------------------------


def _pairs_into(table: np.ndarray) -> list[list[int]]:
    """For each u, the flat positions p = a*m + b with a + b = u, ascending.

    A stable sort of the flattened table keeps each u's pairs in (a, b)
    order; flat positions cost one int per pair where (a, b) tuples cost a
    tuple and two ints (431k pairs at n = 4).
    """
    flat = table.ravel()
    order = np.argsort(flat, kind="stable")
    cuts = np.searchsorted(flat[order], np.arange(1, table.shape[0]))
    return [part.tolist() for part in np.split(order, cuts)]


def smallest_prime_subset(
    sg: FiniteSemigroup, size_cap: int, budget: SearchBudget | None = None
) -> tuple[tuple[int, ...] | None, int]:
    """Smallest nonempty proper prime subset of size <= size_cap, and a proven size.

    Returns (subset, k): no proper prime subset has k or fewer elements, and
    subset is a smallest one (then k = |subset| - 1) or None (then k is
    size_cap, or less if the budget ran out first).

    Size 1 reduces to indecomposable elements. Beyond that, every prime set
    containing a chosen seed must hit every two-term decomposition of each
    member, so branching on the two factors of a violated decomposition
    enumerates all minimal candidates, one budget node per branch. The caps
    2, 3, ... are searched in turn, so a level that completes proves its size.
    """
    m = sg.m
    if m == 1:
        return None, 0
    ind = engine.indecomposables(sg)
    if len(ind) > 0:
        return (next(iter(ind)),), 0
    if size_cap < 2:
        return None, size_cap
    clock = _Clock(budget or SearchBudget())
    pairs = _pairs_into(sg.table)

    best: list[tuple[int, ...]] = []

    def violated(bits: int) -> tuple[int, int] | None:
        for u in iter_bits(bits):
            for p in pairs[u]:
                a, b = divmod(p, m)
                if not bits >> a & 1 and not bits >> b & 1:
                    return a, b
        return None

    def rec(bits: int, size: int, cap: int) -> bool:
        # False once the budget is gone
        if not clock.spend():
            return False
        v = violated(bits)
        if v is None:
            cand = tuple(iter_bits(bits))
            if len(cand) < m:
                best.append(cand)
            return True
        if size >= cap:
            return True
        a, b = v
        return rec(bits | 1 << a, size + 1, cap) and rec(bits | 1 << b, size + 1, cap)

    for cap in range(2, size_cap + 1):
        for u in range(m):
            if not rec(1 << u, 1, cap):
                return None, cap - 1
        if best:
            best.sort(key=lambda t: (len(t), t))
            return best[0], cap - 1
    return None, size_cap


def large_rank_exact(
    sg: FiniteSemigroup, size_cap: int | None = None, budget: SearchBudget | None = None
) -> RankValue:
    """r5 via the smallest proper prime subset: r5 = m - |U*| + 1.

    The complement of a smallest proper prime subset is a largest proper
    subsemigroup, and forcing generation needs one more element than its
    size. An indecomposable element forms a singleton prime subset, so its
    presence gives r5 = m immediately. If no prime subset exists below the
    size cap, or the budget runs out first, a bounds-only result notes the
    largest size the search has excluded.
    """
    start = time.monotonic()
    m = sg.m
    if m == 1:
        return _finish(RankValue(value=1, provenance=PROV_FORMULA,
                                 detail="one-element semigroup"), start)
    cap = size_cap if size_cap is not None else (sg.n if sg.n else min(6, m - 1))
    prime, proven = smallest_prime_subset(sg, cap, budget)
    if prime is None:
        detail = f"no proper prime subset of size <= {proven}"
        if proven < cap:
            detail = f"budget exhausted; {detail}"
        return _finish(
            RankValue(bounds=(2, m - proven), provenance=PROV_BOUNDS, detail=detail),
            start,
        )
    if not engine.is_prime_subset(sg, prime):
        raise WitnessVerificationError("prime subset witness failed re-check")
    prime_bits = 0
    for i in prime:
        prime_bits |= 1 << i
    complement = tuple(i for i in range(m) if not prime_bits >> i & 1)
    complement_bits = sum(1 << i for i in complement)
    if closure_bits(sg.rows, sg.cols, complement_bits) != complement_bits:
        raise WitnessVerificationError("complement of prime subset is not a subsemigroup")
    return _finish(
        RankValue(value=m - len(prime) + 1, provenance=PROV_SEARCH, witness=complement,
                  witness_labels=tuple(sg.label_list(complement)),
                  detail=f"smallest prime subset {sg.label_list(prime)}"),
        start,
    )


# --- the rank planner ---------------------------------------------------------------


def plan_rank(sg: FiniteSemigroup, key: str, budget: SearchBudget | None = None) -> RankValue:
    """Rank ``key`` (r1..r5) of A+(B_n), n = sg.n; every choice of method is made here.

    r1 is the small-rank routine; r2 the exact sweep below the S ∪ T witness;
    r3 brute force at n = 1 and the verified construction otherwise; r5 the
    smallest prime subset. r4 is searched at n = 1 and is the closed form for
    n >= 6. For 2 <= n <= 5 it is open: the branch and bound starts from the
    largest known independent set (P2 at n = 2, I for n >= 3), so a bounds
    result always carries a witness of its lower bound, and a search that
    does not finish is merged with the ``rank_formulas`` bounds.
    """
    n = sg.n
    if n is None:
        raise InvalidParameterError("plan_rank needs a semigroup built by a_plus_semigroup")
    if key == "r1":
        return small_rank(sg, budget)
    if key == "r2":
        return lower_rank_exact(sg, budget, witness=generating_witness(n) if n >= 2 else None)
    if key == "r3":
        if n == 1:
            return intermediate_rank_bruteforce(sg, budget)
        return intermediate_rank_verify(n, budget, sg=sg)
    if key == "r5":
        return large_rank_exact(sg, budget=budget)
    if key != "r4":
        raise InvalidParameterError(f"unknown rank {key!r}; expected one of {RANK_KEYS}")
    if n == 1:
        return upper_rank_search(sg, budget)
    formula = rank_formulas(n).ranks["r4"]
    if formula.exact:
        return formula
    rv = upper_rank_search(sg, budget, seed=construct_witness(n, "P2" if n == 2 else "I"))
    if not rv.exact:
        rv.bounds = (max(rv.lower, formula.lower), min(rv.upper, formula.upper))
        rv.detail = f"{rv.detail}; merged with construction/cap bounds"
    return rv
