"""The five ranks r1..r5: closed forms, witness constructions, exact search.

Rank computations return RankValue records carrying either an exact value
or (lower, upper) bounds, a provenance tag, an optional witness, and the
elapsed time. Budget exhaustion is a first-class bounds result, never an
error. Every witness is checked once against the Cayley table before it is
returned. ``plan_rank`` decides how each rank of A+(B_n) is obtained.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from math import comb, factorial, isfinite

from . import engine
from .affine import (
    Const,
    NSupport,
    Singleton,
    a_plus_size,
    all_permutations,
    enumerate_a_plus,
    perm_inverse,
)
from .brandt import check_n
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
    or n = 4 returns about 0.02 s late on a 2-vCPU VM. A routine given no
    budget runs under these field defaults, which are also the CLI's
    ``--budget`` and ``--node-limit`` defaults.
    """

    seconds: float = 60.0
    node_limit: int = 100_000_000

    OVERSHOOT_MARGIN_S = 1.0

    def __post_init__(self):
        # NaN compares False with everything, so its deadline would never pass
        if not (isfinite(self.seconds) and self.seconds > 0) or self.node_limit <= 0:
            raise InvalidParameterError("budget limits must be finite and positive")


class _Clock:
    """Budget tracker; ``spend`` returns False once the budget is gone.

    Each rank routine makes exactly one and returns through it (``_rank``);
    a search it delegates to, like ``smallest_prime_subset``, spends that
    same clock. ``start`` is when the routine began, the origin of
    ``elapsed_ms``.
    """

    __slots__ = ("start", "deadline", "nodes_left", "ok")

    def __init__(self, budget: SearchBudget | None = None):
        budget = budget or SearchBudget()
        self.start = time.monotonic()
        self.deadline = self.start + budget.seconds
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
        """Check r1 <= r2 <= r3 <= r4 <= r5 on the available values/bounds.

        Adjacent ranks contradict the chain iff the lower one is proven
        larger than the upper one can be: ``lower(a) > upper(b)``.
        """
        present = [k for k in RANK_KEYS if k in self.ranks]
        return [f"{a} >= {self.ranks[a].lower} > {self.ranks[b].upper} >= {b}"
                for a, b in zip(present, present[1:])
                if self.ranks[a].lower > self.ranks[b].upper]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "ranks": {k: v.to_json_dict() for k, v in self.ranks.items()}}


def _rank(sg: FiniteSemigroup | None, clock: _Clock, *, value: int | None = None,
          bounds: tuple[int, int] | None = None, provenance: str = PROV_FORMULA,
          witness: tuple[int, ...] | None = None, detail: str = "") -> RankValue:
    """The one place a rank routine builds its result: witness labels read
    from ``sg``, ``elapsed_ms`` measured from ``clock.start``."""
    labels = tuple(sg.label_list(witness)) if witness else None
    return RankValue(value=value, bounds=bounds, provenance=provenance, witness=witness,
                     witness_labels=labels, elapsed_ms=(time.monotonic() - clock.start) * 1000.0,
                     detail=detail)


# --- closed forms --------------------------------------------------------------


def kappa_upper_bound(n: int) -> int:
    """Stratified cap on independent-set size: sum of the per-stratum maxima."""
    check_n(n)
    q = n * n // 4
    return factorial(n) * n * n + q + n + n * n * (q + n)


def rank_formulas(n: int) -> RankReport:
    """The closed-form ranks; r4 is exact for n >= 6, bounds for 2 <= n <= 5."""
    check_n(n)
    clock = _Clock()
    report = RankReport(n=n)
    if n == 1:
        for key in RANK_KEYS:
            report.ranks[key] = _rank(None, clock, value=3)
        return report
    f = factorial(n)
    report.ranks["r1"] = _rank(None, clock, value=1)
    report.ranks["r2"] = _rank(None, clock, value=n * (f + 1))
    report.ranks["r3"] = _rank(None, clock, value=n * f + 2 * n - 2)
    r4_lower = 14 if n == 2 else f * n * n + n
    if n >= 6:
        report.ranks["r4"] = _rank(None, clock, value=f * n * n + n)
    else:
        report.ranks["r4"] = _rank(None, clock, bounds=(r4_lower, kappa_upper_bound(n)),
                                   provenance=PROV_BOUNDS)
    report.ranks["r5"] = _rank(None, clock, value=f * n * n + n * n + n**4 - n + 3)
    return report


# --- witness constructions -------------------------------------------------------


def _cycle_constants(n: int) -> list[Const]:
    # xi_(i, i+1) for i < n-1 plus xi_(n, 1), 0-based.
    return [Const((i, i + 1)) for i in range(n - 1)] + [Const((n - 1, 0))]


def _witness_elements(n: int, kind: str):
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
    raise InvalidParameterError(f"unknown witness kind {kind!r}")


def construct_witness(n: int, kind: str) -> IndexSet:
    """Index set of a named witness inside the canonical enumeration.

    Kinds: S (cycle constants), T (automorphism + S sums), SprimeUnionT,
    I (all n-support maps plus diagonal constants), P2 (the 14-element
    independent set, n=2 only), V (the small prime subset).
    """
    check_n(n)
    if n < 2:
        raise InvalidParameterError("witness constructions need n >= 2")
    elems = _witness_elements(n, kind)
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
    }[kind]
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
    if sg.m >= 2 and not engine.is_band(sg):
        return _rank(sg, _Clock(budget), value=1)
    return _small_rank_bruteforce(sg, budget)


def _small_rank_bruteforce(sg: FiniteSemigroup, budget: SearchBudget | None) -> RankValue:
    clock = _Clock(budget)
    sums, ideals = sg.sums, sg.ideals
    m = sg.m
    # singletons are always independent (nothing generates from the empty
    # set), so the scan starts at pairs and the first failing level ends it
    for k in range(2, m + 1):
        for combo in itertools.combinations(range(m), k):
            if not clock.spend():
                return _rank(sg, clock, bounds=(k - 1, m), provenance=PROV_BOUNDS,
                             detail="budget exhausted during brute-force scan")
            bits = 0
            for i in combo:
                bits |= 1 << i
            if not engine.independent_bits(sums, ideals, bits):
                return _rank(sg, clock, value=k - 1, provenance=PROV_SEARCH,
                             detail=f"dependent {k}-subset found")
    return _rank(sg, clock, value=m, provenance=PROV_SEARCH,
                 detail="every subset is independent")


# --- r2: lower rank ------------------------------------------------------------


def _first_factors(sg: FiniteSemigroup) -> list[int]:
    """For each c, the bitmask of the a whose row holds c (some a + b = c).

    Read from the fibers of ``sg.sums``: each a is marked once per value in
    its row (about 16 of the 657 at n = 4).
    """
    first = [0] * sg.m
    for a, fibers in enumerate(sg.sums.row_fibers):
        abit = 1 << a
        for c in fibers:
            first[c] |= abit
    return first


def first_factor_lower_bound(sg: FiniteSemigroup) -> tuple[int, list[int]]:
    """Sound lower bound on minimum generating size from the table alone.

    For every element f, any generating set must contain f itself or some a
    that opens a two-term product a + b = f. A family of elements whose
    first-factor sets are pairwise disjoint therefore bounds the minimum
    generating size from below; a greedy pass picks such a family.
    """
    first = [1 << f | bits for f, bits in enumerate(_first_factors(sg))]
    order = sorted(range(sg.m), key=lambda f: (first[f].bit_count(), f))
    taken = 0
    picks: list[int] = []
    for f in order:
        if not first[f] & taken:
            taken |= first[f]
            picks.append(f)
    return len(picks), sorted(picks)


def lower_rank_exact(
    sg: FiniteSemigroup,
    budget: SearchBudget | None = None,
    witness=None,
) -> RankValue:
    """Exact minimum generating set size, with witness.

    One ascending sweep: for k from the first-factor lower bound up, a
    depth-first walk over ascending-index prefixes of k-subsets, with
    incremental closure, looks for a generating set (any generating set of
    at most k elements extends to a generating k-subset, so the walk stops
    at the first generating prefix). The first set found is the
    lexicographically smallest of minimum size.

    The walk skips every prefix that has passed an indecomposable element
    without taking it, because every generating set G holds every
    indecomposable x. Proof: if x is in the closure of G but not in G, write
    x = g_1 + ... + g_k with every g_i in G. Then k >= 2 and g_k != x. Take
    the largest j with g_j + ... + g_k = x; then j < k, and x = g_j + y with
    y = g_(j+1) + ... + g_k. Here y != x and g_j != x, so x is decomposable.
    The skipped prefixes hold no generating set, so the first set found, and
    the exhaustive proof of a level, are unchanged (at n = 2 the elements 2
    and 3 are indecomposable; from n = 3 on none is).

    A known generating witness of size t caps the sweep at t - 1: if no
    smaller set generates, the witness is minimal. The witness is checked
    once, on entry, and a set the sweep finds once, when it is found. A
    level whose walk, counted in full with the pruning, would visit more
    prefixes than there are nodes left is not started, and a level the
    budget cuts short proves nothing about its own size; either way the
    result is (proven lower, best upper) bounds, unless the lower bound
    already meets the witness. The indecomposables are found once, before
    the first level is counted.
    """
    clock = _Clock(budget)
    sums = sg.sums
    m = sg.m
    full = (1 << m) - 1
    lb, _family = first_factor_lower_bound(sg)
    lb = max(lb, 1)

    wit: tuple[int, ...] | None = None
    if witness is not None:
        bits = engine._coerce_bits(sg, witness)
        if closure_bits(sums, bits) != full:
            raise WitnessVerificationError("provided witness does not generate")
        wit = tuple(iter_bits(bits))
    top = len(wit) - 1 if wit else m

    chosen: list[int] = []
    ind: int | None = None

    @functools.cache
    def visits(start: int, left: int) -> int:
        # the prefixes ``sweep(start, ..., left, ...)`` visits when nothing
        # stops it, below a prefix holding every indecomposable under start
        if not left:
            return 0
        ahead = ind >> start
        if not ahead:
            # the d picks from [start, m) that extend to ``left`` picks, for
            # d = 1..left: the sum of C(m - start - left + d, d), which is
            # C(m - start + 1, left) - 1 (hockey-stick identity)
            return comb(m - start + 1, left) - 1
        stop = min(m - left + 1, start + (ahead & -ahead).bit_length())
        return sum(1 + visits(i + 1, left - 1) for i in range(start, stop))

    def sweep(start: int, bits: int, left: int, cbits: int) -> bool:
        # ``left`` more elements to pick after the prefix ``cbits``; False
        # stops the sweep: the chosen prefix generates, or the budget ran out.
        # Once i passes an indecomposable the prefix lacks, no extension can
        # pick it up, so i goes no higher than the lowest one missing.
        missing = ind & ~cbits
        stop = m - left + 1
        if missing:
            stop = min(stop, (missing & -missing).bit_length())
        for i in range(start, stop):
            if not clock.spend():
                return False
            nb = extend_closure(sums, bits, i)
            chosen.append(i)
            if nb == full or left > 1 and not sweep(i + 1, nb, left - 1, cbits | 1 << i):
                return False
            chosen.pop()
        return True

    for k in range(min(lb, top), top + 1):
        if ind is None:
            ind = engine.indecomposables(sg).bits
        if visits(0, k) > clock.nodes_left:
            detail = f"sweep of {k}-subsets exceeds node budget"
            break
        if k and not sweep(0, 0, k, 0):  # k = 0: the empty set generates nothing
            if clock.ok:
                found = tuple(chosen)
                if closure_bits(sums, sum(1 << i for i in found)) != full:
                    raise WitnessVerificationError("minimum generating witness failed re-check")
                return _rank(sg, clock, value=len(found), provenance=PROV_SEARCH, witness=found)
            detail = "budget exhausted mid-sweep"
            break
    else:
        # every size below the witness was swept (without a witness, the
        # sweep of all m elements always finds a generating set)
        detail = f"no generating subset of size {top} (exhaustive)" if top else "single generator"
        return _rank(sg, clock, value=len(wit), provenance=PROV_SEARCH, witness=wit, detail=detail)
    if wit and lb == len(wit):
        return _rank(sg, clock, value=lb, provenance=PROV_WITNESS, witness=wit,
                     detail=f"first-factor lower bound {lb} matches witness size")
    # the best generating set known, if any, proves the upper bound
    return _rank(sg, clock, bounds=(max(lb, k), len(wit) if wit else m), provenance=PROV_BOUNDS,
                 witness=wit, detail=detail)


# --- r3: intermediate rank -------------------------------------------------------


def intermediate_rank_verify(sg: FiniteSemigroup, budget: SearchBudget | None = None) -> RankValue:
    """Verify the maximal independent generating set construction in A+(B_n), n = sg.n.

    Builds the witness (boundary constants plus automorphism translates),
    asserts it is independent and generating, and for n = 2 confirms
    maximality exhaustively over the stratified candidate space: independent
    generating sets carry no singleton maps, exactly n*n! n-support maps and
    between n and 2n-2 full-support constants, so all admissible candidates
    (plus their zero-constant augmentations) are enumerated and checked, one
    budget node per candidate. If the budget runs out first, the verified
    witness still proves the lower bound, and the result is (witness size, m).
    """
    n = sg.n
    if n is None or n < 2:
        raise InvalidParameterError(
            "intermediate rank verification needs a semigroup built by a_plus_semigroup, n >= 2"
        )
    clock = _Clock(budget)
    w = construct_witness(n, "SprimeUnionT")
    if not engine.is_generating(sg, w):
        raise WitnessVerificationError("independent generating witness does not generate")
    if not engine.is_independent(sg, w):
        raise WitnessVerificationError("independent generating witness is not independent")
    wit = tuple(iter_bits(w.bits))  # construct_witness checked its size, n * n! + 2n - 2
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
                    return _rank(sg, clock, bounds=(len(wit), sg.m), provenance=PROV_BOUNDS,
                                 witness=wit, detail=f"{detail}; budget exhausted during "
                                                     "stratified confirmation")
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
    return _rank(sg, clock, value=len(wit), provenance=prov, witness=wit, detail=detail)


def intermediate_rank_bruteforce(sg: FiniteSemigroup, budget: SearchBudget | None = None) -> RankValue:
    """Max size of an independent generating set by scanning all subsets (tiny m)."""
    if sg.m > 16:
        raise InvalidParameterError("brute-force intermediate rank is capped at m <= 16")
    clock = _Clock(budget)
    best: tuple[int, ...] | None = None
    for bits in range(1, 1 << sg.m):
        if not clock.spend():
            return _rank(sg, clock, bounds=(0, sg.m), provenance=PROV_BOUNDS)
        idx = tuple(iter_bits(bits))
        if best is not None and len(idx) <= len(best):
            continue
        if engine.is_generating(sg, idx) and engine.is_independent(sg, idx):
            best = idx
    if best is None:
        raise WitnessVerificationError("no independent generating set found")
    return _rank(sg, clock, value=len(best), provenance=PROV_SEARCH, witness=best)


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
    set; it is verified first and only strengthens pruning. The best set is
    checked again at the end only if the search replaced the seed.

    For each chosen member c = chosen[r] (r = slot[c]) the search keeps a
    leave-one-out closure ``minus_bits[r]``: the closure of some G_r with
    (chosen minus c) ∩ up(c) ⊆ G_r ⊆ chosen minus c, where up(c) is the set
    of elements whose principal ideal holds c (``FiniteSemigroup.ideals``).
    A new member x extends only the closures of the c in
    ``ideals[x] & chosen_bits``. The test "c in minus_bits[r]" stays exact,
    because a sum equal to c lies in the ideal of each of its terms, so c is
    generated by chosen minus c iff it is generated by the members in up(c);
    an untouched closure is unchanged and does not hold its c. Those c are
    visited lowest bit first, which is their order in ``chosen``, since x is
    always the lowest bit of ``cand`` and every path appends members in
    ascending order. So the tree and the sequence of closure extensions are
    those of a walk over all of ``chosen``, while the Python work of a node
    follows the members it reaches, not |chosen|.

    Each include passes its child a copy of ``minus_bits`` with the touched
    slots replaced, and the new closure and bitmask of the chosen set, so
    the way back restores nothing.
    """
    clock = _Clock(budget)
    sums, ideals = sg.sums, sg.ideals
    m = sg.m
    full_mask = (1 << m) - 1

    # comp[i]: the j with j not in <i> and i not in <j>; in_cyc is the
    # transpose of the cyclic closures (bit j of in_cyc[i] iff i in <j>)
    cyc = [closure_bits(sums, 1 << i) for i in range(m)]
    in_cyc = [0] * m
    for j, c in enumerate(cyc):
        for i in iter_bits(c):
            in_cyc[i] |= 1 << j
    comp = [full_mask & ~c & ~t for c, t in zip(cyc, in_cyc)]

    best_size = 0
    best: tuple[int, ...] = ()
    if seed is not None:
        if not engine.is_independent(sg, seed):
            raise WitnessVerificationError("seed witness is not independent")
        best = tuple(iter_bits(engine._coerce_bits(sg, seed)))
        best_size = len(best)
    verified = best_size

    chosen: list[int] = []
    slot = [0] * m  # slot[c] = r for the chosen member c = chosen[r]
    complete = True

    def rec(cand: int, minus_bits: list[int], all_bits: int, chosen_bits: int) -> None:
        # recursion only on include; exclude shrinks cand in place, so the
        # stack depth is bounded by the incumbent size rather than by m
        nonlocal best_size, best, complete
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        while cand:
            if len(chosen) + cand.bit_count() <= best_size:
                return
            if not clock.spend():
                complete = False
                return
            x = (cand & -cand).bit_length() - 1
            cand &= ~(1 << x)

            # x is no factor of any sum equal to a c outside its ideal
            reach = ideals[x] & chosen_bits
            touched: list[tuple[int, int]] = []  # (r, new closure)
            while reach:
                low = reach & -reach
                reach ^= low
                c = low.bit_length() - 1
                r = slot[c]
                nb = extend_closure(sums, minus_bits[r], x)
                touched.append((r, nb))
                if nb >> c & 1:
                    break
            else:  # no chosen member is generated by the others with x
                new_minus = minus_bits[:]
                for r, nb in touched:
                    new_minus[r] = nb
                # x's own leave-one-out closure is the closure of chosen
                new_minus.append(all_bits)
                new_all = extend_closure(sums, all_bits, x)
                slot[x] = len(chosen)
                chosen.append(x)
                rec(cand & comp[x] & ~new_all, new_minus, new_all, chosen_bits | 1 << x)
                chosen.pop()

    rec(full_mask, [], 0, 0)

    if best_size > verified and not engine.is_independent(sg, best):
        raise WitnessVerificationError("maximum independent witness failed re-check")
    if complete:
        return _rank(sg, clock, value=best_size, provenance=PROV_SEARCH, witness=best or None)
    return _rank(sg, clock, bounds=(best_size, m), provenance=PROV_BOUNDS, witness=best or None,
                 detail="budget exhausted; best witness kept")


# --- r5: large rank ---------------------------------------------------------------


def _violated_pair(row_fibers: list[dict[int, int]], first: list[int], bits: int
                   ) -> tuple[int, int] | None:
    """The (a, b) of the first (u, a, b) in ascending order with u in
    ``bits``, a + b = u and neither a nor b in ``bits``; None if there is none.

    Read from the row fibers of ``FiniteSemigroup.sums``: for each member u,
    the lowest non-member a whose row holds u (``first`` is
    ``_first_factors``), then the lowest non-member b in its fiber of u.
    """
    for u in iter_bits(bits):
        for a in iter_bits(first[u] & ~bits):
            free = row_fibers[a][u] & ~bits
            if free:
                return a, (free & -free).bit_length() - 1
    return None


def smallest_prime_subset(
    sg: FiniteSemigroup, size_cap: int, clock: _Clock
) -> tuple[tuple[int, ...] | None, int]:
    """Smallest nonempty proper prime subset of size <= size_cap, and a proven size.

    Returns (subset, k): no proper prime subset has k or fewer elements, and
    subset is a smallest one (then k = |subset| - 1) or None (then k is
    size_cap, or less if the budget ran out first). ``sg`` has at least two
    elements (``large_rank_exact`` answers m = 1 itself), and the search
    spends ``clock``, the clock of the rank routine that calls it.

    Size 1 reduces to indecomposable elements. Beyond that, every prime set
    containing a chosen seed must hit every two-term decomposition of each
    member, so branching on the two factors of a violated decomposition
    enumerates all minimal candidates, one budget node per branch (on the
    decomposition ``_violated_pair`` picks). The caps 2, 3, ... are
    searched in turn, so a level that completes proves its size.
    """
    m = sg.m
    ind = engine.indecomposables(sg)
    if len(ind) > 0:
        return (next(iter(ind)),), 0
    if size_cap < 2:
        return None, size_cap
    row_fibers = sg.sums.row_fibers
    first = _first_factors(sg)

    best: list[tuple[int, ...]] = []

    def rec(bits: int, size: int, cap: int) -> bool:
        # False once the budget is gone
        if not clock.spend():
            return False
        v = _violated_pair(row_fibers, first, bits)
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


def large_rank_exact(sg: FiniteSemigroup, budget: SearchBudget | None = None) -> RankValue:
    """r5 via the smallest proper prime subset: r5 = m - |U*| + 1.

    The complement of a smallest proper prime subset is a largest proper
    subsemigroup, and forcing generation needs one more element than its
    size. An indecomposable element forms a singleton prime subset, so its
    presence gives r5 = m immediately. The search stops at a size cap of n
    for A+(B_n), else min(6, m - 1). If no prime subset exists up to the cap,
    or the budget runs out first, a bounds-only result notes the largest
    size the search has excluded.
    """
    clock = _Clock(budget)
    m = sg.m
    if m == 1:
        return _rank(sg, clock, value=1, detail="one-element semigroup")
    cap = sg.n if sg.n else min(6, m - 1)
    prime, proven = smallest_prime_subset(sg, cap, clock)
    if prime is None:
        detail = f"no proper prime subset of size <= {proven}"
        if proven < cap:
            detail = f"budget exhausted; {detail}"
        return _rank(sg, clock, bounds=(2, m - proven), provenance=PROV_BOUNDS, detail=detail)
    # prime iff the complement is closed: the witness is a subsemigroup
    if not engine.is_prime_subset(sg, prime):
        raise WitnessVerificationError("prime subset witness failed re-check")
    complement = tuple(i for i in range(m) if i not in prime)
    return _rank(sg, clock, value=m - len(prime) + 1, provenance=PROV_SEARCH,
                 witness=complement, detail=f"smallest prime subset {sg.label_list(prime)}")


# --- the rank planner ---------------------------------------------------------------


def closed_form_rank(n: int, key: str) -> RankValue | None:
    """The rank ``plan_rank`` reads from ``rank_formulas`` without the table
    (r4 for n >= 6, where m = 27,253 and up), else None."""
    if key != "r4" or n == 1:
        return None
    formula = rank_formulas(n).ranks["r4"]
    return formula if formula.exact else None


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
        return intermediate_rank_verify(sg, budget)
    if key == "r5":
        return large_rank_exact(sg, budget)
    if key != "r4":
        raise InvalidParameterError(f"unknown rank {key!r}; expected one of {RANK_KEYS}")
    if n == 1:
        return upper_rank_search(sg, budget)
    closed = closed_form_rank(n, key)
    if closed is not None:
        return closed
    formula = rank_formulas(n).ranks["r4"]
    rv = upper_rank_search(sg, budget, seed=construct_witness(n, "P2" if n == 2 else "I"))
    if not rv.exact:
        rv.bounds = (max(rv.lower, formula.lower), min(rv.upper, formula.upper))
        rv.detail = f"{rv.detail}; merged with construction/cap bounds"
    return rv
