"""End-to-end verification battery for the additive affine-map semigroup.

``verify_all(n, budget)`` enumerates A+(B_n) once and runs, in order on that
one element list: element counts, closure of the enumerated set, the
brute-force reconstruction oracle (n <= 2), the Green's relation
cross-checks, the support bound under sums, the witness constructions with
their independence/generation/primality assertions, the exact rank
computations against the closed forms, and the upper-rank bounds (with
exact search when the budget permits). Each item reports pass/fail and its
timing; any mismatch flips the report status, and the CLI then exits 1. A
closed-form rank (r1, r2, r3, r5) that the budget cuts short is such a
mismatch. r4 has only closed-form bounds for 2 <= n <= 5, so an r4 search
cut short passes, reported as "r4 in [lower, upper] (budget exhausted)".
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from math import factorial

import numpy as np

from . import engine
from .affine import (
    Const,
    ConstZero,
    NSupport,
    a_plus_semigroup,
    a_plus_size,
    affine_closure_oracle,
    check_table_n,
    enumerate_a_plus,
    map_table,
)
from .engine import FiniteSemigroup
from .errors import WitnessVerificationError
from .ranks import (
    RankReport,
    SearchBudget,
    _small_rank_bruteforce,
    construct_witness,
    generating_witness,
    plan_rank,
    rank_formulas,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    elapsed_ms: float = 0.0


@dataclass
class VerificationReport:
    n: int
    checks: list[CheckResult] = field(default_factory=list)
    ranks: RankReport | None = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "elapsed_ms": round(c.elapsed_ms, 3),
                }
                for c in self.checks
            ],
            "ranks": self.ranks.to_json_dict() if self.ranks else None,
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"[{mark}] {c.name}{detail} [{c.elapsed_ms:.0f} ms]")
        lines.append(f"overall: {'ok' if self.ok else 'MISMATCH'}")
        return "\n".join(lines)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WitnessVerificationError(msg)


def _greens_r_characterization(n: int, elems: list, r_classes: list[list[int]]) -> str:
    """Generic R-partition vs equal supports plus equal first projections,
    both read from each element's ``map_table``."""
    nonzero = [i for i, e in enumerate(elems) if not isinstance(e, ConstZero)]
    generic = {
        frozenset(c)
        for cls in r_classes
        if (c := [i for i in cls if not isinstance(elems[i], ConstZero)])
    }
    sigs: dict[tuple, list[int]] = {}
    for i in nonzero:
        t = map_table(n, elems[i])
        supp = tuple(x for x, v in enumerate(t) if v is not None)
        pi1 = tuple(t[x][0] for x in supp)
        sigs.setdefault((supp, pi1), []).append(i)
    characterized = {frozenset(v) for v in sigs.values()}
    _require(generic == characterized, "R-classes disagree with the support/projection form")
    return f"{len(characterized)} nonzero R-classes match"


def _greens_l_constants(elems: list, sg: FiniteSemigroup) -> str:
    """Generic L-partition on nonzero constants vs equal second projections."""
    consts = [i for i, e in enumerate(elems) if isinstance(e, Const)]
    generic = {
        frozenset(c)
        for cls in engine.greens_classes(sg, "L")
        if (c := [i for i in cls if isinstance(elems[i], Const)])
    }
    sigs: dict[int, list[int]] = {}
    for i in consts:
        sigs.setdefault(elems[i].c[1], []).append(i)
    _require(
        generic == {frozenset(v) for v in sigs.values()},
        "L-classes on nonzero constants disagree with the second projection",
    )
    return f"{len(sigs)} constant L-classes match"


def nsupport_r_class_count(elems: list, r_classes: list[list[int]]) -> int:
    """How many R-classes contain an n-support map; the paper's count is (n!)n.

    ``elems`` is ``enumerate_a_plus(n)``, the element list the classes index.
    """
    return sum(1 for cls in r_classes if any(isinstance(elems[i], NSupport) for i in cls))


def _greens_nsupport_count(n: int, elems: list, r_classes: list[list[int]]) -> str:
    count = nsupport_r_class_count(elems, r_classes)
    expected = factorial(n) * n
    _require(count == expected, f"n-support R-class count {count} != {expected}")
    return f"(n!)n = {expected} n-support R-classes"


def _support_sum_bound(n: int, elems: list, sg: FiniteSemigroup) -> str:
    """|supp(f+g)| <= |supp(f)| and <= |supp(g)|, exhaustively.

    The sums are read from the Cayley table, which ``a_plus_semigroup``
    certifies at every n to be the pointwise sum of the ``map_table``
    values in B_n (``engine._check_representation``). Sizes are counted
    from each element's ``map_table`` and are at most n*n + 1, so int8
    holds them. The rows are compared ``engine._block_lines(m)`` at a time,
    so no temporary grows with m²: whole-table int8 and bool arrays raised
    the peak RSS of ``verify --n 4`` by 1.8 MB and of ``verify --n 5`` by
    38 MB, where the blocks add under 0.1 MB.
    """
    m = len(elems)
    sizes = np.array([n * n + 1 - map_table(n, e).count(None) for e in elems], dtype=np.int8)
    k = engine._block_lines(m)
    for lo in range(0, m, k):
        sums = sizes[sg.table[lo : lo + k]]
        bad = (sums > sizes[lo : lo + k, None]) | (sums > sizes)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise WitnessVerificationError(
                f"support bound fails for {elems[lo + i]!r} + {elems[j]!r}"
            )
    return f"all {m ** 2} pairs respect the support bound"


def verify_all(n: int, budget: SearchBudget | None = None) -> VerificationReport:
    """Run the full battery for the given n; see module docstring.

    n >= 6 raises InvalidParameterError before anything is enumerated
    (``check_table_n``).
    """
    check_table_n(n)
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.seconds
    report = VerificationReport(n=n)

    def run(name: str, fn) -> bool:
        start = time.monotonic()
        try:
            passed, detail = True, fn() or ""
        except Exception as exc:  # a failed check is a result, not a crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        report.checks.append(
            CheckResult(name, passed, detail, (time.monotonic() - start) * 1000.0)
        )
        return passed

    def remaining() -> SearchBudget:
        return SearchBudget(
            seconds=max(deadline - time.monotonic(), 0.001),
            node_limit=budget.node_limit,
        )

    elems = enumerate_a_plus(n)
    formulas = rank_formulas(n)
    ranks = RankReport(n=n)
    report.ranks = ranks

    def check_count() -> str:
        expected = a_plus_size(n)
        _require(len(elems) == expected, f"enumerated {len(elems)} != {expected}")
        _require(len(set(elems)) == len(elems), "enumeration repeats an element")
        return f"|elements| = {expected}"

    run("element-count", check_count)

    def check_closure() -> str:
        a_plus_semigroup(n)  # raises on any closure violation
        return f"{len(elems)}x{len(elems)} table closed and associative"

    if not run("closure", check_closure):
        return report
    sg = a_plus_semigroup(n)  # the table the closure check built, from the cache

    if n <= 2:
        def check_oracle() -> str:
            direct = {map_table(n, e) for e in elems}
            _require(affine_closure_oracle(n) == direct,
                     "oracle reconstruction differs from enumeration")
            return f"oracle closure of affine maps = the {len(direct)} enumerated maps"

        run("oracle-equivalence", check_oracle)

    r_classes = functools.cache(lambda: engine.greens_classes(sg, "R"))
    run("greens-r-characterization", lambda: _greens_r_characterization(n, elems, r_classes()))
    run("greens-l-constants", lambda: _greens_l_constants(elems, sg))
    run("greens-nsupport-classes", lambda: _greens_nsupport_count(n, elems, r_classes()))
    run("support-sum-bound", lambda: _support_sum_bound(n, elems, sg))

    if n >= 2:
        def check_s_generates_constants() -> str:
            s_set = construct_witness(n, "S")
            got = engine.closure(sg, s_set)
            const_idx = tuple(i for i, e in enumerate(elems) if isinstance(e, (Const, ConstZero)))
            _require(got == const_idx, "closure of the cycle constants is not the constants")
            return f"closure(S) is exactly the {len(const_idx)} constant maps"

        run("witness-S-generates-constants", check_s_generates_constants)

        def check_sut_generates() -> str:
            w = generating_witness(n)
            _require(engine.is_generating(sg, w), "S union T fails to generate")
            return f"S union T generates with {len(w)} elements"

        run("witness-SuT-generates", check_sut_generates)

        def check_i_independent() -> str:
            w = construct_witness(n, "I")
            _require(engine.is_independent(sg, w), "I is not independent")
            return f"I independent, size {len(w)}"

        run("witness-I-independent", check_i_independent)

        if n == 2:
            def check_p_independent() -> str:
                w = construct_witness(2, "P2")
                _require(len(w) == 14 and engine.is_independent(sg, w), "P fails")
                return "14-element set P independent"

            run("witness-P-independent", check_p_independent)

        def check_v_prime() -> str:
            w = construct_witness(n, "V")
            _require(engine.is_prime_subset(sg, w), "V is not prime")
            if n >= 3:
                _require(len(engine.indecomposables(sg)) == 0,
                         "unexpected indecomposable element")
                return f"V prime with {len(w)} elements; every element decomposable"
            return f"V prime with {len(w)} elements"

        run("witness-V-prime", check_v_prime)

    def check_closed_form(key: str, describe) -> None:
        """Plan rank ``key``, record it, and require its closed-form value."""
        def check() -> str:
            rv = plan_rank(n, key, remaining())
            ranks.ranks[key] = rv
            expected = formulas.ranks[key].value
            _require(rv.exact and rv.value == expected,
                     f"{key} {rv.value or rv.bounds} != {expected}")
            return describe(rv)

        run(f"rank-{key}", check)

    def describe_r1(rv) -> str:
        if n == 2:
            brute = _small_rank_bruteforce(sg, remaining())
            _require(brute.value == rv.value, "brute-force r1 disagrees with shortcut")
            return f"r1 = {rv.value} (shortcut and brute force agree)"
        return f"r1 = {rv.value}"

    def describe_r2(rv) -> str:
        detail = f"; {rv.detail}" if rv.detail else ""
        return f"r2 = {rv.value} ({rv.provenance}{detail})"

    check_closed_form("r1", describe_r1)
    check_closed_form("r2", describe_r2)
    check_closed_form("r3", lambda rv: f"r3 = {rv.value} ({rv.provenance})")
    check_closed_form("r5", lambda rv: f"r5 = {rv.value} ({rv.detail})")

    def check_r4() -> str:
        formula = formulas.ranks["r4"]
        if 3 <= n <= 5:  # the open search is left to search-r4
            formula = replace(formula, detail="independent-set construction vs stratified cap")
            ranks.ranks["r4"] = formula
            return f"r4 in [{formula.lower}, {formula.upper}]"
        rv = plan_rank(n, "r4", remaining())
        ranks.ranks["r4"] = rv
        if formula.exact:  # searched at n = 1
            _require(rv.exact and rv.value == formula.value,
                     f"r4 {rv.value or rv.bounds} != {formula.value}")
            return f"r4 = {rv.value}"
        if not rv.exact:
            return f"r4 in [{rv.lower}, {rv.upper}] (budget exhausted)"
        _require(formula.lower <= rv.value <= formula.upper,
                 f"r4 = {rv.value} outside [{formula.lower}, {formula.upper}]")
        return f"r4 = {rv.value} (exact search; conjectured {formula.lower})"

    run("rank-r4", check_r4)

    def check_chain() -> str:
        violations = ranks.chain_violations()
        _require(not violations, "; ".join(violations))
        return "r1 <= r2 <= r3 <= r4 <= r5 holds"

    run("rank-chain", check_chain)

    return report
