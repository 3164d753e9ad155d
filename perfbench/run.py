"""brandt-ranks benchmark: cold CLI workloads, correctness gate, traced layers.

Run from the root of a checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 0

Each workload is one CLI command, run again and again as a cold child
process (one at a time, one thread) until the time is spent. The command's
JSON output and exit code are checked every time; the last stdout line is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, timed at a nominal machine
speed (see ``speed.py``); with ``--trace 1`` the command is also run under
``trace_child.py`` and the metrics are per layer. See README.md in this
directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path

from speed import Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Every run must end well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 165.0
# Generous enough never to bind: the node limit is what stops the searches.
BUDGET_S = 120
SEARCH_NODES = 8000
PROBE_BUDGET_S = 1.0
SPOT_PAIRS = 300
SPOT_TRIPLES = 20_000


@dataclass(frozen=True)
class Workload:
    n: int
    argv: tuple[str, ...]
    expect_rc: int


SEARCH = ("--budget", str(BUDGET_S), "--node-limit")
WORKLOADS = {
    "verify-n4": Workload(4, ("verify", "--n", "4", *SEARCH, "100000000"), 0),
    "verify-n2": Workload(2, ("verify", "--n", "2", *SEARCH, "100000000"), 0),
    "search-r4-n3": Workload(3, ("search-r4", "--n", "3", *SEARCH, str(SEARCH_NODES)), 3),
}
PROBE_ARGV = ("search-r4", "--n", "3", "--budget", str(PROBE_BUDGET_S), "--node-limit", "100000000")


class Checks:
    """Counts correctness checks; every miss is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Rep:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    # from speed.py: the machine's share of nominal speed, and seconds in probes
    speed: float = 1.0
    probe_s: float = 0.0

    @property
    def nominal_wall_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.speed


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BRANDT_RANKS_BUDGET"}
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Launcher:
    """Runs children through launcher.py, so each child's peak RSS is its own."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def run(self, args: list[str], deadline: float) -> Rep:
        out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
        request = {"argv": [sys.executable, *args], "stdout": str(out_path),
                   "stderr": str(err_path), "timeout_s": max(deadline - time.monotonic(), 0.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        return Rep(stdout=out_path.read_text(encoding="utf-8"),
                   stderr=err_path.read_text(encoding="utf-8"), **json.loads(reply))

    def cli(self, argv, deadline: float) -> Rep:
        """One CLI command, run under speed.py so its time can be put at nominal speed."""
        rep = self.run([str(BENCH / "speed.py"), *argv, "--format", "json"], deadline)
        try:
            result = json.loads(rep.stdout)
        except json.JSONDecodeError:
            return rep  # the command crashed; the checks report it
        rep.stdout, rep.speed, rep.probe_s = result["stdout"], result["speed"], result["probe_s"]
        return rep

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def digest(doc) -> str:
    text = json.dumps(strip_elapsed(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- an independent check of witnesses, written with numpy over the table ----


class TableOracle:
    def __init__(self, sg) -> None:
        import numpy as np

        self.np = np
        self.table = np.asarray(sg.table)
        self.m = sg.m
        self.index = {label: i for i, label in enumerate(sg.labels)}

    def knows(self, labels) -> bool:
        return bool(labels) and all(x in self.index for x in labels)

    def mask(self, labels):
        mask = self.np.zeros(self.m, dtype=bool)
        mask[[self.index[x] for x in labels]] = True
        return mask

    def closure(self, mask):
        np, table = self.np, self.table
        while True:
            idx = np.flatnonzero(mask)
            grown = mask.copy()
            grown[table[np.ix_(idx, idx)].ravel()] = True
            if grown.sum() == mask.sum():
                return mask
            mask = grown

    def generates(self, labels) -> bool:
        return bool(self.closure(self.mask(labels)).all())

    def independent(self, labels) -> bool:
        mask = self.mask(labels)
        for i in self.np.flatnonzero(mask):
            rest = mask.copy()
            rest[i] = False
            if rest.any() and self.closure(rest)[i]:
                return False
        return True

    def subsemigroup(self, labels) -> bool:
        np = self.np
        idx = np.flatnonzero(self.mask(labels))
        return bool(self.mask(labels)[self.table[np.ix_(idx, idx)]].all())


def closed_forms(n: int) -> dict[str, int]:
    f = factorial(n)
    return {
        "r1": 1,
        "r2": n * (f + 1),
        "r3": n * f + 2 * n - 2,
        "r5": f * n * n + n * n + n**4 - n + 3,
        "r4_construction": 14 if n == 2 else f * n * n + n,
    }


def check_table(sg, n: int, rng: random.Random, checks: Checks) -> None:
    """Seeded spot checks of the Cayley table against pointwise B_n arithmetic."""
    import numpy as np
    from brandt_ranks.affine import a_plus_size, enumerate_a_plus, map_table
    from brandt_ranks.brandt import bn_add

    elems = enumerate_a_plus(n)
    checks.require(sg.m == a_plus_size(n) == len(elems), f"n={n}: table size {sg.m}")
    bad = 0
    for _ in range(SPOT_PAIRS):
        i, j = rng.randrange(sg.m), rng.randrange(sg.m)
        pointwise = tuple(
            bn_add(n, x, y) for x, y in zip(map_table(n, elems[i]), map_table(n, elems[j]))
        )
        bad += map_table(n, elems[int(sg.table[i, j])]) != pointwise
    checks.require(bad == 0, f"n={n}: {bad} of {SPOT_PAIRS} sampled sums disagree pointwise")
    t = np.asarray(sg.table)
    a, b, c = (np.array([rng.randrange(sg.m) for _ in range(SPOT_TRIPLES)]) for _ in range(3))
    checks.require(bool(np.array_equal(t[t[a, b], c], t[a, t[b, c]])),
                   f"n={n}: sampled triples not associative")


def check_output(name: str, wl: Workload, rep: Rep, oracle: TableOracle, checks: Checks):
    """Full check of one command's output; returns the parsed document or None."""
    checks.require(rep.rc == wl.expect_rc, f"{name}: exit code {rep.rc}, expected {wl.expect_rc}"
                   + (f"; stderr: {rep.stderr.strip()[-300:]}" if rep.stderr.strip() else ""))
    try:
        doc = json.loads(rep.stdout)
    except json.JSONDecodeError as exc:
        checks.require(False, f"{name}: output is not JSON ({exc})")
        return None
    n = wl.n
    forms = closed_forms(n)
    ranks = (doc.get("ranks") or {}).get("ranks") if "checks" in doc else doc.get("ranks")
    if not checks.require(isinstance(ranks, dict), f"{name}: no ranks in output"):
        return None
    r4 = ranks.get("r4") or {}
    if "checks" in doc:
        checks.require(doc.get("ok") is True, f"{name}: verify reported ok = {doc.get('ok')}")
        failing = [c.get("name") for c in doc["checks"] if not c.get("passed")]
        checks.require(not failing, f"{name}: verify checks failed: {failing}")
        for key in ("r1", "r2", "r3", "r5"):
            got = (ranks.get(key) or {}).get("value")
            checks.require(got == forms[key], f"{name}: {key} = {got}, closed form {forms[key]}")
        # r5's witness is the complement of a smallest prime subset: r5 - 1 elements
        for key, size, test in (("r2", forms["r2"], oracle.generates),
                                ("r3", forms["r3"], oracle.generates),
                                ("r3", forms["r3"], oracle.independent),
                                ("r5", forms["r5"] - 1, oracle.subsemigroup)):
            wit = (ranks.get(key) or {}).get("witness")
            checks.require(oracle.knows(wit) and len(wit) == size and test(wit),
                           f"{name}: {key} witness is not a {test.__name__} set of {size}")
        if n == 2:
            checks.require(r4.get("value") == 14,
                           f"{name}: r4 = {r4.get('value')}, expected exact 14")
        else:
            lo, hi = r4.get("bounds") or (None, None)
            checks.require(lo is not None and forms["r4_construction"] <= lo <= hi <= oracle.m,
                           f"{name}: r4 bounds {r4.get('bounds')} unsound")
    else:
        checks.require(r4.get("bounds") == [57, 104],
                       f"{name}: r4 bounds {r4.get('bounds')} != [57, 104]")
    wit = r4.get("witness")
    if "value" in r4 or name.startswith("search"):
        size = r4.get("value") or (r4.get("bounds") or [0])[0]
        checks.require(oracle.knows(wit) and len(wit) == size and oracle.independent(wit),
                       f"{name}: r4 witness is not an independent set of size {size}")
    return doc


def r4_open_values(doc) -> int:
    ranks = doc["ranks"]["ranks"] if "checks" in doc else doc["ranks"]
    r4 = ranks["r4"]
    if "value" in r4:
        return 1
    lo, hi = r4["bounds"]
    return hi - lo + 1


def throughput(doc, rep: Rep) -> float:
    """Search nodes per search second, or verification checks per check second.

    The seconds are put at nominal speed; the probes' share of the whole
    command is taken off them too.
    """
    if "checks" in doc:
        work, ms = len(doc["checks"]), sum(c["elapsed_ms"] for c in doc["checks"])
    else:
        work, ms = SEARCH_NODES, doc["ranks"]["r4"]["elapsed_ms"]
    return work / (ms / 1000.0 * (1.0 - rep.probe_s / rep.wall_s) * rep.speed)


def node_limit_stopped(name: str, doc, checks: Checks) -> None:
    """A node-limited search only measures nodes/s if the clock did not stop it."""
    if name.startswith("search"):
        secs = doc["ranks"]["r4"]["elapsed_ms"] / 1000.0
        checks.require(secs < BUDGET_S, f"{name}: search ran {secs:.1f} s, so the clock stopped it")


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it (max if none)."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(ordered, n=100)[p - 1]
    return "max", ordered[-1]


def describe(name: str, unit: str, values: list[float]) -> str:
    label, high = high_percentile(values)
    return (f"  {name:<40} {statistics.median(values):>14.6g} {unit:<6}"
            f" {label}={high:.6g} n={len(values)}")


def cold_setup(n: int) -> tuple[float, float, object]:
    """Seconds at nominal speed, measured seconds, and the semigroup."""
    from brandt_ranks.affine import a_plus_semigroup

    a_plus_semigroup.cache_clear()
    gc.collect()
    with Speedometer() as meter:
        sg = a_plus_semigroup(n)
    return meter.nominal(meter.elapsed_s), meter.elapsed_s, sg


def measure(name: str, seed: int, seconds: float, deadline: float, checks: Checks,
            launcher: Launcher) -> dict:
    """Untraced run: cold set-up builds, then cold CLI reps until the time is spent."""
    import numpy as np

    wl = WORKLOADS[name]
    start = time.monotonic()
    setup_times: list[float] = []
    setup_raw: list[float] = []
    first = None
    # at least three builds, more while they fit in a tenth of the run
    while len(setup_times) < 3 or (
            time.monotonic() - start < 0.1 * seconds and len(setup_times) < 500):
        took, raw, sg = cold_setup(wl.n)
        setup_times.append(took)
        setup_raw.append(raw)
        if first is None:
            first = sg
        else:
            checks.require(bool(np.array_equal(sg.table, first.table)),
                           f"{name}: cold rebuild gave a different table")
    check_table(first, wl.n, random.Random(seed), checks)
    oracle = TableOracle(first)

    samples: dict[str, list[float]] = {
        "wall_s": [], "throughput_per_s": [], "peak_rss_mb": [], "r4_open_values": [],
        "measured_wall_s": [], "speed": []}
    reference = None
    rep_times: list[float] = []
    while not rep_times or time.monotonic() - start + statistics.median(rep_times) <= seconds:
        t0 = time.monotonic()
        rep = launcher.cli(wl.argv, deadline)
        rep_times.append(time.monotonic() - t0)
        if reference is None:
            doc = check_output(name, wl, rep, oracle, checks)
            if doc is None:
                break
            reference = digest(doc)
        else:
            checks.require(rep.rc == wl.expect_rc, f"{name}: exit code {rep.rc}")
            try:
                doc = json.loads(rep.stdout)
            except json.JSONDecodeError:
                checks.require(False, f"{name}: output is not JSON")
                break
            checks.require(digest(doc) == reference, f"{name}: output differs between reps")
        node_limit_stopped(name, doc, checks)
        samples["wall_s"].append(rep.nominal_wall_s)
        samples["peak_rss_mb"].append(rep.peak_rss_mb)
        samples["throughput_per_s"].append(throughput(doc, rep))
        samples["r4_open_values"].append(r4_open_values(doc))
        samples["measured_wall_s"].append(rep.wall_s)
        samples["speed"].append(rep.speed)
        print(f"  rep {len(rep_times)}: wall {rep.nominal_wall_s:.3f} s at nominal speed "
              f"(measured {rep.wall_s:.3f} s, cpu {rep.cpu_s:.3f} s, speed {rep.speed:.3f}), "
              f"rss {rep.peak_rss_mb:.1f} MB", flush=True)
    samples["setup_s"] = setup_times
    samples["measured_setup_s"] = setup_raw
    print(f"  output digest (elapsed_ms removed): {reference}")
    return samples


def layer_metrics(trace: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for fn, calls in trace["calls"].items():
        if calls:
            out[f"{fn}.calls"] = calls
            out[f"{fn}.s"] = trace["self_s"][fn]
    for fn, nodes in trace["nodes"].items():
        out[f"{fn}.nodes"] = nodes
    return out


def verify_layer_metrics(doc) -> dict[str, float]:
    if "checks" not in doc:
        return {}
    out = {f"verify.check.{c['name']}.ms": c["elapsed_ms"] for c in doc["checks"]}
    out["verify.checks"] = len(doc["checks"])
    out["verify.checks_failed"] = sum(not c["passed"] for c in doc["checks"])
    return out


def traced(name: str, seconds: float, deadline: float, checks: Checks,
           launcher: Launcher) -> tuple[dict, list]:
    """Traced run: overshoot probe, then (untraced, traced) pairs of cold reps.

    Returns the samples and the spans of the first traced rep.
    """
    wl = WORKLOADS[name]
    start = time.monotonic()
    _, _, sg = cold_setup(wl.n)
    oracle = TableOracle(sg)

    samples: dict[str, list[float]] = {}
    # plain, without speed.py's probes, which would slow the search they time
    probe = launcher.run(["-m", "brandt_ranks.cli", *PROBE_ARGV, "--format", "json"], deadline)
    checks.require(probe.rc == 3, f"probe: exit code {probe.rc}, expected 3")
    try:
        searched_s = json.loads(probe.stdout)["ranks"]["r4"]["elapsed_ms"] / 1000.0
        samples["ranks.upper_rank_search.overshoot_s"] = [searched_s - PROBE_BUDGET_S]
    except (json.JSONDecodeError, KeyError):
        checks.require(False, "probe: no r4 result")

    counts = None
    reference = None
    pair_times: list[float] = []
    spans: list = []
    while not pair_times or time.monotonic() - start + statistics.median(pair_times) <= seconds:
        t0 = time.monotonic()
        plain = launcher.cli(wl.argv, deadline)
        if reference is None:
            doc = check_output(name, wl, plain, oracle, checks)
            if doc is None:
                break
            reference = digest(doc)
        rep = launcher.run([str(BENCH / "trace_child.py"), *wl.argv, "--format", "json"], deadline)
        pair_times.append(time.monotonic() - t0)
        try:
            result = json.loads(rep.stdout)
            doc = json.loads(result["stdout"])
        except (json.JSONDecodeError, KeyError):
            checks.require(False, f"{name}: traced run gave no result; stderr: {rep.stderr[-300:]}")
            break
        checks.require(rep.rc == result["rc"] == wl.expect_rc, f"{name}: traced exit code {rep.rc}")
        checks.require(digest(doc) == reference, f"{name}: traced output differs from untraced")
        node_limit_stopped(name, doc, checks)
        got = {k: v for k, v in result.items() if k in ("calls", "nodes")}
        if counts is None:
            counts, spans = got, result["spans"]
        else:
            checks.require(got == counts, f"{name}: call or node counts differ between traced reps")
        metrics = layer_metrics(result)
        metrics.update(verify_layer_metrics(doc))
        metrics["trace.wall_s"] = rep.wall_s
        # the untraced rep's probes are not part of the command's own time
        metrics["trace.overhead_s"] = rep.wall_s - (plain.wall_s - plain.probe_s)
        for key, value in metrics.items():
            samples.setdefault(key, []).append(value)
    return samples, spans


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def unit_of(key: str) -> str:
    if key.endswith((".calls", ".nodes", ".checks", ".checks_failed")):
        return "count"
    return "ms" if key.endswith(".ms") else "s"


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float,
                 checks: Checks, launcher: Launcher, spec: list[dict],
                 env: dict) -> dict[str, dict]:
    """Median of every sample series; the result line keeps the ones in ``spec``.

    Every sample, and the spans of a traced run, are saved in ``OUT``.
    """
    print(f"workload {name}: brandt-ranks {' '.join(WORKLOADS[name].argv)}", flush=True)
    if trace:
        samples, spans = traced(name, seconds, deadline, checks, launcher)
    else:
        samples, spans = measure(name, seed, seconds, deadline, checks, launcher), []
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "environment": env, "samples": samples,
         "spans": spans}, indent=1))
    units = {m["name"]: m["unit"] for m in spec}
    for key in (sorted(samples) if trace else units):
        if samples.get(key):
            print(describe(key, units.get(key) or unit_of(key), samples[key]))
    result = {}
    for metric in spec:
        values = samples.get(metric["name"])
        if checks.require(bool(values), f"{name}: metric {metric['name']} was not measured"):
            # counts repeat exactly, so they stay whole numbers
            mid = statistics.median_low if metric["unit"] == "count" else statistics.median
            result[metric["name"]] = {"value": mid(values), "unit": metric["unit"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brandt_ranks" / "cli.py").is_file():
        print(f"error: {SRC / 'brandt_ranks'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    launcher = Launcher()  # before this process grows; see launcher.py
    try:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path.insert(0, str(SRC))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        deadline = time.monotonic() + HARD_LIMIT_S * len(names)
        env = environment()
        print("environment: " + json.dumps(env), flush=True)
        checks = Checks()
        metrics: dict[str, dict] = {}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        spec = spec["per_layer" if args.trace else "end_to_end"]
        for name in names:
            values = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline,
                                  checks, launcher, spec, env)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in values.items()})
    finally:
        launcher.close()
    failed = len(checks.failed)
    print(f"checks: {checks.attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(checks.attempted, 1):.6g})")
    print(json.dumps({"correct": failed == 0 and checks.attempted > 0,
                      "attempted": max(checks.attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
