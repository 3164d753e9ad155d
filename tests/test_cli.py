"""CLI tests; the golden-file test compares whole outputs with ``tests/golden/``.

Each golden file holds one command line, its exit code and its output: the
JSON output with every ``elapsed_ms`` removed or, for the ``-text`` cases,
the text output as a list of lines with every ``[N ms]`` timing masked. The
budgets are far above what the commands need, so node limits and exhaustion
alone decide the results. To refresh the files after an intended change of
output, run ``PYTHONPATH=src python tests/test_cli.py``.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from brandt_ranks import affine, cli, engine, ranks, verify
from brandt_ranks.cli import (
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    run,
)
from brandt_ranks.engine import import_table


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_formula_breakdown(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "29 = (2!+1)·4 + 16 + 1"


def test_count_n1_special(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "1")
    assert code == EXIT_OK
    assert out.startswith("3 ")


def test_build_round_trips_through_import(capsys, ab2):
    code, out, _ = invoke(capsys, "build", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    sg = import_table(out)
    assert sg == ab2


def test_build_csv_to_file(tmp_path, capsys):
    target = tmp_path / "b.csv"
    code, out, _ = invoke(capsys, "build", "--n", "2", "--format", "csv", "--out", str(target))
    assert code == EXIT_OK and out == ""
    sg = import_table(target.read_text())
    assert sg.m == 29


def test_build_csv_to_stdout_is_the_out_file(tmp_path, capsys):
    target = tmp_path / "b.csv"
    invoke(capsys, "build", "--n", "2", "--format", "csv", "--out", str(target))
    code, out, _ = invoke(capsys, "build", "--n", "2", "--format", "csv")
    assert code == EXIT_OK
    assert out.encode() == target.read_bytes()


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_build_into_a_closed_pipe_exits_141(unbuffered):
    # the reader closes stdout after 10 of the 1.4 MB of the n = 4 table; the
    # exit status is a shell's for a process killed by SIGPIPE (128 + 13).
    # Under PYTHONUNBUFFERED the text layer writes straight to the file
    # descriptor and drops the unwritten tail of a partial write without an
    # error, so the child runs with the variable unset and with it set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "brandt_ranks.cli", "build", "--n", "4"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{"n": 4, "'
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def test_build_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "b.json"
    code, out, err = invoke(capsys, "build", "--n", "2", "--out", str(target))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists() and not target.parent.exists()


def test_greens(capsys):
    code, out, _ = invoke(capsys, "greens", "--n", "2")
    assert code == EXIT_OK
    assert "n-support R-classes: 4 (expected (n!)n = 4)" in out


def test_rank_formulas_json(capsys):
    code, out, _ = invoke(capsys, "rank", "--n", "3", "--which", "formulas", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ranks"]["r2"]["value"] == 21
    assert payload["ranks"]["r4"]["bounds"] == [57, 104]


def test_rank_r5(capsys):
    code, out, _ = invoke(capsys, "rank", "--n", "2", "--which", "r5")
    assert code == EXIT_OK
    assert "r5 = 29" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("-v", "rank", "--n", "2", "--which", "r5"),
        ("rank", "--n", "2", "--which", "r5", "-v"),
        ("--verbose", "rank", "--verbose", "--n", "2", "--which", "r5"),
    ],
)
def test_verbose_before_or_after_the_subcommand_prints_the_witness(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    _, quiet, _ = invoke(capsys, "rank", "--n", "2", "--which", "r5")
    assert out.startswith(quiet)
    witness = out[len(quiet):]
    assert witness.startswith("  witness: xi(0) ") and witness.count("\n") == 1


def test_verbose_count_survives_the_subparser():
    parse = cli.build_parser().parse_args
    rest = ["--n", "2", "--which", "r5"]
    assert parse(["rank", *rest]).verbose == 0
    assert parse(["-v", "-v", "rank", *rest]).verbose == 2
    assert parse(["rank", *rest, "-vv"]).verbose == 2


def test_rank_r2_exact(capsys):
    code, out, _ = invoke(capsys, "rank", "--n", "2", "--which", "r2", "--budget", "300")
    assert code == EXIT_OK
    assert "r2 = 6" in out


def test_search_r4_budget_exhausted_bounds(capsys):
    code, out, _ = invoke(
        capsys, "search-r4", "--n", "3", "--budget", "2", "--node-limit", "20000"
    )
    assert code == EXIT_BUDGET
    assert "r4 in [57, 104]" in out


def test_search_r4_exact_n2(capsys):
    code, out, _ = invoke(capsys, "search-r4", "--n", "2", "--budget", "300")
    assert code == EXIT_OK
    assert re.search(r"r4 = \d+", out)


def test_search_r4_closed_form_builds_no_table(capsys, monkeypatch):
    # r4 is the closed form for n >= 6; the n = 6 table (m = 27,253) is never built
    def no_table(n):
        raise AssertionError(f"built the table of A+(B_{n})")

    monkeypatch.setattr(cli, "a_plus_semigroup", no_table)
    code, out, _ = invoke(capsys, "search-r4", "--n", "6", "--format", "json")
    assert code == EXIT_OK
    r4 = json.loads(out)["ranks"]["r4"]
    assert (r4["value"], r4["provenance"]) == (25926, "formula")


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--which", "r1"),
        ("rank", "--which", "r2"),
        ("rank", "--which", "r3"),
        ("rank", "--which", "r5"),
        ("prime",),
        ("build",),
        ("greens",),
        ("verify",),
    ],
)
def test_table_commands_refuse_n6_before_the_build(capsys, monkeypatch, argv):
    # the n = 6 table takes 1.49 GB: a guard that let the build start would
    # fail here instead of allocating it. Nor may the element list be
    # enumerated first: for r3's witness at n = 8 that alone took 453 MB.
    def no_build(cls, *args, **kwargs):
        raise AssertionError("started building a table")

    enumerated, real = [], affine.enumerate_a_plus

    def counted(n):
        enumerated.append(n)
        return real(n)

    monkeypatch.setattr(engine.FiniteSemigroup, "from_elements", classmethod(no_build))
    for module in (affine, ranks, verify, cli):
        monkeypatch.setattr(module, "enumerate_a_plus", counted)
    code, out, err = invoke(capsys, argv[0], "--n", "6", *argv[1:])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: A+(B_6) has 27253 elements")
    assert "rank --which formulas" in err
    assert enumerated == []


@pytest.mark.parametrize("n", ["1001", "2000"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count",),
        ("rank", "--which", "formulas"),
        ("rank", "--which", "formulas", "--format", "json"),
        ("search-r4",),
    ],
)
def test_n_above_the_printable_closed_forms_is_a_usage_error(capsys, argv, n):
    # the closed forms outgrow the 4,300 digits Python prints from n = 1,557
    code, out, err = invoke(capsys, argv[0], "--n", n, *argv[1:])
    assert code == EXIT_USAGE and out == ""
    assert "argument --n: value must be <= 1000" in err


def test_count_prints_the_closed_forms_at_the_largest_n(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "1000")
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" = (1000!+1)·1000000 + 1000000000000 + 1")


def test_verify_n1(capsys):
    code, out, _ = invoke(capsys, "verify", "--n", "1")
    assert code == EXIT_OK
    assert "overall: ok" in out
    assert "[FAIL]" not in out


def test_verify_n2_reports_exact_ranks(capsys):
    code, out, _ = invoke(capsys, "verify", "--n", "2", "--budget", "300")
    assert code == EXIT_OK
    assert "r2 = 6" in out
    assert "r3 = 6" in out
    assert "r5 = 29" in out
    assert "[FAIL]" not in out


def test_verify_fails_a_closed_form_rank_the_node_limit_cuts_short(capsys):
    code, out, _ = invoke(capsys, "verify", "--n", "2", "--node-limit", "5")
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    assert lines[-1] == "overall: MISMATCH"
    checks = [re.fullmatch(r"\[(PASS|FAIL)\] (\S+)(?: \((.*)\))? \[\d+ ms\]", line).groups()
              for line in lines[:-1]]
    assert len(checks) == 18
    assert [c for c in checks if c[0] == "FAIL"] == [
        ("FAIL", "rank-r3", "WitnessVerificationError: r3 (6, 29) != 6"),
    ]
    assert ("PASS", "rank-r4", "r4 in [14, 23] (budget exhausted)") in checks


def test_prime(capsys):
    code, out, _ = invoke(capsys, "prime", "--n", "2")
    assert code == EXIT_OK
    assert "xi(1,2)" in out and "r5 = 29" in out


def test_prime_verbose_prints_the_witness_as_rank_does(capsys):
    code, out, _ = invoke(capsys, "prime", "--n", "2", "-v")
    assert code == EXIT_OK
    _, quiet, _ = invoke(capsys, "prime", "--n", "2")
    _, rank_out, _ = invoke(capsys, "rank", "--n", "2", "--which", "r5", "-v")
    witness = rank_out.splitlines()[-1]
    assert witness.startswith("  witness: xi(0) ")
    assert out == f"{quiet}{witness}\n"


def test_prime_keeps_its_budget(capsys):
    # A+(B_3) has no indecomposable element, so one node ends the search for
    # a prime pair and only size 1 is excluded
    code, out, _ = invoke(capsys, "prime", "--n", "3", "--node-limit", "1", "--format", "json")
    assert code == EXIT_BUDGET
    r5 = json.loads(out)["r5"]
    assert r5["bounds"] == [2, 144]
    assert r5["detail"] == "budget exhausted; no proper prime subset of size <= 1"


def test_prime_text_reports_the_budget_cut(capsys):
    code, out, _ = invoke(capsys, "prime", "--n", "3", "--node-limit", "1")
    assert code == EXIT_BUDGET
    assert out == "r5 in [2, 144] (budget exhausted; no proper prime subset of size <= 1)\n"


def test_rank_r2_sweeps_when_the_pruned_sweep_fits_the_node_limit(capsys):
    # the exhaustive n = 2 sweep takes 3,283 nodes, far below the limit
    argv = ("rank", "--n", "2", "--which", "r2", "--node-limit", "100000", "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    r2 = json.loads(out)["ranks"]["r2"]
    assert (r2["provenance"], r2["value"]) == ("exact-search", 6)
    assert r2["detail"] == "no generating subset of size 5 (exhaustive)"


def test_invalid_arguments(capsys):
    assert invoke(capsys, "count", "--n", "0")[0] == EXIT_USAGE
    assert invoke(capsys, "count")[0] == EXIT_USAGE
    assert invoke(capsys, "rank", "--n", "2", "--which", "r4")[0] == EXIT_USAGE
    assert invoke(capsys, "nonsense")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv, option", [
    (("count", "--n", "abc"), "--n"),
    (("rank", "--n", "2", "--which", "r2", "--node-limit", "1.5"), "--node-limit"),
    (("rank", "--n", "2", "--which", "r2", "--budget", "abc"), "--budget"),
])
def test_an_argument_that_is_not_a_number_is_a_usage_error(capsys, argv, option):
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert option in err


@pytest.mark.parametrize("seconds", ["nan", "inf", "0"])
def test_budget_must_be_finite_and_positive(capsys, seconds):
    # one node ends the search at once if the budget is wrongly accepted
    argv = ("search-r4", "--n", "3", "--budget", seconds, "--node-limit", "1")
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_USAGE
    assert "--budget" in err


def test_repeat_invocations_byte_identical(capsys):
    _, first, _ = invoke(capsys, "build", "--n", "2", "--format", "json")
    _, second, _ = invoke(capsys, "build", "--n", "2", "--format", "json")
    assert first == second


def _strip_elapsed(payload):
    if isinstance(payload, dict):
        return {k: _strip_elapsed(v) for k, v in payload.items() if k != "elapsed_ms"}
    if isinstance(payload, list):
        return [_strip_elapsed(v) for v in payload]
    return payload


def test_verify_json_deterministic_apart_from_timings(capsys):
    _, first, _ = invoke(capsys, "verify", "--n", "1", "--format", "json")
    _, second, _ = invoke(capsys, "verify", "--n", "1", "--format", "json")
    assert _strip_elapsed(json.loads(first)) == _strip_elapsed(json.loads(second))


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_BUDGET = ("--budget", "600")
GOLDEN_CASES = {
    **{f"verify-n{n}": ("verify", "--n", str(n), *GOLDEN_BUDGET) for n in (1, 2, 3)},
    "search-r4-n2": ("search-r4", "--n", "2", *GOLDEN_BUDGET),
    "search-r4-n3-2000": ("search-r4", "--n", "3", *GOLDEN_BUDGET, "--node-limit", "2000"),
    "search-r4-n3-8000": ("search-r4", "--n", "3", *GOLDEN_BUDGET, "--node-limit", "8000"),
    "search-r4-n4-300": ("search-r4", "--n", "4", *GOLDEN_BUDGET, "--node-limit", "300"),
    **{
        f"rank-{which}-n{n}": ("rank", "--n", str(n), "--which", which, *GOLDEN_BUDGET)
        for which in ("r1", "r2", "r3", "r5")
        for n in (1, 2, 3)
    },
    **{f"rank-formulas-n{n}": ("rank", "--n", str(n), "--which", "formulas") for n in (1, 2, 3)},
    **{f"{cmd}-n{n}": (cmd, "--n", str(n)) for cmd in ("prime", "greens") for n in (2, 3)},
}
TEXT_SUFFIX = "-text"
GOLDEN_CASES.update(
    {
        f"{name}{TEXT_SUFFIX}": argv
        for name, argv in GOLDEN_CASES.items()
        if name.startswith(("verify-", "rank-formulas-", "prime-", "greens-"))
    }
)


def _golden_capture(name, argv):
    text = name.endswith(TEXT_SUFFIX)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run([*argv, "--format", "text" if text else "json"])
    if text:
        output = re.sub(r"\[\d+ ms\]", "[N ms]", out.getvalue()).splitlines()
    else:
        output = _strip_elapsed(json.loads(out.getvalue()))
    return {"argv": list(argv), "rc": rc, "output": output}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert expected["argv"] == list(GOLDEN_CASES[name])
    assert _golden_capture(name, GOLDEN_CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN_CASES.items()):
        doc = _golden_capture(name, argv)
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: rc {doc['rc']}", file=sys.stderr)
