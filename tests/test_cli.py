"""Command-line harness: argument validation, output shapes, determinism."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import asg
import asg.cli
from asg import algorithms
from asg.adversary import exact_strategy_count
from asg.bounds import CURVE_COLUMNS
from asg.cli import main
from asg.core import design_shapes
from asg.designs import SEARCH_NODES, CoveringDesign
from asg.problems import CONSTRUCTIONS
from asg.reductions import REDUCTIONS
from asg.suite import BATTERY_ORDER

from test_designs import is_covering_design

SRC = str(Path(asg.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_reports_the_sandwich(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "100", "--c", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == "2"
    assert payload["lower_envelope"] <= payload["bound_bits"] <= payload["upper_envelope"]


# stdout of `asg bounds`, slack terms included, for the small n where the
# slack formulas take their edge cases and the benchmark's eight commands
BOUNDS_STDOUT_SHA256 = {
    (1, "2"): "6b1cae448075e0d02579fe8a102adc5b0cf7ed13512260c27b7a88f53e927836",
    (1, "3/2"): "30824421313061eb771bcfbff0501b04662d272498be5910dc5c7606c7447080",
    (2, "2"): "1294fea7ed004a2145b9048a9dbd43a05112266d838f0868ba19ed4250df4003",
    (2, "3/2"): "7a744bb56230e65369be508a40340dc8305b0e3671b5c1ab079753a5dfadd205",
    (3, "2"): "c21d060fcf37c15572f7416ae812c295a025e5f2e6fab2532b3e26d438184561",
    (3, "3/2"): "65173aecd273e37df7e6e6a0856ad965bae86e75c62717ad4294fe6988f08e99",
    (10, "2"): "e660369ec410555074f228c8250864a06692209d07c9951947446b2ed7156603",
    (10, "3/2"): "adc0ce9841f4b9a30dddcac82fe52eafb74c5f53614bf7000afdda39fe759b54",
    (1000, "2"): "82c0f7a79dec914627be93d9b387f17662338d393d872ad29d7725710eb8ba39",
    (1000, "3/2"): "06e66e5d46b47d0ca1c3b722a54215d45fd64cce87e71e463639ccc5e30f6135",
    (10000, "2"): "c7c285a1d2ac68fff9a0cc5b4079ba97a9ae445ee3e338bf5e6a1a086a4ede80",
    (10000, "3/2"): "8b5edce2702c998816b79b9c2837341da359932828e9d51b7266af67acb4b020",
    (100000, "2"): "093badf122214b78725c498e7e4d03e7196df1662193a2d0b7deef7d519241db",
    (100000, "3/2"): "d1f606d12d94a57e7acc5dd8257e1bfb1a03bb67f228928ed2733eddaa8d20fe",
    (1000000, "2"): "b95374b027a97bcdba4474cf0b6abe02cc80bf86ff055db31f50ec9e8182ee13",
    (1000000, "3/2"): "b219b6e7420d5c58a322699f26766f9daf49952ed4e5477c1dd28ec36a32bdf1",
}


@pytest.mark.parametrize("n, c", sorted(BOUNDS_STDOUT_SHA256))
def test_bounds_stdout_is_pinned(capsys, n, c):
    code, out, _ = run_cli(capsys, "bounds", "--n", str(n), "--c", c)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_STDOUT_SHA256[(n, c)]


def test_float_ratios_are_rejected(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "10", "--c", "1.5")
    assert code == 2
    assert "float" in err
    code, _, _ = run_cli(capsys, "curve", "--c-min", "2e0", "--c-max", "3", "--steps", "4")
    assert code == 2


def test_curve_csv_shape_and_determinism(capsys):
    args = ("curve", "--c-min", "21/20", "--c-max", "4", "--steps", "12")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    lines = first.splitlines()
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 13
    code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_curve_json_mirrors_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--c-min", "3/2", "--c-max", "3", "--steps", "4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [set(r) for r in rows] == [set(CURVE_COLUMNS)] * 4
    assert rows[0]["sg_bits_per_request"] is not None
    assert rows[-1]["sg_bits_per_request"] is None


def test_curve_rejects_degenerate_ratio(capsys):
    code, _, err = run_cli(capsys, "curve", "--c-min", "1", "--c-max", "2", "--steps", "4")
    assert code == 2
    assert "c > 1" in err


def test_design_methods_agree_on_small_instances(capsys):
    code, exact, _ = run_cli(capsys, "design", "--v", "6", "--k", "4", "--t", "2", "--method", "exact")
    assert code == 0
    code, auto, _ = run_cli(capsys, "design", "--v", "6", "--k", "4", "--t", "2")
    assert exact == auto
    assert len(json.loads(exact)["blocks"]) == 3
    code, greedy, _ = run_cli(capsys, "design", "--v", "6", "--k", "4", "--t", "2", "--method", "greedy")
    assert code == 0
    assert len(json.loads(greedy)["blocks"]) >= 3


def test_simulate_reports_a_feasible_run(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", "covering-min", "--c", "2", "--x", "0110"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["score"] <= 2 * payload["opt"]
    assert payload["bits"] <= payload["budget"]
    code, known, _ = run_cli(
        capsys, "simulate", "--protocol", "trivial-min", "--c", "2", "--x", "0110",
        "--history", "known",
    )
    assert code == 0
    assert json.loads(known)["history"] == "known"


def test_simulate_rejects_non_bitstrings(capsys):
    code, _, err = run_cli(capsys, "simulate", "--protocol", "trivial-min", "--c", "2", "--x", "012")
    assert code == 2
    assert "0/1" in err


def test_verify_passes_and_fails_by_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "covering-max", "--c", "3/2", "--n-max", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checked"] == 63  # sum of 2^n for n <= 5


def test_adversary_min_game_from_weight_class(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--game", "min", "--n", "4", "--weight", "2", "--m", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["score"] >= 2
    assert len(payload["rounds"]) == 4


def test_adversary_min_game_from_file(tmp_path, capsys):
    strings = tmp_path / "alive.json"
    strings.write_text(json.dumps(["011", "101", "110"]))
    code, out, _ = run_cli(capsys, "adversary", "--game", "min", "--strings", str(strings))
    assert code == 0
    assert json.loads(out)["x"] in ("011", "101", "110")


@pytest.mark.parametrize("entries, bad", [([1, 2], 1), (["01", 5], 5), ([{}], {})])
def test_adversary_strings_file_must_hold_strings(tmp_path, capsys, entries, bad):
    strings = tmp_path / "alive.json"
    strings.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "adversary", "--game", "min", "--strings", str(strings))
    assert (code, out, err) == (2, "", f"error: alive strings must be 0/1 strings, got {bad!r}\n")


def test_adversary_max_game_defeats_everyone(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--game", "max", "--n", "8", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert all(s == "-inf" or s <= 0 for s in payload["scores"])


def test_adversary_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "adversary", "--game", "min")
    assert code == 2
    assert "--strings" in err
    code, _, _ = run_cli(capsys, "adversary", "--game", "max", "--n", "8")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        # the curve is per request and takes no length
        (("curve", "--c-min", "2", "--c-max", "3", "--steps", "2", "--n", "0"),
         "unrecognized arguments: --n 0"),
        (("adversary", "--game", "min", "--n", "4", "--weight", "2", "--m", "-1"),
         "--m must be at least 0"),
        (("adversary", "--game", "max", "--n", "4", "--m", "-3"), "needs m >= 0 strategies"),
        (("adversary", "--game", "max", "--n", "-1", "--m", "2"), "needs n >= 0 rounds"),
        (("verify", "--protocol", "covering-min", "--c", "2", "--n-max", "-1"),
         "--n-max must be at least 0"),
        (("design", "--v", "3", "--k", "2", "--t", "-1"), "need 0 <= t <= k <= v, got (3, 2, -1)"),
        (("bounds", "--n", "-5", "--c", "2"), "the bound needs n >= 0"),
        # n/c past the largest float would print `Infinity`, which is not JSON
        (("bounds", "--n", "1" + "0" * 320, "--c", "2"), "n is too large: the bound overflows a float"),
        (("verify", "--protocol", "covering-min", "--c", "2", "--n-max", "16"),
         "verify runs 131071, over the limit 65535"),
        (("verify", "--protocol", "covering-min", "--c", "2", "--n-max", "64"),
         "verify runs 2^64 or more, over the limit 65535"),
    ],
)
def test_bad_sizes_fail_fast_with_exit_2(capsys, argv, message):
    # no traceback, no exit 1 (a failed verification), no silent answer
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("brute", "--n", "3", "--c", "2", "--limit", "3"), "unrecognized arguments: --limit 3"),
        (("brute", "--n", "3", "--c", "2", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        (("simulate", "--protocol", "covering", "--c", "2", "--x", "01"), "argument --protocol"),
        (("brute", "--n", "3"), "the following arguments are required: --c"),
        (("simulate", "--protocol", "trivial-min", "--c", "2", "--x", "012"),
         "argument --x: '012' is not a 0/1 string"),
        (("bounds", "--n", "10", "--c", "1/0"), "argument --c: '1/0' is not a rational"),
    ],
)
def test_usage_errors_are_one_line_with_exit_2(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert fragment in err


def test_brute_matches_the_library(capsys):
    code, out, _ = run_cli(capsys, "brute", "--n", "4", "--c", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == exact_strategy_count(4, 2, "min").count
    assert payload["lower_bits"] <= payload["bits"] <= payload["upper_bits"]


def _run_module(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "asg.cli", *argv], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def test_search_guard_is_a_one_line_error_with_exit_2():
    done = _run_module("design", "--v", "30", "--k", "10", "--t", "5")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


def test_verify_bounds_its_runs_before_it_starts():
    # 2^31 - 1 runs would take hours; the guard answers before the first
    done = _run_module("verify", "--protocol", "trivial-min", "--c", "2", "--n-max", "30",
                       timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: verify runs 2147483647, over the limit 65535\n"


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("adversary", "--game", "min", "--n", "60", "--weight", "30"),
         "weight-class bits 7095874893891685440, over the limit 5000000"),
        (("adversary", "--game", "max", "--n", "10000000", "--m", "8"),
         "game rounds 10000000, over the limit 100000"),
        (("adversary", "--game", "max", "--n", "0", "--m", "1000000000"),
         "max-game answers 1000000000, over the limit 300000"),
        (("curve", "--c-min", "3/2", "--c-max", "3", "--steps", "1000000000"),
         "curve steps 1000000000, over the limit 10000"),
        (("lift", "--from", "1" * 2000, "--to", "vc", "--c", "2"),
         "brute-force requests 2000, over the limit 16"),
        # both binomials are 1, but one block would hold 10^20 points
        (("design", "--v", "1" + "0" * 20, "--k", "1" + "0" * 20, "--t", "0"),
         f"({10**20},{10**20},0) design points 2^64 or more, over the limit 100000"),
        # both binomials are 99,681, under their guard, but the coverage
        # tables would pair every block with its 98,790 t-subsets
        (("design", "--v", "447", "--k", "445", "--t", "2"),
         "(447,445,2) design pairs 9847485990, over the limit 20000000"),
    ],
)
def test_work_over_a_limit_is_refused_before_it_starts(argv, stderr):
    # each would run for minutes or exhaust memory; the timeout is only a safety net
    done = _run_module(*argv, timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {stderr}\n"  # one line, no traceback


# (plain, hostile) values for every flag of cli.COMMANDS; a choice flag's
# choices are its plain values.  Hostile sizes: empty, zero, negative, 300
# digits.  Hostile ratios: degenerate, division by zero, float notation, 400
# digits, and one a 400-digit step above 1.
SIZES = (("1", "2", "3", "4"), ("", "0", "-1", "1" + "0" * 299))
RATIOS = (("5/4", "3/2", "2", "3"), ("", "0", "1", "-3/2", "1/0", "1e400", "1.5", "9" * 400,
                                     f"{10**399 + 1}/{10**399}"))
BITS = (("0110", "1011", "1", "01"), ("", "0000", "012", " 1", "1_0", "0b1", "1" * 40))
CHOICE = ((), ("", "bogus"))
FLAG_VALUES = {
    "--n": SIZES, "--c": RATIOS, "--c-min": RATIOS, "--c-max": RATIOS, "--steps": SIZES,
    "--format": CHOICE, "--v": SIZES, "--k": SIZES, "--t": SIZES, "--method": CHOICE,
    "--protocol": CHOICE, "--x": BITS, "--history": CHOICE, "--n-max": SIZES, "--game": CHOICE,
    "--weight": SIZES, "--m": SIZES, "--variant": CHOICE, "--from": BITS, "--to": CHOICE,
    "--only": CHOICE, "--grid-max": SIZES, "--seed": SIZES,
    # files in the test's own directory: alive strings, none, bad JSON, a dict
    "--strings": (("alive.json",), ("missing.json", "bad.json", "shape.json")),
    "--out": (("out.txt",), (".",)),
}
# The suite has no work limit: omitted or past its defaults, its caps run
# every battery at full range, for seconds.  Its caps are always drawn, small.
SUITE_CAPS = (("1", "2"), ("", "0", "-1"))
# every check_work limit and search budget, lowered so that no draw runs long
LOWERED_LIMITS = {
    "asg.cli.VERIFY_RUNS": 63, "asg.cli.GAME_ROUNDS": 8, "asg.cli.GAME_ANSWERS": 32,
    "asg.adversary.CLASS_BITS": 200, "asg.adversary.DEFAULT_BRUTE_LIMIT": 4,
    "asg.bounds.CURVE_STEPS": 8, "asg.problems.BRUTE_GUARD": 6,
    "asg.problems.HALVING_PATHS_LIMIT": 6, "asg.designs.DEFAULT_TSUBSET_LIMIT": 200,
    "asg.designs.DESIGN_PAIRS": 2000,
    "asg.designs.SEARCH_NODES": 200, "asg.cover.SEARCH_NODES": 200, "asg.cover.HIGHS_NODES": 20,
}


def test_hostile_arguments_keep_the_error_contract(tmp_path, monkeypatch):
    flags = {flag for _, arguments in asg.cli.COMMANDS.values() for flag, _ in arguments}
    assert flags | {"--out"} == FLAG_VALUES.keys()
    for target, limit in LOWERED_LIMITS.items():
        monkeypatch.setattr(target, limit)
    (tmp_path / "alive.json").write_text('["0110", "1010", "0011"]')
    (tmp_path / "bad.json").write_text('["0110",')
    (tmp_path / "shape.json").write_text('{"alive": ["01"]}')
    monkeypatch.chdir(tmp_path)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(list(asg.cli.COMMANDS)))
        argv = [command]
        for flag, options in (*asg.cli.COMMANDS[command][1], ("--out", {})):
            if command == "suite" and flag in ("--n-max", "--grid-max"):
                plain, hostile = SUITE_CAPS
                pools = (plain, hostile)
            else:
                plain, hostile = FLAG_VALUES[flag]
                plain = (*options.get("choices", ()), *plain)
                pools = (plain,) * 5 + (hostile, hostile, ())  # () omits the flag
            pool = data.draw(st.sampled_from(pools))
            if pool:
                argv += [flag, data.draw(st.sampled_from(pool))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:  # one error line and nothing else
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

    check()


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_command_and_battery_call_is_within_its_limits(monkeypatch):
    from asg import adversary, bounds, designs, problems

    workloads = _benchmark_workloads(monkeypatch)
    estimates = {}  # limit name -> the estimates it must admit

    def need(limit: str, estimate: int) -> None:
        estimates.setdefault(limit, []).append(estimate)

    for c in workloads.cli_commands(0):
        if c.frontier:  # two of its designs are over the binom guard on purpose
            continue
        arg = {flag: value for flag, value in zip(c.args, c.args[1:]) if flag.startswith("--")}
        if c.kind == "verify":
            need("VERIFY_RUNS", 2 ** (int(arg["--n-max"]) + 1) - 1)
        elif c.kind == "adversary":
            n = int(arg["--n"])
            need("GAME_ROUNDS", n)
            if arg["--game"] == "min":
                need("CLASS_BITS", math.comb(n, int(arg["--weight"])) * n)
            else:
                need("GAME_ANSWERS", int(arg["--m"]) * max(n, 1))
        elif c.kind == "lift":
            need("BRUTE_GUARD", len(c.x))
            need("HALVING_PATHS_LIMIT", len(c.x))
        elif c.kind == "brute":
            need("DEFAULT_BRUTE_LIMIT", int(arg["--n"]))
        elif c.kind == "design":
            v, k, t = (int(arg[f]) for f in ("--v", "--k", "--t"))
            need("DEFAULT_TSUBSET_LIMIT", max(math.comb(v, t), math.comb(v, k)))
            need("DESIGN_PAIRS", math.comb(v, k) * math.comb(k, t))
    for workload in workloads.BATTERIES:
        for name, caps, _ in workloads.battery_calls(workload, 0):
            if name == "adversary":  # weight classes and alive sets to n_max
                n = caps["n_max"]
                need("CLASS_BITS", max(math.comb(n, t) for t in range(n + 1)) * n)
            elif name == "growth":  # 2^(floor(log2 n) - 1) strategies over n rounds
                n = caps["n"]
                need("GAME_ROUNDS", n)
                need("GAME_ANSWERS", (1 << n.bit_length() - 2) * n)
            elif name == "curve":
                need("CURVE_STEPS", caps["steps"])
            elif name == "counting":
                need("DEFAULT_BRUTE_LIMIT", caps["n_max"])
            elif name == "covering":  # a (v, k, t) design per weight class, v <= n_max
                n = caps["n_max"]
                need("DEFAULT_TSUBSET_LIMIT", math.comb(n, n // 2))
                need("DESIGN_PAIRS", max(math.comb(n, k) * math.comb(k, t)
                                         for k in range(n + 1) for t in range(k + 1)))
            elif name == "reductions":  # instances and brute-force optima to n_max
                need("BRUTE_GUARD", caps["n_max"])
                need("HALVING_PATHS_LIMIT", caps["n_max"])
            elif name == "packing":  # runs to n_max requests
                need("BRUTE_GUARD", caps["n_max"])
    limits = {
        "VERIFY_RUNS": asg.cli.VERIFY_RUNS, "GAME_ROUNDS": asg.cli.GAME_ROUNDS,
        "GAME_ANSWERS": asg.cli.GAME_ANSWERS, "CLASS_BITS": adversary.CLASS_BITS,
        "CURVE_STEPS": bounds.CURVE_STEPS, "BRUTE_GUARD": problems.BRUTE_GUARD,
        "HALVING_PATHS_LIMIT": problems.HALVING_PATHS_LIMIT,
        "DEFAULT_BRUTE_LIMIT": adversary.DEFAULT_BRUTE_LIMIT,
        "DEFAULT_TSUBSET_LIMIT": designs.DEFAULT_TSUBSET_LIMIT, "DESIGN_PAIRS": designs.DESIGN_PAIRS,
    }
    assert estimates.keys() == limits.keys()
    assert max(estimates["VERIFY_RUNS"]) == 2**13 - 1  # the largest verify has n_max 12
    over = {name: max(estimates[name]) for name in limits if max(estimates[name]) > limits[name]}
    assert over == {}
    # the limits' values, each set where it is defined
    assert limits == {
        "VERIFY_RUNS": 2**16 - 1, "GAME_ROUNDS": 100_000, "GAME_ANSWERS": 300_000,
        "CLASS_BITS": 5_000_000, "CURVE_STEPS": 10_000, "BRUTE_GUARD": 16,
        "HALVING_PATHS_LIMIT": 30, "DEFAULT_BRUTE_LIMIT": 8, "DEFAULT_TSUBSET_LIMIT": 100_000,
        "DESIGN_PAIRS": 20_000_000,
    }
    # every covering shape with n <= 18 at c in {5/4, 3/2, 2, 3} stays admitted;
    # the largest pair count is (18,12,6)'s, C(18,12) C(12,6)
    pairs = max(math.comb(n, k) * math.comb(k, t) for n in range(1, 19) for c in ("5/4", "3/2", "2", "3")
                for objective in ("min", "max") for k, t in design_shapes(objective, c, n) if 0 < t and k < n)
    assert pairs == 17_153_136 < designs.DESIGN_PAIRS


@pytest.mark.parametrize("workload", ["upper-bounds", "lower-bounds", "reductions"])
def test_benchmark_battery_calls_pass_with_their_pinned_counts(monkeypatch, workload):
    # a pass whose count differs has not done the benchmark's work: it fails
    # here before the benchmark refuses it
    import asg.suite

    workloads = _benchmark_workloads(monkeypatch)
    assert [w for w in workloads.WORKLOADS if w in workloads.BATTERIES] == [
        "upper-bounds", "lower-bounds", "reductions"]
    for name, caps, checked in workloads.battery_calls(workload, 0):
        result = getattr(asg.suite, f"battery_{name}")(**caps)
        assert (result.passed, result.checked) == (True, checked), result.line()


# sha256 over "<exit code>\0<stdout>\0<stderr>\0" of each command, in order:
# one digest per kind of the non-frontier benchmark commands of seeds 0 and 1,
# then the suite call and the 60-point curve the curve battery samples, at
# the default n, in both formats
OUTPUT_SHA256 = {
    "bounds": "37c621614821ed8e58923f2524596f26581df5f06c5a13f4d6530676d98b6dbb",
    "simulate": "cfd282807d58d0ba7c709cc893c26383145f03902f50cffd800a10c065a10e39",
    "verify": "0c3bff8f636f40db37be947dc4765ea5c37de597229955b43bccfdd4eba706cf",
    "adversary": "5e766da9630c4a6ab0624c45702148177ffa418adbbe737c9defadc8ff1ee91a",
    "lift": "94cad12c16d31cd36043235014f386575d01c3db19c17c7be4445629883e2ba2",
    "design": "1d7965196b7b3a6b61e362a7b9261a82005a4e8e44cfd00eb928d7efa204dcac",
    "brute": "23f3e9efdbec6be28de5dbc83dd09f91d8b62fca1ce9b8a96c8c1b5cc065085f",
    "suite": "53857bf46027f5481cd6a9976db54d23dd5adadcced19ea7c4257c949f64b978",
    "curve-csv": "d16ca997b57f4925a2cc3ed5304f994dd5f2a5d7523d691f2bb9c3ee712ed775",
    "curve-json": "78291fe85d6c5f60fb191b4bf828131d30c322b1cd48983b912310a4ea4451f2",
}
OUTPUT_EXTRA_COMMANDS = {
    "suite": ("suite", "--n-max", "4", "--grid-max", "50"),
    "curve-csv": ("curve", "--c-min", "21/20", "--c-max", "4", "--steps", "60"),
    "curve-json": ("curve", "--c-min", "21/20", "--c-max", "4", "--steps", "60",
                   "--format", "json"),
}


def test_command_output_bytes_are_pinned(capsys, monkeypatch):
    workloads = _benchmark_workloads(monkeypatch)
    runs = [(c.kind, (c.kind, *c.args)) for seed in (0, 1) for c in workloads.cli_commands(seed)
            if not c.frontier]
    assert len(runs) == 200
    runs += OUTPUT_EXTRA_COMMANDS.items()
    digests = {kind: hashlib.sha256() for kind in OUTPUT_SHA256}
    for kind, argv in runs:
        code, out, err = run_cli(capsys, *argv)
        digests[kind].update(f"{code}\0{out}\0{err}\0".encode())
    assert {kind: d.hexdigest() for kind, d in digests.items()} == OUTPUT_SHA256


# Run in turn by one process per hash seed: no printed order may come from
# iterating a set or dict of strings, whose order the seed decides
HASH_SEED_COMMANDS = (
    "suite --n-max 5 --grid-max 60",
    "lift --from 0110101 --to vc --c 2",
    "reduce --from 0110101 --to ds",
    "brute --n 6 --c 2",
    "adversary --game min --n 6 --weight 2",
    "simulate --protocol covering-min --c 2 --x 01101001",
    "simulate --protocol covering-max --c 2 --x 01101001",
    "design --v 8 --k 5 --t 4 --method greedy",
)
RUN_COMMANDS = """
import sys
from asg.cli import main
for command in sys.argv[1:]:
    print("$", command)
    print("exit", main(command.split()), flush=True)
"""


def test_output_bytes_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", RUN_COMMANDS, *HASH_SEED_COMMANDS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\nexit 0\n") == len(HASH_SEED_COMMANDS)
    assert outputs[0] == outputs[1]


# `verify` with one sabotaged run: trivial-min's oracle sends x = 0110 the
# tape of 0000, so that run answers 0000; exit code 1 and the bytes below
# were taken before `verify` shared one play among the inputs of one tape
SABOTAGED_VERIFY_SHA256 = "6e6b4fb6d8045241a25d17cbfdd50026fee4254d6477d66e15e09f3261ae3b4e"


def test_verify_failure_bytes_are_pinned(capsys, monkeypatch):
    real = algorithms.trivial_min

    def sabotaged(c):
        pair = real(c)
        return dataclasses.replace(pair, oracle=lambda x: pair.oracle("0000" if x == "0110" else x))

    monkeypatch.setattr(algorithms, "trivial_min", sabotaged)
    code, out, err = run_cli(capsys, "verify", "--protocol", "trivial-min", "--c", "2", "--n-max", "6")
    payload = json.loads(out)
    assert (code, err, payload["checked"], payload["passed"]) == (1, "", 22, False)
    assert {k: payload["witness"][k] for k in ("x", "y", "score", "bits")} == {
        "x": "0110", "y": "0000", "score": "+inf", "bits": 7
    }
    assert hashlib.sha256(f"{code}\0{out}\0{err}\0".encode()).hexdigest() == SABOTAGED_VERIFY_SHA256


def test_a_huge_design_guard_is_refused_without_computing_the_binomial():
    # binom(10^6, 5 10^5) has 300,000 digits; computing it took 8-12 s
    done = _run_module("design", "--v", "1000000", "--k", "500000", "--t", "0", timeout=5)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: (1000000,500000,0) design blocks 2^64 or more, over the limit 100000\n")


def test_adversary_min_game_builds_only_the_first_m_strings(capsys):
    # the whole class is C(22, 11) 22 = 15.5 M bits, over CLASS_BITS; one string is 22
    code, out, err = run_cli(capsys, "adversary", "--game", "min", "--n", "22", "--weight", "11",
                             "--m", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["x"] == "0" * 11 + "1" * 11  # the class's first string


def test_exact_design_with_too_many_blocks_fails_before_building_them():
    # binom(20,5) = 15504 subsets pass the guard, but binom(20,10) = 184756 blocks do not
    done = _run_module("design", "--v", "20", "--k", "10", "--t", "5", "--method", "exact",
                       timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: (20,10,5) design blocks 184756, over the limit 100000\n"


# The node budget bounds these; the timeouts are only a safety net.
def test_exact_9_4_3_design_answers():
    done = _run_module("design", "--v", "9", "--k", "4", "--t", "3", "--method", "exact",
                       timeout=60)
    assert done.returncode == 0, done.stderr
    blocks = tuple(tuple(b) for b in json.loads(done.stdout)["blocks"])
    assert len(blocks) == 25
    assert is_covering_design(CoveringDesign(9, 4, 3, blocks))
    # the greedy family, which the size proof needs no node to keep
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "347b6e00dca9d980540f2bf5eb079f5296530abbe08acb2c04b76f989c86e0a7")


def test_covering_min_at_n_10_answers():
    x = "0101100100"
    done = _run_module("simulate", "--protocol", "covering-min", "--c", "2", "--x", x,
                       timeout=60)
    assert done.returncode == 0, done.stderr
    y = json.loads(done.stdout)["y"]
    assert len(y) == len(x) and all(b == "1" for a, b in zip(x, y) if a == "1")


def test_unproven_exact_design_is_a_one_line_error_with_exit_2():
    done = _run_module("design", "--v", "10", "--k", "6", "--t", "3", "--method", "exact",
                       timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: the (10,6,3) cover number lies in [9, 10]: not proven within {SEARCH_NODES} "
        "search nodes\n")


def test_exact_design_with_k_equal_t_needs_no_search(capsys):
    code, out, err = run_cli(capsys, "design", "--v", "20", "--k", "3", "--t", "3", "--method", "exact")
    assert code == 0 and err == ""
    assert len(json.loads(out)["blocks"]) == math.comb(20, 3) == 1140


def test_solver_failure_is_a_one_line_error_with_exit_2(capsys, monkeypatch):
    def failing_milp(*args, **kwargs):
        return types.SimpleNamespace(success=False, message="forced failure", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", failing_milp)
    # n = 8 residuals go to HiGHS
    code, out, err = run_cli(capsys, "brute", "--n", "8", "--c", "2")
    assert code == 2
    assert out == ""
    assert err == "error: set-cover program failed: forced failure\n"


def test_out_of_memory_is_a_one_line_error_with_exit_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(asg.cli, "cmd_design", exhausted)
    code, out, err = run_cli(capsys, "design", "--v", "6", "--k", "3", "--t", "2")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_reduce_round_trips_the_instance(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--from", "0111", "--to", "cf")
    assert code == 0
    assert json.loads(out) == CONSTRUCTIONS["cf"]("0111").to_json()


def test_reduce_rejects_unbuildable_inputs(capsys):
    code, _, err = run_cli(capsys, "reduce", "--from", "0000", "--to", "ds")
    assert code == 2
    assert "error" in err


def test_lift_stays_within_budget(capsys):
    code, out, _ = run_cli(capsys, "lift", "--from", "0110", "--to", "is", "--c", "3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bits"] <= payload["budget"]
    assert payload["score"] != "-inf"


def test_suite_subset_exit_codes_and_formats(capsys):
    args = ("suite", "--only", "envelope", "curve", "--n-max", "2", "--format", "csv")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert first.splitlines()[0] == "battery,passed,checked,detail,witness"
    code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_suite_rejects_degenerate_ratio_for_covering(capsys):
    code, _, err = run_cli(capsys, "suite", "--only", "covering", "--c", "1")
    assert code == 2
    assert "c > 1" in err


def test_suite_rejects_unknown_battery(capsys):
    code, _, _ = run_cli(capsys, "suite", "--only", "bogus")
    assert code == 2


def test_out_writes_a_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--c", "3/2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 10


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2


# sha256 of "<exit code>\0<stdout>\0<stderr>" at 80 columns, taken when every
# command's parser was built on every call: building only the parser that
# argv[0] names changes none of these bytes
HELP_AND_ERROR_SHA256 = {
    "help": (("--help",), "5e3884785281178174ac3b0c2cc4cb9a1e1a8a42536e120642d07df5d50e9be6"),
    "no-command": ((), "e3904a52ff642e7f4c67f2ce44b79cf482e6a514fe91ef287b8d5cf0cbc0af6b"),
    "unknown-command": (("bogus",), "72af1d2faf9fd968d258889c8740bc428d0ef5932fc609a99599cba451750a35"),
    "missing-argument": (
        ("brute", "--n", "3"), "defc701dc4387f2bfd9cdbb4cdb6aa35a006ef2b962f9c631aebab79ce0a7dd1"),
    "unrecognized-argument": (
        ("brute", "--n", "3", "--c", "2", "--bogus", "1"),
        "b313dd1f7fc4bc3fc05c29a1af57e424ba47e1382874e60d586e4244536ef9d6"),
    "bounds-help": (("bounds", "--help"), "b73bbd0524398c2ca0ffbad8695e37ecdfe925e58a9ebb07be4411838fc13717"),
    "curve-help": (("curve", "--help"), "7cbe9e0163e57ee2c1603198fb58a5bf59909c1f31959dcbff502989572057e6"),
    "design-help": (("design", "--help"), "616a204efc4c811a77cd5adaa8fbca74196a225dd98725a3fead3ad113877915"),
    "simulate-help": (
        ("simulate", "--help"), "60762e18275859b3226734365782ec933e1ce43edcb03f91bbb726e2315cb575"),
    "verify-help": (("verify", "--help"), "31f1957363f57e914d1713943156c4ec7db2fc91a5ff16b63e886649ddc06f2f"),
    "adversary-help": (
        ("adversary", "--help"), "490dd16527c2cc98f678a31a44fc8abbab7242e39399bbb435f188a0eacbf01c"),
    "brute-help": (("brute", "--help"), "6465e021cf85b96c308dc5df855393685924baffc58a62833dc32547ba983faf"),
    "reduce-help": (("reduce", "--help"), "b9de731c446d65b5ec68a4156bf25253136f294e9605e68179858ad1e227b0ad"),
    "lift-help": (("lift", "--help"), "ad1b65fdd9a47a8a0d653f226b7c3cd85cee6700e0ce8889a8ce0bc28bfcc137"),
    "suite-help": (("suite", "--help"), "737a45589b4ad8dea342ce73252081b04f1183aebecf2e4c1cf73ab814f641f7"),
}


@pytest.mark.parametrize("name", HELP_AND_ERROR_SHA256)
def test_help_and_usage_error_bytes_are_pinned(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    argv, digest = HELP_AND_ERROR_SHA256[name]
    code, out, err = run_cli(capsys, *argv)
    assert hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest() == digest


def test_a_command_builds_only_its_own_parser():
    assert list(asg.cli.COMMANDS) == ["bounds", "curve", "design", "simulate", "verify",
                                      "adversary", "brute", "reduce", "lift", "suite"]
    for name in asg.cli.COMMANDS:
        assert asg.cli.build_parser(name).format_usage() == f"usage: asg [-h] {{{name}}} ...\n"
    every = "{" + ",".join(asg.cli.COMMANDS) + "}"
    for command in (None, "bogus", "--help"):
        assert every in asg.cli.build_parser(command).format_usage()


def test_parser_choice_lists_copy_the_tables_they_name():
    assert asg.cli.REDUCTIONS == tuple(sorted(REDUCTIONS))
    assert asg.cli.BATTERY_ORDER == BATTERY_ORDER
    factories = {name for name in algorithms.__all__ if name.startswith(("trivial_", "covering_"))}
    assert asg.cli.PROTOCOLS == tuple(sorted(name.replace("_", "-") for name in factories))
    assert asg.cli._protocol("trivial-min") == ("min", algorithms.trivial_min)
    assert asg.cli._protocol("trivial-max") == ("max", algorithms.trivial_max)
    assert asg.cli._protocol("covering-min") == ("min", algorithms.covering_min)
    assert asg.cli._protocol("covering-max") == ("max", algorithms.covering_max)


# Each command in a fresh interpreter, output to os.devnull, then the names in
# sys.modules: a command imports the engine it runs and nothing heavier.
IMPORT_GRAPH_COMMANDS = {
    "design": ("design", "--v", "6", "--k", "3", "--t", "2"),
    "simulate": ("simulate", "--protocol", "covering-min", "--c", "2", "--x", "0110"),
    "simulate-trivial": ("simulate", "--protocol", "trivial-min", "--c", "2", "--x", "0110"),
    "verify": ("verify", "--protocol", "trivial-max", "--c", "3/2", "--n-max", "3"),
    "reduce": ("reduce", "--from", "0111", "--to", "cf"),
    "lift": ("lift", "--from", "0110", "--to", "is", "--c", "3/2"),
    "adversary-min": ("adversary", "--game", "min", "--n", "5", "--weight", "2", "--m", "4"),
    "adversary-max": ("adversary", "--game", "max", "--n", "10", "--m", "2"),
    "bounds": ("bounds", "--n", "100", "--c", "2"),
    "brute": ("brute", "--n", "5", "--c", "2"),
    # two n <= 7 counts that the search settles only with orbital branching
    "brute-n7-c2": ("brute", "--n", "7", "--c", "2", "--variant", "min"),
    "brute-n6-c3_2": ("brute", "--n", "6", "--c", "3/2", "--variant", "min"),
    "curve": ("curve", "--c-min", "3/2", "--c-max", "3", "--steps", "2"),
    "suite": ("suite", "--only", "envelope", "--n-max", "2"),
    "suite-csv": ("suite", "--only", "envelope", "--n-max", "2", "--format", "csv"),
}


def _modules_after(argv) -> set[str]:
    """The modules loaded after `asg <argv>`, or with no argv after no
    command at all: the bare interpreter with this script's own imports."""
    script = (
        "import json, os, sys\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    from asg.cli import main\n"
        "    code = main(sys.argv[1:] + ['--out', os.devnull])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    return _modules_after(())


# The asg.* modules each command loads beyond asg, asg.cli and asg.core.
COMMAND_MODULES = {
    "design": {"cover", "designs"},
    "simulate": {"algorithms", "cover", "designs"},
    # the trivial protocols load no design code
    "simulate-trivial": {"algorithms"},
    "verify": {"algorithms"},
    "reduce": {"problems"},
    "lift": {"algorithms", "cover", "designs", "problems", "reductions"},
    "adversary-min": {"adversary"},
    "adversary-max": {"adversary"},
    "bounds": {"bounds"},
    "brute": {"adversary", "cover", "designs"},
    "curve": {"bounds"},
    "suite": {"adversary", "algorithms", "bounds", "cover", "designs", "problems", "reductions",
              "suite"},
}
COMMAND_MODULES["suite-csv"] = COMMAND_MODULES["suite"]
COMMAND_MODULES["brute-n7-c2"] = COMMAND_MODULES["brute-n6-c3_2"] = COMMAND_MODULES["brute"]


@pytest.mark.parametrize("name", IMPORT_GRAPH_COMMANDS)
def test_each_command_imports_only_what_it_runs(name, bare_modules):
    modules = _modules_after(IMPORT_GRAPH_COMMANDS[name])
    assert {m for m in modules if m.split(".")[0] == "asg"} == {
        "asg", "asg.cli", "asg.core", *(f"asg.{m}" for m in COMMAND_MODULES[name])}
    # every module a command adds is the stdlib's or asg's: asg.bounds runs on
    # decimal and exact integers, and scipy loads only for a cover the orbital
    # search leaves to HiGHS, which no n <= 7 count at c in {5/4, 3/2, 2, 3} is
    assert {m for m in modules - bare_modules
            if m.split(".")[0] not in sys.stdlib_module_names | {"asg"}} == set()
    assert "mpmath" not in modules
    # csv loads only to write CSV, so only for curve and suite
    assert ("csv" in modules) == (name in ("curve", "suite-csv"))
    # the records are named tuples; only algorithms.AdvicePair is a dataclass
    assert ("dataclasses" in modules) == ("asg.algorithms" in modules)
    assert ("inspect" in modules) == ("asg.algorithms" in modules)
