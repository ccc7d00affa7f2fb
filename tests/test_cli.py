"""Command-line harness: argument validation, output shapes, determinism."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy.optimize

import asg
import asg.cli
from asg import algorithms
from asg.adversary import exact_strategy_count
from asg.bounds import CURVE_COLUMNS
from asg.cli import main
from asg.designs import SEARCH_NODES, CoveringDesign, is_covering_design
from asg.problems import CONSTRUCTIONS
from asg.reductions import REDUCTIONS
from asg.suite import BATTERY_ORDER

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
    args = ("curve", "--c-min", "21/20", "--c-max", "4", "--steps", "12", "--n", "1000")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    lines = first.splitlines()
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 13
    code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_curve_json_mirrors_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--c-min", "3/2", "--c-max", "3", "--steps", "4",
        "--n", "1000", "--format", "json",
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
        (("curve", "--c-min", "2", "--c-max", "3", "--steps", "2", "--n", "0"),
         "the curve needs n >= 1"),
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
    ],
)
def test_work_over_a_limit_is_refused_before_it_starts(argv, stderr):
    # each would run for minutes or exhaust memory; the timeout is only a safety net
    done = _run_module(*argv, timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {stderr}\n"  # one line, no traceback


def test_every_benchmark_command_and_battery_call_is_within_its_limits(monkeypatch):
    from asg import adversary, bounds, designs, problems

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
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
                need("DEFAULT_TSUBSET_LIMIT", math.comb(caps["n_max"], caps["n_max"] // 2))
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
        "DEFAULT_TSUBSET_LIMIT": designs.DEFAULT_TSUBSET_LIMIT,
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
    }


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
    "curve-help": (("curve", "--help"), "ca5f4697effa35c06eab692bbb3fa1408c1c03184ffc55d15ef45952579addb9"),
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
    "curve": ("curve", "--c-min", "3/2", "--c-max", "3", "--steps", "2", "--n", "100"),
    "suite": ("suite", "--only", "envelope", "--n-max", "2"),
    "suite-csv": ("suite", "--only", "envelope", "--n-max", "2", "--format", "csv"),
}


def _modules_after(argv) -> set[str]:
    script = (
        "import json, os, sys\n"
        "from asg.cli import main\n"
        "code = main(sys.argv[1:] + ['--out', os.devnull])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


# The asg.* modules each command loads beyond asg, asg.cli and asg.core.
COMMAND_MODULES = {
    "design": {"cover", "designs"},
    "simulate": {"algorithms", "cover", "designs"},
    "verify": {"algorithms", "cover", "designs"},
    "reduce": {"problems"},
    "lift": {"algorithms", "cover", "designs", "problems", "reductions"},
    "adversary-min": {"adversary", "cover", "designs"},
    "adversary-max": {"adversary", "cover", "designs"},
    "bounds": {"bounds"},
    "brute": {"adversary", "cover", "designs"},
    "curve": {"bounds"},
    "suite": {"adversary", "algorithms", "bounds", "cover", "designs", "problems", "reductions",
              "suite"},
}
COMMAND_MODULES["suite-csv"] = COMMAND_MODULES["suite"]
COMMAND_MODULES["brute-n7-c2"] = COMMAND_MODULES["brute-n6-c3_2"] = COMMAND_MODULES["brute"]


@pytest.mark.parametrize("name", IMPORT_GRAPH_COMMANDS)
def test_each_command_imports_only_what_it_runs(name):
    modules = _modules_after(IMPORT_GRAPH_COMMANDS[name])
    assert {m for m in modules if m.split(".")[0] == "asg"} == {
        "asg", "asg.cli", "asg.core", *(f"asg.{m}" for m in COMMAND_MODULES[name])}
    assert ("mpmath" in modules) == (name in ("bounds", "curve", "suite", "suite-csv"))
    # scipy loads only for a cover the orbital search leaves to HiGHS, which
    # no n <= 7 count at c in {5/4, 3/2, 2, 3} is
    assert "scipy" not in modules
    # the float sweeps in asg.bounds run on the stdlib alone
    assert "numpy" not in modules
    # csv loads only to write CSV, so only for curve and suite
    assert ("csv" in modules) == (name in ("curve", "suite-csv"))
    # the records are named tuples; only algorithms.AdvicePair is a dataclass
    assert ("dataclasses" in modules) == ("asg.algorithms" in modules)
    assert ("inspect" in modules) == ("asg.algorithms" in modules)
