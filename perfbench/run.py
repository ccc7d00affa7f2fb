"""Benchmark runner for the asg toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads (see workloads.py and BENCHMARK.json):

* upper-bounds, lower-bounds, reductions: passes of fixed battery calls,
  each pass a fresh interpreter, one at a time.  Passes repeat while
  another fits in S seconds; there is always at least one.
* cli: a closed loop with one client, one `python -m asg.cli` process at
  a time, over the seeded command list; the list repeats while another
  pass fits in S seconds.

Every time in the end-to-end metrics is scaled to a reference CPU speed
(pace.py): each measured process samples its vCPU's speed every 10 ms, so
that time lost to other tenants' load does not count.  The wall-clock
times are kept in the record.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run: one untraced pass and one
traced pass (the traced one rebinds public names from outside the
program, see tracing.py), whose battery results or command outputs must
agree.  `trace.overhead_s` is the traced calls times the measured cost
of one traced call, plus, on cli, installing and writing the spans in
every command.  The difference of the two passes is kept in the record,
but on a host shared with other work it is mostly noise.  Every run
first checks the benchmark itself (self_check) and records its ledger
(versions, caps, seed) in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9  # at least this many set-up samples per run, spread over it
PROBE_EVERY = 12  # cli: one set-up sample per this many commands (9 per pass)
NOOP_SAMPLES = 10
RUN_LIMIT_S = 170.0  # every run ends within 180 s, whatever the program does

sys.path.insert(0, str(HERE))
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


STARTED = pace.now()


def remaining() -> float:
    """Seconds left before this run must stop starting work."""
    return RUN_LIMIT_S - (pace.now() - STARTED)


def finite_median(values) -> float:
    """Median of the samples; infinite when there are none or one failed."""
    values = list(values)
    if not values or not all(map(math.isfinite, values)):
        return math.inf
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; infinite entries are failed operations."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- processes ----------------------------------------------------------------


def _child(args, timeout: float):
    """Run child.py with `args`; its parsed last stdout line, or None."""
    timeout = min(timeout, remaining())
    if timeout <= 0:
        return None
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=_env(),
                              capture_output=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr.decode(errors="replace")[-2000:])
        return None
    return json.loads(lines[-1])


def pace_summary(samples) -> dict:
    """What the record keeps of a process's speed samples."""
    durations = sorted(d for _, d in samples)
    return {"samples": len(durations),
            "kernel_p05_s": durations[len(durations) // 20],
            "kernel_p50_s": durations[len(durations) // 2]}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Spawn-to-ready time of a fresh interpreter that imports the program
    and makes the workload's inputs, then exits: (at the reference speed,
    by the wall clock), infinite if it failed."""
    spawned = pace.now()
    ready = _child(["probe", workload, str(seed)], 60.0)
    if ready is None:
        return math.inf, math.inf
    return pace.scaled(ready["samples"], spawned, ready["t_ready"]), ready["t_ready"] - spawned


def spawn_and_wait(argv, deadline: float, stdout_path: Path, stderr_path: Path):
    """Run argv to completion or deadline; (spawn time, exit time, exit code
    or None when killed at the deadline, resource usage of that one child)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = pace.now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            finished = select.select([fd], [], [], deadline)[0]
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        ended = pace.now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return started, ended, (proc.returncode if finished else None), usage


# --- battery workloads ----------------------------------------------------------


def battery_pass(workload: str, seed: int, trace_out: str = "-") -> dict:
    """One pass in a fresh interpreter, checked against the pinned counts."""
    calls = workloads.battery_calls(workload, seed)
    spawned = pace.now()
    result = _child(["pass", workload, str(seed), trace_out], RUN_LIMIT_S)
    exited = pace.now()
    if result is None:
        return {"ok": [False] * len(calls), "results": None}
    samples = result.pop("samples")
    start, end = result["t_start"], result["t_end"]
    result.update(
        wall_s=pace.scaled(samples, start, end),
        latency_s=pace.scaled(samples, spawned, exited),
        setup_s=pace.scaled(samples, spawned, result["t_ready"]),
        clock_wall_s=end - start - pace.kernel_seconds(samples, start, end),
        clock_latency_s=exited - spawned,
        pace=pace_summary(samples),
    )
    result["ok"] = [
        r["name"] == name and r["passed"] and r["checked"] == checked
        for r, (name, _, checked) in zip(result["results"], calls)
    ]
    result["ok"] += [False] * (len(calls) - len(result["ok"]))  # calls that never ran
    return result


def timeboxed(step, seconds: float) -> list:
    """Repeat step() while another one fits in `seconds`; at least once."""
    outcomes, started, longest = [], time.perf_counter(), 0.0
    while True:
        began = time.perf_counter()
        outcomes.append(step())
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - started + longest > seconds:
            return outcomes


def battery_end_to_end(workload: str, seed: int, seconds: float):
    """Passes while they fit in `seconds`.  One battery call is one
    operation; the latency of a pass, one fresh process from spawn to exit,
    stands in for a command's (cmd_p50_ms, cmd_p90_ms)."""
    probes = []

    def step():
        probes.append(setup_probe(workload, seed))
        return battery_pass(workload, seed)

    passes = timeboxed(step, seconds)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))
    setups = [scaled for scaled, _ in probes]
    good = [p for p in passes if all(p["ok"])]
    ops = [ok for p in passes for ok in p["ok"]]
    latencies = [p["latency_s"] if all(p["ok"]) else math.inf for p in passes]
    metrics = {}
    if good:
        # the median, not the fastest pass: on a host shared with other work,
        # brief fast spells make the fastest pass jump from run to run
        metrics.update(
            wall_s=statistics.median(p["wall_s"] for p in good),
            checks_per_s=statistics.median(
                sum(r["checked"] for r in p["results"]) / p["wall_s"] for p in good),
            peak_rss_mb=max(p["maxrss_kb"] for p in good) / 1024,
        )
    metrics.update(
        cmd_p50_ms=percentile(latencies, 0.5) * 1000,
        cmd_p90_ms=percentile(latencies, 0.9) * 1000,
        setup_s=finite_median(setups + [p["setup_s"] for p in good]),
        pass_share=sum(ops) / len(ops),
    )
    record = {"passes": passes, "setup_probes": probes}
    return ops, metrics, record


def _layer_metrics(totals: dict, distinct: dict) -> dict:
    """Per-layer metrics from span totals: name -> [calls, s, self s, longest s]."""
    def get(span, field):
        t = totals.get(span, [0, 0.0, 0.0, 0.0])
        return t[{"calls": 0, "s": 1, "self_s": 2, "max_call_s": 3}[field]]

    m = {}
    for span, fields in LAYER_FIELDS:
        for field in fields:
            m[f"{span}.{field}"] = get(span, field)
    m["designs.exact.distinct_vkt"] = distinct.get("designs.exact", 0)
    return m


LAYER_FIELDS = (
    ("designs.exact", ("calls", "s", "max_call_s")),
    ("designs.design_for", ("calls", "self_s")),
    ("designs.greedy", ("calls", "s")),
    ("core.run_asg", ("calls", "self_s")),
    ("core.run_online", ("calls", "self_s")),
    ("algorithms.oracle", ("calls", "self_s")),
    ("algorithms.budget", ("calls", "self_s")),
    ("adversary.min_game", ("calls", "s")),
    ("adversary.exact_count", ("calls", "self_s")),
    ("adversary.milp", ("calls", "s")),
    ("adversary.count_bounds", ("self_s",)),
    ("bounds.quotient", ("calls", "s")),
    ("bounds.growth_sweep", ("s",)),
    ("problems.opt", ("calls", "self_s")),
    ("problems.score", ("calls", "self_s")),
    ("problems.membership", ("self_s",)),
    ("reductions.lift_oracle", ("calls", "self_s")),
)
BATTERY_NAMES = ("envelope", "trivial", "covering", "counting", "adversary", "growth",
                 "reductions", "packing", "curve")


def battery_per_layer(workload: str, seed: int):
    plain = battery_pass(workload, seed)
    spans_path = OUT / f"{workload}.spans.jsonl"
    traced = battery_pass(workload, seed, str(spans_path))
    ops = plain["ok"] + traced["ok"]
    same = plain["results"] is not None and traced["results"] is not None and [
        {k: v for k, v in r.items() if k != "seconds"} for r in plain["results"]
    ] == [{k: v for k, v in r.items() if k != "seconds"} for r in traced["results"]]
    metrics = {}
    if traced["results"] is not None:
        # per-layer times are the spans' wall-clock times, not scaled
        summary, _ = tracing.read_dump(spans_path)
        metrics.update(_layer_metrics(summary["totals"],
                                      {k: len(v) for k, v in summary["distinct"].items()}))
        by_name = {r["name"]: r for r in traced["results"]}
        for name in BATTERY_NAMES:
            totals = summary["totals"].get(f"suite.{name}", [0, 0.0, 0.0, 0.0])
            metrics[f"suite.{name}.s"] = totals[1]
            metrics[f"suite.{name}.checked"] = by_name[name]["checked"] if name in by_name else 0
    metrics["cli.noop_ms"] = 0.0
    for kind in workloads.CLI_KINDS:
        metrics[f"cli.{kind}.p50_ms"] = 0.0
    record = {"untraced": plain, "traced": traced}
    if plain["results"] is not None and traced["results"] is not None:
        metrics["proc.cpu_s"] = plain["cpu_s"]
        # spans are installed and written outside the timed phase
        cost = tracing.call_cost()
        metrics["trace.overhead_s"] = summary["calls"] * cost
        record.update(call_cost_s=cost,
                      wall_difference_s=traced["clock_wall_s"] - plain["clock_wall_s"])
    return ops, same, metrics, record


# --- cli workload -----------------------------------------------------------------


def run_command(command, trace_out: Path | None = None) -> dict:
    """Spawn one command, wait for it or its deadline, check its output.
    Untraced, `seconds` is its spawn-to-exit time at the reference speed
    (by the wall clock if it was killed); traced, by the wall clock."""
    samples_path = OUT / "cmd.pace.json"
    samples_path.unlink(missing_ok=True)
    if trace_out is None:
        argv = [sys.executable, str(HERE / "child.py"), "cmd", str(samples_path),
                command.kind, *command.args]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(trace_out),
                command.kind, *command.args]
    out_path, err_path = OUT / "cmd.stdout", OUT / "cmd.stderr"
    deadline = min(command.deadline, remaining())
    if deadline <= 0:
        return {"kind": command.kind, "args": list(command.args), "frontier": command.frontier,
                "seconds": math.inf, "ok": False, "problem": "not run: the run's time ran out",
                "killed": True, "maxrss_kb": 0, "cpu_s": 0.0, "stdout_sha256": None}
    started, ended, code, usage = spawn_and_wait(argv, deadline, out_path, err_path)
    elapsed = ended - started
    seconds = elapsed
    if code is not None and samples_path.exists():
        seconds = pace.scaled(json.loads(samples_path.read_text()), started, ended)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    if code is None:
        problem = "deadline passed"
    elif code != 0 or b"Traceback" in stderr:
        problem = f"exit {code}: {stderr.decode(errors='replace').strip().splitlines()[-1:]}"
    else:
        problem = workloads.check_output(command, stdout)
    return {
        "kind": command.kind, "args": list(command.args), "frontier": command.frontier,
        "seconds": seconds, "clock_seconds": elapsed, "ok": problem is None, "problem": problem,
        "killed": code is None, "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }


def cli_pass(commands, trace_dir: Path | None = None, between=None) -> dict:
    """The command list once; `between()` runs before every PROBE_EVERY-th
    command, outside the timed phase."""
    outcomes = []
    for index, command in enumerate(commands):
        if between is not None and index % PROBE_EVERY == 0:
            between()
        trace_out = None if trace_dir is None else trace_dir / f"cmd{index}.jsonl"
        outcomes.append(run_command(command, trace_out))
    return {"wall_s": sum(o["seconds"] for o in outcomes),
            "clock_wall_s": sum(o["clock_seconds"] for o in outcomes),
            "commands": outcomes}


def _wrong(outcome) -> bool:
    """A failure that is not allowed: any miss outside the frontier slice,
    or a frontier command that answered with a wrong output."""
    return not outcome["ok"] and (not outcome["frontier"] or not (
        outcome["killed"] or outcome["problem"].startswith("exit")))


def cli_end_to_end(seed: int, seconds: float):
    commands = workloads.cli_commands(seed)
    probes = []
    passes = timeboxed(
        lambda: cli_pass(commands, between=lambda: probes.append(setup_probe("cli", seed))),
        seconds)
    setups = [scaled for scaled, _ in probes]
    outcomes = [o for p in passes for o in p["commands"]]
    ops = [o["ok"] for o in outcomes]
    latencies = [o["seconds"] if o["ok"] else math.inf for o in outcomes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "checks_per_s": statistics.median(
            sum(o["ok"] for o in p["commands"]) / p["wall_s"] for p in passes),
        "cmd_p50_ms": percentile(latencies, 0.5) * 1000,
        "cmd_p90_ms": percentile(latencies, 0.9) * 1000,
        "setup_s": finite_median(setups),
        "peak_rss_mb": max((o["maxrss_kb"] for o in outcomes if not o["killed"]), default=0) / 1024,
        "pass_share": sum(ops) / len(ops),
    }
    return ops, not any(map(_wrong, outcomes)), metrics, {"passes": passes, "setup_probes": probes}


def cli_per_layer(seed: int):
    commands = workloads.cli_commands(seed)
    plain = cli_pass(commands)
    trace_dir = OUT / "cli-trace"
    trace_dir.mkdir(exist_ok=True)
    traced = cli_pass(commands, trace_dir)
    noop = workloads.Command("--help", ())
    noop_ms = [run_command(noop)["seconds"] * 1000 for _ in range(NOOP_SAMPLES)]

    totals, distinct, calls, install_dump_s = {}, {}, 0, 0.0
    with open(OUT / "cli.spans.jsonl", "w") as merged:
        for index in range(len(commands)):
            path = trace_dir / f"cmd{index}.jsonl"
            if traced["commands"][index]["killed"]:
                path.unlink(missing_ok=True)  # no spans, or spans cut off mid-write
                continue
            if not path.exists():
                continue
            summary, spans = tracing.read_dump(path)
            calls += summary["calls"]
            install_dump_s += summary["install_s"] + summary["dump_s"]
            for name, t in summary["totals"].items():
                acc = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
                acc[0] += t[0]
                acc[1] += t[1]
                acc[2] += t[2]
                acc[3] = max(acc[3], t[3])
            for name, keys in summary["distinct"].items():
                distinct[name] = distinct.get(name, 0) + len(keys)
            merged.write(json.dumps({"command": index, "summary": summary}) + "\n")
            merged.writelines(spans)
            path.unlink()

    outcomes = plain["commands"] + traced["commands"]
    same = all(
        a["stdout_sha256"] == b["stdout_sha256"] or a["killed"] or b["killed"]
        for a, b in zip(plain["commands"], traced["commands"])
    )
    metrics = _layer_metrics(totals, distinct)
    for name in BATTERY_NAMES:
        metrics[f"suite.{name}.s"] = 0.0
        metrics[f"suite.{name}.checked"] = 0
    metrics["cli.noop_ms"] = finite_median(noop_ms)
    for kind in workloads.CLI_KINDS:
        metrics[f"cli.{kind}.p50_ms"] = finite_median(
            o["seconds"] * 1000 for o in plain["commands"] if o["kind"] == kind and o["ok"])
    metrics["proc.cpu_s"] = sum(o["cpu_s"] for o in plain["commands"])
    cost = tracing.call_cost()
    metrics["trace.overhead_s"] = calls * cost + install_dump_s
    right = not any(map(_wrong, outcomes))
    return [o["ok"] for o in outcomes], right and same, metrics, {
        "untraced": plain, "traced": traced, "noop_ms": noop_ms, "call_cost_s": cost,
        "wall_difference_s": traced["clock_wall_s"] - plain["clock_wall_s"]}


# --- self-checks and ledger ----------------------------------------------------------


def self_check(seed: int) -> list[str]:
    """Checks of the benchmark itself; the list of those that failed."""
    import asg.algorithms
    import asg.core
    import asg.designs

    failures = []
    first, again = workloads.cli_commands(seed), workloads.cli_commands(seed)
    other = workloads.cli_commands(seed + 1)
    if first != again:
        failures.append("the same seed gave two command lists")
    if [c.shape() for c in first] != [c.shape() for c in other] or first == other:
        failures.append("another seed changed more than the bit strings, or none")
    if len([c for c in first if not c.frontier]) < 100:
        failures.append("fewer than 100 commands per pass")

    tracer = tracing.Tracer()
    exact = asg.designs.exact_cover_number
    wrapped = tracer.wrap("check.exact", exact, lambda args: tuple(args[:3]))
    if wrapped(6, 3, 2) != exact(6, 3, 2):
        failures.append("a wrapped function returned another value")
    errors = []
    for fn in (exact, wrapped):
        try:
            fn(2, 3, 1)
        except Exception as exc:  # the check compares whatever was raised
            errors.append((type(exc), str(exc)))
    if len(errors) != 2 or errors[0] != errors[1] or tracer.stack:
        failures.append("a wrapped function raised another exception")
    pair = asg.algorithms.trivial_min("2")
    traced_pair = tracing._traced_factory(tracer, asg.algorithms.trivial_min, "algorithms")("2")
    for x in ("", "0110", "111000111"):
        if asg.core.run_asg(asg.core.Variant.MIN_UNKNOWN, pair, x) != asg.core.run_asg(
                asg.core.Variant.MIN_UNKNOWN, traced_pair, x):
            failures.append("a traced advice pair ran differently")
            break
    if tracer.totals["check.exact"][0] != 2 or len(tracer.keys["check.exact"]) != 2:
        failures.append("the tracer miscounted calls")

    # at the reference speed throughout, scaling only drops the kernel time;
    # at half of it, the time outside the kernel is halved
    step, k = 0.01, pace.REFERENCE_S
    steady = [[i * step, k] for i in range(11)]
    halved = [[i * step, 2 * k] for i in range(11)]
    if not (math.isclose(pace.scaled(steady, -0.05, 0.15), 0.2 - 11 * k)
            and math.isclose(pace.scaled(halved, 0.0, 0.1), (0.1 - 10 * 2 * k) / 2)):
        failures.append("scaling to the reference speed is wrong")
    return failures


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def ledger(workload: str, seed: int, seconds: float, trace: int) -> dict:
    versions = {}
    for package in ("scipy", "mpmath", "numpy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    caps = (None if workload == "cli" else
            [{"battery": name, "caps": caps, "checked": checked}
             for name, caps, checked in workloads.battery_calls(workload, seed)])
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        **versions,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pace": {"interval_s": pace.INTERVAL_S, "reference_s": pace.REFERENCE_S},
        "battery_caps": caps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "asg" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'asg'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    try:
        failures = self_check(args.seed)
    except Exception as exc:  # a broken benchmark must still report, not crash
        failures = [f"self-check raised {exc!r}"]
    if args.workload == "cli":
        run = cli_per_layer if args.trace else lambda s: cli_end_to_end(s, args.seconds)
        ops, right, metrics, record = run(args.seed)
    elif args.trace:
        ops, right, metrics, record = battery_per_layer(args.workload, args.seed)
    else:
        ops, metrics, record = battery_end_to_end(args.workload, args.seed, args.seconds)
        right = all(ops)
    if not right:
        failures.append("an operation failed or answered wrongly")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(ops) - sum(ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics and math.isfinite(metrics[m["name"]])},
    }
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or not math.isfinite(metrics[m["name"]])]
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
        result["correct"] = False
    full = {"ledger": ledger(args.workload, args.seed, args.seconds, args.trace),
            "self_check_failures": failures, "result": result, "record": record}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1, default=str) + "\n")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(full["ledger"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
