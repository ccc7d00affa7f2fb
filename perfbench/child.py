"""One fresh interpreter of the asg benchmark; `run.py` starts it.

    child.py probe WORKLOAD SEED           import asg, make the inputs, report when ready
    child.py pass WORKLOAD SEED TRACE_OUT  one pass of a battery workload
    child.py cmd SAMPLES_OUT ARG...        one `asg` command, as `python -m asg.cli ARG...`
    child.py cli TRACE_OUT ARG...          one traced `asg` command

Every mode but `cli` first starts a pace.Sampler, so that the parent can
scale this process's times to the reference speed.  TRACE_OUT is "-" for
an untraced pass, else the file the spans go to when the process ends.
`probe` and `pass` print one JSON line on stdout, speed samples included;
`cmd` and `cli` leave stdout to the command and exit with its status, and
`cmd` writes its speed samples to SAMPLES_OUT.
"""

from __future__ import annotations

import json
import resource
import runpy
import sys
import time

import pace


def _ready_payload() -> dict:
    return {"t_ready": pace.now()}


def probe(workload: str, seed: int, sampler: pace.Sampler) -> None:
    import workloads

    if workload == "cli":
        import asg.cli  # noqa: F401  (the imports every command pays)

        workloads.cli_commands(seed)
    else:
        import asg.suite  # noqa: F401

        workloads.battery_calls(workload, seed)
    payload = _ready_payload()
    payload["samples"] = sampler.stop()
    print(json.dumps(payload))


def battery_pass(workload: str, seed: int, trace_out: str, sampler: pace.Sampler) -> None:
    import asg.suite
    import workloads

    calls = workloads.battery_calls(workload, seed)
    payload = _ready_payload()
    tracer = None
    if trace_out != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    clock = pace.now
    start = clock()
    for name, caps, _ in calls:
        began = clock()
        result = getattr(asg.suite, f"battery_{name}")(**caps)
        results.append({**result.to_json(), "caps": caps, "seconds": clock() - began})
    payload.update(t_start=start, t_end=clock())
    payload["samples"] = sampler.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload.update(results=results, maxrss_kb=usage.ru_maxrss,
                   cpu_s=usage.ru_utime + usage.ru_stime)
    if tracer is not None:
        tracer.dump(trace_out)
    print(json.dumps(payload))


def command(samples_out: str, argv: list[str], sampler: pace.Sampler) -> None:
    """Run asg.cli as `python -m asg.cli` does, then leave the samples."""
    sys.argv = [sys.argv[0], *argv]
    try:
        runpy.run_module("asg.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        with open(samples_out, "w") as handle:
            json.dump(sampler.stop(), handle)


def traced_cli(trace_out: str, argv: list[str]) -> int:
    import asg.cli
    import tracing

    started = time.perf_counter()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    install_s = time.perf_counter() - started
    try:
        return asg.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out, install_s=install_s)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    sampler = pace.Sampler().start()
    if mode == "probe":
        probe(argv[1], int(argv[2]), sampler)
        return 0
    if mode == "pass":
        battery_pass(argv[1], int(argv[2]), argv[3], sampler)
        return 0
    if mode == "cmd":
        command(argv[1], argv[2:], sampler)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
