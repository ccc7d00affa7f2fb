"""Run every workload once and print its metrics as a table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through run.py in its own process, one after another.
The rows are `workload metric value unit`; a workload whose run was not
correct is marked so.  Exits 1 when any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        if done.returncode != 0:
            print(f"{workload}: run failed (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        status = "correct" if result["correct"] else "NOT CORRECT"
        print(f"{workload}: {status}, {result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            print(f"  {workload:13s} {name:32s} {metric['value']:14.4f} {metric['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
