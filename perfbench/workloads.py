"""Workload inputs and output checks for the asg benchmark.

Everything a workload feeds the program is made here from the workload
seed; the program sees only the generated inputs.

Battery workloads run fixed battery calls.  Their caps are chosen so one
pass fits a short run while keeping each workload's hot spot:

* upper-bounds: covering at its full range (n <= 8, where the exact
  (8,5,4) design search dominates) plus trivial at its full range;
* lower-bounds: adversary with every alive set at n = 6 (subsets capped
  at 5 strings), counting with HiGHS-solved exact counts at n = 7 and the
  quotient sweep to n = 400, growth, envelope and curve at full range;
* reductions: all six reductions to n = 6 at c = 3/2, packing with
  knapsack to 6 items (exhaustive to 3) and matching on all 6-vertex
  graphs, shuffled by the seed.

`checked` is pinned per battery call: a pass whose count differs has not
done the same work, whatever it reports.

The cli workload is a fixed list of command shapes.  Only the bit strings
come from the seed, and each is drawn with a fixed length and weight, so a
run costs the same on every seed.  The frontier slice holds commands that
hang or crash at the time the benchmark was written; they keep a short
deadline and count as failed until the program answers them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# (battery, keyword caps, pinned `checked`); "seed" stands for the workload seed
BATTERIES = {
    "upper-bounds": (
        ("covering", {"n_max": 8}, 3066),
        ("trivial", {"n_max": 10}, 12282),
    ),
    "lower-bounds": (
        ("adversary", {"n_max": 6, "script_n_max": 5, "table_n_max": 3, "m_cap": 5}, 79857),
        ("counting", {"n_max": 7, "quotient_n_max": 400}, 1606),
        ("growth", {"n": 16, "sweep_n_max": 10**4}, 90001),
        ("envelope", {}, 8),
        ("curve", {"steps": 60}, 61),
    ),
    "reductions": (
        ("reductions", {"n_max": 6, "ratios": ("3/2",)}, 2120),
        ("packing", {"n_exhaustive": 3, "n_max": 6, "match_vertices": 6, "seed": "seed"}, 48968),
    ),
}


WORKLOADS = (*BATTERIES, "cli")


def battery_calls(workload: str, seed: int) -> list[tuple[str, dict, int]]:
    """The battery calls of one pass, with the workload seed filled in."""
    return [
        (name, {k: seed if v == "seed" else v for k, v in caps.items()}, checked)
        for name, caps, checked in BATTERIES[workload]
    ]


# --- cli workload -------------------------------------------------------------

CLI_KINDS = ("bounds", "simulate", "verify", "adversary", "lift", "design", "brute")
DEADLINE_S = 30.0
# Three frontier commands hang, so each costs its whole deadline in every
# pass; a longer one would push a cli run past its time limit.  A frontier
# command therefore passes only once it answers within 2 s, start-up included.
FRONTIER_DEADLINE_S = 2.0


@dataclass(frozen=True)
class Command:
    kind: str
    template: tuple[str, ...]  # arguments, with "{x}" where the bit string goes
    x: str | None = None
    frontier: bool = False

    @property
    def args(self) -> tuple[str, ...]:
        return tuple(self.x if a == "{x}" else a for a in self.template)

    @property
    def deadline(self) -> float:
        return FRONTIER_DEADLINE_S if self.frontier else DEADLINE_S

    def shape(self) -> tuple:
        """The command with its bit string reduced to (length, weight)."""
        x = None if self.x is None else (len(self.x), self.x.count("1"))
        return self.kind, self.template, x, self.frontier


def _shapes():
    """(kind, argument template, bit-string shape) for every command.  A
    template holds "{x}" where a seeded string of shape (length, weight)
    goes."""
    shapes = []
    for n in (1000, 10**4, 10**5, 10**6):
        for c in ("3/2", "2"):
            shapes.append(("bounds", ("--n", str(n), "--c", c), None))
    for protocol in ("trivial-min", "trivial-max"):
        for c in ("3/2", "2", "3"):
            for n, history in ((8, "unknown"), (12, "known")):
                shapes.append(("simulate", ("--protocol", protocol, "--c", c, "--x", "{x}",
                                            "--history", history), (n, n // 2)))
    # covering protocols at n <= 8, except the ratios whose budget needs the
    # (8,5,4) design (covering-max at 3/2, covering-min at 5/4): that search
    # takes 10-15 s and belongs to the upper-bounds workload
    for protocol, ratios in (("covering-min", ("3/2", "2", "3")), ("covering-max", ("3/2", "2", "3"))):
        for c in ratios:
            for n in (6, 7, 8):
                if protocol == "covering-max" and c == "3/2" and n == 8:
                    continue
                shapes.append(("simulate", ("--protocol", protocol, "--c", c, "--x", "{x}"),
                               (n, (n + 1) // 3)))
    for protocol, c, n_max in (
        ("trivial-min", "2", 12), ("trivial-min", "3/2", 10), ("trivial-max", "3", 11),
        ("trivial-max", "3/2", 8), ("covering-min", "2", 8), ("covering-min", "3/2", 7),
        ("covering-min", "3", 8), ("covering-max", "2", 8), ("covering-max", "3", 7),
        ("covering-max", "3/2", 7), ("trivial-min", "3", 12), ("trivial-max", "2", 12),
    ):
        shapes.append(("verify", ("--protocol", protocol, "--c", c, "--n-max", str(n_max)), None))
    for n, weight, m in ((5, 2, 10), (6, 2, 15), (6, 3, 10), (7, 3, 35), (8, 3, 20), (8, 4, 40)):
        shapes.append(("adversary", ("--game", "min", "--n", str(n), "--weight", str(weight),
                                     "--m", str(m)), None))
    for n, m in ((10, 2), (12, 4), (16, 8), (20, 8)):
        shapes.append(("adversary", ("--game", "max", "--n", str(n), "--m", str(m)), None))
    for to, c, n in (
        ("vc", "3/2", 8), ("vc", "2", 7), ("cf", "3/2", 8), ("cf", "2", 7),
        ("ds", "3/2", 8), ("ds", "2", 7), ("sc", "3/2", 8), ("sc", "2", 7),
        ("is", "3/2", 7), ("is", "2", 8), ("dpa", "3/2", 6), ("dpa", "2", 8),
        ("vc", "3", 6), ("is", "3", 6), ("ds", "3", 6),
    ):
        shapes.append(("lift", ("--from", "{x}", "--to", to, "--c", c), (n, (n + 1) // 2)))
    for v, k, t, method in (
        (6, 4, 2, "auto"), (7, 4, 3, "exact"), (8, 4, 3, "greedy"), (8, 3, 2, "exact"),
        (9, 3, 2, "auto"), (8, 5, 3, "auto"), (10, 5, 3, "greedy"), (7, 3, 2, "auto"),
        (9, 4, 2, "greedy"), (7, 5, 3, "exact"), (10, 4, 2, "greedy"), (6, 3, 2, "exact"),
    ):
        shapes.append(("design", ("--v", str(v), "--k", str(k), "--t", str(t),
                                  "--method", method), None))
    for n, c, variant in (
        (4, "2", "min"), (5, "2", "min"), (6, "3/2", "min"), (6, "2", "min"),
        (7, "2", "min"), (7, "3/2", "min"), (5, "3/2", "max"), (6, "3", "max"),
        (5, "3", "min"), (6, "2", "max"), (7, "3", "min"), (6, "3/2", "max"),
        (5, "2", "max"), (5, "3/2", "min"),
    ):
        shapes.append(("brute", ("--n", str(n), "--c", c, "--variant", variant), None))
    return shapes


FRONTIER = (
    ("simulate", ("--protocol", "covering-min", "--c", "2", "--x", "{x}"), (10, 4)),
    ("design", ("--v", "9", "--k", "4", "--t", "3", "--method", "exact"), None),
    ("design", ("--v", "20", "--k", "10", "--t", "5", "--method", "exact"), None),
    ("design", ("--v", "30", "--k", "10", "--t", "5"), None),
)


def _bits(rng: random.Random, shape) -> str:
    n, weight = shape
    ones = set(rng.sample(range(n), weight))
    return "".join("1" if i in ones else "0" for i in range(n))


def cli_commands(seed: int) -> list[Command]:
    """The command list of one pass: the shapes, then the frontier slice."""
    rng = random.Random(seed)
    commands = []
    for frontier, shapes in ((False, _shapes()), (True, FRONTIER)):
        for kind, template, shape in shapes:
            commands.append(Command(kind, template, _bits(rng, shape) if shape else None, frontier))
    return commands


# --- output checks ------------------------------------------------------------


def _arg(args, flag):
    return args[args.index(flag) + 1]


def _dominates(x: str, y: str) -> bool:
    return len(x) == len(y) and all(a != "1" or b == "1" for a, b in zip(x, y))


def _is_cover(v, k, t, blocks) -> bool:
    if any(len(b) != k or len(set(b)) != k or not all(1 <= e <= v for e in b) for b in blocks):
        return False
    sets = [set(b) for b in blocks]
    return all(any(set(ts) <= s for s in sets) for ts in combinations(range(1, v + 1), t))


def check_output(command: Command, stdout: bytes) -> str | None:
    """None when the command's JSON output meets its invariant, else why not."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    args, kind = command.args, command.kind
    try:
        if kind == "simulate" or kind == "lift":
            x = _arg(args, "--x") if kind == "simulate" else _arg(args, "--from")
            if out["x"] != x or not _dominates(x, out["y"]):
                return "y does not dominate x"
            if not out["bits"] <= out["budget"]:
                return "read more bits than the budget"
        elif kind == "brute":
            if not out["lower_bits"] <= out["bits"] <= out["upper_bits"]:
                return "bits outside [lower_bits, upper_bits]"
            if out["count"] != len(out["family"]) or out["bits"] != math.ceil(math.log2(out["count"])):
                return "count and bits disagree with the family"
        elif kind == "verify":
            expected = 2 ** (int(_arg(args, "--n-max")) + 1) - 1
            if out["passed"] is not True or out["checked"] != expected:
                return "verification did not pass over every input"
        elif kind == "design":
            v, k, t = (int(_arg(args, f)) for f in ("--v", "--k", "--t"))
            if (out["v"], out["k"], out["t"]) != (v, k, t) or not _is_cover(v, k, t, out["blocks"]):
                return "not a covering design for the requested parameters"
        elif kind == "bounds":
            if out["n"] != int(_arg(args, "--n")) or Fraction(out["c"]) != Fraction(_arg(args, "--c")):
                return "report is for other parameters"
            lo, hi = out["lower_envelope"] * (1 - 1e-9), out["upper_envelope"] * (1 + 1e-9)
            if not lo <= out["bound_bits"] <= hi:
                return "bound outside its envelopes"
        elif kind == "adversary" and _arg(args, "--game") == "min":
            x, n, weight = out["x"], int(_arg(args, "--n")), int(_arg(args, "--weight"))
            if len(x) != n or x.count("1") != weight or not _dominates(x, out["y"]):
                return "game ended off the alive weight class or infeasibly"
        elif kind == "adversary":
            m, n = int(_arg(args, "--m")), int(_arg(args, "--n"))
            if len(out["x"]) != n or len(out["outputs"]) != m or len(out["scores"]) != m:
                return "outcome does not match the game's size"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None
