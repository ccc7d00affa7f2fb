"""Command-line harness: bounds, curves, designs, protocol runs, games,
exact strategy counts, problem reductions, and the verification suite.

Every command is deterministic: the same invocation produces the same
bytes.  Ratios are rationals (P/Q or an integer); float notation is
rejected so results never depend on binary rounding of the arguments.
Usage and domain errors, work over a limit (`core.WorkLimitError`, checked
before the work starts) and solver failures exit with status 2 and one
`error: ...` line; a failed verification run (verify or suite) exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from asg.core import (
    Variant,
    as_ratio,
    asg_opt,
    ceil_log2,
    check_bits,
    check_work,
    competitive_ok,
    json_text,
    run_all,
    run_asg,
)

__all__ = ["main"]

# Each command imports the engine it runs when it runs, and `main` builds
# only that command's parser, so a command pays only for its own modules
# and arguments at start-up.  The choice lists are therefore literal copies
# of the tables they name; tests/test_cli.py pins them.
PROTOCOLS = ("covering-max", "covering-min", "trivial-max", "trivial-min")
REDUCTIONS = ("cf", "dpa", "ds", "is", "sc", "vc")
BATTERY_ORDER = (
    "envelope", "trivial", "covering", "counting", "adversary", "growth", "reductions", "packing",
    "curve",
)
# runs one `verify` may make; it makes sum(2^n for n <= n_max) = 2^(n_max+1) - 1
VERIFY_RUNS = 2**16 - 1
GAME_ROUNDS = 100_000  # rounds of one `adversary` game, however few its strings or strategies
GAME_ANSWERS = 300_000  # strategies times rounds (at least 1) of one max game


def _protocol(name: str):
    """(objective, factory) of a protocol name: covering-min is
    asg.algorithms.covering_min, and so on."""
    from asg import algorithms

    return name.split("-")[1], getattr(algorithms, name.replace("-", "_"))


def rational(text: str) -> Fraction:
    """core.as_ratio's reading of text; its error is a usage error with the same text."""
    try:
        return as_ratio(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def bitstring(text: str) -> str:
    """core.check_bits' reading of text; its error is a usage error with the same text."""
    try:
        return check_bits(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _emit_json(result, out: str | None) -> None:
    _emit(json_text(result), out)


def _run_report(name: str, c: Fraction, variant: Variant, pair, x: str) -> dict:
    res = run_asg(variant, pair, x)
    return {
        "protocol": name,
        "c": c,
        "history": variant.history,
        "x": x,
        "y": res.y,
        "score": res.score,
        "opt": asg_opt(variant.objective, x),
        "bits": res.bits,
        "budget": pair.budget(len(x)),
    }


def cmd_bounds(args) -> int:
    from asg.bounds import bound_report

    _emit_json(bound_report(args.n, args.c), args.out)
    return 0


def cmd_curve(args) -> int:
    from asg.bounds import emit_curve, render_curve

    points = emit_curve(args.c_min, args.c_max, args.steps)
    _emit(render_curve(points, args.format), args.out)
    return 0


def cmd_design(args) -> int:
    from asg.designs import design_for, exact_cover_number, greedy_cover

    if args.method == "exact":
        design = exact_cover_number(args.v, args.k, args.t)
    elif args.method == "greedy":
        design = greedy_cover(args.v, args.k, args.t)
    else:
        design = design_for(args.v, args.k, args.t)
    _emit_json(design, args.out)
    return 0


def cmd_simulate(args) -> int:
    objective, factory = _protocol(args.protocol)
    variant = Variant((objective, args.history))
    pair = factory(args.c)
    _emit_json(_run_report(args.protocol, args.c, variant, pair, args.x), args.out)
    return 0


def cmd_verify(args) -> int:
    """Exhaustively re-check one protocol up to a length; exit 1 on failure."""
    if args.n_max < 0:
        raise ValueError("--n-max must be at least 0")
    # past n_max 63 the runs are shown as "2^64 or more" whatever n_max is
    check_work("verify runs", 2 ** (min(args.n_max, 64) + 1) - 1, VERIFY_RUNS)
    objective, factory = _protocol(args.protocol)
    variant = Variant((objective, "unknown"))
    pair = factory(args.c)
    target = args.c if args.protocol.startswith("covering") else Fraction(math.ceil(args.c))
    checked, witness = 0, None
    for n in range(args.n_max + 1):
        budget = pair.budget(n)
        for x, res in run_all(variant, pair, n):
            checked += 1
            if not competitive_ok(objective, res.score, asg_opt(objective, x), target) or res.bits > budget:
                witness = _run_report(args.protocol, args.c, variant, pair, x)
                break
        if witness:
            break
    _emit_json(
        {
            "protocol": args.protocol,
            "c": args.c,
            "target": target,
            "n_max": args.n_max,
            "checked": checked,
            "passed": witness is None,
            "witness": witness,
        },
        args.out,
    )
    return 0 if witness is None else 1


def cmd_adversary(args) -> int:
    from asg.adversary import (
        max_no_advice_game,
        min_game_against,
        standard_max_behaviors,
        weight_class,
    )

    if args.game == "min":
        if args.strings is not None:
            with open(args.strings) as handle:
                alive = json.load(handle)
        else:
            if args.n is None or args.weight is None:
                raise ValueError("--game min needs --strings or both --n and --weight")
            check_work("game rounds", args.n, GAME_ROUNDS)
            if args.m is not None and args.m < 0:
                raise ValueError("--m must be at least 0")
            alive = weight_class(args.n, args.weight, args.m)  # only the first m are built
        _emit_json(min_game_against(alive), args.out)
        return 0
    if args.n is None or args.m is None:
        raise ValueError("--game max needs --n and --m")
    check_work("game rounds", args.n, GAME_ROUNDS)
    check_work("max-game answers", args.m * max(args.n, 1), GAME_ANSWERS)
    _emit_json(max_no_advice_game(standard_max_behaviors(args.m), args.n), args.out)
    return 0


def cmd_brute(args) -> int:
    from asg.adversary import exact_strategy_count, strategy_count_bounds

    cover = exact_strategy_count(args.n, args.c, args.variant)
    lo, hi = strategy_count_bounds(args.n, args.c, args.variant)
    payload = {
        **cover.to_json(),
        "n": args.n,
        "c": args.c,
        "objective": args.variant,
        "lower_bits": ceil_log2(lo),
        "upper_bits": ceil_log2(hi),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_reduce(args) -> int:
    from asg.problems import CONSTRUCTIONS

    _emit_json(CONSTRUCTIONS[args.to](args.x), args.out)
    return 0


def cmd_lift(args) -> int:
    from asg.algorithms import aoc_generic
    from asg.problems import BRUTE_GUARD, PROBLEMS
    from asg.reductions import REDUCTION_VARIANT, lift_to_asg

    # the lifted oracle scores every output of a len(x)-request instance
    check_work("brute-force requests", len(args.x), BRUTE_GUARD)
    problem = PROBLEMS[args.to]
    pair = aoc_generic(problem, args.c)
    lifted = lift_to_asg(pair, args.to)
    variant = REDUCTION_VARIANT[args.to]
    report = _run_report(f"lift-{args.to}", args.c, variant, lifted, args.x)
    _emit_json(report, args.out)
    return 0


def cmd_suite(args) -> int:
    from asg.suite import ExperimentConfig, run_suite

    config = ExperimentConfig(
        seed=args.seed,
        n_max=args.n_max,
        grid_max=args.grid_max,
        ratios=tuple(args.c) if args.c else None,
        output_format=args.format,
    )
    report = run_suite(config, only=args.only or None)
    _emit(report.render(), args.out)
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error: ...` line and exit 2, as every other
    error is; the subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


# The commands in the order `asg --help` lists them: name -> (help, the
# arguments, each a flag and its add_argument keywords).  Every command also
# takes --out, and runs cmd_<name>.
COMMANDS = {
    "bounds": ("advice bound and envelopes for one (n, c)", (
        ("--n", {"type": int, "required": True}),
        ("--c", {"type": rational, "required": True}),
    )),
    "curve": ("sample the per-request advice curve", (
        ("--c-min", {"type": rational, "required": True}),
        ("--c-max", {"type": rational, "required": True}),
        ("--steps", {"type": int, "required": True}),
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    )),
    "design": ("covering design for (v, k, t)", (
        ("--v", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--t", {"type": int, "required": True}),
        ("--method", {"choices": ("auto", "exact", "greedy"), "default": "auto"}),
    )),
    "simulate": ("run one protocol on one input", (
        ("--protocol", {"choices": PROTOCOLS, "required": True}),
        ("--c", {"type": rational, "required": True}),
        ("--x", {"type": bitstring, "required": True}),
        ("--history", {"choices": ("known", "unknown"), "default": "unknown"}),
    )),
    "verify": ("exhaustively re-check one protocol", (
        ("--protocol", {"choices": PROTOCOLS, "required": True}),
        ("--c", {"type": rational, "required": True}),
        ("--n-max", {"type": int, "default": 8}),
    )),
    "adversary": ("play a lower-bound game", (
        ("--game", {"choices": ("min", "max"), "required": True}),
        ("--strings", {"metavar": "FILE", "help": "JSON list of alive strings (min game)"}),
        ("--n", {"type": int}),
        ("--weight", {"type": int, "help": "alive weight class (min game)"}),
        ("--m", {"type": int, "help": "alive set size (min) / strategies to defeat (max)"}),
    )),
    "brute": ("exact minimum strategy count for tiny n", (
        ("--n", {"type": int, "required": True}),
        ("--c", {"type": rational, "required": True}),
        ("--variant", {"choices": ("min", "max"), "default": "min"}),
    )),
    "reduce": ("build a problem instance from a guessing input", (
        ("--from", {"dest": "x", "type": bitstring, "required": True, "metavar": "BITS"}),
        ("--to", {"choices": REDUCTIONS, "required": True}),
    )),
    "lift": ("run a lifted problem protocol on a guessing input", (
        ("--from", {"dest": "x", "type": bitstring, "required": True, "metavar": "BITS"}),
        ("--to", {"choices": REDUCTIONS, "required": True}),
        ("--c", {"type": rational, "required": True}),
    )),
    "suite": ("run the verification batteries", (
        ("--only", {"nargs": "+", "choices": BATTERY_ORDER, "metavar": "BATTERY"}),
        ("--n-max", {"type": int}),
        ("--grid-max", {"type": int}),
        ("--c", {"nargs": "+", "type": rational, "metavar": "P/Q"}),
        ("--seed", {"type": int, "default": 0}),
        ("--format", {"choices": ("csv", "json"), "default": "json"}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `asg` parser.  When `command` names one of COMMANDS it holds that
    command's parser alone, which is all that parsing its arguments needs;
    otherwise all of them, for the help and the errors that list them."""
    parser = _Parser(
        prog="asg", description="advice complexity of string guessing: tools and checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        if command in COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 stays reserved for a failed verification
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
