"""Verification batteries, experiment configuration, and curve emission.

Each battery re-checks one headline guarantee of the package by exhaustive
enumeration or a grid sweep and reports pass/fail with a witness for the
first violation.  Everything here is deterministic: a configuration fully
determines every output byte (the seed only drives the shuffled arrival
orders in the packing battery and is recorded in the report).

The batteries, in order:

* envelope    - the advice bound sits between its linear envelopes
* trivial     - residue-class and block-copy protocols, exhaustive
* covering    - covering-design protocols cost exactly their target
* counting    - exact strategy counts vs design sandwich; quotient slacks
* adversary   - revealed-history game forces the binomial bound
* growth      - no-advice maximization defeat; binomial growth floor
* reductions  - class membership, generic protocol, lift round trips
* packing     - knapsack on weight grids; greedy matching on all graphs
* curve       - emitted curve values, monotonicity, envelope sandwich
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from asg.adversary import (
    _alive_masks,
    _members,
    _min_score,
    _play,
    _script_scores,
    exact_strategy_count,
    forced_cost_bound,
    max_no_advice_game,
    min_game_against,
    standard_max_behaviors,
    strategy_count_bounds,
    weight_class,
)
from asg.algorithms import (
    aoc_generic,
    covering_max,
    covering_min,
    greedy_matching,
    knapsack_two_competitive,
    trivial_max,
    trivial_min,
)
from asg.bounds import (
    advice_bound,
    check_min_quotient_approx,
    envelope,
    exp_growth_floor_sweep,
    sg_comparison_value,
)
from asg.core import (
    MINUS_INF,
    PLUS_INF,
    AdviceTape,
    Variant,
    all_bitstrings,
    as_ratio,
    asg_opt,
    ceil_log2,
    competitive_ok,
    encoded_length,
    fill_count,
    ones,
    run_asg,
    run_online,
    scaled_weights,
    zeros,
)
from asg.designs import exact_cover_number
from asg.problems import CONSTRUCTIONS, PROBLEMS, aoc_membership_check
from asg.reductions import REDUCTION_VARIANT, REDUCTIONS, lift_to_asg

__all__ = [
    "CurvePoint",
    "CURVE_COLUMNS",
    "emit_curve",
    "render_curve",
    "ExperimentConfig",
    "BatteryResult",
    "SuiteReport",
    "BATTERY_ORDER",
    "run_suite",
    "standard_max_behaviors",
    "battery_envelope",
    "battery_trivial",
    "battery_covering",
    "battery_counting",
    "battery_adversary",
    "battery_growth",
    "battery_reductions",
    "battery_packing",
    "battery_curve",
]


# --- bound curve ------------------------------------------------------------

CURVE_COLUMNS = ("c", "asg_bits_per_request", "envelope_hi", "envelope_lo", "sg_bits_per_request")


@dataclass(frozen=True)
class CurvePoint:
    """One sampled ratio: per-request advice with its envelopes and, for
    1 < c <= 2, the per-request advice of plain string guessing."""

    c: Fraction
    asg_bits_per_request: float
    envelope_hi: float
    envelope_lo: float
    sg_bits_per_request: float | None

    def to_json(self) -> dict:
        return {
            "c": str(self.c),
            "asg_bits_per_request": self.asg_bits_per_request,
            "envelope_hi": self.envelope_hi,
            "envelope_lo": self.envelope_lo,
            "sg_bits_per_request": self.sg_bits_per_request,
        }


def curve_point(c, n: int = 10**6) -> CurvePoint:
    c = as_ratio(c)
    bound = advice_bound(n, c)
    lo, hi = envelope(n, c)
    sg = float(sg_comparison_value(c)) if 1 < c <= 2 else None
    return CurvePoint(c, float(bound / n), float(hi / n), float(lo / n), sg)


def emit_curve(c_min, c_max, steps: int, n: int = 10**6) -> list[CurvePoint]:
    """Sample the advice curve on an evenly spaced rational grid."""
    c_min, c_max = as_ratio(c_min), as_ratio(c_max)
    if c_min <= 1:
        raise ValueError("the curve needs c > 1")
    if c_max < c_min:
        raise ValueError("needs c_max >= c_min")
    if steps < 1 or (steps < 2 and c_max != c_min):
        raise ValueError("needs at least two steps to span a ratio range")
    if c_max == c_min:
        grid = [c_min] * min(steps, 1)
    else:
        step = (c_max - c_min) / (steps - 1)
        grid = [c_min + i * step for i in range(steps)]
    return [curve_point(c, n) for c in grid]


def render_curve(points, fmt: str = "csv") -> str:
    """Serialize curve points; the column order is CURVE_COLUMNS in both
    formats, with the comparison column empty/null for c > 2."""
    if fmt == "json":
        return json.dumps([p.to_json() for p in points], indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for p in points:
        writer.writerow(
            [
                str(p.c),
                format(p.asg_bits_per_request, ".12g"),
                format(p.envelope_hi, ".12g"),
                format(p.envelope_lo, ".12g"),
                "" if p.sg_bits_per_request is None else format(p.sg_bits_per_request, ".12g"),
            ]
        )
    return out.getvalue()


# --- configuration and results ----------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a suite run.  None leaves a battery at its full default
    range; caps only ever shrink the sweeps."""

    seed: int = 0
    n_max: int | None = None  # cap on exhaustive input lengths
    grid_max: int | None = None  # cap on numeric grid sweeps
    ratios: tuple | None = None  # override the per-battery ratio grids
    design_limit: int | None = None
    brute_limit: int | None = None
    output_format: str = "json"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("n_max", "grid_max", "design_limit", "brute_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if self.ratios is not None:
            object.__setattr__(self, "ratios", tuple(as_ratio(r) for r in self.ratios))
            if any(r <= 0 for r in self.ratios):
                raise ValueError("ratios must be positive")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "n_max": self.n_max,
            "grid_max": self.grid_max,
            "ratios": None if self.ratios is None else [str(r) for r in self.ratios],
            "design_limit": self.design_limit,
            "brute_limit": self.brute_limit,
            "output_format": self.output_format,
        }


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    checked: int
    detail: str
    witness: str | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = "" if self.witness is None else f" [{self.witness}]"
        return f"{status} {self.name}: {self.detail}{tail}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "detail": self.detail,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class SuiteReport:
    config: ExperimentConfig
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "config": self.config.to_json(),
            "batteries": [r.to_json() for r in self.results],
        }

    def render(self, fmt: str | None = None) -> str:
        fmt = self.config.output_format if fmt is None else fmt
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2) + "\n"
        if fmt != "csv":
            raise ValueError(f"unknown format {fmt!r}")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["battery", "passed", "checked", "detail", "witness"])
        for r in self.results:
            writer.writerow([r.name, str(r.passed).lower(), r.checked, r.detail, r.witness or ""])
        return out.getvalue()


def _cap(value: int, cap: int | None) -> int:
    return value if cap is None else min(value, cap)


# --- battery 1: envelope sandwich -------------------------------------------

ENVELOPE_RATIOS = (
    Fraction(101, 100),
    Fraction(11, 10),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(10),
    Fraction(100),
)


def battery_envelope(n: int = 10**6, ratios=None, rel_tol: float = 1e-9) -> BatteryResult:
    """n/(e ln2 c) <= B(n,c) <= n/c on the ratio grid."""
    ratios = ENVELOPE_RATIOS if ratios is None else tuple(as_ratio(r) for r in ratios)
    checked = 0
    for c in ratios:
        bound = advice_bound(n, c)
        lo, hi = envelope(n, c)
        checked += 1
        if not (lo * (1 - rel_tol) <= bound <= hi * (1 + rel_tol)):
            return BatteryResult(
                "envelope", False, checked, f"sandwich violated at n={n}",
                f"c={c}: {float(lo)} <= {float(bound)} <= {float(hi)}",
            )
    return BatteryResult(
        "envelope", True, checked, f"{checked} ratios sandwiched at n={n}, rel tol {rel_tol:g}"
    )


# --- battery 2: trivial protocols -------------------------------------------

TRIVIAL_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3))


def battery_trivial(n_max: int = 10, ratios=None) -> BatteryResult:
    """Residue-class and block-copy protocols: feasible, strictly
    ceil(c)-competitive, and within the stated advice budgets, exhaustively."""
    ratios = TRIVIAL_RATIOS if ratios is None else tuple(as_ratio(r) for r in ratios)
    checked = 0
    for c in ratios:
        pair_min, pair_max = trivial_min(c), trivial_max(c)
        target = Fraction(math.ceil(c))
        for n in range(n_max + 1):
            p = math.ceil(n / c)
            min_budget = p + 2 * ceil_log2(p + 1) + 1
            max_budget = pair_max.budget(n)
            for x in all_bitstrings(n):
                res = run_asg(Variant.MIN_UNKNOWN, pair_min, x)
                checked += 1
                if (
                    res.score == PLUS_INF
                    or not competitive_ok("min", res.score, ones(x), target, 0)
                    or res.bits > min_budget
                ):
                    return BatteryResult(
                        "trivial", False, checked, "residue-class protocol failed",
                        f"c={c} x={x!r}: y={res.y!r} bits={res.bits}/{min_budget}",
                    )
                res = run_asg(Variant.MAX_UNKNOWN, pair_max, x)
                checked += 1
                if (
                    res.score == MINUS_INF
                    or not competitive_ok("max", res.score, zeros(x), target, 0)
                    or res.bits > max_budget
                ):
                    return BatteryResult(
                        "trivial", False, checked, "block-copy protocol failed",
                        f"c={c} x={x!r}: y={res.y!r} bits={res.bits}/{max_budget}",
                    )
    return BatteryResult(
        "trivial", True, checked,
        f"{checked} runs over n <= {n_max}, ratios {', '.join(map(str, ratios))}",
    )


# --- battery 3: covering-design protocols -----------------------------------

COVERING_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3))


def battery_covering(n_max: int = 8, ratios=None, design_limit: int | None = None) -> BatteryResult:
    """Covering protocols: exact interior cost/zeros, strict
    c-competitiveness, index width within the exact design's ceil-log."""
    ratios = COVERING_RATIOS if ratios is None else tuple(as_ratio(r) for r in ratios)
    checked = 0
    for c in ratios:
        pair_min = covering_min(c, design_limit)
        pair_max = covering_max(c, design_limit)
        for n in range(n_max + 1):
            header = encoded_length(n) + ceil_log2(n + 1)
            for x in all_bitstrings(n):
                t, u = ones(x), zeros(x)
                res = run_asg(Variant.MIN_UNKNOWN, pair_min, x)
                checked += 1
                bad = res.score == PLUS_INF or not competitive_ok("min", res.score, t, c, 0)
                k = math.floor(c * t)
                if not bad and 0 < k < n:
                    width = ceil_log2(exact_cover_number(n, k, t).size)
                    bad = res.score != k or res.bits - header > width
                if bad:
                    return BatteryResult(
                        "covering", False, checked, "minimization protocol failed",
                        f"c={c} x={x!r}: y={res.y!r} bits={res.bits}",
                    )
                res = run_asg(Variant.MAX_UNKNOWN, pair_max, x)
                checked += 1
                bad = res.score == MINUS_INF or not competitive_ok("max", res.score, u, c, 0)
                if not bad and 0 < u < n:
                    goal = math.ceil(Fraction(u) / c)
                    width = ceil_log2(exact_cover_number(n, n - goal, n - u).size)
                    bad = res.score != goal or res.bits - header > width
                if bad:
                    return BatteryResult(
                        "covering", False, checked, "maximization protocol failed",
                        f"c={c} x={x!r}: y={res.y!r} bits={res.bits}",
                    )
    return BatteryResult(
        "covering", True, checked,
        f"{checked} runs over n <= {n_max}, ratios {', '.join(map(str, ratios))}",
    )


# --- battery 4: strategy counts and quotient slacks --------------------------

COUNTING_RATIOS = (Fraction(3, 2), Fraction(2))
QUOTIENT_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5))


def battery_counting(
    n_max: int = 8,
    ratios=None,
    quotient_n_max: int = 2000,
    quotient_ratios=None,
) -> BatteryResult:
    """Exact strategy-count bits inside the design sandwich, and the exact
    log-max quotient within its additive slacks of the closed-form bound."""
    ratios = COUNTING_RATIOS if ratios is None else tuple(as_ratio(r) for r in ratios)
    quotient_ratios = (
        QUOTIENT_RATIOS if quotient_ratios is None else tuple(as_ratio(r) for r in quotient_ratios)
    )
    checked = 0
    for c in ratios:
        for n in range(1, n_max + 1):
            cover = exact_strategy_count(n, c, "min", limit=n)
            lo, hi = strategy_count_bounds(n, c, "min")
            checked += 1
            if not (lo <= cover.count <= hi and ceil_log2(lo) <= cover.bits <= ceil_log2(hi)):
                return BatteryResult(
                    "counting", False, checked, "strategy count left the design sandwich",
                    f"n={n} c={c}: count={cover.count} bits={cover.bits} sandwich=[{lo},{hi}]",
                )
    for c in quotient_ratios:
        for n in range(3, quotient_n_max + 1):
            report = check_min_quotient_approx(n, c)
            checked += 1
            if not report.ok:
                return BatteryResult(
                    "counting", False, checked, "quotient left its additive slack window",
                    f"n={n} c={c}: quotient={report.log_max_quotient} bound={report.bound_bits}",
                )
    return BatteryResult(
        "counting", True, checked,
        f"exact counts to n={n_max}; quotient slacks to n={quotient_n_max}",
    )


# --- battery 5: revealed-history adversary -----------------------------------


def _prefix_tables(n: int):
    """Every deterministic revealed-history strategy on n rounds."""
    slots = [(i, p) for i in range(1, n + 1) for p in all_bitstrings(i - 1)]
    for values in product((0, 1), repeat=len(slots)):
        yield dict(zip(slots, values))


def battery_adversary(
    n_max: int = 6, script_n_max: int = 5, table_n_max: int = 3, m_cap: int = 20
) -> BatteryResult:
    """The adversary extracts at least the binomial bound from every
    deterministic algorithm on every equal-weight alive set, with equality
    at single-weight and single-string sets."""
    checked = 0
    # best-response play on every alive set
    for n in range(1, n_max + 1):
        for t, cls, cols, alive in _alive_masks(n, m_cap):
            checked += 1
            if not _min_score(*_play(cols, alive, t)) >= forced_cost_bound(alive.bit_count(), t):
                return BatteryResult(
                    "adversary", False, checked, "canonical play beat the bound",
                    f"n={n} alive={_members(cls, alive)}",
                )
    # every algorithm, as the answer script it produces against this adversary
    for n in range(1, script_n_max + 1):
        for t, cls, cols, alive in _alive_masks(n, m_cap):
            bound = forced_cost_bound(alive.bit_count(), t)
            for script, score in enumerate(_script_scores(cols, alive, t)):
                checked += 1
                if not score >= bound:
                    return BatteryResult(
                        "adversary", False, checked, "a scripted algorithm beat the bound",
                        f"n={n} alive={_members(cls, alive)} script={script:0{n}b}",
                    )
    # and literally every strategy table at tiny n
    for n in range(1, table_n_max + 1):
        sets_here = list(_alive_masks(n, m_cap))
        for table in _prefix_tables(n):
            player = lambda i, prefix: table[(i, prefix)]
            for t, cls, cols, alive in sets_here:
                checked += 1
                score = _min_score(*_play(cols, alive, t, player))
                if not score >= forced_cost_bound(alive.bit_count(), t):
                    return BatteryResult(
                        "adversary", False, checked, "a strategy table beat the bound",
                        f"n={n} alive={_members(cls, alive)} table={sorted(table.items())}",
                    )
    # equality witnesses: m singletons of weight one, and one string of weight h
    for m in range(1, n_max + 1):
        for alive in combinations(weight_class(n_max, 1), m):
            transcript = min_game_against(alive)
            checked += 1
            if transcript.score != m:
                return BatteryResult(
                    "adversary", False, checked, "weight-one equality failed",
                    f"alive={alive}: score={transcript.score} != {m}",
                )
    for x in all_bitstrings(n_max):
        transcript = min_game_against([x])
        checked += 1
        if transcript.score != ones(x):
            return BatteryResult(
                "adversary", False, checked, "single-string equality failed",
                f"x={x!r}: score={transcript.score}",
            )
    return BatteryResult(
        "adversary", True, checked,
        f"{checked} games; alive sets to n={n_max}, scripts to n={script_n_max}, "
        f"tables to n={table_n_max}",
    )


# --- battery 6: no-advice maximization and binomial growth -------------------


def battery_growth(
    n: int = 16, sweep_n_max: int = 10**4, int_ratios=range(2, 11)
) -> BatteryResult:
    """Defeat of 2^(floor(log n) - 1) no-advice strategies at once, and the
    e^t growth floor of the binomial quotient along the whole grid."""
    m = 1 << (n.bit_length() - 2)  # 2^(floor(log2 n) - 1)
    outcome = max_no_advice_game(standard_max_behaviors(m), n)
    opt = asg_opt("max", outcome.x)
    checked = 1
    if ones(outcome.x) > m or opt < n - m or any(s > 0 for s in outcome.scores):
        return BatteryResult(
            "growth", False, checked, "a strategy survived the defeat",
            f"x={outcome.x!r} scores={outcome.scores}",
        )
    for c in int_ratios:
        failures = exp_growth_floor_sweep(sweep_n_max, c)
        checked += sweep_n_max
        if failures:
            return BatteryResult(
                "growth", False, checked, "growth floor failed",
                f"c={c} first failing n={failures[0]}",
            )
    return BatteryResult(
        "growth", True, checked,
        f"{m} strategies defeated at n={n}; floor holds to n={sweep_n_max}",
    )


# --- battery 7: problem reductions -------------------------------------------

REDUCTION_RATIOS = (Fraction(5, 4), Fraction(3, 2), Fraction(2))


def _constructible(name: str, x: str) -> bool:
    """Inputs the hard-instance construction accepts; the lift handles the
    rest through its reserved case codes with an empty inner tape."""
    if name in ("ds", "sc"):
        return ones(x) >= 1
    if name == "cf":
        return ones(x) >= 3
    return True


def battery_reductions(n_max: int = 8, ratios=None) -> BatteryResult:
    """Class membership on the constructed instances, strict competitiveness
    of the generic covering protocol, and lifted round trips within the
    header allowance, for each of the six problem reductions."""
    ratios = REDUCTION_RATIOS if ratios is None else tuple(as_ratio(r) for r in ratios)
    checked = 0
    for name in REDUCTIONS:
        problem = PROBLEMS[name]
        build = CONSTRUCTIONS[name]
        variant = REDUCTION_VARIANT[name]
        instances = {}
        for n in range(1, n_max + 1):
            for x in all_bitstrings(n):
                if _constructible(name, x):
                    instances[x] = build(x)
        violations = aoc_membership_check(problem, instances.values())
        checked += len(instances)
        if violations:
            return BatteryResult(
                "reductions", False, checked, f"{name} left the covering class",
                str(violations[0]),
            )
        for c in ratios:
            pair = aoc_generic(problem, c)
            lifted = lift_to_asg(pair, name)
            for n in range(1, n_max + 1):
                allowance = 2 + 3 * encoded_length(n)
                for x in all_bitstrings(n):
                    instance = instances.get(x)
                    inner_len = inner_read = 0
                    if instance is not None:
                        tape_bits = pair.oracle(instance)
                        phi = AdviceTape(tape_bits)
                        y = run_online(pair.algorithm(), phi, problem.requests(instance))
                        checked += 1
                        if not competitive_ok(
                            problem.objective,
                            problem.score(instance, y),
                            problem.opt(instance),
                            c,
                            0,
                        ):
                            return BatteryResult(
                                "reductions", False, checked,
                                f"{name} covering run broke strictness",
                                f"c={c} x={x!r}: y={y!r}",
                            )
                        inner_len, inner_read = len(tape_bits), phi.bits_read
                    res = run_asg(variant, lifted, x)
                    checked += 1
                    if (
                        not competitive_ok(
                            variant.objective, res.score, asg_opt(variant.objective, x), c, 0
                        )
                        or res.bits - inner_read > allowance
                        or len(lifted.oracle(x)) - inner_len > allowance
                    ):
                        return BatteryResult(
                            "reductions", False, checked, f"{name} lift round trip failed",
                            f"c={c} x={x!r}: y={res.y!r} bits={res.bits} inner={inner_read}",
                        )
    return BatteryResult(
        "reductions", True, checked,
        f"{len(REDUCTIONS)} reductions over n <= {n_max}, "
        f"ratios {', '.join(map(str, ratios))}",
    )


# --- battery 8: knapsack and matching ----------------------------------------


def _greedy_fill_count(weights) -> int:
    """Largest number of items fitting in the unit knapsack: smallest first."""
    return fill_count(*scaled_weights(weights))


def _matching_tables(vertices: int):
    """For every edge subset of the complete graph (as a bitmask over the
    lexicographic edge list), the maximum matching size and the greedy
    matching size under lexicographic and reverse arrival orders."""
    edge_list = list(combinations(range(1, vertices + 1), 2))
    incident = []
    for u, v in edge_list:
        mask = 0
        for idx, (a, b) in enumerate(edge_list):
            if a in (u, v) or b in (u, v):
                mask |= 1 << idx
        incident.append(mask)
    total = 1 << len(edge_list)
    opt = bytearray(total)
    fwd = bytearray(total)
    rev = bytearray(total)
    for mask in range(1, total):
        low = (mask & -mask).bit_length() - 1
        skip = opt[mask & (mask - 1)]
        take = 1 + opt[mask & ~incident[low]]
        opt[mask] = take if take > skip else skip
        fwd[mask] = 1 + fwd[mask & ~incident[low]]
        high = mask.bit_length() - 1
        rev[mask] = 1 + rev[mask & ~incident[high]]
    return edge_list, opt, fwd, rev


def battery_packing(
    n_exhaustive: int = 5,
    n_max: int = 10,
    grid_denominator: int = 8,
    match_vertices: int = 7,
    seed: int = 0,
) -> BatteryResult:
    """Knapsack protocol within twice the optimum on eighth-step weight
    grids with logarithmic advice; greedy matching within twice the optimum
    on every graph, with the four-path witness exactly at ratio two."""
    problem = PROBLEMS["ks"]
    pair = knapsack_two_competitive()
    values = [Fraction(k, grid_denominator) for k in range(grid_denominator + 1)]
    checked = 0

    def knapsack_run(weights) -> BatteryResult | None:
        instance = tuple(weights)
        tape = AdviceTape(pair.oracle(instance))
        y = run_online(pair.algorithm(), tape, problem.requests(instance))
        score = problem.score(instance, y)
        opt = _greedy_fill_count(instance)
        if score == MINUS_INF or opt > 2 * score or tape.bits_read > encoded_length(len(instance)):
            return BatteryResult(
                "packing", False, checked, "knapsack run failed",
                f"weights={instance}: y={y!r} opt={opt}",
            )
        if len(instance) <= 4 and problem.opt(instance) != opt:
            return BatteryResult(
                "packing", False, checked, "knapsack optimum disagrees with brute force",
                f"weights={instance}",
            )
        return None

    for n in range(n_exhaustive + 1):
        for weights in product(values, repeat=n):
            checked += 1
            failed = knapsack_run(weights)
            if failed:
                return failed
    rng = random.Random(seed)
    for n in range(n_exhaustive + 1, n_max + 1):
        for base in combinations_with_replacement(values, n):
            shuffled = list(base)
            rng.shuffle(shuffled)
            for weights in (base, tuple(reversed(base)), tuple(shuffled)):
                checked += 1
                failed = knapsack_run(weights)
                if failed:
                    return failed

    matching = PROBLEMS["om"]
    match_pair = greedy_matching()

    def greedy_run(instance) -> int:
        y = run_online(match_pair.algorithm(), AdviceTape([]), matching.requests(instance))
        score = matching.score(instance, y)
        assert score != MINUS_INF  # disjoint by construction
        return score

    edge_list, opt, fwd, rev = _matching_tables(match_vertices)
    for mask in range(1 << len(edge_list)):
        checked += 1
        if opt[mask] > 2 * fwd[mask] or opt[mask] > 2 * rev[mask]:
            picked = tuple(e for i, e in enumerate(edge_list) if mask >> i & 1)
            return BatteryResult(
                "packing", False, checked, "greedy matching broke its factor",
                f"edges={picked}",
            )
    # tie the table to the implementation on every small graph
    small = list(combinations(range(1, min(match_vertices, 5) + 1), 2))
    into = [edge_list.index(e) for e in small]
    for mask in range(1 << len(small)):
        instance = tuple(e for i, e in enumerate(small) if mask >> i & 1)
        big_mask = sum(1 << into[i] for i in range(len(small)) if mask >> i & 1)
        checked += 1
        if greedy_run(instance) != fwd[big_mask]:
            return BatteryResult(
                "packing", False, checked, "greedy table disagrees with the implementation",
                f"edges={instance}",
            )
        if len(instance) <= 6 and matching.opt(instance) != opt[big_mask]:
            return BatteryResult(
                "packing", False, checked, "matching optimum disagrees with brute force",
                f"edges={instance}",
            )
    witness = ((2, 3), (1, 2), (3, 4))
    alg = greedy_run(witness)
    checked += 1
    if matching.opt(witness) != 2 * alg:
        return BatteryResult(
            "packing", False, checked, "the four-path witness missed ratio two",
            f"alg={alg} opt={matching.opt(witness)}",
        )
    return BatteryResult(
        "packing", True, checked,
        f"knapsack to n={n_max} on the 1/{grid_denominator} grid; "
        f"matching on all {match_vertices}-vertex graphs",
    )


# --- battery 9: curve reproduction --------------------------------------------


def battery_curve(steps: int = 60, n: int = 10**6) -> BatteryResult:
    """The emitted curve hits log2(5/4) at c=2, decreases monotonically,
    stays inside its envelopes, and carries the comparison column exactly
    on (1, 2]."""
    points = emit_curve(Fraction(21, 20), Fraction(4), steps, n)
    checked = 0
    previous = None
    for p in points:
        checked += 1
        inside = p.envelope_lo - 1e-12 <= p.asg_bits_per_request <= p.envelope_hi + 1e-12
        sg_ok = (p.sg_bits_per_request is not None) == (1 < p.c <= 2)
        if not inside or not sg_ok:
            return BatteryResult(
                "curve", False, checked, "a sampled point broke the envelope contract",
                f"c={p.c}: {p}",
            )
        if previous is not None and not p.asg_bits_per_request < previous:
            return BatteryResult(
                "curve", False, checked, "curve is not strictly decreasing",
                f"c={p.c}",
            )
        previous = p.asg_bits_per_request
    at_two = [p for p in points if p.c == 2]
    checked += 1
    if not at_two or abs(at_two[0].asg_bits_per_request - math.log2(Fraction(5, 4))) > 1e-5:
        return BatteryResult(
            "curve", False, checked, "the c=2 sample missed log2(5/4)",
            f"points at 2: {at_two}",
        )
    return BatteryResult(
        "curve", True, checked, f"{len(points)} samples on [21/20, 4], c=2 at log2(5/4)"
    )


# --- orchestration ------------------------------------------------------------

BATTERY_ORDER = (
    "envelope",
    "trivial",
    "covering",
    "counting",
    "adversary",
    "growth",
    "reductions",
    "packing",
    "curve",
)

# batteries built on the covering protocols or the curve, where c must exceed 1
_STRICT_RATIO_BATTERIES = frozenset({"envelope", "covering", "counting", "reductions", "curve"})


def _build_battery_calls(config: ExperimentConfig) -> dict:
    return {
        "envelope": lambda: battery_envelope(ratios=config.ratios),
        "trivial": lambda: battery_trivial(_cap(10, config.n_max), config.ratios),
        "covering": lambda: battery_covering(
            _cap(8, config.n_max), config.ratios, config.design_limit
        ),
        "counting": lambda: battery_counting(
            _cap(_cap(8, config.n_max), config.brute_limit),
            config.ratios,
            _cap(2000, config.grid_max),
            config.ratios,
        ),
        "adversary": lambda: battery_adversary(
            _cap(6, config.n_max), _cap(5, config.n_max), _cap(3, config.n_max)
        ),
        "growth": lambda: battery_growth(sweep_n_max=_cap(10**4, config.grid_max)),
        "reductions": lambda: battery_reductions(_cap(8, config.n_max), config.ratios),
        "packing": lambda: battery_packing(
            n_exhaustive=_cap(5, config.n_max),
            n_max=_cap(10, config.n_max),
            match_vertices=_cap(7, config.n_max),
            seed=config.seed,
        ),
        "curve": lambda: battery_curve(),
    }


def run_suite(config: ExperimentConfig | None = None, only=None) -> SuiteReport:
    """Run the selected batteries (all of them by default) and collect one
    report.  Ratios at or below 1 are rejected up front when a selected
    battery relies on the covering protocols."""
    config = ExperimentConfig() if config is None else config
    if only is None:
        names = list(BATTERY_ORDER)
    else:
        unknown = sorted(set(only) - set(BATTERY_ORDER))
        if unknown:
            raise ValueError(f"unknown batteries: {', '.join(unknown)}")
        names = [name for name in BATTERY_ORDER if name in set(only)]
    if config.ratios is not None and any(r <= 1 for r in config.ratios):
        offending = [name for name in names if name in _STRICT_RATIO_BATTERIES]
        if offending:
            low = min(config.ratios)
            raise ValueError(
                f"ratio {low} is outside the covering protocols' domain (c > 1): {offending[0]}"
            )
    calls = _build_battery_calls(config)
    return SuiteReport(config, tuple(calls[name]() for name in names))
