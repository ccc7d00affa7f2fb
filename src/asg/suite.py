"""Verification batteries and the experiment configuration.

Each battery re-checks one headline guarantee of the package by exhaustive
enumeration or a grid sweep and reports pass/fail with a witness for the
first violation.  Everything here is deterministic: a configuration fully
determines every output byte (the seed only drives the shuffled arrival
orders in the packing battery and is recorded in the report).

A battery body is a generator that yields one entry per check: None when
the check passes, or its failure as (detail, witness), written as a
conditional expression so that a witness string is built only on failure.
A weighted entry, `_Weighted(count, failure)`, settles `count` checks at
once, for a sweep that reports only its first failure.  The body returns
its pass detail, where "{checked}" stands for the final count.  The
runner, `_run`, owns the rest: it counts the entries up to and including
the first failure, stops there, and builds the `BatteryResult`;
`@_battery` makes `battery_<name>(...)` run its body through it.

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

import functools
import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import NamedTuple

from asg.adversary import (
    _alive_masks,
    _members,
    _min_score,
    _play,
    exact_strategy_count,
    forced_cost_bound,
    max_no_advice_game,
    min_game_against,
    standard_max_behaviors,
    strategy_count_bounds,
    weight_class,
)
from asg.algorithms import (
    AdvicePair,
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
    emit_curve,
    envelope,
    exp_growth_floor_sweep,
)
from asg.core import (
    JsonRecord,
    Variant,
    all_bitstrings,
    as_ratio,
    asg_opt,
    ceil_log2,
    check_work,
    competitive_ok,
    design_shapes,
    encoded_length,
    fill_count,
    ones,
    render_text,
    run_all,
    run_asg,
    to_plain,
)
from asg.designs import exact_cover_number
from asg.problems import PROBLEMS, KnapsackInstance, aoc_membership_check
from asg.reductions import REDUCTION_VARIANT, REDUCTIONS, lift_instance, lift_tape, lift_to_asg

__all__ = [
    "ExperimentConfig",
    "BatteryResult",
    "SuiteReport",
    "BATTERY_ORDER",
    "run_suite",
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


# --- configuration and results ----------------------------------------------


class ExperimentConfig(JsonRecord, namedtuple(
    "ExperimentConfig", "seed n_max grid_max ratios output_format"
)):
    """Knobs for a suite run: the packing battery's seed, a cap on
    exhaustive input lengths (n_max), a cap on numeric grid sweeps
    (grid_max), ratios that override the per-battery ratio grids, and the
    output format.  None leaves a battery at its full default range; caps
    only ever shrink the sweeps."""

    __slots__ = ()

    def __new__(cls, seed=0, n_max=None, grid_max=None, ratios=None, output_format="json"):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        for name, value in (("n_max", n_max), ("grid_max", grid_max)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if ratios is not None:
            ratios = tuple(as_ratio(r) for r in ratios)
            if any(r <= 0 for r in ratios):
                raise ValueError("ratios must be positive")
        if output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {output_format!r}")
        return super().__new__(cls, seed, n_max, grid_max, ratios, output_format)


class BatteryResult(JsonRecord, namedtuple(
    "BatteryResult", "name passed checked detail witness", defaults=(None,)
)):
    __slots__ = ()

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = "" if self.witness is None else f" [{self.witness}]"
        return f"{status} {self.name}: {self.detail}{tail}"


class SuiteReport(JsonRecord, namedtuple("SuiteReport", "config results")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "config": to_plain(self.config),
            "batteries": to_plain(self.results),
        }

    def render(self, fmt: str | None = None) -> str:
        fmt = self.config.output_format if fmt is None else fmt
        return render_text(fmt, self, ("battery", "passed", "checked", "detail", "witness"), (
            (r.name, str(r.passed).lower(), r.checked, r.detail, r.witness or "")
            for r in self.results
        ))


def _cap(value: int, cap: int | None) -> int:
    return value if cap is None else min(value, cap)


# --- the battery runner ---------------------------------------------------------


class _Weighted(NamedTuple):
    """`count` checks settled at once: all passed (failure None), or the
    last of them failed with failure = (detail, witness)."""

    count: int
    failure: tuple[str, str] | None


def _run(name: str, checks) -> BatteryResult:
    """Count the entries of a battery's checks up to and including the
    first failure, and build its result."""
    checked = 0
    while True:
        try:
            entry = next(checks)
        except StopIteration as done:
            passed, detail, witness = True, done.value.format(checked=checked), None
            break
        if entry is None:
            checked += 1
            continue
        count, failure = entry if type(entry) is _Weighted else (1, entry)
        checked += count
        if failure is not None:
            passed, (detail, witness) = False, failure
            break
    return BatteryResult(name, passed, checked, detail, witness)


def _battery(body):
    """battery_<name>(...) runs the generator `body` through `_run`."""
    name = body.__name__.removeprefix("battery_")

    @functools.wraps(body)
    def battery(*args, **kwargs) -> BatteryResult:
        return _run(name, body(*args, **kwargs))

    return battery


def _ratios(ratios, default) -> tuple:
    return default if ratios is None else tuple(as_ratio(r) for r in ratios)


def _ratio_list(ratios) -> str:
    return ", ".join(map(str, ratios))


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
ENVELOPE_N = 10**6  # the input length the sandwich is checked at
ENVELOPE_REL_TOL = 1e-9


@_battery
def battery_envelope(n: int = ENVELOPE_N, ratios=None):
    """n/(e ln2 c) <= B(n,c) <= n/c on the ratio grid."""
    ratios = _ratios(ratios, ENVELOPE_RATIOS)
    for c in ratios:
        bound = float(advice_bound(n, c))
        lo, hi = (float(v) for v in envelope(n, c))
        yield None if lo * (1 - ENVELOPE_REL_TOL) <= bound <= hi * (1 + ENVELOPE_REL_TOL) else (
            f"sandwich violated at n={n}", f"c={c}: {lo} <= {bound} <= {hi}"
        )
    return f"{{checked}} ratios sandwiched at n={n}, rel tol {ENVELOPE_REL_TOL:g}"


# --- battery 2: trivial protocols -------------------------------------------

TRIVIAL_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3))


@_battery
def battery_trivial(n_max: int = 10, ratios=None):
    """Residue-class and block-copy protocols: feasible, strictly
    ceil(c)-competitive, and within the stated advice budgets, exhaustively."""
    ratios = _ratios(ratios, TRIVIAL_RATIOS)
    for c in ratios:
        pair_min, pair_max = trivial_min(c), trivial_max(c)
        target = Fraction(math.ceil(c))
        for n in range(n_max + 1):
            p = math.ceil(n / c)  # the min budget is derived here, not read from the pair
            # one runner per protocol, each advanced once per x: both play x before the next x
            runs = (
                ("residue-class", "min", run_all(Variant.MIN_UNKNOWN, pair_min, n), p + 2 * ceil_log2(p + 1) + 1),
                ("block-copy", "max", run_all(Variant.MAX_UNKNOWN, pair_max, n), pair_max.budget(n)),
            )
            for label, objective, run, budget in runs * (1 << n):
                x, res = next(run)
                ok = competitive_ok(objective, res.score, asg_opt(objective, x), target) and res.bits <= budget
                yield None if ok else (
                    f"{label} protocol failed", f"c={c} x={x!r}: y={res.y!r} bits={res.bits}/{budget}"
                )
    return f"{{checked}} runs over n <= {n_max}, ratios {_ratio_list(ratios)}"


# --- battery 3: covering-design protocols -----------------------------------

COVERING_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3))


@_battery
def battery_covering(n_max: int = 8, ratios=None):
    """Covering protocols: exact interior cost/zeros, strict
    c-competitiveness, index width within the exact design's ceil-log."""
    ratios = _ratios(ratios, COVERING_RATIOS)
    for c in ratios:
        pairs = (
            ("minimization", Variant.MIN_UNKNOWN, covering_min(c)),
            ("maximization", Variant.MAX_UNKNOWN, covering_max(c)),
        )
        for n in range(n_max + 1):
            header = encoded_length(n) + ceil_log2(n + 1)
            # per optimum w, its design's k and, on an interior class, the exact design's
            # index width, where the protocol scores k (min) or n - k (max); runners advance together
            runs = [(label, v.objective, run_all(v, p, n), [
                (k, ceil_log2(exact_cover_number(n, k, t).size) if 0 < t and k < n else None)
                for k, t in design_shapes(v.objective, c, n)
            ]) for label, v, p in pairs]
            for label, objective, run, classes in runs * (1 << n):
                x, res = next(run)
                w = asg_opt(objective, x)
                ok = competitive_ok(objective, res.score, w, c)
                k, width = classes[w]
                if ok and width is not None:
                    target = k if objective == "min" else n - k
                    ok = res.score == target and res.bits - header <= width
                yield None if ok else (
                    f"{label} protocol failed", f"c={c} x={x!r}: y={res.y!r} bits={res.bits}"
                )
    return f"{{checked}} runs over n <= {n_max}, ratios {_ratio_list(ratios)}"


# --- battery 4: strategy counts and quotient slacks --------------------------

COUNTING_RATIOS = (Fraction(3, 2), Fraction(2))
QUOTIENT_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5))


@_battery
def battery_counting(n_max: int = 8, ratios=None, quotient_n_max: int = 2000):
    """Exact strategy-count bits inside the design sandwich, and the exact
    log-max quotient within its additive slacks of the closed-form bound;
    given ratios replace both grids."""
    count_ratios = _ratios(ratios, COUNTING_RATIOS)
    quotient_ratios = _ratios(ratios, QUOTIENT_RATIOS)
    for c in count_ratios:
        for n in range(1, n_max + 1):
            cover = exact_strategy_count(n, c, "min")
            lo, hi = strategy_count_bounds(n, c, "min")
            yield None if (
                lo <= cover.count <= hi and ceil_log2(lo) <= cover.bits <= ceil_log2(hi)
            ) else (
                "strategy count left the design sandwich",
                f"n={n} c={c}: count={cover.count} bits={cover.bits} sandwich=[{lo},{hi}]",
            )
    for c in quotient_ratios:
        for n in range(3, quotient_n_max + 1):
            report = check_min_quotient_approx(n, c)
            yield None if report.ok else (
                "quotient left its additive slack window",
                f"n={n} c={c}: quotient={report.log_max_quotient} bound={report.bound_bits}",
            )
    return f"exact counts to n={n_max}; quotient slacks to n={quotient_n_max}"


# --- battery 5: revealed-history adversary -----------------------------------


def _prefix_tables(n: int):
    """Every deterministic revealed-history strategy on n rounds."""
    slots = [(i, p) for i in range(1, n + 1) for p in all_bitstrings(i - 1)]
    for values in product((0, 1), repeat=len(slots)):
        yield dict(zip(slots, values))


@_battery
def battery_adversary(n_max: int = 6, script_n_max: int = 5, table_n_max: int = 3, m_cap: int = 20):
    """The adversary extracts at least the binomial bound from every
    deterministic algorithm on every equal-weight alive set, with equality
    at single-weight and single-string sets."""
    # best-response play on every alive set
    for n in range(1, n_max + 1):
        for t, cls, states, alive in _alive_masks(n, m_cap):
            score = states.canonical(alive, t)
            yield None if score >= forced_cost_bound(alive.bit_count(), t) else (
                "canonical play beat the bound", f"n={n} alive={_members(cls, alive)}"
            )
    # every algorithm, as the answer script it produces against this
    # adversary: one weighted entry per alive set, up to its first failing script
    for n in range(1, script_n_max + 1):
        for t, cls, states, alive in _alive_masks(n, m_cap):
            bound = forced_cost_bound(alive.bit_count(), t)
            scores = states.scripts(alive, t)
            bad = None if min(scores) >= bound else next(j for j, s in enumerate(scores) if s < bound)
            yield _Weighted(len(scores), None) if bad is None else _Weighted(bad + 1, (
                "a scripted algorithm beat the bound",
                f"n={n} alive={_members(cls, alive)} script={bad:0{n}b}",
            ))
    # and literally every strategy table at tiny n
    for n in range(1, table_n_max + 1):
        sets_here = list(_alive_masks(n, m_cap))
        for table in _prefix_tables(n):
            player = lambda i, prefix: table[(i, prefix)]
            for t, cls, states, alive in sets_here:
                score = _min_score(*_play(states.cols, alive, t, player))
                yield None if score >= forced_cost_bound(alive.bit_count(), t) else (
                    "a strategy table beat the bound",
                    f"n={n} alive={_members(cls, alive)} table={sorted(table.items())}",
                )
    # equality witnesses: m singletons of weight one, and one string of weight h
    for m in range(1, n_max + 1):
        for alive in combinations(weight_class(n_max, 1), m):
            score = min_game_against(alive).score
            yield None if score == m else (
                "weight-one equality failed", f"alive={alive}: score={score} != {m}"
            )
    for x in all_bitstrings(n_max):
        score = min_game_against([x]).score
        yield None if score == ones(x) else (
            "single-string equality failed", f"x={x!r}: score={score}"
        )
    return (
        f"{{checked}} games; alive sets to n={n_max}, scripts to n={script_n_max}, "
        f"tables to n={table_n_max}"
    )


# --- battery 6: no-advice maximization and binomial growth -------------------


GROWTH_RATIOS = range(2, 11)


@_battery
def battery_growth(n: int = 16, sweep_n_max: int = 10**4):
    """Defeat of 2^(floor(log n) - 1) no-advice strategies at once, and the
    e^t growth floor of the binomial quotient along the whole grid."""
    m = 1 << (n.bit_length() - 2)  # 2^(floor(log2 n) - 1)
    outcome = max_no_advice_game(standard_max_behaviors(m), n)
    opt = asg_opt("max", outcome.x)
    yield None if (
        ones(outcome.x) <= m and opt >= n - m and not any(s > 0 for s in outcome.scores)
    ) else ("a strategy survived the defeat", f"x={outcome.x!r} scores={outcome.scores}")
    for c in GROWTH_RATIOS:
        failures = exp_growth_floor_sweep(sweep_n_max, c)
        yield _Weighted(sweep_n_max, None if not failures else (
            "growth floor failed", f"c={c} first failing n={failures[0]}"
        ))
    return f"{m} strategies defeated at n={n}; floor holds to n={sweep_n_max}"


# --- battery 7: problem reductions -------------------------------------------

REDUCTION_RATIOS = (Fraction(5, 4), Fraction(3, 2), Fraction(2))


@_battery
def battery_reductions(n_max: int = 8, ratios=None):
    """Class membership on the constructed instances, strict competitiveness
    of the generic covering protocol, and lifted round trips within each
    lift's own header allowance, for each of the six problem reductions.
    Each pair runs once per (ratio, constructed input): that one run is
    checked for strictness and then written into the lifted tape."""
    ratios = _ratios(ratios, REDUCTION_RATIOS)
    for name in REDUCTIONS:
        problem = PROBLEMS[name]
        variant = REDUCTION_VARIANT[name]
        instances = {x: lift_instance(name, x) for n in range(1, n_max + 1) for x in all_bitstrings(n)}
        built = [instance for instance in instances.values() if instance is not None]
        violations = aoc_membership_check(problem, built)
        yield _Weighted(len(built), None if not violations else (
            f"{name} left the covering class", str(violations[0])
        ))
        for c in ratios:
            pair = aoc_generic(problem, c)
            lifted = lift_to_asg(pair, name)
            runs = problem.run_all(pair, built)  # in input order, as the loop below meets them
            for n in range(1, n_max + 1):
                allowance = lifted.budget(n) - pair.budget(n)  # the lift's own header allowance
                for x in all_bitstrings(n):
                    run, inner_len, inner_read = None, 0, 0
                    if instances[x] is not None:
                        instance, advice, inner = next(runs)
                        run = advice, inner
                        yield None if competitive_ok(problem.objective, inner.score, problem.opt(instance), c) else (
                            f"{name} covering run broke strictness", f"c={c} x={x!r}: y={inner.y!r}"
                        )
                        inner_len, inner_read = len(advice), inner.bits
                    tape = lift_tape(name, x, run)  # the lifted run and the length check share it
                    replay = AdvicePair(lambda _: tape, lifted.algorithm, lifted.budget)
                    res = run_asg(variant, replay, x)
                    opt = asg_opt(variant.objective, x)
                    yield None if (
                        competitive_ok(variant.objective, res.score, opt, c)
                        and res.bits - inner_read <= allowance
                        and len(tape) - inner_len <= allowance
                    ) else (
                        f"{name} lift round trip failed",
                        f"c={c} x={x!r}: y={res.y!r} bits={res.bits} inner={inner_read}",
                    )
    return f"{len(REDUCTIONS)} reductions over n <= {n_max}, ratios {_ratio_list(ratios)}"


# --- battery 8: knapsack and matching ----------------------------------------


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


def _first_bad_mask(opt, fwd, rev) -> int | None:
    """The first edge mask m with opt[m] > 2 fwd[m] or opt[m] > 2 rev[m], or None,
    from one byte lane per mask of big integers: with every entry at most 3,
    a lane of 128 + 2 greedy - opt keeps its top bit exactly when opt <= 2 greedy."""
    top = int.from_bytes(b"\x80" * len(opt), "little")
    need = int.from_bytes(opt, "little")
    fwd_ok, rev_ok = ((int.from_bytes(greedy, "little") << 1 | top) - need for greedy in (fwd, rev))
    bad = top ^ (top & fwd_ok & rev_ok)
    return ((bad & -bad).bit_length() - 1) // 8 if bad else None


PACKING_GRID = 8  # knapsack weights are the multiples of 1/PACKING_GRID in [0, 1]
MATCHING_MASKS = 1 << 21  # edge masks of the greedy-matching tables: the 7-vertex graphs


@_battery
def battery_packing(n_exhaustive: int = 5, n_max: int = 10, match_vertices: int = 7, seed: int = 0):
    """Knapsack protocol within twice the optimum on eighth-step weight
    grids with logarithmic advice; greedy matching within twice the optimum
    on every graph, with the four-path witness exactly at ratio two."""
    check_work("greedy-matching edge masks", 1 << min(math.comb(match_vertices, 2), 64), MATCHING_MASKS)
    problem = PROBLEMS["ks"]
    pair = knapsack_two_competitive()
    values = [Fraction(k, PACKING_GRID) for k in range(PACKING_GRID + 1)]

    def knapsack_runs(instances, opt=None):
        """Each run's check against the reference count opt, by default the
        instance's own: None, or its failure."""
        for instance, _, res in problem.run_all(pair, instances):
            ref = fill_count(instance.loads, instance.scale) if opt is None else opt
            # an infeasible answer scores -inf, which fails the ratio check
            if not competitive_ok("max", res.score, ref, 2) or res.bits > encoded_length(len(instance)):
                yield "knapsack run failed", f"weights={instance.weights}: y={res.y!r} opt={ref}"
            elif len(instance) <= 4 and problem.opt(instance) != ref:
                yield "knapsack optimum disagrees with brute force", f"weights={instance.weights}"
            else:
                yield None

    # each arrival order is scaled once, for the oracle, the score and the table
    yield from knapsack_runs(KnapsackInstance(w) for n in range(n_exhaustive + 1) for w in product(values, repeat=n))
    rng = random.Random(seed)
    for n in range(n_exhaustive + 1, n_max + 1):
        for base in combinations_with_replacement(values, n):
            # one record per multiset: its other orders permute it under its scale
            record = KnapsackInstance(base)
            shuffled = list(range(n))  # the same draws as shuffling the weights themselves
            rng.shuffle(shuffled)
            orders = [record, record.permuted(range(n - 1, -1, -1)), record.permuted(shuffled)]
            # the same count for every arrival order
            yield from knapsack_runs(orders, fill_count(record.loads, record.scale))

    matching = PROBLEMS["om"]
    match_pair = greedy_matching()

    edge_list, opt, fwd, rev = _matching_tables(match_vertices)
    total = 1 << len(edge_list)
    bad = _first_bad_mask(opt, fwd, rev)
    yield _Weighted(total, None) if bad is None else _Weighted(bad + 1, (
        "greedy matching broke its factor",
        f"edges={tuple(e for i, e in enumerate(edge_list) if bad >> i & 1)}",
    ))
    # tie the table to the implementation on every small graph; an
    # infeasible (MINUS_INF) greedy answer disagrees with every table entry
    small = list(combinations(range(1, min(match_vertices, 5) + 1), 2))
    into = {e: 1 << edge_list.index(e) for e in small}  # each small edge's bit in a big mask
    graphs = (tuple(e for i, e in enumerate(small) if mask >> i & 1) for mask in range(1 << len(small)))
    for instance, _, res in matching.run_all(match_pair, graphs):
        big_mask = sum(into[e] for e in instance)
        yield (
            ("greedy table disagrees with the implementation", f"edges={instance}")
            if res.score != fwd[big_mask]
            else ("matching optimum disagrees with brute force", f"edges={instance}")
            if len(instance) <= 6 and matching.opt(instance) != opt[big_mask]
            else None
        )
    witness = ((2, 3), (1, 2), (3, 4))
    alg = matching.run(match_pair, witness)[1].score
    yield None if matching.opt(witness) == 2 * alg else (
        "the four-path witness missed ratio two", f"alg={alg} opt={matching.opt(witness)}"
    )
    return (
        f"knapsack to n={n_max} on the 1/{PACKING_GRID} grid; "
        f"matching on all {match_vertices}-vertex graphs"
    )


# --- battery 9: curve reproduction --------------------------------------------


@_battery
def battery_curve(steps: int = 60):
    """The emitted curve hits log2(5/4) at c=2, decreases monotonically,
    stays inside its envelopes, and carries the comparison column exactly
    on (1, 2]."""
    points = emit_curve(Fraction(21, 20), Fraction(4), steps)
    previous = None
    for p in points:
        inside = p.envelope_lo - 1e-12 <= p.asg_bits_per_request <= p.envelope_hi + 1e-12
        sg_ok = (p.sg_bits_per_request is not None) == (1 < p.c <= 2)
        yield (
            ("a sampled point broke the envelope contract", f"c={p.c}: {p}")
            if not inside or not sg_ok
            else ("curve is not strictly decreasing", f"c={p.c}")
            if previous is not None and not p.asg_bits_per_request < previous
            else None
        )
        previous = p.asg_bits_per_request
    at_two = [p for p in points if p.c == 2]
    yield None if (
        at_two and abs(at_two[0].asg_bits_per_request - math.log2(Fraction(5, 4))) <= 1e-5
    ) else ("the c=2 sample missed log2(5/4)", f"points at 2: {at_two}")
    return f"{len(points)} samples on [21/20, 4], c=2 at log2(5/4)"


# --- orchestration ------------------------------------------------------------

# In battery order: the call a suite configuration makes, and whether the
# battery needs c > 1 (it builds the covering protocols or the curve).
_BATTERIES = {
    "envelope": (lambda config: battery_envelope(ratios=config.ratios), True),
    "trivial": (lambda config: battery_trivial(_cap(10, config.n_max), config.ratios), False),
    "covering": (lambda config: battery_covering(_cap(8, config.n_max), config.ratios), True),
    "counting": (
        lambda config: battery_counting(_cap(8, config.n_max), config.ratios, _cap(2000, config.grid_max)),
        True,
    ),
    "adversary": (
        lambda config: battery_adversary(
            _cap(6, config.n_max), _cap(5, config.n_max), _cap(3, config.n_max)
        ),
        False,
    ),
    "growth": (lambda config: battery_growth(sweep_n_max=_cap(10**4, config.grid_max)), False),
    "reductions": (lambda config: battery_reductions(_cap(8, config.n_max), config.ratios), True),
    "packing": (
        lambda config: battery_packing(
            n_exhaustive=_cap(5, config.n_max),
            n_max=_cap(10, config.n_max),
            match_vertices=_cap(7, config.n_max),
            seed=config.seed,
        ),
        False,
    ),
    "curve": (lambda config: battery_curve(), True),
}

BATTERY_ORDER = tuple(_BATTERIES)


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
        offending = [name for name in names if _BATTERIES[name][1]]
        if offending:
            low = min(config.ratios)
            raise ValueError(
                f"ratio {low} is outside the covering protocols' domain (c > 1): {offending[0]}"
            )
    return SuiteReport(config, tuple(_BATTERIES[name][0](config) for name in names))
