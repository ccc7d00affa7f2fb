"""Unit tests for the verification batteries and curve emission, on ranges
small enough to stay fast; the full sweeps live in test_acceptance."""

import dataclasses
import itertools
import json
from fractions import Fraction

import pytest

import asg.bounds
import asg.cli
import asg.suite
from asg.adversary import max_no_advice_game, standard_max_behaviors
from asg.algorithms import AdvicePair
from asg.bounds import CURVE_COLUMNS, curve_point, emit_curve, render_curve
from asg.core import MINUS_INF, PLUS_INF, OnlineAlgorithm, Variant, encoded_length, ones
from asg.problems import EdgeMatching, UnitKnapsack
from asg.suite import (
    BATTERY_ORDER,
    BatteryResult,
    ExperimentConfig,
    battery_adversary,
    battery_counting,
    battery_covering,
    battery_curve,
    battery_envelope,
    battery_growth,
    battery_packing,
    battery_reductions,
    battery_trivial,
    run_suite,
)

# --- curve -------------------------------------------------------------------


def test_curve_grid_is_exact_rationals():
    points = emit_curve(Fraction(21, 20), Fraction(4), 60, n=1000)
    assert len(points) == 60
    assert points[0].c == Fraction(21, 20)
    assert points[-1].c == Fraction(4)
    assert points[1].c - points[0].c == Fraction(1, 20)
    assert points[19].c == 2


def test_curve_point_envelopes_and_comparison_column():
    p = curve_point(2, n=1000)
    assert p.envelope_lo <= p.asg_bits_per_request <= p.envelope_hi
    assert p.sg_bits_per_request is not None
    assert curve_point(3, n=1000).sg_bits_per_request is None


def test_emit_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        emit_curve(1, 2, 10)
    with pytest.raises(ValueError):
        emit_curve(2, Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        emit_curve(2, 3, 1)
    assert len(emit_curve(2, 2, 1, n=100)) == 1


def test_render_curve_formats():
    points = emit_curve(Fraction(3, 2), Fraction(5, 2), 3, n=100)
    csv_text = render_curve(points, "csv")
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 4
    assert lines[1].startswith("3/2,")
    assert lines[3].endswith(",")  # no comparison value beyond c = 2
    rows = json.loads(render_curve(points, "json"))
    assert [r["c"] for r in rows] == ["3/2", "2", "5/2"]
    assert rows[2]["sg_bits_per_request"] is None
    with pytest.raises(ValueError):
        render_curve(points, "tsv")


# --- configuration and report shells ------------------------------------------


def test_config_validation():
    config = ExperimentConfig(ratios=["3/2", 2])
    assert config.ratios == (Fraction(3, 2), Fraction(2))
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n_max=0)
    with pytest.raises(TypeError):
        ExperimentConfig(ratios=[1.5])
    with pytest.raises(ValueError):
        ExperimentConfig(output_format="xml")


def test_battery_result_line_and_json():
    good = BatteryResult("envelope", True, 8, "all sandwiched")
    bad = BatteryResult("trivial", False, 3, "broke", witness="x='01'")
    assert good.line() == "pass envelope: all sandwiched"
    assert bad.line() == "FAIL trivial: broke [x='01']"
    assert bad.to_json()["witness"] == "x='01'"


# --- individual batteries on small ranges --------------------------------------


def test_battery_envelope_small():
    assert battery_envelope(n=1000).passed


def test_battery_trivial_small():
    result = battery_trivial(n_max=4)
    assert result.passed
    assert result.checked == 2 * 3 * 31  # both protocols, three ratios, sum 2^n


def test_battery_covering_small():
    assert battery_covering(n_max=4).passed


def test_battery_counting_small():
    assert battery_counting(n_max=3, quotient_n_max=20).passed


def test_battery_counting_ratios_replace_both_grids():
    # 2 exact counts (n = 1, 2) and 18 quotient points (n = 3..20), all at 3/2
    assert battery_counting(n_max=2, quotient_n_max=20, ratios=("3/2",)).checked == 20


def test_battery_adversary_small():
    result = battery_adversary(n_max=3, script_n_max=3, table_n_max=2)
    assert result.passed
    assert result.checked == 234


@pytest.mark.parametrize(
    "caps, checked, detail, witness",
    [
        ((3, 3, 2), 7, "canonical play beat the bound", "n=2 alive=('11',)"),
        ((0, 3, 2), 3, "a scripted algorithm beat the bound", "n=1 alive=('1',) script=0"),
        ((0, 0, 2), 2, "a strategy table beat the bound", "n=1 alive=('1',) table=[((1, ''), 0)]"),
    ],
)
def test_battery_adversary_catches_a_sabotaged_reveal_rule(monkeypatch, caps, checked, detail, witness):
    # an adversary that always reveals 0 lets some algorithm pay less than the bound
    import asg.adversary

    monkeypatch.setattr(asg.adversary, "_reveal", lambda col, alive, h, answer: (0, alive & ~col))
    result = battery_adversary(*caps)
    assert (result.passed, result.checked, result.detail, result.witness) == (
        False, checked, detail, witness
    )


# --- failure paths ----------------------------------------------------------------
# Each case sabotages one dependency of one battery and pins the failing
# result: the count at the first failure, its detail and its witness.


def _wrap(monkeypatch, name, sabotage, module=asg.suite):
    """Replace module.<name> by sabotage(real, *args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: sabotage(real, *args, **kw))


def _wrap_opt(monkeypatch, cls, sabotage):
    """Replace cls.opt by sabotage(real, instance)."""
    real = cls.opt
    monkeypatch.setattr(cls, "opt", lambda self, instance: sabotage(lambda i: real(self, i), instance))


def _run_asg_sabotage(variant, x, **changes):
    def sabotage(real, v, pair, y):
        res = real(v, pair, y)
        return res._replace(**changes) if v is variant and y == x else res

    return sabotage


def _nth_call_fails(n):
    calls = itertools.count(1)
    return lambda real, *args: next(calls) != n and real(*args)


class _Refuse(OnlineAlgorithm):
    """No advice; refuses every request."""

    def answer(self, i, request):
        return 1


class _Accept(OnlineAlgorithm):
    """No advice; accepts every request."""

    def answer(self, i, request):
        return 0


FOUR_PATH = ((2, 3), (1, 2), (3, 4))

FAILURE_CASES = {
    "envelope": (
        lambda mp: _wrap(mp, "advice_bound", lambda real, n, c: real(n, c) * (2 if c == 3 else 1)),
        lambda: battery_envelope(n=1000),
        (
            5,
            "sandwich violated at n=1000",
            "c=3: 176.91261514101433 <= 398.6176164468133 <= 333.3333333333333",
        ),
    ),
    "curve-envelope": (
        lambda mp: _wrap(
            mp, "advice_bound", lambda real, n, c: real(n, c) * (10 if c == 2 else 1), asg.bounds
        ),
        lambda: battery_curve(),
        (
            20,
            "a sampled point broke the envelope contract",
            "c=2: CurvePoint(c=Fraction(2, 1), asg_bits_per_request=3.219280948873623, "
            "envelope_hi=0.5, envelope_lo=0.2653689227115215, sg_bits_per_request=0.0)",
        ),
    ),
    "curve-decreasing": (
        lambda mp: _wrap(
            mp, "advice_bound", lambda real, n, c: real(n, min(c, Fraction(3))), asg.bounds
        ),
        lambda: battery_curve(),
        (41, "curve is not strictly decreasing", "c=61/20"),
    ),
    "curve-at-two": (
        lambda mp: _wrap(
            mp, "advice_bound", lambda real, n, c: real(n, c) * (1.001 if c == 2 else 1), asg.bounds
        ),
        lambda: battery_curve(),
        (
            61,
            "the c=2 sample missed log2(5/4)",
            "points at 2: [CurvePoint(c=Fraction(2, 1), asg_bits_per_request=0.3222500229822497, "
            "envelope_hi=0.5, envelope_lo=0.2653689227115215, sg_bits_per_request=0.0)]",
        ),
    ),
    "trivial-min": (
        lambda mp: _wrap(mp, "run_asg", _run_asg_sabotage(Variant.MIN_UNKNOWN, "0110", bits=99)),
        lambda: battery_trivial(n_max=4),
        (43, "residue-class protocol failed", "c=3/2 x='0110': y='0110' bits=99/8"),
    ),
    "trivial-max": (
        lambda mp: _wrap(mp, "run_asg", _run_asg_sabotage(Variant.MAX_UNKNOWN, "101", score=MINUS_INF)),
        lambda: battery_trivial(n_max=4),
        (26, "block-copy protocol failed", "c=3/2 x='101': y='101' bits=10/12"),
    ),
    "covering-min": (
        lambda mp: _wrap(mp, "run_asg", _run_asg_sabotage(Variant.MIN_UNKNOWN, "0110", bits=99)),
        lambda: battery_covering(n_max=4),
        (43, "minimization protocol failed", "c=3/2 x='0110': y='1110' bits=99"),
    ),
    "covering-max": (
        lambda mp: _wrap(mp, "run_asg", _run_asg_sabotage(Variant.MAX_UNKNOWN, "0100", score=PLUS_INF)),
        lambda: battery_covering(n_max=4),
        (40, "maximization protocol failed", "c=3/2 x='0100': y='1100' bits=11"),
    ),
    "counting-sandwich": (
        lambda mp: _wrap(mp, "exact_strategy_count", lambda real, n, c, *rest, **kw: (
            real(n, c, *rest, **kw)._replace(count=1) if (n, c) == (3, 2)
            else real(n, c, *rest, **kw)
        )),
        lambda: battery_counting(n_max=3, quotient_n_max=20),
        (6, "strategy count left the design sandwich", "n=3 c=2: count=1 bits=2 sandwich=[2,5]"),
    ),
    "counting-quotient": (
        lambda mp: _wrap(mp, "check_min_quotient_approx", lambda real, n, c: (
            real(n, c)._replace(upper_ok=False) if (n, c) == (10, 3) else real(n, c)
        )),
        lambda: battery_counting(n_max=2, quotient_n_max=20),
        (
            48,
            "quotient left its additive slack window",
            "n=10 c=3: quotient=1.736965594166206 bound=1.9930880822340666",
        ),
    ),
    "growth-defeat": (
        lambda mp: _wrap(mp, "asg_opt", lambda real, objective, x: 0),
        lambda: battery_growth(n=8, sweep_n_max=100),
        (1, "a strategy survived the defeat", "x='11000000' scores=(0, -inf, -inf, -inf)"),
    ),
    "growth-floor": (
        lambda mp: _wrap(mp, "exp_growth_floor_sweep", lambda real, n_max, c: (
            [7] if c == 4 else real(n_max, c)
        )),
        lambda: battery_growth(n=8, sweep_n_max=100),
        (301, "growth floor failed", "c=4 first failing n=7"),
    ),
    "reductions-membership": (
        lambda mp: _wrap(mp, "aoc_membership_check", lambda real, problem, instances: (
            [("sabotaged", problem.name)] if problem.name == "ds" else real(problem, instances)
        )),
        lambda: battery_reductions(n_max=3),
        (155, "ds left the covering class", "('sabotaged', 'ds')"),
    ),
    "reductions-strictness": (
        lambda mp: _wrap(mp, "competitive_ok", _nth_call_fails(7)),
        lambda: battery_reductions(n_max=3),
        (21, "vc covering run broke strictness", "c=5/4 x='01': y='00'"),
    ),
    "reductions-lift": (
        lambda mp: _wrap(mp, "competitive_ok", _nth_call_fails(8)),
        lambda: battery_reductions(n_max=3),
        (22, "vc lift round trip failed", "c=5/4 x='01': y='01' bits=14 inner=7"),
    ),
    "reductions-allowance": (
        # an sc tape one encoded length too long stays within dpa's allowance
        lambda mp: _wrap(mp, "lift_tape", lambda real, name, x, run: (
            real(name, x, run) + [0] * encoded_length(len(x)) * (name == "sc")
        )),
        lambda: battery_reductions(n_max=3),
        (244, "sc lift round trip failed", "c=5/4 x='1': y='1' bits=8 inner=4"),
    ),
    "packing-knapsack": (
        lambda mp: _wrap(mp, "fill_count", lambda real, loads, scale: (
            real(loads, scale) + 5 * (len(loads) == 3 and real(loads, scale) == 2)
        )),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (
            140,
            "knapsack run failed",
            "weights=(Fraction(0, 1), Fraction(1, 8), Fraction(1, 1)): y='001' opt=7",
        ),
    ),
    "packing-knapsack-brute": (
        lambda mp: _wrap_opt(mp, UnitKnapsack, lambda real, weights: real(weights) + (len(weights) == 2)),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (
            11,
            "knapsack optimum disagrees with brute force",
            "weights=(Fraction(0, 1), Fraction(0, 1))",
        ),
    ),
    "packing-matching-table": (
        lambda mp: _wrap(mp, "_matching_tables", lambda real, vertices: (
            lambda edges, opt, fwd, rev: (edges, opt, fwd, rev.replace(b"\x02", b"\x00"))
        )(*real(vertices))),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (599, "greedy matching broke its factor", "edges=((1, 4), (2, 3))"),
    ),
    "packing-greedy-table": (
        lambda mp: mp.setattr(asg.suite, "greedy_matching", lambda: AdvicePair(lambda _: [], _Refuse, len)),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (652, "greedy table disagrees with the implementation", "edges=((1, 2),)"),
    ),
    "packing-matching-brute": (
        lambda mp: _wrap_opt(mp, EdgeMatching, lambda real, edges: real(edges) + (len(edges) == 3)),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (658, "matching optimum disagrees with brute force", "edges=((1, 2), (1, 3), (1, 4))"),
    ),
    "packing-four-path": (
        lambda mp: _wrap_opt(mp, EdgeMatching, lambda real, edges: 3 if edges == FOUR_PATH else real(edges)),
        lambda: battery_packing(n_exhaustive=2, n_max=3, match_vertices=4),
        (715, "the four-path witness missed ratio two", "alg=1 opt=3"),
    ),
}


@pytest.mark.parametrize("case", FAILURE_CASES)
def test_battery_failure_paths_are_pinned(monkeypatch, case):
    sabotage, run, (checked, detail, witness) = FAILURE_CASES[case]
    sabotage(monkeypatch)
    result = run()
    assert (result.passed, result.checked, result.detail, result.witness) == (
        False, checked, detail, witness
    )


def test_battery_packing_reports_an_infeasible_greedy_answer(monkeypatch):
    # a "greedy" that accepts every edge is infeasible on two incident edges
    monkeypatch.setattr(asg.suite, "greedy_matching", lambda: AdvicePair(lambda _: [], _Accept, len))
    result = battery_packing(n_exhaustive=2, n_max=3, match_vertices=4)
    assert (result.passed, result.checked, result.detail, result.witness) == (
        False, 654, "greedy table disagrees with the implementation", "edges=((1, 2), (1, 3))"
    )


def test_battery_growth_small():
    result = battery_growth(n=8, sweep_n_max=100)
    assert result.passed


def test_battery_reductions_small():
    assert battery_reductions(n_max=3).passed


def test_battery_reductions_runs_each_pair_once_per_input(monkeypatch):
    # one covering-oracle call per (ratio, constructed input): the strictness
    # check and the lifted tape share one run of the problem pair
    calls = []

    def counted(real, problem, c):
        pair = real(problem, c)
        return dataclasses.replace(pair, oracle=lambda instance: calls.append(instance) or pair.oracle(instance))

    _wrap(monkeypatch, "aoc_generic", counted)
    result = battery_reductions(n_max=3)
    assert (result.passed, result.checked, len(calls)) == (True, 512, 195)


def test_battery_packing_small():
    assert battery_packing(n_exhaustive=2, n_max=3, match_vertices=4).passed


def test_standard_max_behaviors_all_defeated():
    behaviors = standard_max_behaviors(12)
    assert len(behaviors) == 12
    outcome = max_no_advice_game(behaviors, 16)
    assert ones(outcome.x) <= 12
    assert all(score <= 0 for score in outcome.scores)


# --- orchestration --------------------------------------------------------------


def test_run_suite_capped_subset():
    config = ExperimentConfig(n_max=3, grid_max=50)
    report = run_suite(config, only=("envelope", "trivial", "covering", "growth"))
    assert report.passed
    assert [r.name for r in report.results] == ["envelope", "trivial", "covering", "growth"]
    # selection order is fixed regardless of the order given
    again = run_suite(config, only=("growth", "covering", "trivial", "envelope"))
    assert [r.name for r in again.results] == ["envelope", "trivial", "covering", "growth"]


def test_run_suite_rejects_unknown_and_degenerate():
    with pytest.raises(ValueError, match="unknown"):
        run_suite(only=("envelope", "bogus"))
    with pytest.raises(ValueError, match="c > 1"):
        run_suite(ExperimentConfig(ratios=[1]), only=("covering",))
    # ratio 1 is fine for batteries that never build a covering design
    report = run_suite(ExperimentConfig(n_max=3, ratios=[1]), only=("trivial",))
    assert report.passed


def test_suite_report_rendering_is_deterministic():
    config = ExperimentConfig(n_max=2, grid_max=10, output_format="csv")
    report = run_suite(config, only=("envelope", "curve"))
    text = report.render()
    assert text.splitlines()[0] == "battery,passed,checked,detail,witness"
    assert report.render() == text
    payload = json.loads(report.render("json"))
    assert payload["passed"] is True
    assert [b["name"] for b in payload["batteries"]] == ["envelope", "curve"]
    assert payload["config"]["n_max"] == 2


def test_battery_order_covers_all_names():
    assert len(BATTERY_ORDER) == 9
    assert len(set(BATTERY_ORDER)) == 9
    # one table in battery order: the suite's, the public battery_* names
    # and the CLI's literal copy list the same nine names in the same order
    exported = tuple(
        name.removeprefix("battery_") for name in asg.suite.__all__ if name.startswith("battery_")
    )
    assert tuple(asg.suite._BATTERIES) == BATTERY_ORDER
    assert exported == BATTERY_ORDER
    assert asg.cli.BATTERY_ORDER == BATTERY_ORDER
