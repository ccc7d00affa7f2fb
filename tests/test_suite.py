"""Unit tests for the verification batteries and curve emission, on ranges
small enough to stay fast; the full sweeps live in test_acceptance."""

import json
from fractions import Fraction

import pytest

from asg.adversary import max_no_advice_game
from asg.core import ones
from asg.suite import (
    BATTERY_ORDER,
    CURVE_COLUMNS,
    BatteryResult,
    ExperimentConfig,
    battery_adversary,
    battery_counting,
    battery_covering,
    battery_envelope,
    battery_growth,
    battery_packing,
    battery_reductions,
    battery_trivial,
    curve_point,
    emit_curve,
    render_curve,
    run_suite,
    standard_max_behaviors,
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


def test_battery_growth_small():
    result = battery_growth(n=8, sweep_n_max=100)
    assert result.passed


def test_battery_reductions_small():
    assert battery_reductions(n_max=3).passed


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
