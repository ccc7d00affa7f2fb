"""The JSON bytes of every result record, pinned as strings.

Each record type is built once and `json.dumps(record.to_json())` is
compared with the text it produced before the records shared one JSON
rule, so key order, score spelling ("+inf"/"-inf"), Fractions as "P/Q"
and tuples as lists are all checked, not just the decoded values.
"""

import json
from fractions import Fraction

import pytest

from asg.adversary import (
    MaxGameOutcome,
    StrategyCover,
    max_no_advice_game,
    min_game_against,
    standard_max_behaviors,
)
from asg.bounds import bound_report, curve_point, render_curve
from asg.core import MINUS_INF, PLUS_INF, RunResult
from asg.designs import CoveringDesign, exact_cover_number
from asg.problems import CONSTRUCTIONS
from asg.suite import BatteryResult, ExperimentConfig, SuiteReport, run_suite


def _records():
    return {
        "run-finite": RunResult("0110", 2, 5),
        "run-plus-inf": RunResult("0010", PLUS_INF, 3),
        "run-minus-inf": RunResult("1101", MINUS_INF, 0),
        "design": exact_cover_number(5, 3, 2),
        "design-t0": CoveringDesign(3, 3, 0, ((1, 2, 3),)),
        "strategy-cover": StrategyCover(3, 2, ("011", "101", "110")),
        "transcript": min_game_against(["0110", "1010", "0011"]),
        "max-game": max_no_advice_game(standard_max_behaviors(2), 5),
        "max-game-minus-inf": MaxGameOutcome("101", ("000", "111", "101")),
        "max-game-empty": MaxGameOutcome("", ()),
        "bounds": bound_report(100, Fraction(3, 2)),
        "graph": CONSTRUCTIONS["cf"]("0111"),
        "set-cover": CONSTRUCTIONS["sc"]("0101"),
        "disjoint-paths": CONSTRUCTIONS["dpa"]("011"),
        "curve-sg": curve_point(Fraction(3, 2)),
        "curve-no-sg": curve_point(3),
        "config-default": ExperimentConfig(),
        "config-ratios": ExperimentConfig(
            seed=4, n_max=3, ratios=(Fraction(3, 2), 2), output_format="csv"
        ),
        "battery-pass": BatteryResult("envelope", True, 8, "8 ratios sandwiched"),
        "battery-fail": BatteryResult(
            "trivial", False, 3, "residue-class protocol failed", "c=2 x='01'"
        ),
    }


PINNED = {
    "battery-fail": (
        '{"name": "trivial", "passed": false, "checked": 3, '
        '"detail": "residue-class protocol failed", "witness": "c=2 x=\'01\'"}'
    ),
    "battery-pass": (
        '{"name": "envelope", "passed": true, "checked": 8, '
        '"detail": "8 ratios sandwiched", "witness": null}'
    ),
    "bounds": (
        '{"n": 100, "c": "3/2", "bound_bits": 46.97819937558682, '
        '"lower_envelope": 35.38252302820287, "upper_envelope": 66.66666666666667, '
        '"slack_terms": {"min_form_lower": 18.31642296550359, '
        '"min_form_upper": 19.974634448255383, "max_form_lower": 25.931568569324174, '
        '"max_form_upper": 26.63284593100718}}'
    ),
    "config-default": (
        '{"seed": 0, "n_max": null, "grid_max": null, "ratios": null, '
        '"output_format": "json"}'
    ),
    "config-ratios": (
        '{"seed": 4, "n_max": 3, "grid_max": null, "ratios": ["3/2", "2"], '
        '"output_format": "csv"}'
    ),
    "curve-no-sg": (
        '{"c": "3", "asg_bits_per_request": 0.19930880822340666, '
        '"envelope_hi": 0.3333333333333333, "envelope_lo": 0.17691261514101433, '
        '"sg_bits_per_request": null}'
    ),
    "curve-sg": (
        '{"c": "3/2", "asg_bits_per_request": 0.46978199375586815, '
        '"envelope_hi": 0.6666666666666666, "envelope_lo": 0.35382523028202867, '
        '"sg_bits_per_request": 0.08170416594551048}'
    ),
    "design": '{"v": 5, "k": 3, "t": 2, "blocks": [[1, 2, 3], [1, 4, 5], [2, 3, 4], [2, 3, 5]]}',
    "design-t0": '{"v": 3, "k": 3, "t": 0, "blocks": [[1, 2, 3]]}',
    "disjoint-paths": '{"length": 8, "requests": [[0, 4], [4, 6], [4, 5]]}',
    "graph": '{"n": 4, "arrivals": [[], [], [2], [2, 3]]}',
    "max-game": '{"x": "10000", "outputs": ["11111", "00000"], "scores": [0, "-inf"]}',
    "max-game-empty": '{"x": "", "outputs": [], "scores": []}',
    "max-game-minus-inf": '{"x": "101", "outputs": ["000", "111", "101"], "scores": ["-inf", 0, 1]}',
    "run-finite": '{"y": "0110", "score": 2, "bits": 5}',
    "run-minus-inf": '{"y": "1101", "score": "-inf", "bits": 0}',
    "run-plus-inf": '{"y": "0010", "score": "+inf", "bits": 3}',
    "set-cover": '{"universe": [1, 2, 3, 4], "requests": [[1], [2], [3], [1, 3, 4]]}',
    "strategy-cover": '{"count": 3, "bits": 2, "family": ["011", "101", "110"]}',
    "transcript": (
        '{"x": "0011", "y": "1111", "score": 4, "forced_ones": 4, "rounds": [{"index": 1, '
        '"alive": 3, "answer": 1, "revealed": 0, "forced": true, "punished": false}, '
        '{"index": 2, "alive": 2, "answer": 1, "revealed": 0, "forced": true, '
        '"punished": false}, {"index": 3, "alive": 1, "answer": 1, "revealed": 1, '
        '"forced": true, "punished": false}, {"index": 4, "alive": 1, "answer": 1, '
        '"revealed": 1, "forced": true, "punished": false}]}'
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_record_json_bytes_are_pinned(name):
    assert json.dumps(_records()[name].to_json()) == PINNED[name]


def test_every_record_is_pinned():
    assert sorted(_records()) == sorted(PINNED)


def _small_report():
    """Three batteries run at small caps, and a failed one with a witness."""
    config = ExperimentConfig(n_max=2, grid_max=20, ratios=(Fraction(3, 2), 2))
    report = run_suite(config, only=("envelope", "trivial", "growth"))
    return SuiteReport(config, report.results + (_records()["battery-fail"],))


PINNED_REPORT = {
    "json": (
        '{\n'
        '  "passed": false,\n'
        '  "config": {\n'
        '    "seed": 0,\n'
        '    "n_max": 2,\n'
        '    "grid_max": 20,\n'
        '    "ratios": [\n'
        '      "3/2",\n'
        '      "2"\n'
        '    ],\n'
        '    "output_format": "json"\n'
        '  },\n'
        '  "batteries": [\n'
        '    {\n'
        '      "name": "envelope",\n'
        '      "passed": true,\n'
        '      "checked": 2,\n'
        '      "detail": "2 ratios sandwiched at n=1000000, rel tol 1e-09",\n'
        '      "witness": null\n'
        '    },\n'
        '    {\n'
        '      "name": "trivial",\n'
        '      "passed": true,\n'
        '      "checked": 28,\n'
        '      "detail": "28 runs over n <= 2, ratios 3/2, 2",\n'
        '      "witness": null\n'
        '    },\n'
        '    {\n'
        '      "name": "growth",\n'
        '      "passed": true,\n'
        '      "checked": 181,\n'
        '      "detail": "8 strategies defeated at n=16; floor holds to n=20",\n'
        '      "witness": null\n'
        '    },\n'
        '    {\n'
        '      "name": "trivial",\n'
        '      "passed": false,\n'
        '      "checked": 3,\n'
        '      "detail": "residue-class protocol failed",\n'
        '      "witness": "c=2 x=\'01\'"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    "csv": (
        'battery,passed,checked,detail,witness\n'
        'envelope,true,2,"2 ratios sandwiched at n=1000000, rel tol 1e-09",\n'
        'trivial,true,28,"28 runs over n <= 2, ratios 3/2, 2",\n'
        'growth,true,181,8 strategies defeated at n=16; floor holds to n=20,\n'
        "trivial,false,3,residue-class protocol failed,c=2 x='01'\n"
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_suite_report_bytes_are_pinned(fmt):
    assert _small_report().render(fmt) == PINNED_REPORT[fmt]


PINNED_CURVE = {
    "json": (
        '[\n'
        '  {\n'
        '    "c": "3/2",\n'
        '    "asg_bits_per_request": 0.46978199375586815,\n'
        '    "envelope_hi": 0.6666666666666666,\n'
        '    "envelope_lo": 0.35382523028202867,\n'
        '    "sg_bits_per_request": 0.08170416594551048\n'
        '  },\n'
        '  {\n'
        '    "c": "3",\n'
        '    "asg_bits_per_request": 0.19930880822340666,\n'
        '    "envelope_hi": 0.3333333333333333,\n'
        '    "envelope_lo": 0.17691261514101433,\n'
        '    "sg_bits_per_request": null\n'
        '  }\n'
        ']\n'
    ),
    "csv": (
        'c,asg_bits_per_request,envelope_hi,envelope_lo,sg_bits_per_request\n'
        '3/2,0.469781993756,0.666666666667,0.353825230282,0.0817041659455\n'
        '3,0.199308808223,0.333333333333,0.176912615141,\n'
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_curve_bytes_are_pinned(fmt):
    points = [curve_point(Fraction(3, 2)), curve_point(3)]
    assert render_curve(points, fmt) == PINNED_CURVE[fmt]
