"""The full verification sweep: every battery at its complete range, one
pass/fail line per guarantee.  These are the slow, exhaustive versions of
the spot checks in the other test modules; together they re-derive the
package's headline claims from scratch.  Expect a few minutes of runtime.
"""

from asg.suite import (
    battery_adversary,
    battery_counting,
    battery_covering,
    battery_curve,
    battery_envelope,
    battery_growth,
    battery_packing,
    battery_reductions,
    battery_trivial,
)


def test_advice_bound_sits_between_its_linear_envelopes():
    # eight ratios from 101/100 to 100 at n = 10^6, relative tolerance 1e-9
    result = battery_envelope()
    assert result.passed, result.line()


def test_trivial_protocols_are_ceil_c_competitive_exhaustively():
    # every input of length <= 10 at c in {3/2, 2, 3}, feasibility,
    # strict ceil(c)-competitiveness, and the stated advice budgets
    result = battery_trivial()
    assert result.passed, result.line()


def test_covering_protocols_hit_their_exact_interior_targets():
    # every input of length <= 8: cost exactly floor(c t), zeros exactly
    # ceil(u / c), index width within the exact design's ceil-log
    result = battery_covering()
    assert result.passed, result.line()


def test_exact_strategy_counts_sit_in_the_design_sandwich():
    # exact minimum family sizes to n = 8 against the per-weight design
    # bounds, then the log-max quotient within its additive slacks of the
    # closed-form bound for n up to 2000 at four ratios
    result = battery_counting()
    assert result.passed, result.line()


def test_adversary_forces_the_binomial_bound_on_every_algorithm():
    # canonical play on every equal-weight alive set to n = 6 (about 1.2M
    # games), every answer script to n = 5, every strategy table to n = 3,
    # with equality at weight-one sets and single strings
    result = battery_adversary()
    assert result.passed, result.line()
    assert result.checked == 1187876


def test_no_advice_maximizers_are_defeated_and_growth_floor_holds():
    # eight deterministic strategies lose simultaneously at n = 16 while
    # the optimum stays at least 8; the binomial quotient clears e^t for
    # integer ratios 2..10 up to n = 10^4
    result = battery_growth()
    assert result.passed, result.line()


def test_reductions_lift_round_trips_within_the_header_allowance():
    # all six reductions on every input of length <= 8: class membership,
    # strict generic-protocol runs, and lifted round trips adding at most
    # each lift's own header allowance, never over 2 + 3 encoded_length(n) bits
    result = battery_reductions()
    assert result.passed, result.line()
    assert result.checked == 20844


def test_knapsack_and_matching_stay_within_factor_two():
    # knapsack on eighth-step weight grids to n = 10 with logarithmic
    # advice; greedy matching on every graph with <= 7 vertices under two
    # arrival orders, exactly tight on the four-vertex path
    result = battery_packing()
    assert result.passed, result.line()
    assert result.checked == 2435735


def test_emitted_curve_reproduces_the_known_values():
    # 60 samples on [21/20, 4]: log2(5/4) at c = 2 within 1e-5, strictly
    # decreasing, inside the envelopes, comparison column exactly on (1, 2]
    result = battery_curve()
    assert result.passed, result.line()
