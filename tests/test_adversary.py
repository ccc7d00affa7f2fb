"""Adversary games and exact tiny-n strategy counts."""

import hashlib
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
import scipy.optimize

from asg import cover
from asg.adversary import (
    _alive_masks,
    _coverage_masks,
    _members,
    _min_score,
    _play,
    covers,
    exact_strategy_count,
    forced_cost_bound,
    max_no_advice_game,
    min_game_against,
    strategy_count_bounds,
    weight_class,
)
from asg.core import MINUS_INF, PLUS_INF, WorkLimitError, all_bitstrings, dominates, ones, zeros
from asg.cover import _bounded_cover, _milp_cover


def test_forced_cost_bound_closed_forms():
    for m in range(1, 40):
        assert forced_cost_bound(m, 1) == m
    for h in range(1, 12):
        assert forced_cost_bound(1, h) == h
    assert forced_cost_bound(3, 2) == 3
    assert forced_cost_bound(4, 2) == 4
    assert forced_cost_bound(6, 2) == 4
    assert forced_cost_bound(7, 2) == 5


def test_forced_cost_bound_is_inverse_of_binomial():
    for h in range(1, 6):
        for q in range(h, 12):
            m = math.comb(q, h)
            assert forced_cost_bound(m, h) == q
            assert forced_cost_bound(m + 1, h) == q + 1


def test_forced_cost_bound_edge_cases():
    assert forced_cost_bound(1, 0) == 0
    with pytest.raises(ValueError):
        forced_cost_bound(2, 0)
    with pytest.raises(ValueError):
        forced_cost_bound(0, 1)


def test_weight_class():
    assert weight_class(3, 2) == ["011", "101", "110"]
    assert weight_class(4, 0) == ["0000"]
    for n in range(6):
        for t in range(n + 1):
            cls = weight_class(n, t)
            assert len(cls) == math.comb(n, t)
            assert cls == sorted(cls)


def test_weight_class_prefix_is_the_sorted_class():
    # the reference: every string with t ones, sorted
    for n in range(9):
        for t in range(n + 1):
            whole = sorted(s for s in map("".join, product("01", repeat=n)) if s.count("1") == t)
            assert weight_class(n, t) == whole
            for m in (0, 1, 2, len(whole) - 1, len(whole), len(whole) + 5):
                assert weight_class(n, t, m) == whole[:m]
    with pytest.raises(ValueError, match="needs m >= 0"):
        weight_class(4, 2, -1)


def test_weight_class_bits_count_only_the_strings_built():
    assert len(weight_class(40, 20, 3)) == 3  # the whole class is 5.5 * 10^12 strings
    with pytest.raises(WorkLimitError, match="weight-class bits 5000040, over the limit 5000000"):
        weight_class(40, 20, 125_001)
    with pytest.raises(WorkLimitError, match="weight-class bits 2\\^64 or more, over the limit"):
        weight_class(10**6, 5 * 10**5)  # refused without computing the binomial


def all_alive_sets(n, t, max_size=None):
    cls = weight_class(n, t)
    top = len(cls) if max_size is None else min(max_size, len(cls))
    for r in range(1, top + 1):
        yield from combinations(cls, r)


def test_canonical_game_meets_bound_exhaustively():
    for n in range(1, 6):
        for t in range(n + 1):
            for alive in all_alive_sets(n, t):
                game = min_game_against(alive)
                assert game.x in alive
                assert dominates(game.x, game.y)
                assert game.score == ones(game.y) == game.forced_ones
                if t >= 1:
                    assert game.score >= forced_cost_bound(len(alive), t)
                else:
                    assert game.score == 0


def test_canonical_game_weight_one_is_tight():
    for n in range(1, 7):
        for alive in all_alive_sets(n, 1):
            assert min_game_against(alive).score == len(alive)


@pytest.mark.parametrize("alive", ["0110", "1"])
def test_game_refuses_a_bare_string(alive):
    with pytest.raises(ValueError, match=f"^alive strings must be a list of 0/1 strings, got '{alive}'$"):
        min_game_against(alive)


def test_game_worked_example():
    game = min_game_against(["110", "101", "011"])
    assert game.score == 3
    assert game.x == "101"


def prefix_tables(n):
    keys = []
    for i in range(n):
        keys.extend("".join(bits) for bits in product("01", repeat=i))
    for values in product((0, 1), repeat=len(keys)):
        yield dict(zip(keys, values))


def test_every_deterministic_strategy_pays_the_bound():
    n = 3
    for table in prefix_tables(n):
        fn = lambda i, prefix: table[prefix]
        for t in range(1, n + 1):
            for alive in all_alive_sets(n, t):
                game = min_game_against(alive, fn)
                bound = forced_cost_bound(len(alive), t)
                assert game.score >= bound
                assert game.x in alive
                if game.score != PLUS_INF:
                    assert dominates(game.x, game.y)


def all_small_alive_sets(n_max):
    # every alive set of every weight class with n <= n_max, as the battery orders them
    for n in range(1, n_max + 1):
        for t in range(n + 1):
            yield from all_alive_sets(n, t, max_size=20)


def script_player(script):
    return lambda i, prefix: int(script[i - 1])


def test_game_transcripts_are_pinned():
    # canonical play on every alive set to n = 4 and every answer script on
    # every alive set to n = 3, digested in that order
    digest, games = hashlib.sha256(), 0
    for alive in all_small_alive_sets(4):
        digest.update(json.dumps(min_game_against(alive).to_json(), sort_keys=True).encode())
        games += 1
    for alive in all_small_alive_sets(3):
        for script in all_bitstrings(len(alive[0])):
            game = min_game_against(alive, script_player(script))
            digest.update(json.dumps(game.to_json(), sort_keys=True).encode())
            games += 1
    assert games == 270
    assert digest.hexdigest() == "8b919a1881e8a56a56fd412865fcea8d2b3c0929a2ca7c1f40bcd632afceeebc"


def test_prefix_tree_scores_equal_one_replay_per_script():
    # the state table shares states across the alive sets of a class; the
    # reference plays every script on its own
    for n in range(1, 5):
        for t, cls, states, alive in _alive_masks(n, 20):
            members = list(_members(cls, alive))
            replays = [min_game_against(members, script_player(s)).score for s in all_bitstrings(n)]
            assert states.scripts(alive, t) == replays, members


def test_state_table_canonical_cost_equals_one_game_per_alive_set():
    # every alive set to n = 6 with at most 5 strings, the lower-bounds workload's range
    sets = 0
    for n in range(1, 7):
        for t, cls, states, alive in _alive_masks(n, 5):
            assert states.canonical(alive, t) == _min_score(*_play(states.cols, alive, t)), (n, alive)
            sets += 1
    assert sets == 33166


def test_answers_other_than_zero_or_one_are_rejected():
    with pytest.raises(ValueError, match=r"round 1: answer 2 is not 0 or 1"):
        min_game_against(["110", "101", "011"], lambda i, p: 2)
    with pytest.raises(ValueError, match=r"round 2: answer -1 is not 0 or 1"):
        min_game_against(["110", "101", "011"], lambda i, p: 1 if i == 1 else -1)


def test_punishment_round():
    game = min_game_against(["110", "101", "011"], lambda i, prefix: 0)
    assert game.score == PLUS_INF
    assert any(r.punished for r in game.rounds)
    assert game.x in ("110", "101", "011")


def test_eager_strategy_only_overpays():
    # answering 1 in an all-zero round costs extra but stays feasible
    game = min_game_against(["0000"], lambda i, prefix: 1)
    assert game.x == "0000"
    assert game.score == 4


def test_all_zero_input_costs_nothing():
    game = min_game_against(["00000"])
    assert game.score == 0
    assert game.y == "00000"


def test_max_game_always_one():
    out = max_no_advice_game([lambda i, prefix: 1], 6)
    assert out.x == "000000"
    assert out.scores == (0,)


def test_max_game_single_zero_is_fatal():
    out = max_no_advice_game([lambda i, prefix: 0 if i == 1 else 1], 4)
    assert out.x[0] == "1"
    assert out.scores == (MINUS_INF,)


def test_max_game_beats_every_single_strategy():
    n = 4
    for table in prefix_tables(n):
        fn = lambda i, prefix: table[prefix]
        out = max_no_advice_game([fn], n)
        assert ones(out.x) <= 1
        assert all(s == MINUS_INF or s == 0 for s in out.scores)
        assert zeros(out.x) >= n - 1


def test_max_game_beats_strategy_pairs():
    n = 3
    tables = list(prefix_tables(n))
    for ta, tb in product(tables[:: 4], repeat=2):
        out = max_no_advice_game(
            [lambda i, p: ta[p], lambda i, p: tb[p]], n
        )
        assert ones(out.x) <= 2
        assert all(s == MINUS_INF or s == 0 for s in out.scores)


def test_max_game_spec_sized_example():
    n = 16
    behaviors = [
        lambda i, p: 1,
        lambda i, p: 0 if i > 8 else 1,
        lambda i, p: int(i % 3 != 0),
        lambda i, p: 0 if p.endswith("1") else 1,
    ]
    out = max_no_advice_game(behaviors, n)
    assert ones(out.x) <= 4
    assert zeros(out.x) >= 8
    assert all(s == MINUS_INF or s == 0 for s in out.scores)


def brute_cover_reference(n, c, objective):
    # smallest cover by raw combination search; only viable for tiny n
    inputs = ["".join(b) for b in product("01", repeat=n)]
    for size in range(1, 2 ** n + 1):
        for family in combinations(inputs, size):
            if all(any(covers(objective, x, y, c) for y in family) for x in inputs):
                return size
    raise AssertionError


def test_exact_strategy_count_frozen_values():
    got = exact_strategy_count(3, 2, "min")
    assert got.count == 4
    assert got.bits == 2
    assert "000" in got.family and "111" in got.family

    got = exact_strategy_count(3, 2, "max")
    assert got.count == 5
    assert got.bits == 3
    assert {"011", "101", "110", "111"} <= set(got.family)

    assert exact_strategy_count(3, 3, "min").count == 2


def test_exact_strategy_count_matches_naive_search():
    for n in (2, 3):
        for c in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for objective in ("min", "max"):
                got = exact_strategy_count(n, c, objective)
                assert got.count == brute_cover_reference(n, c, objective)
                inputs = ["".join(b) for b in product("01", repeat=n)]
                assert all(
                    any(covers(objective, x, y, c) for y in got.family)
                    for x in inputs
                )


def test_milp_cover_repeats_its_family():
    # residual instance: the pairs of {0..5}, covered by its triples
    pairs = list(combinations(range(6), 2))
    masks = [
        sum(1 << pairs.index(p) for p in combinations(triple, 2))
        for triple in combinations(range(6), 3)
    ]
    uncovered = (1 << len(pairs)) - 1
    first = _milp_cover(uncovered, list(range(len(masks))), masks)
    assert _milp_cover(uncovered, list(range(len(masks))), masks) == first
    assert len(first) == 6
    covered = 0
    for j in first:
        covered |= masks[j]
    assert covered == uncovered


def _residuals(monkeypatch, shapes):
    """The (uncovered, active, masks, seed) that exact_strategy_count hands
    to the bounded search for each (n, c, objective), by shape."""
    found = {}

    def record(uncovered, active, masks, seed):
        found[shape] = (uncovered, active, masks, seed)
        return seed  # a cover, so nothing reaches HiGHS here

    with monkeypatch.context() as mp:
        mp.setattr(cover, "_bounded_cover", record)
        for shape in shapes:
            exact_strategy_count(*shape)
    return found


def test_bounded_cover_agrees_with_highs_on_every_residual(monkeypatch):
    shapes = [(n, c, objective) for n in range(1, 8)
              for c in (Fraction(5, 4), Fraction(3, 2), 2, 3) for objective in ("min", "max")]
    past_budget = set()
    for shape, (uncovered, active, masks, seed) in _residuals(monkeypatch, shapes).items():
        got = _bounded_cover(uncovered, active, masks, seed)
        assert _bounded_cover(uncovered, active, masks, seed) == got, shape
        if got is None:
            past_budget.add(shape)
            continue
        assert len(got) == len(_milp_cover(uncovered, active, masks)), shape
        covered = 0
        for j in got:
            covered |= masks[j]
        assert covered & uncovered == uncovered, shape
    assert past_budget == set()


def test_strategy_count_families_and_search_nodes_are_pinned():
    # every n <= 7 count at the four ratios: its family and the nodes the
    # orbital search visits, counted as calls of its recursive `search`
    nodes = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "search" and frame.f_code.co_filename == cover.__file__:
            nodes[shape] += 1

    digest = hashlib.sha256()
    for shape in [(n, c, objective) for n in range(1, 8)
                  for c in (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)) for objective in ("min", "max")]:
        sys.setprofile(count)
        try:
            family = exact_strategy_count(*shape).family
        finally:
            sys.setprofile(None)
        digest.update(repr((shape[0], str(shape[1]), shape[2], family, nodes[shape])).encode())
    assert digest.hexdigest() == "dfa3af22c8d41768956970a7309f73c8df384a9b223f33d0c77e05d981b4ce22"
    assert (sum(nodes.values()), nodes[7, 2, "min"], nodes[7, 2, "max"]) == (10_056, 670, 5_432)


def test_a_cover_past_the_node_budget_goes_to_highs_once(monkeypatch):
    calls = []
    milp = scipy.optimize.milp

    def counted(*args, **kwargs):
        calls.append(1)
        return milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counted)
    monkeypatch.setattr(cover, "SEARCH_NODES", 100)  # (7, 2, min) needs 670
    assert exact_strategy_count(7, 2, "min").count == 12
    assert len(calls) == 1


def test_highs_past_its_node_limit_is_a_work_limit_error(monkeypatch):
    monkeypatch.setattr(cover, "SEARCH_NODES", 100)  # (7, 2, min) goes to HiGHS
    # HiGHS settles that residual in its first node; a limit of one stops it there
    monkeypatch.setattr(cover, "HIGHS_NODES", 1)
    with pytest.raises(WorkLimitError) as info:
        exact_strategy_count(7, 2, "min")
    assert str(info.value) == "set-cover program stopped at the HiGHS node limit 1"


def test_the_search_settles_three_n_8_counts_without_highs(monkeypatch):
    def no_highs(*args):
        raise AssertionError("the residual went to HiGHS")

    monkeypatch.setattr(cover, "_milp_cover", no_highs)
    # the counts HiGHS finds for these shapes
    assert exact_strategy_count(8, Fraction(5, 4), "max").count == 176
    assert exact_strategy_count(8, 3, "min").count == 8
    assert exact_strategy_count(8, 3, "max").count == 18


def test_coverage_masks_are_covers_on_ints():
    for n in range(1, 7):
        strings = list(all_bitstrings(n))
        for c in (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
            for objective in ("min", "max"):
                want = [
                    sum(1 << e for e, x in enumerate(strings) if covers(objective, x, y, c))
                    for y in strings
                ]
                assert _coverage_masks(objective, c, n) == want, (n, c, objective)


def test_exact_strategy_count_identity_ratio():
    for n in (1, 2, 3, 4):
        for objective in ("min", "max"):
            got = exact_strategy_count(n, 1, objective)
            assert got.count == 2 ** n
            assert got.bits == n


def test_exact_strategy_count_single_round():
    for c in (Fraction(2), Fraction(7, 2)):
        assert exact_strategy_count(1, c, "min").count == 2
        assert exact_strategy_count(1, c, "max").count == 2


def test_exact_strategy_count_respects_limit():
    with pytest.raises(WorkLimitError) as info:
        exact_strategy_count(9, 2, "min")
    assert str(info.value) == "strategy-count length 9, over the limit 8"


def test_covers_is_domination_within_the_strict_budget():
    # the paper's two budgets, written out here: floor(c |x|_1) 1s for min,
    # at least ceil(|x|_0 / c) 0s for max
    for c in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
        for n in range(6):
            strings = ["".join(bits) for bits in product("01", repeat=n)]
            for x, y in product(strings, repeat=2):
                want_min = dominates(x, y) and ones(y) <= math.floor(c * ones(x))
                want_max = dominates(x, y) and zeros(y) >= math.ceil(zeros(x) / c)
                assert covers("min", x, y, c) == want_min, (c, x, y)
                assert covers("max", x, y, c) == want_max, (c, x, y)


def test_strategy_count_sandwich():
    for n in range(1, 7):
        for c in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for objective in ("min", "max"):
                lo, hi = strategy_count_bounds(n, c, objective)
                m = exact_strategy_count(n, c, objective).count
                assert lo <= m <= hi
