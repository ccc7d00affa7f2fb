"""Protocol tests: frozen tapes and outputs, exhaustive small-n guarantees."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from asg import designs
from asg.algorithms import (
    aoc_generic,
    covering_max,
    covering_min,
    greedy_matching,
    knapsack_two_competitive,
    trivial_max,
    trivial_min,
)
from asg.core import (
    MINUS_INF,
    AdviceTape,
    MalformedAdviceError,
    Variant,
    WorkLimitError,
    all_bitstrings,
    dominates,
    encode_int,
    encoded_length,
    fill_count,
    ones,
    run_all,
    run_asg,
    run_online,
    zeros,
)
from asg.problems import CONSTRUCTIONS, PROBLEMS, knapsack_instance, unique_cycle_graph

RATIOS = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]


def test_trivial_min_worked_example():
    pair = trivial_min(2)
    x = "011010"
    # p = 3; classes {3,6}, {1,4}, {2,5} carry OR bits 1, 0, 1
    assert pair.oracle(x) == encode_int(3) + [1, 0, 1]
    out = run_asg(Variant.MIN_UNKNOWN, pair, x)
    assert out.y == "011011"
    assert out.score == 4
    assert out.bits == 8 == pair.budget(6)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(3)], ids=str)
def test_trivial_protocols_keep_the_ceiling_of_n_over_c(c):
    # the integer ceiling against the Fraction one it replaced: budgets and
    # oracle bits of both trivial protocols, one random x per n
    rng = random.Random(str(c))
    tmin, tmax = trivial_min(c), trivial_max(c)
    for n in range(301):
        p = math.ceil(n / c)
        x = "".join(rng.choice("01") for _ in range(n))
        assert tmin.budget(n) == p + encoded_length(p)
        assert tmin.oracle(x) == encode_int(p) + [int("1" in x[(j - 1) % p :: p]) for j in range(p)]
        assert tmax.budget(n) == (p + 2 * encoded_length(n) if n else 2 * encoded_length(1))
        if n:
            blocks = [(lo, min(lo + p - 1, n)) for lo in range(1, n + 1, p)]
            lo, hi = max(blocks, key=lambda b: x.count("0", b[0] - 1, b[1]))
            assert tmax.oracle(x) == encode_int(lo) + encode_int(hi) + [int(ch) for ch in x[lo - 1 : hi]]


def test_trivial_min_exhaustive():
    for c in [Fraction(1)] + RATIOS:
        pair = trivial_min(c)
        target = math.ceil(c)
        for n in range(8):
            for x in all_bitstrings(n):
                out = run_asg(Variant.MIN_UNKNOWN, pair, x)
                assert dominates(x, out.y)
                assert out.score <= target * ones(x)
                assert out.bits <= pair.budget(n)


def test_trivial_min_oracle_sends_the_or_of_each_residue_class():
    # reference: the class of j holds the 1-based positions i = j (mod p)
    for c in [Fraction(1)] + RATIOS:
        pair = trivial_min(c)
        for n in range(9):
            p = math.ceil(n / c)
            for x in all_bitstrings(n):
                classes = [int(any(x[i - 1] == "1" for i in range(1, n + 1) if i % p == j))
                           for j in range(p)]
                assert pair.oracle(x) == encode_int(p) + classes, (c, x)


def test_trivial_min_history_irrelevant():
    pair = trivial_min(Fraction(5, 2))
    for x in all_bitstrings(6):
        assert run_asg(Variant.MIN_KNOWN, pair, x) == run_asg(Variant.MIN_UNKNOWN, pair, x)


def test_trivial_min_rejects_bad_ratio():
    with pytest.raises(ValueError):
        trivial_min(Fraction(1, 2))


def test_trivial_max_worked_example():
    pair = trivial_max(2)
    x = "011010"
    # blocks (1,3) and (4,6); the second has two 0s and is copied
    assert pair.oracle(x) == encode_int(4) + encode_int(6) + [0, 1, 0]
    out = run_asg(Variant.MAX_UNKNOWN, pair, x)
    assert out.y == "111010"
    assert out.score == 2
    assert out.bits <= pair.budget(6)


def test_trivial_max_leftmost_tie():
    pair = trivial_max(2)
    # both halves hold one 0; the first is chosen
    assert pair.oracle("0101") == encode_int(1) + encode_int(2) + [0, 1]


def test_trivial_max_exhaustive():
    for c in [Fraction(1)] + RATIOS:
        pair = trivial_max(c)
        target = math.ceil(c)
        for n in range(8):
            for x in all_bitstrings(n):
                out = run_asg(Variant.MAX_UNKNOWN, pair, x)
                assert dominates(x, out.y)
                assert zeros(x) <= target * out.score
                assert out.bits <= pair.budget(n)


def test_covering_min_weight_two_cost_is_exact():
    pair = covering_min(2)
    for x in all_bitstrings(6):
        if ones(x) != 2:
            continue
        out = run_asg(Variant.MIN_UNKNOWN, pair, x)
        assert dominates(x, out.y)
        assert out.score == 4  # floor(2 * 2), served by a C(6,4,2) design
        # encode(6) + weight on 3 bits + index into 3 blocks on 2 bits
        assert out.bits == encoded_length(6) + 3 + 2


def test_covering_min_refuses_a_zero_denominator_in_one_line():
    with pytest.raises(ValueError, match=r"^'1/0' is not a rational$"):
        covering_min("1/0")


def test_covering_min_boundary_cases():
    pair = covering_min(2)
    assert run_asg(Variant.MIN_UNKNOWN, pair, "000000").y == "000000"
    assert run_asg(Variant.MIN_UNKNOWN, pair, "011011").y == "111111"


def test_covering_min_exhaustive():
    for c in RATIOS:
        pair = covering_min(c)
        for n in range(1, 7):
            for x in all_bitstrings(n):
                out = run_asg(Variant.MIN_UNKNOWN, pair, x)
                t = ones(x)
                assert dominates(x, out.y)
                assert out.score <= c * t or t == 0 and out.score == 0
                if 0 < math.floor(c * t) < n:
                    assert out.score == math.floor(c * t)
                assert out.bits <= pair.budget(n)


def test_covering_max_interior_profit_is_exact():
    for c in RATIOS:
        pair = covering_max(c)
        for n in range(1, 7):
            for x in all_bitstrings(n):
                out = run_asg(Variant.MAX_UNKNOWN, pair, x)
                u = zeros(x)
                assert dominates(x, out.y)
                if 0 < u < n:
                    assert out.score == math.ceil(u / c)
                else:
                    assert out.score == u
                assert u <= c * out.score or u == 0
                assert out.bits <= pair.budget(n)


def test_covering_rejects_c_at_most_one():
    with pytest.raises(ValueError):
        covering_min(1)
    with pytest.raises(ValueError):
        covering_max(Fraction(9, 10))


# sha256 over every covering tape, output and bit count for n <= 7 and every
# budget for n <= 8: the oracle must keep sending the same block index into
# the same design (a witness change in `asg.designs` moves it)
COVERING_TAPE_DIGEST = "f0c63471738cd715e6d85ea70f3d96617e97be5d33e2e66d10673d032dc4a071"


def test_covering_tapes_match_the_golden_digest():
    digest = hashlib.sha256()
    for factory, variant in ((covering_min, Variant.MIN_UNKNOWN), (covering_max, Variant.MAX_UNKNOWN)):
        for c in (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
            pair = factory(c)
            for n in range(8):
                for x in all_bitstrings(n):
                    out = run_asg(variant, pair, x)
                    tape = "".join(map(str, pair.oracle(x)))
                    digest.update(f"{factory.__name__} {c} {x} {tape} {out.y} {out.bits}\n".encode())
            for n in range(9):
                digest.update(f"{factory.__name__} {c} budget {n} {pair.budget(n)}\n".encode())
    assert digest.hexdigest() == COVERING_TAPE_DIGEST


# sha256 over the tape, output, score and bits read of every run of the trivial
# protocols for |x| <= 10 and of the covering protocols for |x| <= 8, taken
# before the oracles moved from per-bit loops to slices, counts and masks
TRIVIAL_RUN_DIGEST = "0f6619d8b3f2678e0b99dead5fa10e7aa8483fd8e4fe881a49d08674c06eb53a"
COVERING_RUN_DIGEST = "cb15404f7fb91d6090334381640030f870455cf8b207361036bb47f73dbbc19d"


def _run_digest(factories, ratios, n_max):
    digest = hashlib.sha256()
    for factory, variant in factories:
        for c in ratios:
            pair = factory(c)
            for n in range(n_max + 1):
                for x in all_bitstrings(n):
                    tape = "".join(map(str, pair.oracle(x)))
                    out = run_asg(variant, pair, x)
                    digest.update(f"{factory.__name__} {c} {x} {tape} {out.y} {out.score} {out.bits}\n".encode())
    return digest.hexdigest()


def test_trivial_runs_match_the_golden_digest():
    factories = ((trivial_min, Variant.MIN_UNKNOWN), (trivial_max, Variant.MAX_UNKNOWN))
    ratios = (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 2))
    assert _run_digest(factories, ratios, 10) == TRIVIAL_RUN_DIGEST


def test_covering_runs_match_the_golden_digest():
    factories = ((covering_min, Variant.MIN_UNKNOWN), (covering_max, Variant.MAX_UNKNOWN))
    assert _run_digest(factories, (Fraction(3, 2), Fraction(2), Fraction(3)), 8) == COVERING_RUN_DIGEST


RUNNER_CASES = [
    ((trivial_min, trivial_max), (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 2)), 10),
    ((covering_min, covering_max), (Fraction(3, 2), Fraction(2), Fraction(3)), 8),
]


@pytest.mark.parametrize("history", ["unknown", "known"])
@pytest.mark.parametrize("factories, ratios, n_max", RUNNER_CASES, ids=["trivial", "covering"])
def test_the_runner_matches_run_asg_on_every_input(factories, ratios, n_max, history):
    for factory in factories:
        variant = Variant((factory.__name__.split("_")[1], history))
        for c in ratios:
            pair = factory(c)
            for n in range(n_max + 1):
                runs = list(run_all(variant, pair, n))
                assert runs == [(x, run_asg(variant, pair, x)) for x in all_bitstrings(n)]


def test_covering_rejects_impossible_tape_fields():
    # n = 5 leaves 3 bits for the weight, so 6 and 7 fit the field but no input
    for factory in (covering_min, covering_max):
        for w in (6, 7):
            tape = AdviceTape(encode_int(5) + [(w >> s) & 1 for s in (2, 1, 0)])
            with pytest.raises(MalformedAdviceError, match="weight field"):
                run_online(factory(2).algorithm(), tape, [None] * 5)
    # weight 2 at n = 6, c = 2 reads a 2-bit index into the 3-block C(6,4,2)
    tape = AdviceTape(encode_int(6) + [0, 1, 0] + [1, 1])
    with pytest.raises(MalformedAdviceError, match="block index 3"):
        run_online(covering_min(2).algorithm(), tape, [None] * 6)


@pytest.mark.parametrize("factory, variant", [(covering_min, Variant.MIN_UNKNOWN),
                                              (covering_max, Variant.MAX_UNKNOWN)])
def test_a_fresh_pair_decodes_another_pairs_tapes(factory, variant):
    # oracle and algorithm settle each design on their own: with the design
    # memos emptied between them, the reader builds every design afresh
    for c in (Fraction(3, 2), Fraction(2), Fraction(3)):
        writer = factory(c)
        runs = {x: (writer.oracle(x), run_asg(variant, writer, x)) for n in range(9) for x in all_bitstrings(n)}
        designs._ladder.cache_clear()
        reader = factory(c)
        for x, (bits, out) in runs.items():
            tape = AdviceTape(bits)
            assert (run_online(reader.algorithm(), tape, [None] * len(x)), tape.bits_read) == (out.y, out.bits)


def test_a_refused_class_raises_on_every_call_and_is_not_stored(monkeypatch):
    # at n = 6, c = 2, weight 1 needs C(6,2,1) and weight 2 C(6,4,2): 15
    # blocks and 15 t-subsets pass the guard of 100,000 but not one of 10
    pair = covering_min(2)
    tape = pair.oracle("110000")
    monkeypatch.setattr(designs, "DEFAULT_TSUBSET_LIMIT", 10)
    refused = covering_min(2)
    for _ in range(2):
        for call in (lambda: refused.oracle("110000"), lambda: refused.budget(6),
                     lambda: run_online(refused.algorithm(), AdviceTape(tape), [None] * 6)):
            with pytest.raises(WorkLimitError, match=r"^\(6,[24],[12]\) design \S+ 15, over the limit 10$"):
                call()
    monkeypatch.undo()
    assert refused.oracle("110000") == tape
    assert refused.budget(6) == pair.budget(6)
    assert run_asg(Variant.MIN_UNKNOWN, refused, "110000") == run_asg(Variant.MIN_UNKNOWN, pair, "110000")


class _SelfProblem:
    """The guessing game itself, dressed up in the problem interface."""

    def __init__(self, objective):
        self.objective = objective

    def optimal_strings(self, instance):
        return [instance]


def test_aoc_generic_matches_covering_pair():
    for objective, base in [("min", covering_min(2)), ("max", covering_max(2))]:
        pair = aoc_generic(_SelfProblem(objective), 2)
        for x in all_bitstrings(5):
            assert pair.oracle(x) == base.oracle(x)
        variant = Variant.MIN_UNKNOWN if objective == "min" else Variant.MAX_UNKNOWN
        out = run_asg(variant, pair, "010010")
        assert dominates("010010", out.y)


def test_aoc_generic_refuses_an_instance_with_no_feasible_output():
    # with only two 1s the construction closes no cycle, so no answer to
    # cycle finding is feasible
    instance = unique_cycle_graph("0110")
    assert PROBLEMS["cf"].optimal_strings(instance) == []
    with pytest.raises(ValueError, match="^cf: the instance has no feasible output$"):
        aoc_generic(PROBLEMS["cf"], 2).oracle(instance)


@pytest.mark.parametrize("make, x, other, tapes", [
    (lambda: trivial_min(2), "0110", "0100", ("1101011", "1101010")),
    (lambda: trivial_max(2), "0110", "0011", ("1011101001", "1011101000")),
    (lambda: covering_min(2), "0110", "1000", ("1110100010", "11101000010")),
    (lambda: covering_max(2), "0110", "1000", ("111010001000", "11101000110")),
    (knapsack_two_competitive, [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4)] * 3,
     ("11010", "11011")),
    (lambda: aoc_generic(PROBLEMS["vc"], 2), CONSTRUCTIONS["vc"]("0110"), CONSTRUCTIONS["vc"]("1000"),
     ("1110100010", "11101000010")),
], ids=["trivial-min", "trivial-max", "covering-min", "covering-max", "knapsack", "aoc-generic"])
def test_an_oracle_output_is_the_callers_own_list(make, x, other, tapes):
    # a pair keeps the codes that do not depend on the input; a caller that
    # changes what it was handed must not change them
    pair = make()
    handed = pair.oracle(x)
    handed[:] = [1 - bit for bit in handed]
    handed.append(1)
    assert [pair.oracle(x), pair.oracle(other)] == [list(map(int, tape)) for tape in tapes]


def _knapsack_opt(weights):
    best = 0
    for r in range(len(weights), 0, -1):
        if any(sum(sub) <= 1 for sub in combinations(weights, r)):
            best = r
            break
    return best


def _run_knapsack(pair, weights):
    tape = AdviceTape(pair.oracle(weights))
    y = run_online(pair.algorithm(), tape, weights)
    taken = [w for w, bit in zip(weights, y) if bit == "0"]
    assert sum(taken) <= 1
    return len(taken), tape.bits_read


def test_knapsack_worked_example():
    pair = knapsack_two_competitive()
    weights = [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)]
    assert pair.oracle(weights) == encode_int(2)
    profit, bits = _run_knapsack(pair, weights)
    # the large item is taken first and blocks both profitable ones
    assert profit == 1
    assert _knapsack_opt(weights) == 2
    assert bits <= pair.budget(3)


def test_knapsack_two_competitive_exhaustive():
    pair = knapsack_two_competitive()
    grid = [Fraction(k, 8) for k in range(9)]
    for n in range(1, 5):
        for weights in product(grid, repeat=n):
            profit, bits = _run_knapsack(pair, list(weights))
            assert _knapsack_opt(weights) <= 2 * profit
            assert bits <= pair.budget(n)


def test_knapsack_empty_input():
    pair = knapsack_two_competitive()
    assert pair.oracle([]) == encode_int(0)
    profit, bits = _run_knapsack(pair, [])
    assert profit == 0


def test_matching_path_witness():
    pair = greedy_matching()
    edges = [(2, 3), (1, 2), (3, 4)]
    y = run_online(pair.algorithm(), AdviceTape(pair.oracle(edges)), edges)
    assert y == "011"  # the middle edge blocks the optimal pair


def test_matching_stays_disjoint_and_maximal():
    pair = greedy_matching()
    vertices = range(1, 6)
    edges = list(combinations(vertices, 2))
    for keep in range(1 << len(edges)):
        graph = [e for j, e in enumerate(edges) if keep >> j & 1]
        if len(graph) > 5:
            continue
        y = run_online(pair.algorithm(), AdviceTape([]), graph)
        taken = [e for e, bit in zip(graph, y) if bit == "0"]
        used = [v for e in taken for v in e]
        assert len(used) == len(set(used))
        for e, bit in zip(graph, y):
            if bit == "1":
                assert any(v in used for v in e)


KNAPSACK_POOL = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), Fraction(2, 5), 1, 0.1, 0.3, 0.7, 0.9]


def _fits(weights) -> bool:
    return sum((Fraction(w) for w in weights), Fraction(0)) <= 1


def _loads(weights):
    instance = knapsack_instance(weights)
    return instance.loads, instance.scale


def _fill_count(weights) -> int:
    return max(r for r in range(len(weights) + 1) if any(_fits(s) for s in combinations(weights, r)))


def test_knapsack_loads_are_exact():
    ks = PROBLEMS["ks"]
    pair = knapsack_two_competitive()
    instances = [w for n in range(4) for w in product(KNAPSACK_POOL, repeat=n)]
    instances += [(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)), (0.1, 0.9), (0.3, 0.7)]
    for weights in instances:
        for y in all_bitstrings(len(weights)):
            taken = [w for w, bit in zip(weights, y) if bit == "0"]
            assert ks.score(weights, y) == (len(taken) if _fits(taken) else MINUS_INF)
        m = _fill_count(weights)
        assert pair.oracle(weights) == encode_int(m)
        assert fill_count(*_loads(weights)) == m
    # a load of exactly 1 fits; the floats' exact sums sit just off 1
    assert ks.score((1,), "0") == 1
    assert ks.score((Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)), "000") == 3
    assert ks.score((0.1, 0.9), "00") == MINUS_INF
    assert ks.score((0.3, 0.7), "00") == 2
    assert fill_count(*_loads((0.1, 0.9))) == 1
    assert fill_count(*_loads((0.3, 0.7))) == 2


def _two_over_m_rule(weights, m) -> str:
    """The knapsack algorithm's rule on Fraction sums: accept a weight of at
    most 2/m that still fits; floats count at their exact values."""
    load, y = Fraction(0), ""
    for w in map(Fraction, weights):
        take = m > 0 and w <= Fraction(2, m) and load + w <= 1
        load += w if take else 0
        y += "0" if take else "1"
    return y


def test_knapsack_algorithm_matches_the_fraction_rule():
    pair = knapsack_two_competitive()
    grid = [Fraction(k, 8) for k in range(9)]
    instances = [w for n in range(4) for w in product(KNAPSACK_POOL, repeat=n)]
    instances += [w for n in range(5) for w in product(grid, repeat=n)]
    for weights in instances:
        for m in range(len(weights) + 1):
            y = run_online(pair.algorithm(), AdviceTape(encode_int(m)), weights)
            assert y == _two_over_m_rule(weights, m), (weights, m)


@pytest.mark.parametrize(
    "bad", [None, "1/2", float("nan"), float("inf"), -1, 2, Fraction(3, 2), 1.5]
)
def test_knapsack_rejects_bad_weights(bad):
    ks = PROBLEMS["ks"]
    pair = knapsack_two_competitive()
    weights = (Fraction(1, 2), bad)
    calls = [
        lambda: ks.score(weights, "00"),
        lambda: ks.opt(weights),
        lambda: pair.oracle(weights),
        lambda: run_online(pair.algorithm(), AdviceTape(encode_int(0)), weights),
        lambda: run_online(pair.algorithm(), AdviceTape(encode_int(2)), weights),
    ]
    for call in calls:
        with pytest.raises((TypeError, ValueError)) as info:
            call()
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("weight, fits", [(0, 2), (Fraction(1, 8), 2), (1, 1)])
def test_knapsack_accepts_the_ends_of_the_unit_interval(weight, fits):
    ks = PROBLEMS["ks"]
    pair = knapsack_two_competitive()
    weights = (Fraction(1, 2), weight)
    assert ks.score(weights, "00") == (2 if fits == 2 else MINUS_INF)
    assert ks.opt(weights) == fits
    assert pair.oracle(weights) == encode_int(fits)
    y = run_online(pair.algorithm(), AdviceTape(encode_int(fits)), weights)
    assert y == "0" * fits + "1" * (2 - fits)
