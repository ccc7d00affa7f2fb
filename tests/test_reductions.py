"""Lifts from problem pairs to guessing pairs: round trips, case
mechanics, request reconstruction, and contract violations."""

import hashlib
from fractions import Fraction

import pytest

from asg.algorithms import AdvicePair, aoc_generic
from asg.core import (
    AdviceTape,
    MalformedAdviceError,
    OnlineAlgorithm,
    Variant,
    all_bitstrings,
    asg_opt,
    competitive_ok,
    decode_int,
    encode_int,
    encoded_length,
    one_positions,
    ones,
    run_asg,
    run_online,
)
from asg.problems import CONSTRUCTIONS, PROBLEMS
from asg.reductions import (
    REDUCTION_VARIANT,
    REDUCTIONS,
    ReductionError,
    lift_to_asg,
)

RATIOS = [Fraction(5, 4), Fraction(3, 2), Fraction(2)]


def replay_pair(output: str) -> AdvicePair:
    """A problem pair that plays a fixed answer string from its advice."""

    class _Replay(OnlineAlgorithm):
        def begin(self, tape):
            n = decode_int(tape)
            self.bits = tape.read(n)

        def answer(self, i, request):
            return self.bits[i - 1]

    return AdvicePair(
        lambda instance: encode_int(len(output)) + [int(ch) for ch in output],
        _Replay,
        lambda n: encoded_length(n) + n,
    )


class _Recorder(OnlineAlgorithm):
    """Accepts-nothing algorithm that logs the requests it is shown."""

    def __init__(self, log):
        self.seen = []
        log.append(self.seen)

    def begin(self, tape):
        pass

    def answer(self, i, request):
        self.seen.append(request)
        return 1


def recorder_pair(log) -> AdvicePair:
    return AdvicePair(lambda instance: [], lambda: _Recorder(log), lambda n: 0)


def lifted_run(pair, name, x):
    return run_asg(REDUCTION_VARIANT[name], lift_to_asg(pair, name), x)


# --- round trips -------------------------------------------------------------


@pytest.mark.parametrize("name", REDUCTIONS)
def test_round_trip_is_strictly_competitive(name):
    problem = PROBLEMS[name]
    variant = REDUCTION_VARIANT[name]
    for c in RATIOS:
        pair = aoc_generic(problem, c)
        lifted = lift_to_asg(pair, name)
        for n in range(0, 7):
            budget = lifted.budget(n)
            for x in all_bitstrings(n):
                res = run_asg(variant, lifted, x)
                opt = asg_opt(variant.objective, x)
                assert competitive_ok(variant.objective, res.score, opt, c), (c, x)
                assert res.bits <= budget


@pytest.mark.parametrize("name", REDUCTIONS)
def test_header_stays_within_the_logarithmic_allowance(name):
    problem = PROBLEMS[name]
    build = CONSTRUCTIONS[name]
    pair = aoc_generic(problem, Fraction(3, 2))
    lifted = lift_to_asg(pair, name)
    for n in range(0, 7):
        allowance = lifted.budget(n) - pair.budget(n)  # this lift's own header allowance
        assert allowance <= 2 + 3 * encoded_length(n)  # two case bits and three indices at most
        for x in all_bitstrings(n):
            written = lifted.oracle(x)
            degenerate = (name in ("ds", "sc") and ones(x) == 0) or (
                name == "cf" and ones(x) <= 2
            )
            phi = [] if degenerate else pair.oracle(build(x))
            assert len(written) - len(phi) <= allowance, x


# --- request reconstruction --------------------------------------------------


@pytest.mark.parametrize("name", ["vc", "is", "cf", "dpa"])
def test_known_history_lifts_rebuild_the_instance(name):
    problem = PROBLEMS[name]
    build = CONSTRUCTIONS[name]
    for n in range(1, 8):
        for x in all_bitstrings(n):
            if name == "cf" and ones(x) < 3:
                continue
            log = []
            lifted_run(recorder_pair(log), name, x)
            truth = problem.requests(build(x))
            assert log[0] == truth  # the oracle-side run on the real instance
            assert log[1] == truth  # the replay, fed reconstructed requests


@pytest.mark.parametrize("name", ["ds", "sc"])
def test_unknown_history_lifts_replay_the_prefix(name):
    for x in ["1", "0110", "10101", "0001", "111"]:
        log = []
        lifted_run(recorder_pair(log), name, x)
        top = one_positions(x)[-1]
        truth = PROBLEMS[name].requests(CONSTRUCTIONS[name](x))
        assert log[1] == truth[: top - 1]


@pytest.mark.parametrize("name", ["ds", "sc"])
def test_unknown_history_lifts_ignore_revealed_answers(name):
    pair = aoc_generic(PROBLEMS[name], Fraction(2))
    lifted = lift_to_asg(pair, name)
    for x in ["0110", "10101", "111", "0001", "0000"]:
        bits = lifted.oracle(x)
        n = len(x)
        clean = run_online(lifted.algorithm(), AdviceTape(bits), [None] * n)
        junk = run_online(lifted.algorithm(), AdviceTape(bits), list(range(n)))
        assert clean == junk


# --- case mechanics ----------------------------------------------------------


def test_cover_lift_copies_a_clean_run():
    res = lifted_run(replay_pair("0111"), "vc", "0011")
    assert res.y == "0111"  # nothing required was dropped: verbatim copy


def test_cover_lift_swaps_the_dropped_round_for_an_extra():
    res = lifted_run(replay_pair("0111"), "vc", "1010")
    assert res.y == "1011"
    assert res.score == 3  # same size as the simulated cover


def test_cover_lift_restores_a_pure_drop_exactly():
    # rejecting one required round and nothing else reproduces the input
    res = lifted_run(replay_pair("0111"), "vc", "1111")
    assert res.y == "1111"
    assert res.score == 4


def test_independent_set_lift_restores_a_pure_overreach_exactly():
    res = lifted_run(replay_pair("0100"), "is", "0101")
    assert res.y == "0101"
    assert res.score == 2


def test_independent_set_lift_swaps_overreach_for_a_drop():
    res = lifted_run(replay_pair("1100"), "is", "0101")
    assert res.y == "0101"
    assert res.score == 2


def test_cycle_lift_short_circuits_sparse_inputs():
    lifted = lift_to_asg(replay_pair("0000"), "cf")
    for x in ["0110", "0000", "1000", "01"]:
        res = run_asg(Variant.MIN_KNOWN, lifted, x)
        assert res.y == x  # the header alone reproduces the input
    # flag + count + two indices, all self-delimited: 1 + 5 + 5 + 5
    assert run_asg(Variant.MIN_KNOWN, lifted, "0110").bits == 16


def test_cycle_lift_copies_the_simulated_answers():
    res = lifted_run(replay_pair("10101"), "cf", "10101")
    assert res.y == "10101"
    assert res.score == 3


def test_domination_lift_case_split():
    # hub accepted: copy up to the hub, 1 there, 0 after
    res = lifted_run(replay_pair("1111"), "ds", "0110")
    assert res.y == "1110"
    # hub rejected: a taken 0-round is given up to pay for the hub
    res = lifted_run(replay_pair("1101"), "ds", "0110")
    assert res.y == "0110"
    assert res.score == 2


def test_domination_lift_all_zero_flag():
    res = lifted_run(replay_pair("0000"), "ds", "0000")
    assert res.y == "0000"
    assert res.bits == 1


def test_set_cover_lift_copies_and_truncates():
    res = lifted_run(replay_pair("1111"), "sc", "0100")
    assert res.y == "1100"


def test_paths_lift_case_split():
    res = lifted_run(replay_pair("001"), "dpa", "010")
    assert res.y == "010"  # accepted bad round swapped for the dropped good
    res = lifted_run(replay_pair("000"), "dpa", "001")
    assert res.y == "001"  # pure overreach restored exactly
    assert res.score == 2


# --- contract violations -----------------------------------------------------


def test_infeasible_problem_runs_are_rejected():
    with pytest.raises(ReductionError):
        lift_to_asg(replay_pair("0000"), "vc").oracle("1010")
    with pytest.raises(ReductionError):
        lift_to_asg(replay_pair("0000"), "ds").oracle("0110")
    with pytest.raises(ReductionError):
        lift_to_asg(replay_pair("1011"), "sc").oracle("0100")
    with pytest.raises(ReductionError):
        lift_to_asg(replay_pair("000"), "dpa").oracle("110")
    with pytest.raises(ReductionError):
        lift_to_asg(replay_pair("0011"), "is").oracle("1100")


def test_non_binary_inner_answers_are_rejected():
    built = []

    class _Flaky(OnlineAlgorithm):
        def __init__(self):
            self.bad = bool(built)
            built.append(1)

        def begin(self, tape):
            pass

        def answer(self, i, request):
            return 2 if self.bad else 1

    pair = AdvicePair(lambda instance: [], lambda: _Flaky(), lambda n: 0)
    lifted = lift_to_asg(pair, "vc")
    with pytest.raises(ReductionError):
        run_asg(Variant.MIN_KNOWN, lifted, "11")


def test_reserved_case_code_is_malformed():
    from asg.reductions import _SplitLift

    alg = _SplitLift(lambda: None)
    with pytest.raises(MalformedAdviceError):
        alg.begin(AdviceTape([1, 1]))


def test_unknown_reduction_name():
    with pytest.raises(ValueError):
        lift_to_asg(replay_pair("0"), "om")


def test_variant_table():
    assert REDUCTION_VARIANT["vc"] is Variant.MIN_KNOWN
    assert REDUCTION_VARIANT["sc"] is Variant.MIN_UNKNOWN
    assert REDUCTION_VARIANT["dpa"] is Variant.MAX_KNOWN
    assert set(REDUCTIONS) == set(CONSTRUCTIONS)


def test_lift_runs_are_pinned():
    # tape, answer and bits read of every lifted run to n = 6, as the
    # per-problem tape builders and replay classes gave them
    digest = hashlib.sha256()
    for name in REDUCTIONS:
        for c in RATIOS:
            lifted = lift_to_asg(aoc_generic(PROBLEMS[name], c), name)
            for x in (x for n in range(7) for x in all_bitstrings(n)):
                res = run_asg(REDUCTION_VARIANT[name], lifted, x)
                tape = "".join(map(str, lifted.oracle(x)))
                digest.update(f"{name} {c} {x} {tape} {res.y} {res.bits}\n".encode())
    assert digest.hexdigest() == (
        "fa771eef57396b510c091578bfdd495bfefaa634a05682290ed618f327557990"
    )
