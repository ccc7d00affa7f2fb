"""Lifting problem pairs back into the guessing game.

Each lift takes an oracle/algorithm pair for one of the six target
problems and produces a pair for the matching guessing variant.  Its
oracle has two halves: `lift_instance` builds the hard instance for the
input string from `problems.CONSTRUCTIONS` (none when the string has
too few 1s), and `lift_tape` classifies the problem pair's one
`Problem.run` on it: either every required round was accepted, or the
run strayed in the one way a feasible output allows (rejecting a single
required round, possibly compensated by an extra acceptance).  A short
header - flag or case bits plus self-delimited round indices - records
the classification ahead of the problem pair's own advice, or stands
alone for an input without an instance.  The lifted algorithm replays
the problem algorithm against the reconstructed request sequence and
patches the rounds named in the header, so the output dominates the
input whenever the problem run was feasible, at the same score.

Vertex cover, cycle finding, independent set, and path allocation lift
into the known-history games: the revealed prefix is exactly what is
needed to rebuild their instances one round at a time (cycle finding
additionally learns from the header when the cycle-closing vertex
arrives).  Dominating set and set cover lift into the unknown-history
games: their instances carry no information before the sweep-up round,
which the header pins down, and nothing after it matters.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from asg.algorithms import AdvicePair
from asg.core import (
    MINUS_INF,
    PLUS_INF,
    MalformedAdviceError,
    OnlineAlgorithm,
    Variant,
    check_bits,
    decode_int,
    encode_int,
    encoded_length,
    one_positions,
    ones,
    zero_positions,
)
from asg.problems import CONSTRUCTIONS, PROBLEMS

__all__ = ["ReductionError", "REDUCTIONS", "REDUCTION_VARIANT", "lift_instance", "lift_tape", "lift_to_asg"]


class ReductionError(RuntimeError):
    """The problem pair violated the contract the lift relies on."""


REDUCTION_VARIANT = {
    "vc": Variant.MIN_KNOWN,
    "cf": Variant.MIN_KNOWN,
    "ds": Variant.MIN_UNKNOWN,
    "sc": Variant.MIN_UNKNOWN,
    "is": Variant.MAX_KNOWN,
    "dpa": Variant.MAX_KNOWN,
}

REDUCTIONS = tuple(REDUCTION_VARIANT)


# --- oracle side -------------------------------------------------------------


def _case_header(x: str, y: str) -> list[int]:
    """Case bits and indices for the lifts that patch at most one round in
    each direction, the first 1-round y rejected and the first 0-round it
    accepted: 00 nothing to patch, 01 one round forced to 1 and one to 0,
    10 only the forced 1.  Code 11 stays unused."""
    to_one = [i for i in one_positions(x) if y[i - 1] == "0"]
    to_zero = [i for i in zero_positions(x) if y[i - 1] == "1"]
    if not to_one:
        return [0, 0]
    if to_zero:
        return [0, 1] + encode_int(to_one[0]) + encode_int(to_zero[0])
    return [1, 0] + encode_int(to_one[0])


def _top_header(x: str, y: str) -> list[int]:
    # a cycle exists only through all of the 1-rounds, and every element
    # outside the sweep-up set is covered only by its own request, so the
    # cycle and singleton lifts patch nothing: they name the last 1-round
    return [0] + encode_int(one_positions(x)[-1])


def _few_cycle_ones(x: str) -> list[int]:
    # too few 1s for the cycle instance: name them outright
    support = one_positions(x)
    return [1] + encode_int(len(support)) + [b for i in support for b in encode_int(i)]


def _star_header(x: str, y: str) -> list[int]:
    top = one_positions(x)[-1]
    if y[top - 1] == "1":
        return [0, 0] + encode_int(top)
    # the hub was rejected, so everything else was taken; one of the
    # taken 0-rounds pays for answering 1 at the hub
    stand_in = next(i for i in zero_positions(x) if y[i - 1] == "1")
    return [0, 1] + encode_int(top) + encode_int(stand_in)


def _halving_header(x: str, y: str) -> list[int]:
    # the replay sizes its spans by the input length, sent first
    return encode_int(len(x)) + _case_header(x, y)


# --- algorithm side ----------------------------------------------------------


def _read_case_overrides(tape) -> dict[int, int]:
    first = tape.read_bit()
    second = tape.read_bit()
    if first and second:
        raise MalformedAdviceError("reserved case code")
    force = {}
    if first or second:
        force[decode_int(tape)] = 1
        if second:
            force[decode_int(tape)] = 0
    return force


class _Replay(OnlineAlgorithm):
    """A lifted algorithm: the problem algorithm, started on the tape after
    the lift's header, answers each replayed request with 0 or 1."""

    def __init__(self, inner_factory):
        self._make = inner_factory

    def _start(self, tape):
        self.inner = self._make()
        self.inner.begin(tape)

    def _ask(self, i, request) -> int:
        answer = self.inner.answer(i, request)
        if answer not in (0, 1):
            raise ReductionError(f"problem algorithm answered {answer!r}")
        return answer


class _SplitLift(_Replay):
    """Replay against the clique-over-ones graph grown from the revealed
    prefix, patching the header rounds."""

    def begin(self, tape):
        self.force = _read_case_overrides(tape)
        self.prior_ones: list[int] = []
        self._start(tape)

    def answer(self, i, request):
        return self.force.get(i, self._ask(i, self._rebuild(i, request)))

    def _rebuild(self, i, request):
        """The problem request of round i, from the revealed bit x_{i-1}."""
        if request:
            self.prior_ones.append(i - 1)
        return tuple(self.prior_ones)


class _CycleLift(_Replay):
    """Replay against the back-chain of 1-rounds; the header supplies the
    arrival round of the cycle-closing edge, or the whole answer when the
    input has at most two 1s."""

    def begin(self, tape):
        if tape.read_bit():
            count = decode_int(tape)
            self.support = {decode_int(tape) for _ in range(count)}
            self.inner = None
            return
        self.top = decode_int(tape)
        self.prior_ones: list[int] = []
        self._start(tape)

    def answer(self, i, request):
        if self.inner is None:
            return int(i in self.support)
        if request:
            self.prior_ones.append(i - 1)
        back = []
        if self.prior_ones:
            back.append(self.prior_ones[-1])
            if i == self.top:
                back.append(self.prior_ones[0])
        return self._ask(i, tuple(sorted(set(back))))


class _StarLift(_Replay):
    """Rounds before the hub carry no edges, so the replay needs no
    history at all; the hub round answers 1 and later rounds 0."""

    def begin(self, tape):
        if tape.read_bit():
            self.top = None
            return
        has_stand_in = tape.read_bit()
        self.top = decode_int(tape)
        self.skip = decode_int(tape) if has_stand_in else 0
        self._start(tape)

    def answer(self, i, request):
        if self.top is None or i > self.top:
            return 0
        if i == self.top:
            return 1
        a = self._ask(i, ())
        return 0 if i == self.skip else a


class _SingletonLift(_Replay):
    """Rounds before the sweep-up request are fixed singletons; as with
    the star lift the history is never consulted."""

    def begin(self, tape):
        if tape.read_bit():
            self.top = None
            return
        self.top = decode_int(tape)
        self._start(tape)

    def answer(self, i, request):
        if self.top is None or i > self.top:
            return 0
        if i == self.top:
            return 1
        return self._ask(i, (i,))


class _HalvingLift(_SplitLift):
    """Replay against the halving subpaths; the previous input bit says
    whether the next span restarts where the last one started or ended."""

    def begin(self, tape):
        self.n = decode_int(tape)
        self.u = self.prev_end = 0
        super().begin(tape)

    def _rebuild(self, i, request):
        if i > 1 and request == 0:
            self.u = self.prev_end
        self.prev_end = self.u + (1 << (self.n - i))
        return (self.u, self.prev_end)


# --- assembly ----------------------------------------------------------------


class _Lift(NamedTuple):
    min_ones: int  # the fewest 1s the construction needs
    header: Callable[[str, str], list[int]]  # from the input x and the problem answer y
    few_ones: Callable[[str], list[int]] | None  # the whole tape below min_ones
    replay: type  # the lifted algorithm, built around the problem algorithm
    allowance: Callable[[int], int]  # tape bits beyond the problem advice, by input length


_LIFTS = {
    "vc": _Lift(0, _case_header, None, _SplitLift, lambda n: 2 + 2 * encoded_length(n)),
    "cf": _Lift(
        3,
        _top_header,
        _few_cycle_ones,
        _CycleLift,
        lambda n: 1 + encoded_length(min(n, 2)) + min(n, 2) * encoded_length(n),
    ),
    "ds": _Lift(1, _star_header, lambda x: [1], _StarLift, lambda n: 2 + 2 * encoded_length(n)),
    "sc": _Lift(1, _top_header, lambda x: [1], _SingletonLift, lambda n: 1 + encoded_length(n)),
    "is": _Lift(0, _case_header, None, _SplitLift, lambda n: 2 + 2 * encoded_length(n)),
    "dpa": _Lift(0, _halving_header, None, _HalvingLift, lambda n: 2 + 3 * encoded_length(n)),
}


def _lift(reduction: str) -> _Lift:
    if reduction not in _LIFTS:
        raise ValueError(f"unknown reduction {reduction!r}")
    return _LIFTS[reduction]


def lift_instance(reduction: str, x: str):
    """The hard instance the named lift runs its problem pair on for input
    x, or None when x has fewer 1s than the construction needs."""
    check_bits(x)
    return CONSTRUCTIONS[reduction](x) if ones(x) >= _lift(reduction).min_ones else None


def lift_tape(reduction: str, x: str, run) -> list[int]:
    """The lifted tape for input x: the lift's header from x and the
    problem answer, then the problem advice.  `run` is the `Problem.run`
    result (advice, RunResult) on lift_instance(reduction, x), or None when
    that is None; an infeasible answer breaks the lift's contract."""
    lift = _lift(reduction)
    if run is None:
        return lift.few_ones(x)
    advice, result = run
    if result.score in (PLUS_INF, MINUS_INF):
        raise ReductionError(f"{reduction} pair produced an infeasible output {result.y!r}")
    return lift.header(x, result.y) + advice


def lift_to_asg(problem_pair: AdvicePair, reduction: str) -> AdvicePair:
    """Turn a pair for the named problem into a pair for the matching
    guessing variant (REDUCTION_VARIANT[reduction]).

    The lifted oracle builds lift_instance(reduction, x), runs the problem
    pair on it once with `Problem.run`, and writes lift_tape from that run.
    The lifted pair inherits the problem pair's competitive quality on
    the hard-instance family and reads at most a header more: two case
    bits and up to three self-delimited values bounded by the input
    length.  The problem pair must answer deterministically, read only
    its own advice, and produce feasible outputs on the family;
    violations surface as ReductionError.
    """
    lift = _lift(reduction)
    problem = PROBLEMS[reduction]

    def oracle(x: str) -> list[int]:
        instance = lift_instance(reduction, x)
        return lift_tape(reduction, x, None if instance is None else problem.run(problem_pair, instance))

    return AdvicePair(
        oracle=oracle,
        algorithm=lambda: lift.replay(problem_pair.algorithm),
        budget=lambda n: problem_pair.budget(n) + lift.allowance(n),
    )
