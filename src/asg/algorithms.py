"""Oracle/algorithm pairs: the advice protocols.

Each pair bundles the oracle (sees the whole input, writes the tape), a
factory for the per-run algorithm state, and a declared advice budget.  The
run engine measures actual bits read; tests hold every pair to
bits_read <= budget(n).

Protocols implemented here:

* trivial_min(c): residue classes mod p = ceil(n/c); the oracle sends p
  self-delimited and the OR of each class; strictly ceil(c)-competitive.
* trivial_max(c): ceil(c) consecutive blocks of at most ceil(n/c) bits; the
  oracle sends the endpoints of a block with the most 0s (leftmost wins)
  and its literal content; the algorithm answers 1 outside it.
* covering_min(c) / covering_max(c): one protocol over core.design_shapes;
  oracle and algorithm build the same design for the input's weight class
  and the oracle sends a block index; interior costs are exact.
* aoc_generic(problem, c): covers any problem where feasible outputs are
  scored by their 1s (min) or 0s (max) and shrinking toward an optimal
  solution preserves feasibility; the oracle feeds the covering protocol an
  optimal solution string and the algorithm never looks at the requests.
* knapsack_two_competitive(): unit-value knapsack, m = |OPT| as advice,
  accept while items are small (<= 2/m) and fit; strictly 2-competitive.
* greedy_matching(): edge arrivals, no advice, accept anything disjoint;
  2-competitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from asg.core import (
    MalformedAdviceError,
    OnlineAlgorithm,
    as_ratio,
    asg_opt,
    ceil_log2,
    check_bits,
    decode_fixed,
    decode_int,
    design_shapes,
    encode_fixed,
    encode_int,
    encoded_length,
    fill_count,
    one_positions,
    weight_ratio,
)
from asg.designs import design_for

__all__ = [
    "AdvicePair",
    "trivial_min",
    "trivial_max",
    "covering_min",
    "covering_max",
    "aoc_generic",
    "knapsack_two_competitive",
    "greedy_matching",
]


@dataclass(frozen=True)
class AdvicePair:
    """An advice oracle with its matching algorithm and declared bit budget.

    The one record that stays a frozen dataclass, not a named tuple: the
    benchmark's tracer (`perfbench/tracing.py`) copies pairs with
    `dataclasses.replace`.  So `dataclasses` loads exactly when this module
    does, and commands that run no protocol never pay for it."""

    oracle: Callable  # full input -> list of tape bits
    algorithm: Callable[[], OnlineAlgorithm]  # fresh state per run
    budget: Callable[[int], int]  # input length -> bit budget


# --- trivial protocols ----------------------------------------------------


class _ResidueClassAlg(OnlineAlgorithm):
    def begin(self, tape):
        self.p = decode_int(tape)
        self.class_bits = tape.read(self.p)

    def answer(self, i, request):
        return self.class_bits[i % self.p]


def trivial_min(c) -> AdvicePair:
    """Residue-class protocol for the minimization game, strictly
    ceil(c)-competitive with ceil(n/c) + O(log n) advice bits."""
    c = as_ratio(c)
    if c < 1:
        raise ValueError("needs c >= 1")
    num, den = c.numerator, c.denominator  # ceil(n / c) is -(-n den // num)

    def oracle(x: str) -> list[int]:
        check_bits(x)
        n = len(x)
        p = -(-n * den // num)
        bits = encode_int(p)
        for j in range(p):
            # OR over the class {x_i : i = j (mod p)}, 1-based i: the 0-based
            # positions j - 1 (mod p)
            bits.append(int("1" in x[(j - 1) % p::p]))
        return bits

    def budget(n: int) -> int:
        p = -(-n * den // num)
        return p + encoded_length(p)

    return AdvicePair(oracle, _ResidueClassAlg, budget)


class _BlockCopyAlg(OnlineAlgorithm):
    def begin(self, tape):
        self.start = decode_int(tape)
        self.end = decode_int(tape)
        self.block = tape.read(max(0, self.end - self.start + 1))

    def answer(self, i, request):
        if self.start <= i <= self.end:
            return self.block[i - self.start]
        return 1


def trivial_max(c) -> AdvicePair:
    """Block-copy protocol for the maximization game, strictly
    ceil(c)-competitive: the best of ceil(c) blocks holds a ceil(c)-th of
    the zeros, and the algorithm reproduces it exactly."""
    c = as_ratio(c)
    if c < 1:
        raise ValueError("needs c >= 1")
    num, den = c.numerator, c.denominator  # ceil(n / c) is -(-n den // num)

    def blocks_of(n: int) -> list[tuple[int, int]]:
        if n == 0:
            return []
        width = -(-n * den // num)
        return [(lo, min(lo + width - 1, n)) for lo in range(1, n + 1, width)]

    def oracle(x: str) -> list[int]:
        check_bits(x)
        n = len(x)
        if n == 0:
            return encode_int(1) + encode_int(0)
        best = max(blocks_of(n), key=lambda b: x.count("0", b[0] - 1, b[1]))
        # max() keeps the first maximum: leftmost block wins ties
        lo, hi = best
        bits = encode_int(lo) + encode_int(hi)
        bits.extend(int(ch) for ch in x[lo - 1 : hi])
        return bits

    def budget(n: int) -> int:
        return -(-n * den // num) + 2 * encoded_length(n) if n else 2 * encoded_length(1)

    return AdvicePair(oracle, _BlockCopyAlg, budget)


# --- covering design protocols --------------------------------------------


def _class_design(objective: str, c: Fraction, n: int, w: int):
    """(t, design) of weight class w at length n: design is None for a
    boundary class, which needs none (see core.design_shapes)."""
    k, t = design_shapes(objective, c, n)[w]
    return t, design_for(n, k, t) if 0 < t and k < n else None


class _CoveringAlg(OnlineAlgorithm):
    def __init__(self, c: Fraction, objective: str):
        self.c, self.objective = c, objective

    def begin(self, tape):
        n = decode_int(tape)
        w = decode_fixed(tape, ceil_log2(n + 1))
        if w > n:
            raise MalformedAdviceError(f"weight field {w} exceeds the length {n}")
        t, design = _class_design(self.objective, self.c, n, w)
        self.in_block = range(1, n + 1) if t else ()  # a boundary class: all 1s or all 0s
        if design is not None:
            index = decode_fixed(tape, ceil_log2(design.size))
            if index >= design.size:
                raise MalformedAdviceError(f"block index {index} outside {design.size} blocks")
            self.in_block = set(design.blocks[index])

    def answer(self, i, request):
        return int(i in self.in_block)


def _covering(c, objective: str) -> AdvicePair:
    """The covering-design protocol for either objective.

    The oracle sends n (self-delimited), the weight w = OPT(x) on a fixed
    ceil(log(n+1)) bits and, when class w needs a design (see
    core.design_shapes), the index of the first block whose characteristic
    vector dominates x; the answer is that block, with exactly k 1s.  The
    boundary classes answer all 1s, or all 0s when t = 0.
    """
    c = as_ratio(c)
    if c <= 1:
        raise ValueError("needs c > 1")

    def oracle(x: str) -> list[int]:
        check_bits(x)
        n = len(x)
        w = asg_opt(objective, x)
        bits = encode_int(n)
        bits.extend(encode_fixed(w, ceil_log2(n + 1)))
        design = _class_design(objective, c, n, w)[1]
        if design is not None:
            support = set(one_positions(x))
            index = next(
                i for i, block in enumerate(design.blocks) if support <= set(block)
            )
            bits.extend(encode_fixed(index, ceil_log2(design.size)))
        return bits

    def budget(n: int) -> int:
        designs = [_class_design(objective, c, n, w)[1] for w in range(n + 1)]
        widths = [ceil_log2(d.size) for d in designs if d is not None]
        return encoded_length(n) + ceil_log2(n + 1) + max(widths, default=0)

    return AdvicePair(oracle, lambda: _CoveringAlg(c, objective), budget)


def covering_min(c) -> AdvicePair:
    """Covering-design protocol for the minimization game: an (n, floor(c t), t)
    design serves t = |x|_1, at cost exactly floor(c t) when 0 < floor(c t) < n."""
    return _covering(c, "min")


def covering_max(c) -> AdvicePair:
    """Covering-design protocol for the maximization game: an (n, n - ceil(u/c),
    n - u) design serves u = |x|_0, leaving exactly ceil(u/c) zeros when 0 < u < n."""
    return _covering(c, "max")


# --- the generic reduction to covering protocols ---------------------------


def aoc_generic(problem, c) -> AdvicePair:
    """Generic strictly c-competitive pair for any asymmetrically scored
    binary-choice problem (see problems.aoc_membership_check).

    The oracle computes the lexicographically smallest optimal solution
    string of the instance and runs the matching covering oracle on it; the
    algorithm is the covering algorithm verbatim and ignores the requests
    entirely.  Domination of the optimal string keeps the output feasible,
    and the covering guarantee bounds its score.
    """
    base = _covering(c, problem.objective)

    def oracle(instance) -> list[int]:
        best = problem.optimal_strings(instance)
        if not best:
            raise ValueError(f"{problem.name}: the instance has no feasible output")
        return base.oracle(best[0])

    return AdvicePair(oracle, base.algorithm, base.budget)


# --- knapsack and matching -------------------------------------------------


class _KnapsackAlg(OnlineAlgorithm):
    def begin(self, tape):
        self.m = decode_int(tape)
        self.load, self.scale = 0, 1  # the accepted weight is load / scale

    def answer(self, i, request):
        # this weight alone, read as a `problems.KnapsackInstance` reads it:
        # the common scale of all weights is future information
        num, den = request.as_integer_ratio() if type(request) in (Fraction, int) else weight_ratio(request)
        if not 0 <= num <= den:
            raise ValueError(f"knapsack weight {request} is outside [0, 1]")
        if self.m == 0 or num * self.m > 2 * den:  # heavier than 2/m
            return 1
        scale = math.lcm(self.scale, den)
        load = self.load * (scale // self.scale) + num * (scale // den)
        if load > scale:
            return 1
        self.load, self.scale = load, scale
        return 0  # accept


def knapsack_two_competitive() -> AdvicePair:
    """Unit-value knapsack with item weights in [0, 1], one item per round.

    Advice is m = |OPT| self-delimited; the algorithm accepts any item of
    weight at most 2/m that still fits.  Accepted rounds answer 0 so the
    score is the count of 0s; an overweight selection is infeasible.
    """

    from asg.problems import knapsack_instance  # here, so other protocols never load problems

    def oracle(instance) -> list[int]:
        instance = knapsack_instance(instance)
        return encode_int(fill_count(instance.loads, instance.scale))

    return AdvicePair(oracle, _KnapsackAlg, lambda n: encoded_length(n))


class _GreedyMatchingAlg(OnlineAlgorithm):
    def begin(self, tape):
        self.tape = tape
        self.used = set()

    def answer(self, i, request):
        u, v = request
        if u in self.used or v in self.used:
            return 1
        self.used.update((u, v))
        return 0  # accept


def greedy_matching() -> AdvicePair:
    """Edge-arrival matching: accept every edge disjoint from the accepted
    ones.  No advice; the result is maximal, hence 2-competitive."""
    return AdvicePair(lambda instance: [], _GreedyMatchingAlg, lambda n: 0)
