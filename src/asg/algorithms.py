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
from functools import lru_cache
from typing import Callable

from asg.core import (
    MalformedAdviceError,
    OnlineAlgorithm,
    as_ratio,
    asg_opt,
    bit_list,
    ceil_log2,
    check_bits,
    decode_fixed,
    decode_int,
    design_shapes,
    encode_fixed,
    encode_int,
    encoded_length,
    fill_count,
    weight_ratio,
)

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
    head = lru_cache(maxsize=None)(encode_int)  # p -> its code, built once per class count

    def oracle(x: str) -> list[int]:
        check_bits(x)
        n = len(x)
        p = -(-n * den // num)
        # OR over the class {x_i : i = j (mod p)}, 1-based i: the 0-based
        # positions j - 1 (mod p)
        return head(p) + [int("1" in x[(j - 1) % p::p]) for j in range(p)]

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
    ends = lru_cache(maxsize=None)(lambda lo, hi: encode_int(lo) + encode_int(hi))  # built once per block

    def oracle(x: str) -> list[int]:
        check_bits(x)
        n = len(x)
        width = -(-n * den // num)  # 0 only at n = 0, whose one block is lo = 1, hi = 0
        lo, most = 1, -1
        for start in range(0, n, width or 1):
            zeros = x.count("0", start, start + width)
            if zeros > most:  # strictly more: the leftmost block wins ties
                lo, most = start + 1, zeros
        hi = min(lo + width - 1, n)
        return ends(lo, hi) + bit_list(x[lo - 1 : hi])

    def budget(n: int) -> int:
        return -(-n * den // num) + 2 * encoded_length(n) if n else 2 * encoded_length(1)

    return AdvicePair(oracle, _BlockCopyAlg, budget)


# --- covering design protocols --------------------------------------------


class _CoveringAlg(OnlineAlgorithm):
    def __init__(self, weight_class: Callable):
        self.weight_class = weight_class

    def begin(self, tape):
        n = decode_int(tape)
        w = decode_fixed(tape, ceil_log2(n + 1))
        if w > n:
            raise MalformedAdviceError(f"weight field {w} exceeds the length {n}")
        masks, width, _ = self.weight_class(n, w)
        index = decode_fixed(tape, width)
        if index >= len(masks):
            raise MalformedAdviceError(f"block index {index} outside {len(masks)} blocks")
        self.mask, self.n = masks[index], n

    def answer(self, i, request):
        # bit n - i of the block's mask, the one the oracle matched x_i against;
        # a round past n reads a bit below the mask, so 0
        return self.mask << i >> self.n & 1


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
    from asg.designs import design_for  # here, so the trivial protocols never load designs

    classes = {}  # (n, w) -> weight_class(n, w), fixed by objective, c and the design limits

    def weight_class(n: int, w: int):
        """(block masks with x_1 the top bit, index width, block codes) of
        weight class w at length n, where a block's code is the whole tape
        that sends it.  A boundary class needs no design (see
        core.design_shapes): its one mask is all of 1..n, or 0 when t = 0,
        and its index takes no bits."""
        if (n, w) not in classes:
            k, t = design_shapes(objective, c, n)[w]
            if 0 < t and k < n:  # a design_for refusal raises here, so nothing is stored
                masks = [sum(1 << n - i for i in block) for block in design_for(n, k, t).blocks]
            else:
                masks = [(1 << n) - 1 if t else 0]
            width = ceil_log2(len(masks))
            head = encode_int(n) + encode_fixed(w, ceil_log2(n + 1))
            classes[n, w] = masks, width, [head + encode_fixed(i, width) for i in range(len(masks))]
        return classes[n, w]

    def oracle(x: str) -> list[int]:
        check_bits(x)
        masks, _, codes = weight_class(len(x), asg_opt(objective, x))
        support = int(x or "0", 2)
        # a fresh copy of the first dominating block's code
        return next(code[:] for mask, code in zip(masks, codes) if support & mask == support)

    def budget(n: int) -> int:
        return encoded_length(n) + ceil_log2(n + 1) + max(weight_class(n, w)[1] for w in range(n + 1))

    return AdvicePair(oracle, lambda: _CoveringAlg(weight_class), budget)


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

    count_code = lru_cache(maxsize=None)(encode_int)  # m -> its code, built once per count

    def oracle(instance) -> list[int]:
        instance = knapsack_instance(instance)
        return count_code(fill_count(instance.loads, instance.scale))[:]

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
