"""Lower-bound machinery: adversary games and exact tiny-n advice counts.

The minimization adversary plays the known-history game against an
algorithm whose advice is already fixed, keeping a set of alive inputs and
revealing past bits so that the algorithm is forced to answer 1 in at least
forced_cost_bound(m, h) rounds.  The maximization adversary defeats any
fixed finite collection of advice-free strategies outright.

For tiny n, exact_strategy_count computes the true minimum number of fixed
outputs any strictly competitive oblivious algorithm needs, by exact set
cover over all 2^n inputs; strategy_count_bounds sandwiches that number
with covering-design sizes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from asg.core import (
    MINUS_INF,
    Score,
    all_bitstrings,
    as_ratio,
    asg_opt,
    asg_score,
    ceil_log2,
    check_bits,
    design_shapes,
    dominates,
    ones,
    score_to_json,
)
from asg.designs import exact_cover_number

__all__ = [
    "forced_cost_bound",
    "weight_class",
    "GameRound",
    "GameTranscript",
    "min_game_against",
    "MaxGameOutcome",
    "max_no_advice_game",
    "standard_max_behaviors",
    "covers",
    "StrategyCover",
    "exact_strategy_count",
    "strategy_count_bounds",
    "DEFAULT_BRUTE_LIMIT",
]

DEFAULT_BRUTE_LIMIT = int(os.environ.get("ASG_BRUTE_LIMIT", "8"))


def forced_cost_bound(m: int, h: int) -> int:
    """Smallest q with m <= binom(q, h): the number of 1-answers the
    adversary can force from any algorithm when m equal-weight inputs are
    alive with h ones still unrevealed.  Equals m at h=1 and h at m=1."""
    if m < 1 or h < 0:
        raise ValueError("needs m >= 1 and h >= 0")
    if h == 0:
        if m > 1:
            raise ValueError("distinct strings cannot share an all-zero tail")
        return 0
    q = h
    while math.comb(q, h) < m:
        q += 1
    return q


def weight_class(n: int, t: int) -> list[str]:
    """All strings of length n with exactly t ones, lexicographically."""
    if not 0 <= t <= n:
        raise ValueError("needs 0 <= t <= n")
    out = []
    for support in combinations(range(1, n + 1), t):
        out.append("".join("1" if i in support else "0" for i in range(1, n + 1)))
    return sorted(out)


@dataclass(frozen=True)
class GameRound:
    index: int
    alive: int  # strings alive entering the round
    answer: int
    revealed: int
    forced: bool  # some alive string had a 1 here
    punished: bool  # the algorithm answered 0 in a forced round


@dataclass(frozen=True)
class GameTranscript:
    x: str  # the input the adversary committed to
    y: str  # the algorithm's answers
    score: Score
    rounds: tuple[GameRound, ...] = field(repr=False)

    @property
    def forced_ones(self) -> int:
        return sum(1 for r in self.rounds if r.forced)

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "score": score_to_json(self.score),
            "forced_ones": self.forced_ones,
            "rounds": [
                {
                    "index": r.index,
                    "alive": r.alive,
                    "answer": r.answer,
                    "revealed": r.revealed,
                    "forced": r.forced,
                    "punished": r.punished,
                }
                for r in self.rounds
            ],
        }


def _validate_alive(strings: Sequence[str]) -> list[str]:
    alive = sorted(set(strings))
    if not alive:
        raise ValueError("needs at least one alive string")
    n = len(alive[0])
    for s in alive:
        check_bits(s)
        if len(s) != n:
            raise ValueError("alive strings must share one length")
    if len({ones(s) for s in alive}) != 1:
        raise ValueError("alive strings must share one weight")
    return alive


def min_game_against(
    strings: Sequence[str], algorithm: Callable[[int, str], int] | None = None
) -> GameTranscript:
    """Play the known-history minimization game on an alive set.

    The algorithm is a function (round, revealed prefix) -> answer; None
    plays the canonical best response: 1 whenever some alive string has a 1
    in the current round, 0 otherwise.  Rounds where every alive string has
    a 0 are revealed as 0 and cost nothing to the canonical algorithm.  In
    the other rounds the adversary reveals 1 exactly when
    forced_cost_bound(m1, h-1) + 1 >= forced_cost_bound(m, h), which keeps
    the final cost at forced_cost_bound(m, h) or more; answering 0 in such
    a round is punished by committing to an alive string with a 1 there,
    making the output infeasible.  The revealed string is always a member
    of the original set.
    """
    alive = _validate_alive(strings)
    n = len(alive[0])
    revealed: list[str] = []
    answers: list[str] = []
    rounds: list[GameRound] = []
    target: str | None = None  # set once the adversary commits early

    for i in range(1, n + 1):
        prefix = "".join(revealed)
        if target is not None:
            a = 1 if algorithm is None else algorithm(i, prefix)
            bit = int(target[i - 1])
            rounds.append(GameRound(i, 1, a, bit, bit == 1, False))
            revealed.append(str(bit))
            answers.append(str(a))
            continue

        with_one = [s for s in alive if s[i - 1] == "1"]
        if not with_one:
            a = 0 if algorithm is None else algorithm(i, prefix)
            rounds.append(GameRound(i, len(alive), a, 0, False, False))
            revealed.append("0")
            answers.append(str(a))
            continue

        a = 1 if algorithm is None else algorithm(i, prefix)
        if a == 0:
            target = with_one[0]
            rounds.append(GameRound(i, len(alive), 0, 1, True, True))
            revealed.append("1")
            answers.append("0")
            continue

        m = len(alive)
        h = alive[0].count("1", i - 1)
        d_start = forced_cost_bound(m, h)
        d_one = forced_cost_bound(len(with_one), h - 1)
        if d_one + 1 >= d_start:
            alive = with_one
            bit = 1
        else:
            alive = [s for s in alive if s[i - 1] == "0"]
            bit = 0
        rounds.append(GameRound(i, m, a, bit, True, False))
        revealed.append(str(bit))
        answers.append(str(a))

    x = "".join(revealed)
    if target is not None:
        assert x == target
    else:
        assert alive == [x]
    y = "".join(answers)
    return GameTranscript(x, y, asg_score("min", x, y), tuple(rounds))


@dataclass(frozen=True)
class MaxGameOutcome:
    x: str
    outputs: tuple[str, ...]

    @property
    def scores(self) -> tuple[Score, ...]:
        return tuple(asg_score("max", self.x, y) for y in self.outputs)

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "outputs": list(self.outputs),
            "scores": [score_to_json(s) for s in self.scores],
        }


def max_no_advice_game(
    behaviors: Sequence[Callable[[int, str], int]], n: int
) -> MaxGameOutcome:
    """Defeat a finite set of advice-free maximization strategies at once.

    The adversary sets x_i = 1 exactly when some strategy that has answered
    1 in every earlier round answers 0 now.  Each strategy triggers this at
    most once, so the input has at most len(behaviors) ones, yet every
    strategy ends infeasible or with profit 0.
    """
    revealed: list[str] = []
    outputs = [[] for _ in behaviors]
    pure = [True] * len(behaviors)
    for i in range(1, n + 1):
        prefix = "".join(revealed)
        answers = [b(i, prefix) for b in behaviors]
        trip = any(p and a == 0 for p, a in zip(pure, answers))
        for j, a in enumerate(answers):
            outputs[j].append(str(a))
            if a == 0:
                pure[j] = False
        revealed.append("1" if trip else "0")
    return MaxGameOutcome("".join(revealed), tuple("".join(o) for o in outputs))


def standard_max_behaviors(m: int):
    """A fixed family of m deterministic no-advice strategies (round index
    and revealed prefix in, answer out) for max_no_advice_game, played by
    the growth battery and the command-line adversary."""
    base = [
        lambda i, p: 1,  # never accept
        lambda i, p: 0,  # always accept
        lambda i, p: 0 if i == 1 else 1,
        lambda i, p: 0 if i % 2 == 0 else 1,
        lambda i, p: 0 if "1" in p else 1,
        lambda i, p: 1 if "1" in p else 0,
        lambda i, p: 0 if i > 8 else 1,
        lambda i, p: 0 if p.count("0") % 2 == 0 else 1,
    ]
    if m <= len(base):
        return base[:m]
    extra = [(lambda j: lambda i, p: 0 if i == j else 1)(j) for j in range(2, m - len(base) + 2)]
    return base + extra


# --- exact minimum strategy families for tiny n -----------------------------


def covers(objective: str, x: str, y: str, c: Fraction) -> bool:
    """Does the fixed output y serve input x within the strict budget?  It
    must dominate x and hold at most the k 1s that core.design_shapes gives
    x's weight class: floor(c |x|_1) for min, n - ceil(|x|_0 / c) for max."""
    if not dominates(x, y):
        return False
    return ones(y) <= design_shapes(objective, c, len(x))[asg_opt(objective, x)][0]


@dataclass(frozen=True)
class StrategyCover:
    count: int
    bits: int
    family: tuple[str, ...]

    def to_json(self) -> dict:
        return {"count": self.count, "bits": self.bits, "family": list(self.family)}


def _milp_cover(uncovered: int, active: list[int], masks: list[int]) -> list[int]:
    """Exact 0/1 set cover on the residual instance via HiGHS.

    The program is tiny (at most 2^n columns) and HiGHS solves it to proven
    optimality; repeated runs return the same family (tested)."""
    from scipy import optimize, sparse  # deferred: only the residual search needs it

    row_of: dict[int, int] = {}
    m = uncovered
    while m:
        row_of[(m & -m).bit_length() - 1] = len(row_of)
        m &= m - 1
    rows, cols = [], []
    for col, j in enumerate(active):
        mm = masks[j] & uncovered
        while mm:
            rows.append(row_of[(mm & -mm).bit_length() - 1])
            cols.append(col)
            mm &= mm - 1
    matrix = sparse.csr_matrix(
        ([1.0] * len(rows), (rows, cols)), shape=(len(row_of), len(active))
    )
    result = optimize.milp(
        c=[1.0] * len(active),
        constraints=optimize.LinearConstraint(matrix, lb=1.0, ub=math.inf),
        integrality=[1] * len(active),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if not result.success:
        raise RuntimeError(f"set-cover program failed: {result.message}")
    return [active[col] for col, v in enumerate(result.x) if v > 0.5]


def _min_set_cover(element_count: int, masks: list[int]) -> list[int]:
    """Indices of a minimum subfamily of masks whose union covers all
    element_count elements.  Exact; assumes a cover exists.  Deterministic:
    repeated calls return the identical family."""
    full = (1 << element_count) - 1

    chosen: list[int] = []
    uncovered = full
    # forced picks: an element only one candidate covers pins that candidate
    active = list(range(len(masks)))
    while uncovered:
        forced = None
        for e in range(element_count):
            if not uncovered >> e & 1:
                continue
            holders = [j for j in active if masks[j] >> e & 1]
            if len(holders) == 1:
                forced = holders[0]
                break
        if forced is None:
            break
        chosen.append(forced)
        uncovered &= ~masks[forced]
        active = [j for j in active if masks[j] & uncovered]

    if uncovered:
        # drop candidates dominated by another surviving candidate
        kept: list[int] = []
        for j in sorted(active, key=lambda j: -(masks[j] & uncovered).bit_count()):
            mj = masks[j] & uncovered
            if not any(mj & ~(masks[k] & uncovered) == 0 for k in kept):
                kept.append(j)
        active = sorted(kept)

        # the greedy family is already optimal when it meets the counting bound
        todo, seed = uncovered, []
        while todo:
            best_j = max(active, key=lambda j: ((masks[j] & todo).bit_count(), -j))
            seed.append(best_j)
            todo &= ~masks[best_j]
        biggest = max((masks[j] & uncovered).bit_count() for j in active)
        if len(seed) == math.ceil(uncovered.bit_count() / biggest):
            chosen.extend(seed)
        else:
            chosen.extend(_milp_cover(uncovered, active, masks))

    return sorted(chosen)


def exact_strategy_count(n: int, c, objective: str = "min", limit: int | None = None) -> StrategyCover:
    """Minimum number of fixed outputs that serve every length-n input
    within the strict budget, found by exact set cover; the bit count is
    the ceiling log of that minimum.

    A deterministic algorithm that never sees the input produces one fixed
    output per advice string, so this is the exact advice complexity of the
    unknown-history game at length n, not counting any self-delimiting
    overhead.
    """
    lim = DEFAULT_BRUTE_LIMIT if limit is None else limit
    if n > lim:
        raise ValueError(f"n={n} exceeds the brute-force limit {lim}")
    if n < 1:
        raise ValueError("needs n >= 1")
    ratio = as_ratio(c)
    if ratio < 1:
        raise ValueError("needs c >= 1")
    inputs = list(all_bitstrings(n))
    candidates = list(all_bitstrings(n))
    masks = []
    for y in candidates:
        mask = 0
        for e, x in enumerate(inputs):
            if covers(objective, x, y, ratio):
                mask |= 1 << e
        masks.append(mask)
    picked = _min_set_cover(len(inputs), masks)
    family = tuple(candidates[j] for j in picked)
    return StrategyCover(len(family), ceil_log2(len(family)), family)


def strategy_count_bounds(n: int, c, objective: str = "min") -> tuple[int, int]:
    """Covering-design sandwich for the exact strategy count: the largest
    single weight class forces the lower bound, one design per weight class
    yields the upper."""
    ratio = as_ratio(c)
    if ratio < 1:
        raise ValueError("needs c >= 1")
    sizes = [exact_cover_number(n, k, t).size for k, t in design_shapes(objective, ratio, n)]
    return max(sizes), sum(sizes)
