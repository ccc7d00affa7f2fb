"""Lower-bound machinery: adversary games and exact tiny-n advice counts.

The minimization adversary plays the known-history game against an
algorithm whose advice is already fixed, keeping a set of alive inputs and
revealing past bits so that the algorithm is forced to answer 1 in at least
forced_cost_bound(m, h) rounds.  The maximization adversary defeats any
fixed finite collection of advice-free strategies outright.

For tiny n, exact_strategy_count computes the true minimum number of fixed
outputs any strictly competitive oblivious algorithm needs, by exact set
cover over all 2^n inputs (asg.cover); strategy_count_bounds sandwiches
that number with covering-design sizes.  The cover is a ladder of steps,
each bounded by a count: forced picks, strict dominance, an orbital
branch-and-bound search over the permutations of the n positions of at
most cover.SEARCH_NODES nodes, then HiGHS within cover.HIGHS_NODES nodes
for a residual that search does not settle (scipy, imported then only).
No count at n <= 7 and c in {5/4, 3/2, 2, 3} needs HiGHS; five at n = 8 do.
Only these two functions import asg.cover and asg.designs, so a game loads
neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Sequence

from asg.core import (
    PLUS_INF,
    JsonRecord,
    Score,
    as_ratio,
    asg_opt,
    asg_score,
    capped_comb,
    ceil_log2,
    check_bits,
    check_work,
    design_shapes,
    dominates,
    ones,
    to_plain,
)

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
    "CLASS_BITS",
]

DEFAULT_BRUTE_LIMIT = 8  # the largest n exact_strategy_count takes
CLASS_BITS = 5_000_000  # bits weight_class builds: min(binom(n, t), m) strings of n bits


@lru_cache(maxsize=None)
def forced_cost_bound(m: int, h: int) -> int:
    """Smallest q with m <= binom(q, h): the number of 1-answers the
    adversary can force from any algorithm when m equal-weight inputs are
    alive with h ones still unrevealed.  Equals m at h=1 and h at m=1."""
    if m < 1 or h < 0:
        raise ValueError("needs m >= 1 and h >= 0")
    if h == 0 and m > 1:
        raise ValueError("distinct strings cannot share an all-zero tail")
    q = h
    while math.comb(q, h) < m:
        q += 1
    return q


def weight_class(n: int, t: int, m: int | None = None) -> list[str]:
    """The strings of length n with exactly t ones in lexicographic order,
    all of them or the first m, up to CLASS_BITS bits.  In that order the
    strings' zero positions run as `combinations` gives them, so each
    string is built in O(n) and none past the first m."""
    if not 0 <= t <= n:
        raise ValueError("needs 0 <= t <= n")
    if m is not None and m < 0:
        raise ValueError("needs m >= 0")
    count = capped_comb(n, t) if m is None else min(capped_comb(n, t), m)
    check_work("weight-class bits", count * n, CLASS_BITS)
    out, ones = [], b"1" * n
    for zeros in islice(combinations(range(n), n - t), count):
        s = bytearray(ones)
        for i in zeros:
            s[i] = 48  # "0"
        out.append(s.decode())
    return out


class GameRound(
    JsonRecord, namedtuple("GameRound", "index alive answer revealed forced punished")
):
    """One round: the strings alive entering it, the answer, the revealed
    bit, whether some alive string had a 1 here (forced) and whether the
    algorithm answered 0 in a forced round (punished)."""

    __slots__ = ()


class GameTranscript(JsonRecord, namedtuple("GameTranscript", "x y score rounds")):
    """The input the adversary committed to, the algorithm's answers, their
    score and the GameRound of every round."""

    __slots__ = ()

    @property
    def forced_ones(self) -> int:
        return sum(1 for r in self.rounds if r.forced)

    def to_json(self) -> dict:
        plain = super().to_json()
        rounds = plain.pop("rounds")  # so forced_ones goes before it
        return {**plain, "forced_ones": self.forced_ones, "rounds": rounds}


def _validate_alive(strings: Sequence[str]) -> list[str]:
    if not isinstance(strings, (list, tuple)):
        raise ValueError(f"alive strings must be a list of 0/1 strings, got {strings!r}")
    for s in strings:
        if not isinstance(s, str):
            raise ValueError(f"alive strings must be 0/1 strings, got {s!r}")
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


def _columns(members: Sequence[str]) -> tuple[int, ...]:
    """Per round, the mask of the members with a 1 there; member j is bit j."""
    return tuple(
        int("".join(s[i] for s in reversed(members)), 2) for i in range(len(members[0]))
    )


def _alive_masks(n: int, m_cap: int):
    """Every alive set of at most m_cap strings of one weight class, by
    weight, size and lexicographic order, as (t, class, its _StateTable,
    alive mask), bit j of the mask standing for class[j].  Valid by
    construction.  Each class gets a fresh table per call, so no state
    outlives the caller's loop."""
    for t in range(n + 1):
        cls = weight_class(n, t)
        table = _StateTable(_columns(cls))
        bits = [1 << j for j in range(len(cls))]
        for m in range(1, min(len(cls), m_cap) + 1):
            for members in combinations(bits, m):
                yield t, cls, table, sum(members)


def _members(strings: Sequence[str], alive: int) -> tuple[str, ...]:
    return tuple(s for j, s in enumerate(strings) if alive >> j & 1)


def _reveal(col: int, alive: int, h: int, answer: int) -> tuple[int, int]:
    """The adversary's move in one round: the bit it reveals and the alive
    mask after it.  col masks the members with a 1 in this round, and h is
    the number of 1s every alive member still has to come.

    With no 1 alive it reveals 0.  An answer of 0 where some alive member
    has a 1 is punished by committing to the lowest such member, which
    makes the output infeasible.  Otherwise it reveals 1 exactly when
    forced_cost_bound(m1, h-1) + 1 >= forced_cost_bound(m, h), which keeps
    the cost to come at forced_cost_bound(m, h) or more.  A single alive
    member is revealed as it is, whatever the answer."""
    with_one = alive & col
    if not with_one:
        return 0, alive
    if not answer:
        return 1, with_one & -with_one
    if _reveals_one(with_one.bit_count(), alive.bit_count(), h):
        return 1, with_one
    return 0, alive ^ with_one


@lru_cache(maxsize=None)
def _reveals_one(m1: int, m: int, h: int) -> bool:
    return forced_cost_bound(m1, h - 1) + 1 >= forced_cost_bound(m, h)


def _play(cols, alive: int, h: int, algorithm=None, rounds=None) -> tuple[int, int]:
    """One game on bitmasks: the revealed input and the answers, as ints
    read left to right.  algorithm(round, revealed prefix) -> 0/1, where
    None answers 1 exactly when some alive member has a 1.  Appends a
    GameRound per round to rounds when given."""
    x = y = 0
    prefix = ""
    committed = False
    for i, col in enumerate(cols, 1):
        if algorithm is None:
            a = 1 if alive & col else 0
        else:
            a = algorithm(i, prefix)
            if a != 0 and a != 1:
                raise ValueError(f"round {i}: answer {a!r} is not 0 or 1")
            a = int(a)
        bit, after = _reveal(col, alive, h, a)
        if rounds is not None:
            forced = alive & col != 0
            punished = forced and not a and not committed
            committed |= punished
            rounds.append(GameRound(i, alive.bit_count(), a, bit, forced, punished))
        if algorithm is not None:
            prefix += "01"[bit]
        alive = after
        h -= bit
        x = x << 1 | bit
        y = y << 1 | a
    return x, y


def _min_score(x: int, y: int) -> Score:
    """asg_score("min", x, y) for strings held as ints."""
    return PLUS_INF if x & ~y else y.bit_count()


class _StateTable:
    """What remains of the game once its state is known, for the alive sets
    of one weight class.  The state is the round i, the alive mask and h,
    the 1s every alive member still has to come; from it on, the canonical
    player's cost and the score of every remaining answer script are fixed.
    Alive sets of one class reach the same states after a round or two, so
    each state past round 0 is played once and stored.  Round-0 states are
    not stored: every alive set is its own.  Both entries move by _reveal,
    so the adversary's rule stays in one place."""

    __slots__ = ("cols", "_costs", "_scores")

    def __init__(self, cols: tuple[int, ...]):
        self.cols = cols
        self._costs: dict[tuple[int, int, int], Score] = {}
        self._scores: dict[tuple[int, int, int], list[Score]] = {}

    def canonical(self, alive: int, h: int, i: int = 0) -> Score:
        """The canonical player's cost over rounds i+1.. on: it answers 1
        exactly when some alive member has a 1, so it pays one per forced
        round, or PLUS_INF should a revealed 1 ever meet its 0."""
        if i == len(self.cols):
            return 0
        key = (i, alive, h)
        cost = self._costs.get(key)
        if cost is None:
            col = self.cols[i]
            a = 1 if alive & col else 0
            bit, after = _reveal(col, alive, h, a)
            cost = PLUS_INF if bit > a else a + self.canonical(after, h - bit, i + 1)
            if i:
                self._costs[key] = cost
        return cost

    def scripts(self, alive: int, h: int, i: int = 0) -> list[Score]:
        """The score over rounds i+1.. of every answer script for them, in
        lexicographic script order; PLUS_INF once a revealed 1 meets an
        answer of 0.  Past round 0 the list is the stored one: callers must
        not change it."""
        rounds = len(self.cols) - i
        if not rounds:
            return [0]
        key = (i, alive, h)
        scores = self._scores.get(key)
        if scores is None:
            col = self.cols[i]
            bit, after = _reveal(col, alive, h, 0)
            scores = [PLUS_INF] * (1 << rounds - 1) if bit else self.scripts(after, h, i + 1)
            bit, after = _reveal(col, alive, h, 1)
            scores = scores + [s + 1 for s in self.scripts(after, h - bit, i + 1)]
            if i:
                self._scores[key] = scores
        return scores


def min_game_against(
    strings: Sequence[str], algorithm: Callable[[int, str], int] | None = None
) -> GameTranscript:
    """Play the known-history minimization game on an alive set.

    The algorithm is a function (round, revealed prefix) -> answer in
    {0, 1}; None plays the canonical best response: 1 whenever some alive
    string has a 1 in the current round, 0 otherwise.  Rounds where every
    alive string has a 0 are revealed as 0 and cost nothing to the
    canonical algorithm.  In the other rounds an answer of 0 is punished
    by committing to an alive string with a 1 there, and otherwise the
    adversary keeps the cost to come at forced_cost_bound(m, h) or more
    (see _reveal).  The revealed string is always a member of the
    original set.
    """
    members = _validate_alive(strings)
    rounds: list[GameRound] = []
    _play(_columns(members), (1 << len(members)) - 1, ones(members[0]), algorithm, rounds)
    x = "".join(str(r.revealed) for r in rounds)
    y = "".join(str(r.answer) for r in rounds)
    assert x in members
    return GameTranscript(x, y, asg_score("min", x, y), tuple(rounds))


class MaxGameOutcome(JsonRecord, namedtuple("MaxGameOutcome", "x outputs")):
    __slots__ = ()

    @property
    def scores(self) -> tuple[Score, ...]:
        return tuple(asg_score("max", self.x, y) for y in self.outputs)

    def to_json(self) -> dict:
        return {**super().to_json(), "scores": to_plain(self.scores)}


def max_no_advice_game(
    behaviors: Sequence[Callable[[int, str], int]], n: int
) -> MaxGameOutcome:
    """Defeat a finite set of advice-free maximization strategies at once.

    The adversary sets x_i = 1 exactly when some strategy that has answered
    1 in every earlier round answers 0 now.  Each strategy triggers this at
    most once, so the input has at most len(behaviors) ones, yet every
    strategy ends infeasible or with profit 0.
    """
    if n < 0:
        raise ValueError("needs n >= 0 rounds")
    revealed = ""  # extended each round: a list re-joined per round costs O(n) a round
    outputs = [[] for _ in behaviors]
    pure = [True] * len(behaviors)
    for i in range(1, n + 1):
        answers = [b(i, revealed) for b in behaviors]
        trip = any(p and a == 0 for p, a in zip(pure, answers))
        for j, a in enumerate(answers):
            outputs[j].append(str(a))
            if a == 0:
                pure[j] = False
        revealed += "1" if trip else "0"
    return MaxGameOutcome(revealed, tuple("".join(o) for o in outputs))


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
    if m < 0:
        raise ValueError("needs m >= 0 strategies")
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


def _coverage_masks(objective: str, c: Fraction, n: int) -> list[int]:
    """covers() on ints: entry y has bit x set when output y serves input x,
    strings read as binary numbers.  That is x & ~y == 0 and y has at most
    the k 1s of x's weight class, so each y scans only its submasks."""
    shapes = design_shapes(objective, c, n)
    if objective == "min":
        k_of = [shapes[x.bit_count()][0] for x in range(1 << n)]
    else:
        k_of = [shapes[n - x.bit_count()][0] for x in range(1 << n)]
    masks = []
    for y in range(1 << n):
        w, mask, x = y.bit_count(), 0, y
        while True:
            if k_of[x] >= w:
                mask |= 1 << x
            if not x:
                break
            x = (x - 1) & y
        masks.append(mask)
    return masks


class StrategyCover(JsonRecord, namedtuple("StrategyCover", "count bits family")):
    __slots__ = ()


def exact_strategy_count(n: int, c, objective: str = "min") -> StrategyCover:
    """Minimum number of fixed outputs that serve every length-n input
    within the strict budget, found by exact set cover; the bit count is
    the ceiling log of that minimum.

    A deterministic algorithm that never sees the input produces one fixed
    output per advice string, so this is the exact advice complexity of the
    unknown-history game at length n, not counting any self-delimiting
    overhead.
    """
    from asg.cover import _min_set_cover

    check_work("strategy-count length", n, DEFAULT_BRUTE_LIMIT)
    if n < 1:
        raise ValueError("needs n >= 1")
    ratio = as_ratio(c)
    if ratio < 1:
        raise ValueError("needs c >= 1")
    picked = _min_set_cover(1 << n, _coverage_masks(objective, ratio, n))
    family = tuple(format(j, f"0{n}b") for j in picked)
    return StrategyCover(len(family), ceil_log2(len(family)), family)


def strategy_count_bounds(n: int, c, objective: str = "min") -> tuple[int, int]:
    """Covering-design sandwich for the exact strategy count: the largest
    single weight class forces the lower bound, one design per weight class
    yields the upper."""
    from asg.designs import exact_cover_number

    ratio = as_ratio(c)
    if ratio < 1:
        raise ValueError("needs c >= 1")
    sizes = [exact_cover_number(n, k, t).size for k, t in design_shapes(objective, ratio, n)]
    return max(sizes), sum(sizes)
