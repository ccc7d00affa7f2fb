"""Covering designs: a count-bounded ladder of exact steps, greedy
construction, bounds.

A (v, k, t) covering design is a family of k-element blocks of {1..v} such
that every t-element subset lies inside some block.  Two independent
parties (an advice oracle and an algorithm) must construct the identical
family, and every step below is deterministic, so the same (v, k, t) gives
the same blocks in the same order; each block is a sorted element tuple.

The exact design comes from one ladder of steps, cheapest first:

* the sandwich: the greedy family's size against the lower bound
  max(ceil(binom(v,t)/binom(k,t)), ceil(v * inner / k)), where inner is
  the proven lower end of (v-1, k-1, t-1) from the same ladder; when the
  two meet, the size is proven without a search;
* one depth-first search over bitmasks with the first block fixed to
  (1..k), which any minimum family can be permuted to contain: it
  branches on the lowest uncovered t-subset, bans failed siblings and
  grows the size from the lower bound until a cover exists.

The witness is the greedy family, in pick order, when the search found
nothing smaller (the sandwich met, or every smaller size was refuted), and
otherwise the family the search found, its blocks sorted.  The search
spends at most SEARCH_NODES nodes, one per coverer tried, per (v, k, t).
If it runs out, the size stays unproven: `design_for` takes the greedy
family and `exact_cover_number` raises `core.WorkLimitError` naming the
[lower, upper] bracket.  Every limit is a count, never time, so the oracle
and the algorithm build the same design.  Results are cached once per
(v, k, t) and budget beside a `DesignProvenance` record
(`design_provenance`); the guards on binom(v, t), binom(v, k), v and the
binom(v, k) binom(k, t) (block, t-subset) pairs are module constants,
checked by `core.check_work` on every call, before the cache.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from asg.core import JsonRecord, WorkLimitError, capped_comb, check_work
from asg.cover import greedy_picks

__all__ = [
    "CoveringDesign",
    "CoverNumberBounds",
    "DesignProvenance",
    "DEFAULT_TSUBSET_LIMIT",
    "DESIGN_PAIRS",
    "SEARCH_NODES",
    "binom_quotient",
    "cover_number_bounds",
    "exact_cover_number",
    "greedy_cover",
    "design_for",
    "design_provenance",
]

DEFAULT_TSUBSET_LIMIT = 100000  # the search guard on binom(v, t), binom(v, k) and v
DESIGN_PAIRS = 20_000_000  # the guard on binom(v, k) binom(k, t), over (18,12,6)'s 17,153,136
SEARCH_NODES = 1_000_000  # search nodes per (v, k, t) for the size proof


class _BudgetSpent(Exception):
    """The search used up its node budget."""


class CoveringDesign(JsonRecord, namedtuple("CoveringDesign", "v k t blocks")):
    """The blocks of a (v, k, t) covering design, each a sorted element tuple."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.blocks)


class DesignProvenance(
    JsonRecord, namedtuple("DesignProvenance", "v k t method nodes lower upper")
):
    """How the ladder settled one (v, k, t).  `method` is "trivial",
    "sandwich" or "search" when the size is proven (lower == upper), and
    "greedy" when the budget ran out first and [lower, upper] brackets it.
    `nodes` counts the search nodes spent on this (v, k, t) alone."""

    __slots__ = ()

    @property
    def proven(self) -> bool:
        return self.lower == self.upper


class CoverNumberBounds(namedtuple("CoverNumberBounds", "v k t lower upper")):
    __slots__ = ()


def _check_params(v: int, k: int, t: int) -> None:
    if not 0 <= t <= k <= v:
        raise ValueError(f"need 0 <= t <= k <= v, got ({v}, {k}, {t})")
    if v < 1:
        raise ValueError("v must be at least 1")


def binom_quotient(v: int, k: int, t: int) -> Fraction:
    """binom(v,t) / binom(k,t): the counting lower bound for the cover number."""
    _check_params(v, k, t)
    return Fraction(math.comb(v, t), math.comb(k, t))


def cover_number_bounds(v: int, k: int, t: int) -> CoverNumberBounds:
    """Counting lower bound and the classic (1 + ln binom(k,t)) upper bound."""
    q = binom_quotient(v, k, t)
    lower = math.ceil(q)
    upper = math.floor(float(q) * (1.0 + math.log(math.comb(k, t))))
    return CoverNumberBounds(v, k, t, lower, max(lower, upper))


def _guard(v: int, k: int, t: int) -> None:
    """Both tables a search builds, binom(v, t) subsets and binom(v, k)
    blocks, must fit the guard before either is built, and so must v, the
    points one block may hold, and the (block, t-subset) pairs the masks are
    summed from; each count is estimated by `core.capped_comb`."""
    _check_params(v, k, t)
    check_work("({},{},{}) design t-subsets", capped_comb(v, t), DEFAULT_TSUBSET_LIMIT, v, k, t)
    check_work("({},{},{}) design blocks", capped_comb(v, k), DEFAULT_TSUBSET_LIMIT, v, k, t)
    check_work("({},{},{}) design points", v, DEFAULT_TSUBSET_LIMIT, v, k, t)
    check_work("({},{},{}) design pairs", capped_comb(v, k) * capped_comb(k, t), DESIGN_PAIRS, v, k, t)


def _coverage_tables(v: int, k: int, t: int) -> tuple[tuple, tuple]:
    """Blocks in lex order and masks: bit i covers the i-th t-subset in lex order."""
    index_of = {ts: i for i, ts in enumerate(combinations(range(1, v + 1), t))}
    blocks = (*combinations(range(1, v + 1), k),)
    return blocks, tuple(sum(1 << index_of[ts] for ts in combinations(block, t)) for block in blocks)


@lru_cache(maxsize=None)
def _ladder(v: int, k: int, t: int, budget: int) -> tuple[CoveringDesign, DesignProvenance]:
    """The design for (v, k, t) and how it was settled, within `budget`
    search nodes of its own (the inner bound's ladder has its own)."""
    if t == 0 or k == v or k == t:
        # one block holds every t-subset, or each t-subset is its own only
        # coverer and so a block
        family = ((*range(1, k + 1),),) if t == 0 or k == v else (*combinations(range(1, v + 1), k),)
        return CoveringDesign(v, k, t, family), DesignProvenance(
            v, k, t, "trivial", 0, len(family), len(family))
    per_block = math.comb(k, t)
    # Each element joined with any (t-1)-subset of the rest forms a t-subset,
    # so the blocks through one element carry a (v-1, k-1, t-1) cover;
    # summing degrees over elements bounds the family size from below.
    inner = _ladder(v - 1, k - 1, t - 1, budget)[1].lower
    blocks, masks = _coverage_tables(v, k, t)
    greedy = _greedy(v, k, t, blocks, masks)
    lower = max(-(-math.comb(v, t) // per_block), -(-v * inner // k))
    upper = greedy.size
    if lower == upper:
        return greedy, DesignProvenance(v, k, t, "sandwich", 0, upper, upper)
    spent = 0

    # per t-subset, its coverers in block order as (block bit, what the block
    # leaves uncovered); one pair per block, shared by the lists of all its t-subsets
    options = [[] for _ in range(math.comb(v, t))]
    for bi, mask in enumerate(masks):
        pair = (1 << bi, ~mask)
        while mask:
            low = mask & -mask
            options[low.bit_length() - 1].append(pair)
            mask ^= low

    def search(uncovered: int, slots: int, banned: int) -> list[int] | None:
        """At most `slots` blocks outside `banned`, as block bits, that cover
        `uncovered` (nonzero, and at most `slots` blocks' worth), or None
        when there are none.

        Branches on the lowest uncovered t-subset; a coverer that failed is
        banned (one bit per block) for its later siblings, so each family is
        visited at most once.  Each coverer tried spends one node of the
        budget; one that leaves more than the other slots can hold fails
        without a call.
        """
        nonlocal spent
        room = (slots - 1) * per_block
        for bit, keep in options[(uncovered & -uncovered).bit_length() - 1]:
            if banned & bit:
                continue
            if spent == budget:
                raise _BudgetSpent
            spent += 1
            rest = uncovered & keep
            if not rest:
                return [bit]
            if rest.bit_count() <= room:
                found = search(rest, slots - 1, banned)
                if found is not None:
                    return [bit, *found]
            banned |= bit
        return None

    # block 0 = (1..k) is fixed; each size without a cover raises `lower`.
    # The counting bound keeps what block 0 leaves within lower - 1 blocks.
    rest = ((1 << math.comb(v, t)) - 1) & ~masks[0]
    found = None
    try:
        while lower < upper:
            found = search(rest, lower - 1, 1)
            if found is None:
                lower += 1
            else:
                upper = lower
    except _BudgetSpent:
        return greedy, DesignProvenance(v, k, t, "greedy", spent, lower, upper)
    # block 0's bit is 1; bits are powers of two, so sorting them sorts the blocks
    design = greedy if found is None else CoveringDesign(
        v, k, t, tuple(blocks[bit.bit_length() - 1] for bit in sorted([1, *found])))
    return design, DesignProvenance(v, k, t, "search", spent, upper, upper)


def exact_cover_number(v: int, k: int, t: int) -> CoveringDesign:
    """Minimum-size covering design: the greedy family when it has the
    proven size, else the searched one, sorted (see the module docstring).

    Deterministic: repeated calls return the identical family.  Raises
    WorkLimitError when binom(v, t) or binom(v, k) exceeds the guard, or
    when the size is not proven within SEARCH_NODES search nodes.
    """
    _guard(v, k, t)
    design, record = _ladder(v, k, t, SEARCH_NODES)
    if not record.proven:
        raise WorkLimitError(
            f"the ({v},{k},{t}) cover number lies in [{record.lower}, {record.upper}]: "
            f"not proven within {SEARCH_NODES} search nodes"
        )
    return design


def design_provenance(v: int, k: int, t: int) -> DesignProvenance:
    """How `design_for(v, k, t)` was settled: the method, the search nodes
    spent and the proven size or the [lower, upper] bracket."""
    _guard(v, k, t)
    return _ladder(v, k, t, SEARCH_NODES)[1]


def greedy_cover(v: int, k: int, t: int) -> CoveringDesign:
    """Greedy covering design: repeatedly take the block covering the most
    still-uncovered t-subsets, ties broken toward the lex-smallest block.
    The guard is checked on every call, before the tables are built."""
    _guard(v, k, t)
    return _greedy(v, k, t, *_coverage_tables(v, k, t))


def _greedy(v: int, k: int, t: int, blocks: tuple, masks: tuple) -> CoveringDesign:
    chosen = greedy_picks((1 << math.comb(v, t)) - 1, masks, range(len(masks)))
    return CoveringDesign(v, k, t, tuple(blocks[i] for i in chosen))


def design_for(v: int, k: int, t: int) -> CoveringDesign:
    """The design both the oracle and the algorithm agree on: the exact
    minimum (`exact_cover_number`'s witness) when its size is proven
    within SEARCH_NODES search nodes, the greedy construction otherwise.
    Both read the same module constants and every limit is a count, so
    they stay in sync by construction."""
    _guard(v, k, t)
    return _ladder(v, k, t, SEARCH_NODES)[0]
