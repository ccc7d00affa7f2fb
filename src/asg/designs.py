"""Covering designs: exact minimum search, greedy construction, bounds.

A (v, k, t) covering design is a family of k-element blocks of {1..v} such
that every t-element subset lies inside some block.  Block order and family
order are pinned so that two independent parties (an advice oracle and an
algorithm) construct the identical family: blocks are sorted element tuples
ordered lexicographically, and the exact search returns the
lexicographically first family among those of minimum size.

The exact search is one depth-first search over bitmasks: it branches on
the lowest uncovered t-subset and bans failed siblings.  It proves the
minimum size (growing the size from a counting/degree lower bound until a
cover exists), then fixes the witness block by block, keeping at each
position the smallest block that still leaves a completion.  Results are
cached once per (v, k, t); the binom(v, t) and binom(v, k) guard is a
module constant, checked on every call, before the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from asg.core import JsonRecord

__all__ = [
    "CoveringDesign",
    "CoverNumberBounds",
    "SearchLimitError",
    "DEFAULT_TSUBSET_LIMIT",
    "is_covering_design",
    "binom_quotient",
    "cover_number_bounds",
    "exact_cover_number",
    "greedy_cover",
    "design_for",
]

DEFAULT_TSUBSET_LIMIT = 100000  # the search guard on binom(v, t) and binom(v, k)
# design_for's exact/greedy cut-over on binom(v, t); the greedy branch
# passes the guard only while this stays below DEFAULT_TSUBSET_LIMIT
EXACT_TSUBSET_LIMIT = DEFAULT_TSUBSET_LIMIT


class SearchLimitError(RuntimeError):
    """The instance exceeds the configured search guard."""


@dataclass(frozen=True)
class CoveringDesign(JsonRecord):
    v: int
    k: int
    t: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_json(cls, data: dict) -> "CoveringDesign":
        blocks = tuple(tuple(int(e) for e in b) for b in data["blocks"])
        return cls(int(data["v"]), int(data["k"]), int(data["t"]), blocks)


@dataclass(frozen=True)
class CoverNumberBounds:
    v: int
    k: int
    t: int
    lower: int
    upper: int


def _check_params(v: int, k: int, t: int) -> None:
    if not 0 <= t <= k <= v:
        raise ValueError(f"need 0 <= t <= k <= v, got ({v}, {k}, {t})")
    if v < 1:
        raise ValueError("v must be at least 1")


def is_covering_design(design: CoveringDesign) -> bool:
    """Validate block shape and that every t-subset is covered."""
    v, k, t = design.v, design.k, design.t
    _check_params(v, k, t)
    for block in design.blocks:
        if len(block) != k or len(set(block)) != k:
            return False
        if any(not 1 <= e <= v for e in block):
            return False
        if tuple(sorted(block)) != block:
            return False
    block_sets = [set(b) for b in design.blocks]
    return all(
        any(ts_set <= bs for bs in block_sets)
        for ts_set in (set(ts) for ts in combinations(range(1, v + 1), t))
    )


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
    blocks, must fit the guard before either is built."""
    _check_params(v, k, t)
    limit = DEFAULT_TSUBSET_LIMIT
    for m in (t, k):
        if math.comb(v, m) > limit:
            raise SearchLimitError(
                f"binom({v},{m}) = {math.comb(v, m)} exceeds the search guard {limit}"
            )


def _coverage_tables(v: int, k: int, t: int):
    """Blocks in lex order, per-block coverage masks, per-subset coverer lists."""
    tsubsets = list(combinations(range(1, v + 1), t))
    index_of = {ts: i for i, ts in enumerate(tsubsets)}
    blocks = list(combinations(range(1, v + 1), k))
    masks = []
    coverers: list[list[int]] = [[] for _ in tsubsets]
    for bi, block in enumerate(blocks):
        m = 0
        for ts in combinations(block, t):
            m |= 1 << index_of[ts]
            coverers[index_of[ts]].append(bi)
        masks.append(m)
    return blocks, masks, coverers


def _lowest_uncovered(uncovered: int) -> int:
    return (uncovered & -uncovered).bit_length() - 1


def _degree_lower_bound(v: int, k: int, t: int) -> int:
    """Each element joined with any (t-1)-subset of the rest forms a t-subset,
    so the blocks through one element carry a full (v-1, k-1, t-1) cover;
    summing degrees over elements bounds the family size from below."""
    if t == 0 or k == v:
        return 1
    if t == 1:
        return math.ceil(Fraction(v, k))
    inner = _exact_cached(v - 1, k - 1, t - 1).size
    return math.ceil(Fraction(v * inner, k))


@lru_cache(maxsize=None)
def _exact_cached(v: int, k: int, t: int) -> CoveringDesign:
    blocks, masks, coverers = _coverage_tables(v, k, t)
    if t == 0 or k == v:
        return CoveringDesign(v, k, t, (blocks[0],))
    if k == t:
        # each t-subset is its own only coverer: the design is all of them
        return CoveringDesign(v, k, t, tuple(blocks))
    per_block = math.comb(k, t)

    def completes(uncovered: int, slots: int, start: int, banned: int = 0) -> list[int] | None:
        """At most `slots` blocks of index >= start that cover `uncovered`, or
        None when there are none.

        Branches on the lowest uncovered t-subset; a coverer that failed is
        banned (one bit per block) for its later siblings, so each family is
        visited at most once.
        """
        if uncovered == 0:
            return []
        if uncovered.bit_count() > slots * per_block:
            return None
        for bi in coverers[_lowest_uncovered(uncovered)]:
            if bi < start or banned >> bi & 1:
                continue
            rest = completes(uncovered & ~masks[bi], slots - 1, start, banned)
            if rest is not None:
                return [bi, *rest]
            banned |= 1 << bi
        return None

    total = math.comb(v, t)
    uncovered = (1 << total) - 1
    size = max(math.ceil(Fraction(total, per_block)), _degree_lower_bound(v, k, t))
    while (family := completes(uncovered, size, 0)) is None:
        size += 1
    # Turn the minimum family found into the lex-first one, position by
    # position: before keeping family[p], try every earlier block after
    # family[p-1] that covers something new (in a minimum family every block
    # does) and still leaves a completion with the slots left.
    family.sort()
    for p in range(size):
        for bi in range(family[p - 1] + 1 if p else 0, family[p]):
            if uncovered & masks[bi]:
                rest = completes(uncovered & ~masks[bi], size - p - 1, bi + 1)
                if rest is not None:
                    family[p:] = [bi, *sorted(rest)]
                    break
        uncovered &= ~masks[family[p]]
    return CoveringDesign(v, k, t, tuple(blocks[i] for i in family))


def exact_cover_number(v: int, k: int, t: int) -> CoveringDesign:
    """Minimum-size covering design, lexicographically first witness.

    Deterministic: repeated calls return the identical family.  Raises
    SearchLimitError when binom(v, t) or binom(v, k) exceeds the guard.
    """
    _guard(v, k, t)
    return _exact_cached(v, k, t)


def greedy_cover(v: int, k: int, t: int) -> CoveringDesign:
    """Greedy covering design: repeatedly take the block covering the most
    still-uncovered t-subsets, ties broken toward the lex-smallest block.
    The guard is checked on every call, before the cache."""
    _guard(v, k, t)
    return _greedy_cached(v, k, t)


@lru_cache(maxsize=None)
def _greedy_cached(v: int, k: int, t: int) -> CoveringDesign:
    blocks, masks, _ = _coverage_tables(v, k, t)
    uncovered = (1 << math.comb(v, t)) - 1
    chosen = []
    while uncovered:
        best_i, best_gain = -1, -1
        for i, m in enumerate(masks):
            gain = (uncovered & m).bit_count()
            if gain > best_gain:  # ties keep the lex-smaller block
                best_i, best_gain = i, gain
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return CoveringDesign(v, k, t, tuple(blocks[i] for i in chosen))


def design_for(v: int, k: int, t: int) -> CoveringDesign:
    """The design both the oracle and the algorithm agree on: the exact
    minimum while binom(v, t) is within EXACT_TSUBSET_LIMIT, the greedy
    construction beyond it.  Both read the same module constants, so they
    stay in sync by construction."""
    _check_params(v, k, t)
    if math.comb(v, t) <= EXACT_TSUBSET_LIMIT:
        return exact_cover_number(v, k, t)
    return greedy_cover(v, k, t)
