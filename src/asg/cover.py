"""Exact minimum set cover on bitmasks, the engine behind exact strategy
counts.

Columns are ints whose bits are the elements they cover, and column j is
also the set of points whose bits j has: every permutation of the points
maps columns to columns and elements to elements with coverage kept, as
it does for the outputs and inputs of one length.  `_min_set_cover`
settles an instance on a ladder of steps, each bounded by a count:

* forced picks: an element only one column covers pins that column;
* strict dominance: a column whose residual mask lies strictly inside
  another's goes, and columns with equal masks all stay, so the residual
  stays invariant under every permutation of the points;
* the orbital search (`_bounded_cover`): a depth-first branch and bound
  of at most SEARCH_NODES nodes, seeded with the greedy family, pruned by
  the Lovasz bound (`_cover_lower_bound`) and cut by orbital branching
  over the permutations that fix every pick;
* HiGHS (`_milp_cover`, scipy, imported then and only then) on a residual
  the search does not settle, with one column per residual mask, within
  HIGHS_NODES nodes; past them it raises `core.WorkLimitError`.

Every strategy count at n <= 7 for c in {5/4, 3/2, 2, 3} settles in the
search, and so do (8, 5/4, max), (8, 3, min) and (8, 3, max); the other
five n = 8 counts at those ratios go to HiGHS.  `greedy_picks` is the one
greedy rule; it seeds the search here and builds the greedy covering
designs in `asg.designs`.
"""

from __future__ import annotations

import math

from asg.core import WorkLimitError

__all__ = ["SEARCH_NODES", "HIGHS_NODES", "greedy_picks"]

# _bounded_cover's node budget, past which HiGHS takes the residual: the
# hardest n <= 7 strategy count at c in {5/4, 3/2, 2, 3}, (7, 2, max), takes
# 5,432 nodes
SEARCH_NODES = 6000
# HiGHS's node budget: (8, 3/2, min) takes 738 nodes and (8, 2, min) 216, in every run
HIGHS_NODES = 1000


def greedy_picks(uncovered: int, masks: list[int], candidates) -> list[int]:
    """The greedy cover of the bitmask `uncovered`: repeatedly the index in
    `candidates` (ascending) whose mask covers the most still-uncovered
    bits, ties to the lower index.  Assumes a cover exists."""
    chosen = []
    while uncovered:
        best, best_gain = -1, -1
        for j in candidates:
            gain = (uncovered & masks[j]).bit_count()
            if gain > best_gain:  # ties keep the lower index
                best, best_gain = j, gain
        chosen.append(best)
        uncovered &= ~masks[best]
    return chosen


def _milp_cover(uncovered: int, active: list[int], masks: list[int]) -> list[int]:
    """Exact 0/1 set cover on the residual instance via HiGHS.

    The program is tiny (at most 2^n columns) and HiGHS solves it to proven
    optimality within HIGHS_NODES nodes; repeated runs return the same family."""
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
        options={"node_limit": HIGHS_NODES},
    )
    if not result.success and getattr(result, "mip_node_count", 0) >= HIGHS_NODES:
        raise WorkLimitError(f"set-cover program stopped at the HiGHS node limit {HIGHS_NODES}")
    if not result.success:
        raise RuntimeError(f"set-cover program failed: {result.message}")
    return [active[col] for col, v in enumerate(result.x) if v > 0.5]


class _OutOfNodes(Exception):
    pass


def _cover_lower_bound(todo: int, gains: list[tuple[int, int]], cols: list[int]) -> int | None:
    """ceil(sum over e in todo of 1 / the largest gain of a column holding
    e), in exact integers, or None when some element has no column.  gains
    holds (-gain, position) with gain = |cols[position] & todo|, largest
    gain first; every element is charged to the first column that holds
    it.  The charges are a feasible dual of the cover LP (Lovasz 1975), so
    any cover of todo by these columns has at least this many of them."""
    share: dict[int, int] = {}
    left = todo
    for g, i in gains:
        new = cols[i] & left
        if new:
            share[-g] = share.get(-g, 0) + new.bit_count()
            left ^= new
            if not left:
                break
    if left:
        return None
    den = math.lcm(*share)
    return -(-sum(count * (den // g) for g, count in share.items()) // den)


def _bounded_cover(uncovered: int, active: list[int], masks: list[int], seed: list[int]):
    """An exact minimum cover of the residual by depth-first branch and
    bound over bitmasks, or None when SEARCH_NODES nodes do not settle it.

    Column j is the set of points whose bits j has, and the residual is
    invariant under every permutation of the points (see _min_set_cover).
    The incumbent starts as the greedy family seed.  A node prunes when
    its picks plus _cover_lower_bound reach the incumbent's size; at the
    root that settles every seed that meets the bound.  Otherwise it
    branches on the uncovered element with the fewest allowed holders
    (ties to the lower element) and tries those holders by residual gain,
    ties to the lower index.  A column holding nothing uncovered takes no
    part in a node: no charge, no branch, no orbit with a holder.

    Orbital branching (Ostrowski et al. 2011): the points start as one
    cell, and each pick splits every cell by membership in the picked
    column, so the permutations that keep every cell fix every pick and
    map the node's instance to itself.  A column's orbit under them is
    its vector of intersection sizes with the cells.  A tried holder that
    fails bans its whole orbit for its later siblings, since each member
    leads to an isomorphic subtree.  The effort limit is the node count
    alone, so repeated calls return the identical family."""
    cols = [masks[j] & uncovered for j in active]  # position i stands for active[i]
    holders: dict[int, int] = {}  # element -> mask over positions
    points = 0  # every point some column holds: the one starting cell
    for i, col in enumerate(cols):
        points |= active[i]
        while col:
            low = col & -col
            e = low.bit_length() - 1
            holders[e] = holders.get(e, 0) | 1 << i
            col ^= low
    best = list(seed)
    nodes = 0

    def search(todo: int, allowed: int, picked: list[int], cells: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > SEARCH_NODES:
            raise _OutOfNodes
        if not todo:
            best = picked
            return
        gains = []  # (-gain, position) of each allowed column holding some of todo
        rest = allowed
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            gain = (cols[i] & todo).bit_count()
            if gain:
                gains.append((-gain, i))
            rest ^= low
        gains.sort()  # by gain, ties to the lower index
        bound = _cover_lower_bound(todo, gains, cols)
        if bound is None or len(picked) + bound >= len(best):
            return
        fewest = len(cols) + 1
        rest = todo
        while rest:
            low = rest & -rest
            mine = holders[low.bit_length() - 1] & allowed
            count = mine.bit_count()
            if count < fewest:
                branch, fewest = mine, count
                if count == 1:  # every element has a holder, so none has fewer
                    break
            rest ^= low
        keys = {}  # position -> orbit: its intersection sizes with the cells, once per node
        for g, i in gains:  # by gain, ties to the lower index
            if (branch & allowed) >> i & 1:
                j = active[i]
                split = [part for cell in cells for part in (cell & j, cell & ~j) if part]
                search(todo & ~cols[i], allowed, picked + [j], split)
                if i not in keys:  # an orbit shares one residual gain
                    keys.update((k, [(active[k] & cell).bit_count() for cell in cells])
                                for h, k in gains if h == g)
                for h, k in gains:
                    if h == g and keys[k] == keys[i]:
                        allowed &= ~(1 << k)

    try:
        search(uncovered, (1 << len(cols)) - 1, [], [points])
    except _OutOfNodes:
        return None
    return best


def _min_set_cover(element_count: int, masks: list[int]) -> list[int]:
    """Indices of a minimum subfamily of masks whose union covers all
    element_count elements, by the ladder of the module docstring, whose
    symmetry it assumes.  Exact; assumes a cover exists.  Deterministic:
    repeated calls return the identical family."""
    # forced picks: an element only one candidate covers pins that candidate.
    # A pick drops only columns that cover nothing still uncovered, which never
    # changes who holds an uncovered element: one pass finds every forced pick.
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    sole = once & ~twice
    chosen = [j for j, m in enumerate(masks) if m & sole]
    uncovered = (1 << element_count) - 1
    for j in chosen:
        uncovered &= ~masks[j]

    if uncovered:
        # strict dominance: a residual mask inside another one goes, and the
        # columns of a mask that stays all stay, so the residual stays
        # invariant under every permutation of the points
        by_mask: dict[int, list[int]] = {}  # residual mask -> columns, ascending
        for j, m in enumerate(masks):
            if m & uncovered:
                by_mask.setdefault(m & uncovered, []).append(j)
        kept: list[int] = []
        for m in sorted(by_mask, key=int.bit_count, reverse=True):
            if not any(m & ~k == 0 for k in kept):
                kept.append(m)
        active = sorted(j for m in kept for j in by_mask[m])

        seed = greedy_picks(uncovered, masks, active)  # the first incumbent
        found = _bounded_cover(uncovered, active, masks, seed)
        if found is None:
            found = _milp_cover(uncovered, sorted(by_mask[m][0] for m in kept), masks)
        chosen.extend(found)

    return sorted(chosen)
