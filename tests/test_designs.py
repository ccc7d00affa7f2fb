import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asg import designs
from asg.core import WorkLimitError
from asg.cover import greedy_picks
from asg.designs import (
    CoveringDesign,
    DesignProvenance,
    binom_quotient,
    cover_number_bounds,
    design_for,
    design_provenance,
    exact_cover_number,
    greedy_cover,
)


def is_covering_design(design: CoveringDesign) -> bool:
    """Validate block shape and that every t-subset is covered."""
    v, k, t = design.v, design.k, design.t
    designs._check_params(v, k, t)
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


def naive_lex_first_minimum(v, k, t):
    """Independent oracle for the minimum size: scan families by size, then
    lex, return the first cover."""
    blocks = list(combinations(range(1, v + 1), k))
    tsubsets = [set(ts) for ts in combinations(range(1, v + 1), t)]

    def covers(family):
        return all(any(ts <= set(b) for b in family) for ts in tsubsets)

    for size in range(1, len(blocks) + 1):
        for family in combinations(blocks, size):
            if covers(family):
                return CoveringDesign(v, k, t, family)
    raise AssertionError("unreachable")


def test_is_covering_design():
    good = CoveringDesign(4, 3, 2, ((1, 2, 3), (1, 2, 4), (1, 3, 4)))
    assert is_covering_design(good)
    assert not is_covering_design(CoveringDesign(4, 3, 2, ((1, 2, 3),)))
    assert not is_covering_design(CoveringDesign(4, 3, 2, ((1, 2, 5), (1, 2, 4), (1, 3, 4))))
    assert not is_covering_design(CoveringDesign(4, 3, 2, ((3, 2, 1), (1, 2, 4), (1, 3, 4))))
    assert not is_covering_design(CoveringDesign(4, 3, 2, ((1, 2, 2), (1, 2, 4), (1, 3, 4))))


def test_exact_examples():
    d = exact_cover_number(4, 3, 2)
    assert d.size == 3
    assert d.blocks == ((1, 2, 3), (1, 2, 4), (1, 3, 4))
    d = exact_cover_number(4, 2, 1)
    assert d.size == 2
    assert d.blocks == ((1, 2), (3, 4))


def test_exact_edge_cases():
    assert exact_cover_number(5, 3, 0).blocks == ((1, 2, 3),)
    assert exact_cover_number(5, 5, 2).blocks == ((1, 2, 3, 4, 5),)
    # k = t: every t-subset is its own block
    d = exact_cover_number(4, 2, 2)
    assert d.size == math.comb(4, 2)
    with pytest.raises(ValueError):
        exact_cover_number(3, 4, 2)


def test_exact_with_k_equal_t_is_every_t_subset():
    # each t-subset is its own only coverer, so it must be a block; the
    # search returned these same blocks for every v <= 8
    for v in range(1, 9):
        for t in range(v + 1):
            assert exact_cover_number(v, t, t).blocks == tuple(combinations(range(1, v + 1), t))


def test_exact_matches_naive_scan():
    for v, k, t in [(4, 2, 1), (4, 3, 2), (5, 3, 2), (5, 4, 2), (6, 3, 2), (5, 3, 3), (6, 4, 3)]:
        got = exact_cover_number(v, k, t)
        want = naive_lex_first_minimum(v, k, t)
        assert got.size == want.size, (v, k, t)
        assert is_covering_design(got), (v, k, t)


def test_exact_determinism():
    a = exact_cover_number(6, 3, 2)
    b = exact_cover_number(6, 3, 2)
    assert a.blocks == b.blocks


def test_known_cover_numbers():
    # Classic values, independently pinned: the Fano plane and the size-11
    # pair cover on 8 points.
    assert exact_cover_number(7, 3, 2).size == 7
    assert exact_cover_number(8, 3, 2).size == 11
    assert exact_cover_number(6, 4, 2).size == 3


def test_greedy_examples():
    d = greedy_cover(6, 3, 2)
    assert is_covering_design(d)
    bound = cover_number_bounds(6, 3, 2)
    assert bound.upper == 10  # floor((15/3)(1 + ln 3))
    assert d.size <= bound.upper
    assert d.size >= bound.lower == 5


def test_greedy_determinism_and_tie_break():
    a = greedy_cover(6, 3, 2)
    b = greedy_cover(6, 3, 2)
    assert a.blocks == b.blocks
    # first pick covers the most pairs; all size-3 blocks tie, so lex-first wins
    assert a.blocks[0] == (1, 2, 3)


def test_binom_quotient():
    assert binom_quotient(6, 4, 2) == Fraction(15, 6) == Fraction(5, 2)


def test_sandwich_all_small_params():
    # ceil(quotient) <= exact <= greedy <= floor(quotient * (1 + ln binom(k,t)))
    for v in range(1, 9):
        for k in range(1, v + 1):
            for t in range(0, k + 1):
                exact = exact_cover_number(v, k, t)
                greedy = greedy_cover(v, k, t)
                bounds = cover_number_bounds(v, k, t)
                assert is_covering_design(exact), (v, k, t)
                assert is_covering_design(greedy), (v, k, t)
                assert bounds.lower <= exact.size <= greedy.size <= bounds.upper, (v, k, t)


def test_monotonicity_in_k():
    # larger blocks never need more of them
    for v in [6, 7]:
        for t in [1, 2, 3]:
            sizes = [exact_cover_number(v, k, t).size for k in range(t, v + 1)]
            assert sizes == sorted(sizes, reverse=True)


def refusal(build, *vkt) -> str:
    with pytest.raises(WorkLimitError) as info:
        build(*vkt)
    return str(info.value)


def test_search_guard(monkeypatch):
    assert refusal(exact_cover_number, 30, 10, 8) == (
        "(30,10,8) design t-subsets 5852925, over the limit 100000")
    monkeypatch.setattr(designs, "DEFAULT_TSUBSET_LIMIT", 10)
    assert refusal(exact_cover_number, 6, 3, 2) == "(6,3,2) design t-subsets 15, over the limit 10"
    monkeypatch.setattr(designs, "DEFAULT_TSUBSET_LIMIT", 1000)
    assert refusal(greedy_cover, 40, 20, 2) == (
        "(40,20,2) design blocks 137846528820, over the limit 1000")


def test_search_guard_counts_the_blocks_too(monkeypatch):
    # binom(8,2) = 28 subsets fit a guard of 50; binom(8,4) = 70 blocks do not
    monkeypatch.setattr(designs, "DEFAULT_TSUBSET_LIMIT", 50)
    for build in (exact_cover_number, design_for, greedy_cover):
        assert refusal(build, 8, 4, 2) == "(8,4,2) design blocks 70, over the limit 50"


def test_guard_holds_after_an_unguarded_call_is_cached(monkeypatch):
    exact_cover_number(6, 3, 2)
    greedy_cover(6, 3, 2)
    monkeypatch.setattr(designs, "DEFAULT_TSUBSET_LIMIT", 10)
    for build in (exact_cover_number, greedy_cover):
        assert refusal(build, 6, 3, 2) == "(6,3,2) design t-subsets 15, over the limit 10"


def test_exact_search_is_cached_once_per_vkt():
    assert exact_cover_number(7, 4, 3) is design_for(7, 4, 3)


def test_exact_8_5_4_golden_blocks():
    # pinned: oracle and algorithm both rebuild this family from (v, k, t) alone
    d = exact_cover_number(8, 5, 4)
    assert d.size == 20
    assert d.blocks == (
        (1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 4, 7), (1, 2, 3, 4, 8),
        (1, 2, 3, 5, 6), (1, 2, 3, 5, 7), (1, 2, 3, 5, 8), (1, 2, 4, 6, 7),
        (1, 2, 5, 6, 7), (1, 2, 6, 7, 8), (1, 3, 4, 5, 8), (1, 3, 6, 7, 8),
        (1, 4, 5, 6, 8), (1, 4, 5, 7, 8), (2, 3, 6, 7, 8), (2, 4, 5, 6, 8),
        (2, 4, 5, 7, 8), (3, 4, 5, 6, 7), (3, 4, 6, 7, 8), (3, 5, 6, 7, 8),
    )


def test_blocks_for_every_v_up_to_8_are_pinned():
    # all 164 (v, k, t) with v <= 8 keep their witness blocks byte for byte:
    # the greedy family when it has the proven size, else the searched one
    digest = hashlib.sha256()
    count = 0
    for v in range(1, 9):
        for k in range(v + 1):
            for t in range(k + 1):
                digest.update(repr((v, k, t, exact_cover_number(v, k, t).blocks)).encode())
                count += 1
    assert count == 164
    assert digest.hexdigest() == "18e2465b0f91948f0a10d07ffd50b49359af33d307d0b827582a7e8aa1e82cf9"


def test_every_design_up_to_v_9_and_its_node_total_are_pinned():
    # the invariant every step of the design ladder keeps: all 219 (v, k, t)
    # with v <= 9 give the same blocks, method and bracket, and the same
    # search nodes in all
    digest, nodes = hashlib.sha256(), 0
    for v in range(1, 10):
        for k in range(v + 1):
            for t in range(k + 1):
                record = design_provenance(v, k, t)
                digest.update(repr((v, k, t, design_for(v, k, t).blocks,
                                    record.method, record.lower, record.upper)).encode())
                nodes += record.nodes
    assert digest.hexdigest() == "5c85f528d531fad96ed5b71afad6b99dcd7f550248a962cb61f3d456dfe0414c"
    assert nodes == 4_480_246


def test_exact_9_3_2_golden_blocks():
    # the affine plane of order 3, the only v = 9 exact design the cli workload builds
    assert exact_cover_number(9, 3, 2).blocks == (
        (1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 8, 9), (2, 4, 6), (2, 5, 8),
        (2, 7, 9), (3, 4, 9), (3, 5, 7), (3, 6, 8), (4, 7, 8), (5, 6, 9),
    )


def test_design_for_modes(monkeypatch):
    # (7,4,3) needs the search: greedy takes 14 blocks, the minimum is 12
    exact = design_for(7, 4, 3)
    assert exact.size == exact_cover_number(7, 4, 3).size == 12
    assert design_provenance(7, 4, 3).method == "search"
    monkeypatch.setattr(designs, "SEARCH_NODES", 100)
    forced_greedy = design_for(7, 4, 3)
    assert forced_greedy.blocks == greedy_cover(7, 4, 3).blocks
    assert forced_greedy.size == 14
    assert is_covering_design(forced_greedy)
    assert design_provenance(7, 4, 3) == DesignProvenance(7, 4, 3, "greedy", 100, 11, 14)
    assert refusal(exact_cover_number, 7, 4, 3) == (
        "the (7,4,3) cover number lies in [11, 14]: not proven within 100 search nodes")
    monkeypatch.undo()
    assert design_for(7, 4, 3) is exact


def test_provenance_names_the_step_that_settled_the_size():
    # greedy meets the degree bound ceil(9 * C(8,3,2) / 4) = ceil(99 / 4): no
    # search needed, so no node is spent and the witness is the greedy family
    assert design_provenance(9, 4, 3) == DesignProvenance(9, 4, 3, "sandwich", 0, 25, 25)
    assert exact_cover_number(9, 4, 3) == greedy_cover(9, 4, 3)
    assert design_provenance(8, 5, 4) == DesignProvenance(8, 5, 4, "search", 361_052, 20, 20)
    # a proven size spends nodes only on its proof: (10,4,2) refutes size 8
    # and keeps the greedy 9 blocks well inside the budget
    record = design_provenance(10, 4, 2)
    assert (record.method, record.lower, record.upper) == ("search", 9, 9)
    assert record.nodes < designs.SEARCH_NODES
    assert design_for(10, 4, 2) == greedy_cover(10, 4, 2)
    record = design_provenance(10, 6, 3)
    assert (record.method, record.lower, record.upper) == ("greedy", 9, 10)
    assert record.nodes == designs.SEARCH_NODES and not record.proven
    assert design_for(10, 6, 3) == greedy_cover(10, 6, 3)
    assert design_provenance(5, 3, 0).method == design_provenance(6, 2, 2).method == "trivial"
    assert design_provenance(10, 8, 4).method == "sandwich"


def test_every_design_up_to_v_8_is_proven_and_follows_the_witness_rule():
    # the digest test pins these blocks; here they must follow the rule that
    # made them: greedy's family when it has the proven size, else the
    # searched one with strictly increasing blocks
    for v in range(1, 9):
        for k in range(v + 1):
            for t in range(k + 1):
                record = design_provenance(v, k, t)
                assert record.proven, (v, k, t)
                assert record.nodes <= designs.SEARCH_NODES
                design, greedy = design_for(v, k, t), greedy_cover(v, k, t)
                assert design.size == record.upper, (v, k, t)
                if greedy.size == record.upper:
                    assert design.blocks == greedy.blocks, (v, k, t)
                else:
                    assert all(a < b for a, b in zip(design.blocks, design.blocks[1:])), (v, k, t)
                assert is_covering_design(design), (v, k, t)



def test_design_for_checks_the_parameters_first():
    # math.comb(3, -1) would raise its own, less telling message
    for build in (exact_cover_number, design_for, greedy_cover):
        with pytest.raises(ValueError, match=r"need 0 <= t <= k <= v, got \(3, 2, -1\)"):
            build(3, 2, -1)


def test_greedy_picks_takes_the_largest_gain_ties_to_the_lower_index():
    masks = [0b0011, 0b0110, 0b1100, 0b1111, 0b0011]
    assert greedy_picks(0b1111, masks, range(5)) == [3]
    assert greedy_picks(0b1111, masks, [0, 1, 2, 4]) == [0, 2]
    assert greedy_picks(0b0011, masks, [1, 4]) == [4]
    assert greedy_picks(0, masks, range(5)) == []


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda v: st.tuples(st.just(v), st.integers(min_value=1, max_value=v))
).flatmap(
    lambda vk: st.tuples(st.just(vk[0]), st.just(vk[1]), st.integers(min_value=0, max_value=vk[1]))
))
def test_exact_is_valid_and_minimal_hypothesis(vkt):
    v, k, t = vkt
    d = exact_cover_number(v, k, t)
    assert is_covering_design(d)
    # no strictly smaller family can cover: spot-check against the counting bound
    assert d.size >= math.ceil(binom_quotient(v, k, t))
