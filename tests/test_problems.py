"""Instance constructions, feasibility scoring, brute-force optima."""

import hashlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from asg.algorithms import AdvicePair, aoc_generic, greedy_matching, knapsack_two_competitive
from asg.core import (
    MINUS_INF,
    PLUS_INF,
    AdviceTape,
    OnlineAlgorithm,
    RunResult,
    WorkLimitError,
    all_bitstrings,
    asg_opt,
    competitive_ok,
    decode_int,
    dominates,
    encode_int,
    ones,
    run_online,
    zeros,
)
from asg.problems import (
    CONSTRUCTIONS,
    HALVING_PATHS_LIMIT,
    PROBLEMS,
    Problem,
    VertexArrivalGraph,
    _score_table,
    aoc_membership_check,
    halving_paths_instance,
    knapsack_instance,
    singleton_cover_instance,
    split_graph,
    star_domination_graph,
    unique_cycle_graph,
)

VC = PROBLEMS["vc"]
CF = PROBLEMS["cf"]
DS = PROBLEMS["ds"]
SC = PROBLEMS["sc"]
IS = PROBLEMS["is"]
DPA = PROBLEMS["dpa"]
KS = PROBLEMS["ks"]
OM = PROBLEMS["om"]


def endbit(x):
    return 1 if x.endswith("1") else 0


def test_split_graph_worked_example():
    g = split_graph("011010")
    assert g.edges == frozenset(
        {(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6)}
    )
    assert split_graph("0000").edges == frozenset()


def test_split_graph_structure():
    for n in range(1, 7):
        for x in all_bitstrings(n):
            g = split_graph(x)
            one = [i for i in range(1, n + 1) if x[i - 1] == "1"]
            zero = [i for i in range(1, n + 1) if x[i - 1] == "0"]
            for i, j in combinations(one, 2):
                assert g.adjacent(i, j)
            for i, j in combinations(zero, 2):
                assert not g.adjacent(i, j)


def test_unique_cycle_graph_worked_examples():
    g = unique_cycle_graph("0100101")
    assert g.edges == frozenset({(2, 3), (2, 4), (2, 5), (5, 6), (5, 7), (2, 7)})
    assert unique_cycle_graph("111").edges == frozenset({(1, 2), (2, 3), (1, 3)})
    with pytest.raises(ValueError):
        unique_cycle_graph("000")


def test_unique_cycle_graph_edge_count():
    for n in range(1, 8):
        for x in all_bitstrings(n):
            if ones(x) < 3:
                continue
            g = unique_cycle_graph(x)
            first_one = x.index("1") + 1
            linked = n - first_one  # rounds with an earlier 1
            assert len(g.edges) == linked + 1


def test_unique_cycle_feasible_sets_are_supersets_of_ones():
    for n in range(3, 8):
        for x in all_bitstrings(n):
            if ones(x) < 3:
                continue
            g = unique_cycle_graph(x)
            support = {i for i in range(1, n + 1) if x[i - 1] == "1"}
            for y in all_bitstrings(n):
                chosen = {i for i in range(1, n + 1) if y[i - 1] == "1"}
                assert PROBLEMS["cf"].feasible(g, chosen) == (support <= chosen)


def test_star_domination_graph_examples():
    assert star_domination_graph("01010").edges == frozenset({(1, 4), (3, 4), (4, 5)})
    assert star_domination_graph("1").edges == frozenset()
    with pytest.raises(ValueError):
        star_domination_graph("00")


def test_star_domination_set_characterization():
    for n in range(1, 8):
        for x in all_bitstrings(n):
            if ones(x) == 0:
                continue
            g = star_domination_graph(x)
            support = {i for i in range(1, n + 1) if x[i - 1] == "1"}
            top = max(support)
            rest = set(range(1, n + 1)) - {top}
            for y in all_bitstrings(n):
                chosen = {i for i in range(1, n + 1) if y[i - 1] == "1"}
                expected = support <= chosen or (rest <= chosen and len(support) < n)
                assert PROBLEMS["ds"].feasible(g, chosen) == expected


def test_singleton_cover_examples():
    inst = singleton_cover_instance("0101")
    assert inst.requests == ((1,), (2,), (3,), (1, 3, 4))
    assert singleton_cover_instance("1").requests == ((1,),)


def test_singleton_cover_optimum_is_the_one_positions():
    for n in range(1, 8):
        for x in all_bitstrings(n):
            if ones(x) == 0:
                continue
            inst = singleton_cover_instance(x)
            assert SC.opt(inst) == ones(x)
            assert SC.optimal_strings(inst) == [x]


def test_halving_paths_worked_examples():
    assert halving_paths_instance("010").requests == ((0, 4), (4, 6), (4, 5))
    assert halving_paths_instance("010").length == 8
    assert halving_paths_instance("00").requests == ((0, 2), (2, 3))
    # only the refusing side: x at the limit itself builds a path of 2^30 edges
    n = HALVING_PATHS_LIMIT + 1
    with pytest.raises(WorkLimitError) as info:
        halving_paths_instance("0" * n)
    assert str(info.value) == f"halving-paths length {n}, over the limit {HALVING_PATHS_LIMIT}"


def test_halving_paths_overlap_structure():
    def overlap(a, b):
        return max(a[0], b[0]) < min(a[1], b[1])

    for n in range(1, 9):
        for x in all_bitstrings(n):
            reqs = halving_paths_instance(x).requests
            for i in range(1, n + 1):
                later = reqs[i:]
                if x[i - 1] == "1":
                    assert all(overlap(reqs[i - 1], r) for r in later)
                else:
                    assert not any(overlap(reqs[i - 1], r) for r in later)


def test_disjoint_paths_worked_score():
    inst = halving_paths_instance("010")
    assert DPA.score(inst, "001") == 2  # accepts (0,4) and (4,6)
    assert DPA.score(inst, "000") == MINUS_INF  # (4,6) and (4,5) overlap


def test_brute_optima_match_closed_forms():
    for n in range(1, 8):
        for x in all_bitstrings(n):
            assert VC.opt(split_graph(x)) == ones(x) - endbit(x)
            assert IS.opt(split_graph(x)) == zeros(x) + endbit(x)
            assert DPA.opt(halving_paths_instance(x)) == zeros(x) + endbit(x)
            if ones(x) >= 1:
                assert DS.opt(star_domination_graph(x)) == ones(x)
                assert SC.opt(singleton_cover_instance(x)) == ones(x)
            if ones(x) >= 3:
                assert CF.opt(unique_cycle_graph(x)) == ones(x)


def test_split_graph_ledger_value():
    # the clique loses its last vertex only when x ends in 1
    assert VC.opt(split_graph("011010")) == 3
    assert VC.opt(split_graph("011011")) == 3
    assert IS.opt(split_graph("011010")) == 3
    assert IS.opt(split_graph("011011")) == 3
    assert IS.opt(split_graph("0110110")) == 3


def test_vertex_cover_scoring():
    g = split_graph("011010")
    assert VC.score(g, "011010") == 3  # {2,3,5} covers all eight edges
    assert VC.score(g, "111111") == 6
    assert VC.score(g, "000000") == PLUS_INF
    assert DS.score(g, "111111") == 6


def test_rejecting_two_clique_vertices_never_covers():
    for n in range(2, 7):
        for x in all_bitstrings(n):
            if ones(x) < 2:
                continue
            g = split_graph(x)
            for y in all_bitstrings(n):
                dropped = sum(
                    1 for i in range(n) if x[i] == "1" and y[i] == "0"
                )
                if dropped >= 2:
                    assert VC.score(g, y) == PLUS_INF


def test_knapsack_scoring():
    inst = (Fraction(3, 5), Fraction(1, 2), Fraction(1, 2))
    assert KS.score(inst, "011") == 1
    assert KS.score(inst, "100") == 2
    assert KS.score(inst, "000") == MINUS_INF
    assert KS.opt(inst) == 2


def test_matching_scoring():
    edges = ((1, 2), (2, 3), (3, 4))
    assert OM.score(edges, "010") == 2
    assert OM.score(edges, "001") == MINUS_INF  # (1,2) and (2,3) share 2
    assert OM.opt(edges) == 2


def all_graphs(n: int):
    """Every graph on n arrival-ordered vertices."""
    pairs = list(combinations(range(1, n + 1), 2))
    for keep in range(1 << len(pairs)):
        yield VertexArrivalGraph(n, frozenset(p for b, p in enumerate(pairs) if keep >> b & 1))


def test_membership_on_all_small_graphs():
    for n in range(1, 5):
        graphs = list(all_graphs(n))
        assert aoc_membership_check(VC, graphs) == []
        assert aoc_membership_check(IS, graphs) == []
        assert aoc_membership_check(DS, graphs) == []
        cyclic = [g for g in graphs if PROBLEMS["cf"].feasible(g, set(range(1, n + 1)))]
        assert aoc_membership_check(CF, cyclic) == []


def test_membership_on_constructed_instances():
    xs = [x for n in range(1, 8) for x in all_bitstrings(n)]
    assert aoc_membership_check(SC, [singleton_cover_instance(x) for x in xs if ones(x)]) == []
    assert aoc_membership_check(DPA, [halving_paths_instance(x) for x in xs]) == []
    assert aoc_membership_check(CF, [unique_cycle_graph(x) for x in xs if ones(x) >= 3]) == []


def test_membership_knapsack_and_matching():
    grid = [Fraction(k, 4) for k in range(5)]
    instances = [w for r in range(1, 4) for w in product(grid, repeat=r)]
    assert aoc_membership_check(KS, instances) == []
    edges = [((1, 2), (2, 3)), ((1, 2), (3, 4), (1, 4)), ((1, 2),)]
    assert aoc_membership_check(OM, edges) == []


def test_all_graphs_enumeration():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


def test_constructions_registry():
    assert set(CONSTRUCTIONS) == {"vc", "cf", "ds", "sc", "is", "dpa"}
    assert CONSTRUCTIONS["is"] is split_graph


def test_list_instances_keep_working():
    # lists key the score-table cache in their prepared (hashable) form
    weights = [Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)]
    assert KS.opt(weights) == 2
    assert KS.optimal_strings(weights) == ["001"]
    assert aoc_membership_check(KS, [weights, [Fraction(1, 4)]]) == []
    edges = [[1, 2], [2, 3], [3, 4]]
    assert OM.opt(edges) == 2
    assert OM.optimal_strings(edges) == ["010"]
    assert aoc_membership_check(OM, [edges, [[1, 2]]]) == []


class _CountingFeasible:
    """Mixed into a problem class: counts its feasibility calls."""

    calls = 0

    def feasible(self, instance, accepted):
        self.calls += 1
        return super().feasible(instance, accepted)


class _CountingVertexCover(_CountingFeasible, type(VC)):
    pass


def test_one_score_table_per_instance():
    # the table asks the feasibility predicate once per output
    vc = _CountingVertexCover()
    graph = split_graph("0110")
    assert vc.optimal_strings(graph) == VC.optimal_strings(graph)
    assert vc.opt(graph) == 2
    assert aoc_membership_check(vc, [graph]) == []
    assert vc.calls == 2**4
    # an equal instance built anew reads the same table
    assert vc.opt(split_graph("0110")) == 2
    assert vc.calls == 2**4


class _CountingMatching(_CountingFeasible, type(OM)):
    pass


class _CountingKnapsack(_CountingFeasible, type(KS)):
    pass


HALVES = (Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))


@pytest.mark.parametrize("problem, twins", [
    (_CountingMatching(), [((1, 2), (2, 3), (3, 4)), [[1, 2], [2, 3], [3, 4]], [(1, 2), (2, 3), (3, 4)]]),
    (_CountingKnapsack(), [HALVES, list(HALVES), knapsack_instance(HALVES)]),
], ids=["om", "ks"])
def test_a_list_instance_reads_its_tuple_twins_table(problem, twins):
    # a list is cached under its prepared form, so it shares the table of
    # the equal tuple instead of asking the predicate 2^n times again
    best = problem.optimal_strings(twins[0])
    assert problem.calls == 2**3
    for twin in twins[1:]:
        assert problem.optimal_strings(twin) == best
        assert problem.opt(twin) == 2
        assert aoc_membership_check(problem, [twin]) == []
    assert problem.calls == 2**3


class _MustTake(Problem):
    """Every flagged round must be accepted (answer 1)."""

    name = "must-take"
    objective = "min"

    def requests(self, instance):
        return list(instance)

    def feasible(self, instance, accepted):
        return all(i in accepted for i, flag in enumerate(instance, 1) if flag)


class _MustAvoid(Problem):
    """No flagged round may be accepted (answer 0)."""

    name = "must-avoid"
    objective = "max"

    def requests(self, instance):
        return list(instance)

    def feasible(self, instance, accepted):
        return not any(instance[i - 1] for i in accepted)


@pytest.mark.parametrize("problem", [_MustTake(), _MustAvoid()], ids=lambda p: p.name)
def test_a_problem_states_only_what_is_feasible(problem):
    # the class rule, the optimum, membership and the generic protocol all
    # come from Problem; either way the one optimal answer is the flags
    flags = {x: tuple(map(int, x)) for n in range(6) for x in all_bitstrings(n)}
    assert aoc_membership_check(problem, flags.values()) == []
    c = Fraction(3, 2)
    pair = aoc_generic(problem, c)
    for x, instance in flags.items():
        assert problem.optimal_strings(instance) == [x]
        opt = problem.opt(instance)
        assert opt == asg_opt(problem.objective, x)
        tape = AdviceTape(pair.oracle(instance))
        y = run_online(pair.algorithm(), tape, problem.requests(instance))
        assert competitive_ok(problem.objective, problem.score(instance, y), opt, c), (x, y)


# --- pinned score tables --------------------------------------------------

KNAPSACK_POOL = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), Fraction(2, 5), 1, 0.1, 0.3, 0.7, 0.9]
EIGHTHS = [Fraction(k, 8) for k in range(9)]


def _pinned_instances():
    """(problem, instance) for every table the digest below covers."""
    for name, build in CONSTRUCTIONS.items():
        for x in (x for n in range(7) for x in all_bitstrings(n)):
            try:
                instance = build(x)
            except ValueError:  # too few 1s for this construction
                continue
            yield PROBLEMS[name], instance
    for pool in (KNAPSACK_POOL, EIGHTHS):
        for weights in (w for n in range(4) for w in product(pool, repeat=n)):
            yield KS, weights
    k4 = list(combinations(range(1, 5), 2))
    for mask in range(1 << len(k4)):
        yield OM, tuple(e for i, e in enumerate(k4) if mask >> i & 1)


def test_score_tables_are_pinned():
    # every table as the per-problem score methods gave it, before the
    # class rule moved into one Problem.score
    digest = hashlib.sha256()
    for problem, instance in _pinned_instances():
        digest.update(f"{problem.name} {_score_table(problem, instance)!r}\n".encode())
    assert digest.hexdigest() == (
        "7e50e84ce4a47341c7ef819bea76e943f0f3c6d0baef9e365e5a3c4e8e07f8b9"
    )


def test_mask_tables_follow_the_class_rule():
    # every entry of a table read off output masks equals the class rule's
    # score of that output string, on every pinned instance, on list
    # instances and on knapsack records
    tables = list(_pinned_instances())
    tables += [(KS, list(w)) for p, w in tables if p is KS]
    tables += [(KS, knapsack_instance(w)) for p, w in tables if p is KS and type(w) is tuple]
    tables += [(OM, [list(e) for e in edges]) for p, edges in tables if p is OM]
    tables += [(p, flags) for p in (_MustTake(), _MustAvoid()) for flags in product((0, 1), repeat=4)]
    for problem, instance in tables:
        table = _score_table(problem, instance)
        n = len(problem.requests(instance))
        assert len(table) == 2**n
        for mask, y in enumerate(all_bitstrings(n)):
            assert table[mask] == problem.score(instance, y), (problem.name, instance, y)


def _membership_on_strings(problem, instances):
    """aoc_membership_check as it read every output string before the
    table was read off masks: the reference for the violation lists."""
    bad = []
    for instance in instances:
        n = len(problem.requests(instance))
        scores = {y: problem.score(instance, y) for y in all_bitstrings(n)}
        best = problem._best(scores.values())
        if best in (PLUS_INF, MINUS_INF):
            bad.append({"instance": instance, "reason": "no feasible output"})
            continue
        optima = [y for y, s in scores.items() if s == best]
        for y, s in scores.items():
            if s not in (PLUS_INF, MINUS_INF):
                if s != (ones(y) if problem.objective == "min" else zeros(y)):
                    bad.append({"instance": instance, "y": y, "reason": "score is not the bit count"})
            elif any(dominates(opt, y) for opt in optima):
                bad.append({"instance": instance, "y": y, "reason": "dominates an optimum but infeasible"})
    return bad


class _ExactlyTheFlags(_MustTake):
    """Broken: accepting more than the flagged rounds is infeasible, so
    feasibility is not closed upward."""

    name = "exactly-the-flags"

    def feasible(self, instance, accepted):
        return accepted == {i for i, flag in enumerate(instance, 1) if flag}


class _EvenlyMany(_MustAvoid):
    """Broken: only an even number of accepted rounds is feasible, so
    feasibility is not closed downward."""

    name = "evenly-many"

    def feasible(self, instance, accepted):
        return len(accepted) % 2 == 0


class _Never(_MustTake):
    """Broken: no output is feasible."""

    name = "never"

    def feasible(self, instance, accepted):
        return False


@pytest.mark.parametrize("problem", [_ExactlyTheFlags(), _EvenlyMany(), _Never()], ids=lambda p: p.name)
def test_membership_violations_match_the_string_reference(problem):
    flags = [tuple(map(int, x)) for n in range(5) for x in all_bitstrings(n)]
    violations = aoc_membership_check(problem, flags)
    assert violations  # the problem is broken
    assert violations == _membership_on_strings(problem, flags)


# --- the problem runner ---------------------------------------------------


def _runs_by_hand(problem, pair, instances):
    """Each run as `Problem.run` made it before the runner: the requests
    of the instance as given, and the answer scored by the public score."""
    for instance in instances:
        advice = list(pair.oracle(instance))
        tape = AdviceTape(advice)
        y = run_online(pair.algorithm(), tape, problem.requests(instance))
        yield instance, advice, RunResult(y, problem.score(instance, y), tape.bits_read)


def test_run_all_matches_runs_scored_by_the_public_score():
    # the covering pair on every constructed instance to n = 5, knapsack on
    # weight tuples, lists and records, and greedy matching on edge lists
    cases = []
    for name, build in CONSTRUCTIONS.items():
        instances = [build(x) for n in range(1, 6) for x in all_bitstrings(n) if ones(x) >= 3]
        cases.append((PROBLEMS[name], aoc_generic(PROBLEMS[name], Fraction(3, 2)), instances))
    weights = [w for n in range(4) for w in product(KNAPSACK_POOL[:5], repeat=n)]
    cases.append((KS, knapsack_two_competitive(), weights + [list(w) for w in weights]
                  + [knapsack_instance(w) for w in weights]))
    k4 = list(combinations(range(1, 5), 2))
    graphs = [[list(e) for i, e in enumerate(k4) if mask >> i & 1] for mask in range(1 << len(k4))]
    cases.append((OM, greedy_matching(), graphs))
    for problem, pair, instances in cases:
        assert list(problem.run_all(pair, instances)) == list(_runs_by_hand(problem, pair, instances))
        assert [problem.run(pair, i) for i in instances] == [r[1:] for r in problem.run_all(pair, instances)]


class _FailOnTwoFlags(OnlineAlgorithm):
    """Reads a flag count from the tape; on count 2 it answers `bad`, or
    raises it when it is an exception."""

    bad = 2

    def begin(self, tape):
        self.count = decode_int(tape)

    def answer(self, i, request):
        if self.count != 2:
            return 1
        if isinstance(self.bad, Exception):
            raise self.bad
        return self.bad


def _first_failure(runs):
    """(the instances run before the first error, the error's type and text)."""
    done = []
    try:
        for instance in runs:
            done.append(instance)
    except (ValueError, RuntimeError) as exc:
        return done, type(exc), str(exc)
    return done, None, None


@pytest.mark.parametrize("bad", [2, None, RuntimeError("no answer on two flags")])
def test_run_all_fails_where_run_fails(monkeypatch, bad):
    monkeypatch.setattr(_FailOnTwoFlags, "bad", bad)
    problem = _MustTake()
    pair = AdvicePair(lambda flags: encode_int(sum(flags)), _FailOnTwoFlags, lambda n: 0)
    flags = list(product((0, 1), repeat=4))
    each = (problem.run(pair, f) and f for f in flags)
    together = (f for f, _, _ in problem.run_all(pair, flags))
    done, kind, text = _first_failure(together)
    assert (done, kind, text) == _first_failure(each)
    assert done[-1] == (0, 0, 1, 0) and kind is not None  # (0, 0, 1, 1) is the first with two


def test_run_all_reads_one_instance_per_result():
    read = []

    def instances():
        for flags in product((0, 1), repeat=3):
            read.append(flags)
            yield flags

    runs = _MustTake().run_all(aoc_generic(_MustTake(), 2), instances())
    assert read == []
    for count in range(1, 9):
        instance, _, result = next(runs)
        assert len(read) == count and read[-1] == instance
        assert competitive_ok("min", result.score, sum(instance), 2)
    assert next(runs, None) is None
