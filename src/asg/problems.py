"""The target online problems and their hard-instance constructions.

Graph problems use the vertex-arrival model: round i reveals vertex i plus
its edges to vertices 1..i-1, and the algorithm immediately answers.  For
minimization problems answering 1 accepts the request into the solution;
for maximization problems 0 accepts, so that a feasible score is always
the count dominated-side bits of the answer string (1s for min, 0s for
max) and domination toward an optimal answer string preserves feasibility.

Each Problem object bundles the arrival model (requests), its feasibility
rule (the `feasible` method) and a brute-force optimum, so the covering
protocols can be pointed at any of them.  The construction functions build
the instance families on which the guessing game embeds into each problem:
a split graph, a unique-cycle graph, a star, a singleton cover, and a
halving family of subpaths.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from asg.core import (
    MINUS_INF,
    PLUS_INF,
    AdviceTape,
    JsonRecord,
    RunResult,
    Score,
    check_bits,
    check_work,
    one_positions,
    run_online,
    weight_ratio,
)

__all__ = [
    "VertexArrivalGraph",
    "SetCoverInstance",
    "DisjointPathInstance",
    "KnapsackInstance",
    "knapsack_instance",
    "Problem",
    "VertexCover",
    "CycleFinding",
    "DominatingSet",
    "SetCover",
    "IndependentSet",
    "DisjointPaths",
    "UnitKnapsack",
    "EdgeMatching",
    "PROBLEMS",
    "split_graph",
    "unique_cycle_graph",
    "star_domination_graph",
    "singleton_cover_instance",
    "halving_paths_instance",
    "CONSTRUCTIONS",
    "aoc_membership_check",
]

BRUTE_GUARD = 16  # selections are enumerated exhaustively up to this length


# --- instance types ---------------------------------------------------------


class VertexArrivalGraph(JsonRecord, namedtuple("VertexArrivalGraph", "n edges")):
    """A graph revealed vertex by vertex; vertices are 1..n in arrival
    order and every edge (i, j) with i < j arrives together with j."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset):
        for i, j in edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"edge ({i},{j}) out of order or range")
        return super().__new__(cls, n, edges)

    def neighbors_before(self, j: int) -> tuple[int, ...]:
        return tuple(sorted(i for i, k in self.edges if k == j))

    def __len__(self) -> int:
        return self.n

    def to_json(self) -> dict:
        return {"n": self.n, "arrivals": [list(self.neighbors_before(j)) for j in range(1, self.n + 1)]}


class SetCoverInstance(JsonRecord, namedtuple("SetCoverInstance", "universe requests")):
    """Known universe, subsets arriving online; their union is the universe."""

    __slots__ = ()

    def __new__(cls, universe: tuple, requests: tuple):
        union = set()
        for r in requests:
            union.update(r)
        if union != set(universe):
            raise ValueError("requests must union to the universe")
        return super().__new__(cls, universe, requests)

    def __len__(self) -> int:
        return len(self.requests)


class DisjointPathInstance(JsonRecord, namedtuple("DisjointPathInstance", "length requests")):
    """Subpath requests (u, v), 0 <= u < v <= length, on a fixed path."""

    __slots__ = ()

    def __new__(cls, length: int, requests: tuple):
        for u, v in requests:
            if not (0 <= u < v <= length):
                raise ValueError(f"request ({u},{v}) leaves the path")
        return super().__new__(cls, length, requests)

    def __len__(self) -> int:
        return len(self.requests)


class KnapsackInstance(namedtuple("KnapsackInstance", "weights loads scale")):
    """Unit-knapsack items in arrival order, scaled and checked once: built
    from the weights alone, each read as `weight_ratio` reads it, with
    `loads`, their integer numerators over `scale`, the lcm of their
    denominators.  Items fit exactly when their loads sum to at most the
    scale.  Records with equal weights are equal."""

    __slots__ = ()

    def __new__(cls, weights: tuple):
        # exact ints and Fractions are read inline, which saves a call per
        # weight on the packing battery's hot path, and range-checked here
        ratios = [w.as_integer_ratio() if type(w) in (Fraction, int) else weight_ratio(w) for w in weights]
        for num, den in ratios:
            if not 0 <= num <= den:
                raise ValueError(f"knapsack weight {Fraction(num, den)} is outside [0, 1]")
        scale = math.lcm(*[d for _, d in ratios])
        return super().__new__(cls, weights, tuple([n * (scale // d) for n, d in ratios]), scale)

    def _replace(self, *, weights):
        """A record of other weights, scaled anew."""
        return KnapsackInstance(weights)

    def permuted(self, order) -> KnapsackInstance:
        """The items in `order`, a sequence of their indices, under this record's scale."""
        fields = [tuple([field[i] for i in order]) for field in (self.weights, self.loads)]
        return super().__new__(KnapsackInstance, *fields, self.scale)

    def __hash__(self) -> int:  # on the integer loads and scale: a Fraction hashes in Python
        return hash(self[1:])

    def __getnewargs__(self):  # copy and pickle rebuild the record from its weights
        return (self.weights,)

    def __len__(self) -> int:
        return len(self.weights)


def knapsack_instance(weights) -> KnapsackInstance:
    """The one reader of knapsack instances: a record as it is, a tuple or
    list of weights as a new record."""
    return weights if type(weights) is KnapsackInstance else KnapsackInstance(tuple(weights))


# --- the problems -----------------------------------------------------------


class Problem:
    """An online problem in the asymmetric online covering class.

    A problem states only which sets of accepted rounds are feasible; one
    class rule scores every answer: a feasible one costs (min) or earns
    (max) the number of rounds it accepts, an infeasible one scores +inf
    (min) or -inf (max).  Feasibility must be closed upward (min) or
    downward (max); `aoc_membership_check` verifies that on a family.

    `_prepared` gives the instance as `feasible`, `score` and the score
    table read it: hashable, and its `len()` is its number of requests.
    Equal prepared instances share one table of the scores of every
    output, built by `_score_table` and read by `opt`, `optimal_strings`
    and `aoc_membership_check`.  `run_all` is the one place an
    oracle/algorithm pair runs on instances; `run` runs it on one.
    """

    name: str = ""
    objective: str = ""

    def requests(self, instance) -> list:
        raise NotImplementedError

    def feasible(self, instance, accepted: set[int]) -> bool:
        """Whether accepting exactly the 1-based rounds in `accepted` is a
        feasible answer on the prepared instance."""
        raise NotImplementedError

    def score(self, instance, y: str) -> Score:
        instance = self._prepared(instance)
        check_bits(y)
        if len(y) != len(instance):
            raise ValueError(f"answer length {len(y)} != {len(instance)} requests")
        return self._scored(instance, y)

    def _scored(self, instance, y: str) -> Score:
        """The class rule's score of a well-formed y on the prepared instance."""
        accept = "1" if self.objective == "min" else "0"
        accepted = {i for i, b in enumerate(y, 1) if b == accept}
        if self.feasible(instance, accepted):
            return len(accepted)
        return PLUS_INF if self.objective == "min" else MINUS_INF

    def _prepared(self, instance):
        """The instance as `feasible` reads it, once per run, score call or table;
        a problem overrides it to make a list hashable or to scale once."""
        return instance

    def run_all(self, pair, instances):
        """(instance, advice, RunResult) per instance, read one per result: the
        counterpart of `core.run_all`, with no play memo.  Each is prepared once,
        and the answer, well formed by `run_online`, is scored by the class rule
        without a second check."""
        for instance in instances:
            prepared = self._prepared(instance)
            advice = list(pair.oracle(instance))
            tape = AdviceTape(advice)
            y = run_online(pair.algorithm(), tape, self.requests(prepared))
            yield instance, advice, RunResult(y, self._scored(prepared, y), tape.bits_read)

    def run(self, pair, instance) -> tuple[list[int], RunResult]:
        """`run_all` on one instance, the counterpart of `core.run_asg`: the
        advice, and the answer, its score and the bits the algorithm read."""
        return next(self.run_all(pair, (instance,)))[1:]

    def opt(self, instance) -> Score:
        return self._best(_score_table(self, instance))

    def optimal_strings(self, instance) -> list[str]:
        """All optimum answer strings, lexicographically sorted; empty when
        no output is feasible."""
        scores = _score_table(self, instance)
        best = self._best(scores)
        if best in (PLUS_INF, MINUS_INF):
            return []
        n = len(scores).bit_length() - 1
        return [_answer(mask, n) for mask, s in enumerate(scores) if s == best]

    def _best(self, scores) -> Score:
        return min(scores) if self.objective == "min" else max(scores)


def _answer(mask: int, n: int) -> str:
    """Output mask as its n-bit answer string ("" for n = 0): bit n, set and
    then cut off, keeps the mask's leading zeros."""
    return format(mask | 1 << n, "b")[1:]


SCORE_TABLES = 1024  # tables kept, least recently used dropped first; each holds 2^n scores


def _score_table(problem: Problem, instance) -> tuple[Score, ...]:
    """The scores of all 2^n outputs of the instance, in `all_bitstrings`
    order, memoised per (problem, prepared instance): equal instances, and
    a list and its tuple twin, share one table."""
    return _scores(problem, problem._prepared(instance))


@lru_cache(maxsize=SCORE_TABLES)
def _scores(problem: Problem, instance) -> tuple[Score, ...]:
    n = len(instance)
    check_work("brute-force requests", n, BRUTE_GUARD)
    chosen = _subsets(n)  # entry mask: the rounds of the mask's 1 bits
    # accepting is answering 1 (min) or 0 (max); a mask's 0 bits are its
    # complement's 1 bits, and the complements of masks 0, 1, ... run in reverse
    accepted, fail = (chosen, PLUS_INF) if problem.objective == "min" else (reversed(chosen), MINUS_INF)
    feasible = problem.feasible
    return tuple(len(s) if feasible(instance, s) else fail for s in accepted)


@lru_cache(maxsize=BRUTE_GUARD + 1)
def _subsets(n: int) -> tuple[frozenset, ...]:
    """Each n-bit output's rounds, shared by every table of length n: output y
    is the mask y reads in binary, so round i is bit n - i."""
    chosen = [frozenset()]
    for i in range(n, 0, -1):
        chosen += [s | {i} for s in chosen]
    return tuple(chosen)


class _GraphProblem(Problem):
    def requests(self, instance: VertexArrivalGraph) -> list:
        return [instance.neighbors_before(j) for j in range(1, instance.n + 1)]


class VertexCover(_GraphProblem):
    name = "vc"
    objective = "min"

    def feasible(self, instance: VertexArrivalGraph, accepted: set[int]) -> bool:
        return all(i in accepted or j in accepted for i, j in instance.edges)


class CycleFinding(_GraphProblem):
    """Accept vertices whose induced subgraph ends up containing a cycle;
    only meaningful on graphs that contain one."""

    name = "cf"
    objective = "min"

    def feasible(self, instance: VertexArrivalGraph, accepted: set[int]) -> bool:
        # union-find: an edge inside one component closes a cycle
        parent = {v: v for v in accepted}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, j in instance.edges:
            if i in accepted and j in accepted:
                ri, rj = find(i), find(j)
                if ri == rj:
                    return True
                parent[ri] = rj
        return False


class DominatingSet(_GraphProblem):
    name = "ds"
    objective = "min"

    def feasible(self, instance: VertexArrivalGraph, accepted: set[int]) -> bool:
        dominated = set(accepted)
        for i, j in instance.edges:
            if i in accepted or j in accepted:
                dominated.update((i, j))
        return dominated.issuperset(range(1, instance.n + 1))


class SetCover(Problem):
    name = "sc"
    objective = "min"

    def requests(self, instance: SetCoverInstance) -> list:
        return [tuple(sorted(r)) for r in instance.requests]

    def feasible(self, instance: SetCoverInstance, accepted: set[int]) -> bool:
        got = set()
        for i in accepted:
            got.update(instance.requests[i - 1])
        return got == set(instance.universe)


class IndependentSet(_GraphProblem):
    name = "is"
    objective = "max"

    def feasible(self, instance: VertexArrivalGraph, accepted: set[int]) -> bool:
        return not any(i in accepted and j in accepted for i, j in instance.edges)


class DisjointPaths(Problem):
    name = "dpa"
    objective = "max"

    def requests(self, instance: DisjointPathInstance) -> list:
        return list(instance.requests)

    def feasible(self, instance: DisjointPathInstance, accepted: set[int]) -> bool:
        spans = [instance.requests[i - 1] for i in sorted(accepted)]
        spans.sort()
        return all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


class UnitKnapsack(Problem):
    """Instances are `KnapsackInstance` records, or tuples or lists of
    weights, which `knapsack_instance` turns into one."""

    name = "ks"
    objective = "max"
    _prepared = staticmethod(knapsack_instance)

    def requests(self, instance) -> tuple:
        return knapsack_instance(instance).weights

    def feasible(self, instance: KnapsackInstance, accepted: set[int]) -> bool:
        return sum([instance.loads[i - 1] for i in accepted]) <= instance.scale


class EdgeMatching(Problem):
    name = "om"
    objective = "max"

    def requests(self, instance) -> list:
        return [tuple(e) for e in instance]

    def feasible(self, instance: tuple, accepted: set[int]) -> bool:
        seen = set()
        for i in accepted:
            for v in instance[i - 1]:
                if v in seen:
                    return False
                seen.add(v)
        return True

    def _prepared(self, instance) -> tuple:
        return tuple(map(tuple, instance))


PROBLEMS = {
    p.name: p
    for p in (
        VertexCover(),
        CycleFinding(),
        DominatingSet(),
        SetCover(),
        IndependentSet(),
        DisjointPaths(),
        UnitKnapsack(),
        EdgeMatching(),
    )
}


# --- hard-instance constructions --------------------------------------------


def _max_one(x: str) -> int:
    pos = one_positions(x)
    if not pos:
        raise ValueError("needs at least one 1")
    return pos[-1]


def split_graph(x: str) -> VertexArrivalGraph:
    """Ones form a clique, zeros an independent set: edge (i, j) for every
    i < j with x_i = 1."""
    check_bits(x)
    n = len(x)
    edges = {(i, j) for i in range(1, n + 1) if x[i - 1] == "1" for j in range(i + 1, n + 1)}
    return VertexArrivalGraph(n, frozenset(edges))


def unique_cycle_graph(x: str) -> VertexArrivalGraph:
    """Each vertex links back to the latest 1 before it; one extra edge
    from the first 1 to the last closes a cycle through exactly the
    1-vertices (a real cycle once x has three or more 1s)."""
    check_bits(x)
    pos = one_positions(x)
    if not pos:
        raise ValueError("needs at least one 1")
    n = len(x)
    edges = set()
    last = None
    for i in range(1, n + 1):
        if last is not None:
            edges.add((last, i))
        if x[i - 1] == "1":
            last = i
    if pos[0] != pos[-1]:
        edges.add((pos[0], pos[-1]))
    return VertexArrivalGraph(n, frozenset(edges))


def star_domination_graph(x: str) -> VertexArrivalGraph:
    """Every zero-vertex hangs off the last 1-vertex; the 1-vertices are a
    smallest dominating set."""
    check_bits(x)
    top = _max_one(x)
    n = len(x)
    edges = {(min(i, top), max(i, top)) for i in range(1, n + 1) if x[i - 1] == "0"}
    return VertexArrivalGraph(n, frozenset(edges))


def singleton_cover_instance(x: str) -> SetCoverInstance:
    """Universe 1..n; request i is {i}, except the last 1-position also
    sweeps up every zero position."""
    check_bits(x)
    top = _max_one(x)
    n = len(x)
    requests = []
    for i in range(1, n + 1):
        if i == top:
            requests.append(tuple(sorted({top, *(j for j in range(1, n + 1) if x[j - 1] == "0")})))
        else:
            requests.append((i,))
    return SetCoverInstance(tuple(range(1, n + 1)), tuple(requests))


HALVING_PATHS_LIMIT = 30  # longest x built: the path has 2^n edges


def halving_paths_instance(x: str) -> DisjointPathInstance:
    """Subpaths of halving lengths on a path with 2^n edges: request i has
    length 2^(n-i) and starts where request i-1 started (x_{i-1} = 1) or
    ended (x_{i-1} = 0).  A request at a 1-position overlaps every later
    request; one at a 0-position overlaps none of them."""
    check_bits(x)
    n = len(x)
    check_work("halving-paths length", n, HALVING_PATHS_LIMIT)
    if n == 0:
        return DisjointPathInstance(1, ())
    u, requests = 0, []
    for i in range(1, n + 1):
        if i > 1 and x[i - 2] == "0":
            u = requests[-1][1]
        requests.append((u, u + (1 << (n - i))))
    return DisjointPathInstance(1 << n, tuple(requests))


CONSTRUCTIONS = {
    "vc": split_graph,
    "cf": unique_cycle_graph,
    "ds": star_domination_graph,
    "sc": singleton_cover_instance,
    "is": split_graph,
    "dpa": halving_paths_instance,
}


# --- class membership -------------------------------------------------------


def aoc_membership_check(problem: Problem, instances) -> list[dict]:
    """Verify the class condition on every given instance and every
    output: any output dominating some optimal output is feasible.  The
    other condition, that a feasible output scores its 1s (min) or 0s
    (max), holds by construction: the score table writes every finite
    score as that bit count.  Returns the list of violations, empty when
    the problem behaves like the guessing game on this family."""
    bad = []
    for instance in instances:
        scores = _score_table(problem, instance)
        n = len(scores).bit_length() - 1
        best = problem._best(scores)
        if best in (PLUS_INF, MINUS_INF):
            bad.append({"instance": instance, "reason": "no feasible output"})
            continue
        # bitsets with bit m for output mask m: the outputs dominating an optimum
        # are the optima's up-closure, each bit added in turn to every mask without it
        size = len(scores)
        up = int("".join(["1" if s == best else "0" for s in reversed(scores)]), 2)
        for i in range(n):
            half = 1 << i  # the masks without bit i: the low half of every 2^(i+1)
            up |= (up & int(("0" * half + "1" * half) * (size // (2 * half)), 2)) << half
        infeasible = int("".join(["1" if s in (PLUS_INF, MINUS_INF) else "0" for s in reversed(scores)]), 2)
        if up & infeasible:
            marks = format(up & infeasible, f"0{size}b")[::-1]  # index m: output mask m
            bad += [{"instance": instance, "y": _answer(mask, n), "reason": "dominates an optimum but infeasible"}
                    for mask, mark in enumerate(marks) if mark == "1"]
    return bad
