"""Span recording for the traced run, kept entirely outside the program.

Nothing under src/ knows about this module.  `install` rebinds public
names of the loaded `asg.*` modules (the names in each module's
`__all__`, wherever another module imported them by value) and
`scipy.optimize.milp` to wrappers that record one span per call.

Spans carry an id, the id of the span that caused them and the id of
their root span (one root span per top-level call, so the spans of one
battery call or one CLI command share it).  They are kept in memory, up
to SPAN_CAP of them, and written out by `dump` when the process ends.
Per-name totals (calls, inclusive time, self time, longest call) are
accumulated exactly for every call, also beyond the cap: self time is a
span's duration minus the time its child spans cover.

`call_cost` measures what one traced call adds to a bare call, so the
tracing overhead of a run can be given as calls times that cost instead
of as the difference of two noisy runs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.abc
import importlib.util
import json
import sys
import time

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [span id, root id, time covered by children]
        self.totals = {}  # name -> [calls, inclusive s, self s, longest call s]
        self.keys = {}  # name -> set of argument keys seen (for distinct counts)
        self.spans = []  # (id, parent id, root id, name, start, end)
        self.dropped = 0
        self.next_id = 1

    def wrap(self, name, fn, key=None):
        """`fn` with a span named `name` around every call.  `key`, when
        given, maps the call's positional arguments to a hashable value
        whose distinct occurrences are counted."""
        stack, spans = self.stack, self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
        seen = self.keys.setdefault(name, set()) if key is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent, root = (stack[-1][0], stack[-1][1]) if stack else (0, span_id)
            frame = [span_id, root, 0.0]
            stack.append(frame)
            if seen is not None:
                seen.add(key(args))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                if duration > totals[3]:
                    totals[3] = duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, root, name, start, end))
                else:
                    self.dropped += 1

        return traced

    def summary(self) -> dict:
        return {
            "totals": {name: list(t) for name, t in self.totals.items()},
            "distinct": {name: sorted(map(list, keys)) for name, keys in self.keys.items()},
            "calls": sum(t[0] for t in self.totals.values()),
            "dropped_spans": self.dropped,
        }

    def dump(self, path: str, **extra) -> None:
        """Write one line per retained span, then the summary line, which
        carries `extra` and the seconds the writing took (`dump_s`)."""
        started = time.perf_counter()
        with open(path, "w") as handle:
            for span_id, parent, root, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "root": root, "name": name,
                                "start": start, "end": end}) + "\n"
                )
            summary = {**self.summary(), **extra, "dump_s": time.perf_counter() - started}
            handle.write(json.dumps(summary) + "\n")


def read_dump(path) -> tuple[dict, list[str]]:
    """The summary and the span lines `Tracer.dump` wrote."""
    with open(path) as handle:
        lines = handle.readlines()
    return json.loads(lines[-1]), lines[:-1]


COST_CALLS = 20_000  # calls per timing loop, well under SPAN_CAP
COST_REPEATS = 5


def call_cost() -> float:
    """Seconds one traced call adds to a bare call: the best of COST_REPEATS
    loops of COST_CALLS calls each, traced minus bare."""
    def noop():
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            fn()
        return time.perf_counter() - start

    # a fresh tracer per loop, so that every call keeps its span
    best_traced = min(loop(Tracer().wrap("cost", noop)) for _ in range(COST_REPEATS))
    best_bare = min(loop(noop) for _ in range(COST_REPEATS))
    return max(0.0, best_traced - best_bare) / COST_CALLS


def _asg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "asg" or name.startswith("asg."))]


def _rebind(original, replacement, extra_modules=()) -> None:
    """Point every loaded asg.* module attribute that holds `original` (and
    the same attribute of `extra_modules`) at `replacement`."""
    for module in [*_asg_modules(), *extra_modules]:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _public(module_name: str, name: str):
    module = sys.modules[module_name]
    if name not in getattr(module, "__all__", ()):
        raise LookupError(f"{module_name}.{name} is not public")
    return getattr(module, name)


# (module, public name, span name): plain functions traced as they are
FUNCTION_SPANS = (
    ("asg.core", "run_asg", "core.run_asg"),
    ("asg.core", "run_online", "core.run_online"),
    ("asg.designs", "exact_cover_number", "designs.exact"),
    ("asg.designs", "design_for", "designs.design_for"),
    ("asg.designs", "greedy_cover", "designs.greedy"),
    ("asg.adversary", "min_game_against", "adversary.min_game"),
    ("asg.adversary", "exact_strategy_count", "adversary.exact_count"),
    ("asg.adversary", "strategy_count_bounds", "adversary.count_bounds"),
    ("asg.bounds", "check_min_quotient_approx", "bounds.quotient"),
    ("asg.bounds", "check_max_quotient_approx", "bounds.quotient"),
    ("asg.bounds", "exp_growth_floor_sweep", "bounds.growth_sweep"),
    ("asg.problems", "aoc_membership_check", "problems.membership"),
)

# factories whose returned AdvicePair gets its oracle and budget traced
PAIR_FACTORIES = (
    ("asg.algorithms", "algorithms"),
    ("asg.reductions", "reductions"),
)

DISTINCT_KEYS = {"designs.exact": lambda args: tuple(args[:3])}


def _traced_factory(tracer, factory, prefix):
    """`factory` returning, whenever it builds an AdvicePair, one whose
    oracle and budget are traced; its other results pass through."""
    from asg.algorithms import AdvicePair

    oracle_span = "reductions.lift_oracle" if prefix == "reductions" else "algorithms.oracle"

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        result = factory(*args, **kwargs)
        if not isinstance(result, AdvicePair):
            return result
        return dataclasses.replace(
            result,
            oracle=tracer.wrap(oracle_span, result.oracle),
            budget=tracer.wrap(f"{prefix}.budget", result.budget),
        )

    return traced_factory


def install(tracer: Tracer) -> None:
    """Rebind the traced public names in every loaded asg.* module."""
    import asg.problems
    import asg.suite

    for module_name, name, span in FUNCTION_SPANS:
        original = _public(module_name, name)
        _rebind(original, tracer.wrap(span, original, DISTINCT_KEYS.get(span)))

    for module_name, prefix in PAIR_FACTORIES:
        module = sys.modules[module_name]
        for name in module.__all__:
            factory = getattr(module, name)
            if callable(factory) and not isinstance(factory, type):
                _rebind(factory, _traced_factory(tracer, factory, prefix))

    # problem classes: score and the brute-force optimum, on each public
    # class that defines them (the base class's opt covers the subclasses)
    for name in asg.problems.__all__:
        cls = getattr(asg.problems, name)
        if isinstance(cls, type) and issubclass(cls, asg.problems.Problem):
            for method in ("score", "opt"):
                if method in vars(cls):
                    setattr(cls, method, tracer.wrap(f"problems.{method}", vars(cls)[method]))

    for name in asg.suite.__all__:
        if name.startswith("battery_"):
            original = getattr(asg.suite, name)
            _rebind(original, tracer.wrap(f"suite.{name[len('battery_'):]}", original))

    def trace_milp(optimize):
        milp = optimize.milp
        _rebind(milp, tracer.wrap("adversary.milp", milp), [optimize])

    # scipy.optimize is imported lazily by the program; importing it here
    # would move that cost out of the traced run, so wrap it once loaded
    if "scipy.optimize" in sys.modules:
        trace_milp(sys.modules["scipy.optimize"])
    else:
        sys.meta_path.insert(0, _AfterImport("scipy.optimize", trace_milp))


class _AfterImport(importlib.abc.MetaPathFinder):
    """Calls `callback(module)` right after the named module is first
    executed, then leaves the import machinery as it was."""

    def __init__(self, name, callback):
        self.name, self.callback = name, callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.callback(module)

        spec.loader.exec_module = exec_module
        return spec
