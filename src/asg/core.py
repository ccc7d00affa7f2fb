"""Core types and the run engine for string guessing with advice.

The guessing game: an adversary fixes a bit string x = x_1 ... x_n.  In round
i the algorithm answers a bit y_i.  Under known history it learns x_{i-1}
before answering round i; x_n needs no request, because no answer follows
it.  Under unknown history it learns nothing until the end.
The oracle sees all of x in advance and writes an infinite advice tape that
the algorithm may read at will; reading past the written prefix yields 0s.

Scoring is asymmetric.  An output y is feasible iff x dominates into y
(every 1 of x is a 1 of y).  The minimization variant pays the number of 1s
in y and an infeasible output costs +inf; the maximization variant earns the
number of 0s in y and an infeasible output earns -inf.

Bit strings are plain str objects over '0'/'1'.  Indexing in the public API
is 1-based, matching x = x_1 ... x_n.
"""

from __future__ import annotations

import enum
import io
import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "PLUS_INF",
    "MINUS_INF",
    "Score",
    "Variant",
    "AdviceTape",
    "MalformedAdviceError",
    "WorkLimitError",
    "check_work",
    "capped_comb",
    "RunResult",
    "OnlineAlgorithm",
    "check_bits",
    "ones",
    "zeros",
    "one_positions",
    "zero_positions",
    "dominates",
    "asg_score",
    "asg_opt",
    "all_bitstrings",
    "as_ratio",
    "design_shapes",
    "weight_ratio",
    "fill_count",
    "ceil_log2",
    "bit_list",
    "encode_fixed",
    "decode_fixed",
    "encode_int",
    "decode_int",
    "encoded_length",
    "run_asg",
    "run_all",
    "run_online",
    "competitive_ok",
    "JsonRecord",
    "to_plain",
    "json_text",
    "render_text",
]

# Scores are exact: a natural int when finite, one of these floats otherwise.
PLUS_INF = math.inf
MINUS_INF = -math.inf

Score = int | float


class JsonRecord:
    """Base of the result records, each an immutable named tuple declared as
    `class R(JsonRecord, namedtuple("R", "a b")): __slots__ = ()`.
    to_json() is the record's fields in declaration order, each written by
    to_plain.  A record that adds, renames or reformats a key overrides
    to_json.  `_make`, and so `_replace`, goes through the constructor, so a
    replaced record is checked as a new one is."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {name: to_plain(value) for name, value in zip(self._fields, self)}

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def to_plain(value):
    """The JSON value of a result: a record through its to_json, tuples and
    lists as lists, dicts by value, a Fraction as "P/Q" and an infinite
    score as "+inf"/"-inf"; anything else as it is."""
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return value


def json_text(value) -> str:
    """The text every JSON result is written as: to_plain(value), indented
    by two spaces, with a final newline."""
    return json.dumps(to_plain(value), indent=2) + "\n"


def render_text(fmt: str, value, header, rows) -> str:
    """A result in format fmt: "json" is json_text(value); "csv" is the
    header row, then the rows, each line ending in a bare newline."""
    if fmt == "json":
        return json_text(value)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    import csv  # only the curve and suite commands write CSV

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class Variant(enum.Enum):
    """The four game variants: objective x what the rounds reveal."""

    MIN_UNKNOWN = ("min", "unknown")
    MIN_KNOWN = ("min", "known")
    MAX_UNKNOWN = ("max", "unknown")
    MAX_KNOWN = ("max", "known")

    def __init__(self, objective: str, history: str):
        self.objective = objective
        self.history = history


def check_bits(x: str) -> str:
    if not isinstance(x, str) or x.strip("01"):
        raise ValueError(f"{x!r} is not a 0/1 string")
    return x


def ones(x: str) -> int:
    return x.count("1")


def zeros(x: str) -> int:
    return x.count("0")


def one_positions(x: str) -> tuple[int, ...]:
    return tuple(i + 1 for i, ch in enumerate(x) if ch == "1")


def zero_positions(x: str) -> tuple[int, ...]:
    return tuple(i + 1 for i, ch in enumerate(x) if ch == "0")


def dominates(x: str, y: str) -> bool:
    """True iff every 1 of x is also a 1 of y (x and y of equal length)."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return not x or int(x, 2) & ~int(y, 2) == 0


def asg_score(objective: str, x: str, y: str) -> Score:
    """Score of output y against input x under the given objective."""
    if objective == "min":
        return ones(y) if dominates(x, y) else PLUS_INF
    if objective == "max":
        return zeros(y) if dominates(x, y) else MINUS_INF
    raise ValueError(f"unknown objective: {objective!r}")


def asg_opt(objective: str, x: str) -> int:
    """Optimal score on input x: y = x is the best feasible output."""
    if objective == "min":
        return ones(x)
    if objective == "max":
        return zeros(x)
    raise ValueError(f"unknown objective: {objective!r}")


def all_bitstrings(n: int) -> Iterator[str]:
    """All 2^n strings of length n in lexicographic order."""
    for v in range(1 << n):
        yield format(v, f"0{n}b") if n else ""


def as_ratio(c) -> Fraction:
    """Coerce a competitive ratio to an exact rational; float notation is refused."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        if "." in c or "e" in c or "E" in c:
            raise ValueError(f"{c!r} looks like a float; give P/Q or an integer")
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{c!r} is not a rational") from None
    if isinstance(c, float):
        raise TypeError("competitive ratios must be exact rationals, not floats")
    raise TypeError(f"cannot interpret {c!r} as a rational ratio")


def design_shapes(objective: str, c, n: int) -> tuple[tuple[int, int], ...]:
    """The (k, t) of the (n, k, t) covering design serving each weight class.

    Entry w serves the length-n inputs with optimum w, i.e. w 1s (min) or
    w 0s (max): k = min(floor(c w), n), t = w for min, k = n - ceil(w/c),
    t = n - w for max.  The class needs a design exactly when 0 < t and
    k < n; the lower bound's quotient is binom(n,t)/binom(k,t).
    """
    c = as_ratio(c)
    p, q = c.numerator, c.denominator
    if objective == "min":
        return tuple((min(p * w // q, n), w) for w in range(n + 1))
    if objective == "max":
        return tuple((n + (-w * q) // p, n - w) for w in range(n + 1))
    raise ValueError(f"unknown objective: {objective!r}")


def weight_ratio(w) -> tuple[int, int]:
    """A knapsack weight in [0, 1] (int, float or Fraction; a float at its
    exact value) as its integer (numerator, denominator)."""
    if not isinstance(w, (int, float, Fraction)):
        raise TypeError(f"knapsack weight {w!r} is not an int, float or Fraction")
    try:
        num, den = w.as_integer_ratio()  # a NaN raises ValueError here
    except OverflowError:
        raise ValueError(f"knapsack weight {w!r} is not finite") from None
    if not 0 <= num <= den:
        raise ValueError(f"knapsack weight {w} is outside [0, 1]")
    return num, den


def fill_count(loads, scale: int) -> int:
    """The largest number of items whose integer loads fit within scale:
    the smallest first, as many as fit."""
    total = count = 0
    for w in sorted(loads):
        total += w
        if total > scale:
            break
        count += 1
    return count


class MalformedAdviceError(ValueError):
    """Raised when advice holds an impossible field."""


class WorkLimitError(RuntimeError):
    """A call's work is over its limit, a count in a module constant."""


def check_work(what: str, estimate: int, limit: int, *args) -> None:
    """The one work-limit rule, checked before the work: estimate <= limit.
    `what` names the work, formatted with args only when the check fails."""
    if estimate > limit:  # str() refuses ints past 4300 digits
        shown = estimate if estimate < 1 << 64 else "2^64 or more"
        raise WorkLimitError(f"{what.format(*args)} {shown}, over the limit {limit}")


def capped_comb(n: int, m: int) -> int:
    """C(n, m) while it is below 2^64, else a count of at least 2^64, which
    check_work names "2^64 or more": an estimate that never computes a
    huge binomial.  C(n, m) < 2^n, so for n <= 64 it is math.comb's; past
    that C(n, j) >= 2^j for j <= n/2 ends the product within 64 steps."""
    if n <= 64 or not 0 < m < n:
        return math.comb(n, m)
    value = 1
    for j in range(min(m, n - m)):
        value = value * (n - j) // (j + 1)  # C(n, j + 1), exactly
        if value >> 64:
            break
    return value


class AdviceTape:
    """One-way read access to an oracle-written tape.

    The tape is conceptually infinite: positions past the written prefix
    read as 0.  bits_read is the number of bits read, the advice cost of a
    run; with no seek it is also the furthest position reached.  The bits
    are held as bytes, so a block or a field is read with one slice.

    A tape is built from any iterable of bits: a list of 0/1 ints or bools
    becomes bytes in one call, and 0/1 bytes are kept as given; any other
    0/1-valued number (1.0, Fraction(1)) is converted one by one, and the
    first other value is refused.  A list or bytes is read as it is; any
    other iterable is copied into a list once, since the bits may be read
    twice.
    """

    def __init__(self, written: Iterable[int] = ()):
        if not isinstance(written, (list, bytes)):
            written = list(written)
        try:
            data = bytes(written)  # ints and bools; other numbers raise TypeError
        except (TypeError, ValueError):
            data = None
        if data is None or data.strip(b"\x00\x01"):
            for b in written:
                if b not in (0, 1):
                    raise ValueError(f"tape bits must be 0 or 1, got {b!r}")
            data = bytes(map(int, written))
        self._written = data
        self._cursor = 0

    def read_bit(self) -> int:
        i = self._cursor
        self._cursor = i + 1
        return self._written[i] if i < len(self._written) else 0

    def read(self, k: int) -> list[int]:
        i = self._cursor
        self._cursor = i + max(k, 0)
        block = list(self._written[i : i + k])
        return block + [0] * (k - len(block))

    @property
    def bits_read(self) -> int:
        return self._cursor


def ceil_log2(m: int) -> int:
    """ceil(log2 m) for m >= 1; by convention 0 for m in {0, 1}."""
    if m < 0:
        raise ValueError("ceil_log2 of a negative value")
    return (m - 1).bit_length() if m > 1 else 0


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def bit_list(x: str) -> list[int]:
    """The bits of a 0/1 string as ints, in one translate of its bytes."""
    return list(x.encode().translate(_BITS))


def encode_fixed(value: int, width: int) -> list[int]:
    """value on exactly width bits, most significant bit first."""
    if not 0 <= value < 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    # bin() of value with a 1 set above its top bit: "0b1" then the width bits
    return bit_list(bin(value | 1 << width)[3:])


def decode_fixed(tape: AdviceTape, width: int) -> int:
    """Inverse of encode_fixed, reading width >= 0 bits from an advice tape:
    one slice, and the bits past the written end as 0s."""
    if width < 0:
        raise ValueError(f"cannot read a field of negative width {width}")
    i = tape._cursor
    tape._cursor = i + width
    field = tape._written[i : i + width]
    return int(field.translate(_DIGITS) or b"0", 2) << (width - len(field))


def encode_int(m: int) -> list[int]:
    """Self-delimiting code for m >= 0.

    k = ceil(log(m+1)) written as k 1s and a terminating 0, then m itself
    on k bits.  Total length 2k+1; the codeword set is prefix-free.
    """
    if m < 0:
        raise ValueError("cannot encode a negative value")
    k = m.bit_length()  # equals ceil(log2(m+1))
    return encode_fixed(((1 << k) - 1) << (k + 1) | m, 2 * k + 1)


def encoded_length(m: int) -> int:
    """The length 2k+1 of encode_int(m), for m >= 0."""
    if m < 0:
        raise ValueError("cannot encode a negative value")
    return 2 * m.bit_length() + 1


def decode_int(tape: AdviceTape) -> int:
    """Inverse of encode_int, reading from an advice tape."""
    i = tape._cursor
    stop = tape._written.find(0, i)
    if stop < 0:  # no 0 written from i on: the zero extension ends the run
        stop = max(i, len(tape._written))
    tape._cursor = stop + 1
    return decode_fixed(tape, stop - i)


class OnlineAlgorithm:
    """Base class for online strategies driven by the run engine.

    begin() is called once with the advice tape before round 1; answer() is
    called once per round and must return 0 or 1.  Under known history the
    request argument is the previous input bit (None in round 1); x_n needs
    no request, because no answer follows it.  Under unknown history the
    request is always None.
    """

    def begin(self, tape: AdviceTape) -> None:
        self.tape = tape

    def answer(self, i: int, request) -> int:
        raise NotImplementedError


class RunResult(JsonRecord, namedtuple("RunResult", "y score bits")):
    """One run: the answer string, its score and the advice bits read."""

    __slots__ = ()


def run_online(algorithm: OnlineAlgorithm, tape: AdviceTape, requests: Sequence) -> str:
    """Drive one algorithm over a request sequence; returns the answer string."""
    algorithm.begin(tape)
    answers = []
    for i, request in enumerate(requests, start=1):
        a = algorithm.answer(i, request)
        if a not in (0, 1):
            raise ValueError(f"round {i}: algorithm answered {a!r}, expected 0 or 1")
        answers.append("1" if a else "0")
    return "".join(answers)


def _requests(variant: Variant, x: str) -> list:
    """The requests of a run on x: x's prefix under known history, else Nones."""
    return [None, *bit_list(x[:-1])] if x and variant.history == "known" else [None] * len(x)


def run_asg(variant: Variant, pair, x: str) -> RunResult:
    """Run an oracle/algorithm pair on input x under the given variant."""
    check_bits(x)
    tape = AdviceTape(pair.oracle(x))
    y = run_online(pair.algorithm(), tape, _requests(variant, x))
    return RunResult(y, asg_score(variant.objective, x, y), tape.bits_read)


def run_all(variant: Variant, pair, n: int) -> Iterator[tuple[str, RunResult]]:
    """(x, run_asg(variant, pair, x)) for every x of length n, in all_bitstrings
    order.  Each x has its own oracle call, tape and score, but the algorithm
    plays once per view, the written tape and the requests: all that a
    deterministic algorithm sees.  The plays last for this call only."""
    plays = {}  # view -> (y, bits read)
    for x in all_bitstrings(n):
        tape = AdviceTape(pair.oracle(x))
        view = (tape._written, x[:-1]) if variant.history == "known" else tape._written
        if view not in plays:
            plays[view] = run_online(pair.algorithm(), tape, _requests(variant, x)), tape.bits_read
        y, bits = plays[view]
        yield x, RunResult(y, asg_score(variant.objective, x, y), bits)


def competitive_ok(objective: str, alg_score: Score, opt_score: Score, c: Fraction | int) -> bool:
    """Strict c-competitiveness on one instance: ALG <= c OPT (min), OPT <= c ALG
    (max), in integers with c = p/q: ALG q <= p OPT, OPT q <= p ALG."""
    p, q = c.numerator, c.denominator
    if objective == "min":
        return alg_score * q <= p * opt_score
    if objective == "max":
        return opt_score * q <= p * alg_score
    raise ValueError(f"unknown objective: {objective!r}")

