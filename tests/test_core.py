import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asg import core
from asg.core import (
    MINUS_INF,
    PLUS_INF,
    AdviceTape,
    OnlineAlgorithm,
    Variant,
    all_bitstrings,
    asg_opt,
    asg_score,
    as_ratio,
    ceil_log2,
    decode_fixed,
    decode_int,
    design_shapes,
    dominates,
    encode_fixed,
    encode_int,
    encoded_length,
    run_all,
    run_asg,
)

bitstrings = st.text(alphabet="01", max_size=24)


def test_bit_helpers():
    assert core.bit_list("011010") == [0, 1, 1, 0, 1, 0]
    assert core.bit_list("") == []
    assert core.one_positions("011010") == (2, 3, 5)
    assert core.zero_positions("011010") == (1, 4, 6)


def test_dominates_examples():
    assert dominates("011010", "011011")
    assert not dominates("011010", "001111")
    assert dominates("0000", "1111")
    assert dominates("", "")
    with pytest.raises(ValueError):
        dominates("01", "011")


def test_dominates_agrees_with_the_per_bit_rule():
    # the integer test against the rule it replaced, on every pair n <= 8
    for n in range(9):
        strings = list(all_bitstrings(n))
        for x in strings:
            for y in strings:
                assert dominates(x, y) == all(a != "1" or b == "1" for a, b in zip(x, y)), (x, y)


def test_scores():
    assert asg_score("min", "011010", "011011") == 4
    assert asg_score("min", "011010", "001111") == PLUS_INF
    assert asg_score("max", "011010", "011011") == 2
    assert asg_score("max", "011010", "110111") == MINUS_INF
    assert asg_opt("min", "011010") == 3
    assert asg_opt("max", "011010") == 3


@given(bitstrings)
def test_self_score_is_optimal(x):
    assert asg_score("min", x, x) == x.count("1") == asg_opt("min", x)
    assert asg_score("max", x, x) == x.count("0") == asg_opt("max", x)


def test_min_score_of_x_is_minimum_over_feasible_outputs():
    # Exhaustive for n <= 10 via subset enumeration: y's feasible inputs are
    # exactly the sub-masks of y, so it suffices that no y strictly below
    # weight(x) dominates x.
    for n in range(0, 11):
        best = {}
        for yv in range(1 << n):
            w = bin(yv).count("1")
            sub = yv
            while True:
                if w < best.get(sub, n + 1):
                    best[sub] = w
                if sub == 0:
                    break
                sub = (sub - 1) & yv
        for xv in range(1 << n):
            assert best[xv] == bin(xv).count("1")


@given(bitstrings, bitstrings)
def test_feasibility_agrees_across_variants(x, y):
    if len(x) == len(y):
        min_feasible = asg_score("min", x, y) != PLUS_INF
        max_feasible = asg_score("max", x, y) != MINUS_INF
        assert min_feasible == max_feasible == dominates(x, y)


def test_all_bitstrings():
    assert list(all_bitstrings(0)) == [""]
    assert list(all_bitstrings(2)) == ["00", "01", "10", "11"]
    assert len(set(all_bitstrings(4))) == 16


def test_as_ratio():
    assert as_ratio("3/2") == Fraction(3, 2)
    assert as_ratio(2) == Fraction(2)
    assert as_ratio(Fraction(7, 3)) == Fraction(7, 3)
    with pytest.raises(TypeError):
        as_ratio(1.5)


SHAPE_RATIOS = [Fraction(1), Fraction(21, 20), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), 3, 7, 100]


@pytest.mark.parametrize("c", SHAPE_RATIOS, ids=str)
def test_design_shapes_follow_the_closed_forms(c):
    # entry w is the (k, t) design of the inputs with optimum w: k = min(floor(c w), n)
    # and t = w for min, k = n - ceil(w / c) and t = n - w for max
    for n in range(13):
        assert design_shapes("min", c, n) == tuple((min(math.floor(c * w), n), w) for w in range(n + 1))
        assert design_shapes("max", c, n) == tuple((n - math.ceil(Fraction(w) / c), n - w) for w in range(n + 1))
    with pytest.raises(ValueError, match="unknown objective"):
        design_shapes("mid", c, 3)


@pytest.mark.parametrize(
    "text, message",
    [("1/0", "'1/0' is not a rational"), ("1.5", "'1.5' looks like a float; give P/Q or an integer")],
)
def test_as_ratio_refuses_bad_text_in_one_line(text, message):
    with pytest.raises(ValueError) as info:
        as_ratio(text)
    assert str(info.value) == message


def test_tape_semantics():
    tape = AdviceTape([1, 0, 1])
    assert tape.read(2) == [1, 0]
    assert tape.bits_read == 2
    assert tape.read(3) == [1, 0, 0]  # past the written prefix: zeros
    assert tape.bits_read == 5
    assert AdviceTape([True, False]).read(2) == [1, 0]
    # any iterable of 0/1 values, bools and 0/1-valued numbers included
    for written in ((1, 0, 1), (b for b in (1, 0, 1)), [True, False, True], [1.0, 0.0, 1],
                    [Fraction(1), 0, True]):
        assert AdviceTape(written)._written == b"\x01\x00\x01"
    assert AdviceTape([1.0, 0.0])._written == b"\x01\x00"
    for written, bad in (([2], 2), (["1"], "1"), ([None], None), ([[1]], [1]), ([0, 1, 0.5], 0.5),
                         ([256], 256), ([-1], -1), ([True, 2], 2), ([1, b"\x01"], b"\x01"),
                         ([0, Fraction(1, 2)], Fraction(1, 2))):
        with pytest.raises(ValueError) as info:
            AdviceTape(written)
        assert str(info.value) == f"tape bits must be 0 or 1, got {bad!r}"  # the first bad bit


def test_a_tape_keeps_its_bits_as_given():
    # 0/1 bytes are the tape itself; a generator is copied once, so one of
    # floats, which the one-call conversion refuses, is still read bit by bit
    written = b"\x01\x00\x01"
    assert AdviceTape(written)._written is written
    tape = AdviceTape(b for b in (1.0, 0, True))
    assert (tape._written, tape.read(4)) == (b"\x01\x00\x01", [1, 0, 1, 0])
    with pytest.raises(ValueError, match="got 2"):
        AdviceTape(b for b in (1.0, 2))
    with pytest.raises(ValueError, match="got 2"):
        AdviceTape(b"\x01\x02")


class _PerBitTape:
    """The reference tape: one bit per read, zeros past the written end."""

    def __init__(self, written):
        self.written = list(written)
        self.bits_read = 0

    def read_bit(self):
        b = self.written[self.bits_read] if self.bits_read < len(self.written) else 0
        self.bits_read += 1
        return b

    def read(self, k):
        return [self.read_bit() for _ in range(k)]

    def decode_fixed(self, width):
        value = 0
        for _ in range(width):
            value = value << 1 | self.read_bit()
        return value

    def decode_int(self):
        k = 0
        while self.read_bit():
            k += 1
        return self.decode_fixed(k)


_TAPE_OPS = st.one_of(
    st.tuples(st.just("read_bit"), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, 70)),
    st.tuples(st.just("decode_fixed"), st.integers(0, 70)),
    st.tuples(st.just("decode_int"), st.just(0)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=40), st.lists(_TAPE_OPS, max_size=24))
def test_byte_tape_reads_as_the_per_bit_tape(written, ops):
    # every read, including codewords cut by the written end and reads far
    # past it, gives the per-bit values and the per-bit bits_read
    tape, ref = AdviceTape(written), _PerBitTape(written)
    real_ops = {
        "read_bit": lambda _: tape.read_bit(),
        "read": tape.read,
        "decode_fixed": lambda w: decode_fixed(tape, w),
        "decode_int": lambda _: decode_int(tape),
    }
    ref_ops = {
        "read_bit": lambda _: ref.read_bit(),
        "read": ref.read,
        "decode_fixed": ref.decode_fixed,
        "decode_int": lambda _: ref.decode_int(),
    }
    for op, arg in ops:
        assert real_ops[op](arg) == ref_ops[op](arg), (op, arg)
        assert tape.bits_read == ref.bits_read, (op, arg)


def test_ceil_log2():
    assert [ceil_log2(m) for m in [0, 1, 2, 3, 4, 5, 8, 9]] == [0, 0, 1, 2, 2, 3, 3, 4]


def test_encode_examples():
    assert encode_int(0) == [0]
    assert encode_int(1) == [1, 0, 1]
    assert encode_int(5) == [1, 1, 1, 0, 1, 0, 1]  # three 1s, 0, then 101
    assert encoded_length(5) == 7 == len(encode_int(5))


def test_fixed_width_codec():
    assert encode_fixed(5, 4) == [0, 1, 0, 1]
    assert encode_fixed(0, 0) == []
    assert decode_fixed(AdviceTape([0, 1, 0, 1, 1]), 4) == 5
    for value, width in ((4, 2), (1, 0), (-1, 3)):
        with pytest.raises(ValueError, match=f"^{value} does not fit in {width} bits$"):
            encode_fixed(value, width)


def test_decode_fixed_refuses_a_negative_width_before_moving_the_cursor():
    tape = AdviceTape([1, 0, 1])
    tape.read(3)
    with pytest.raises(ValueError, match="^cannot read a field of negative width -2$"):
        decode_fixed(tape, -2)
    assert tape.bits_read == 3


def test_encoded_length_refuses_a_negative_value_as_encode_int_does():
    for code in (encode_int, encoded_length):
        with pytest.raises(ValueError, match="^cannot encode a negative value$"):
            code(-5)


@given(st.integers(min_value=0, max_value=2**80 - 1), st.integers(min_value=0, max_value=8))
def test_codes_match_the_per_bit_definitions(m, extra):
    width = m.bit_length() + extra
    fixed = [(m >> shift) & 1 for shift in range(width - 1, -1, -1)]
    assert encode_fixed(m, width) == fixed
    assert encode_int(m) == [1] * m.bit_length() + [0] + fixed[extra:]


@given(st.text(alphabet="01", max_size=200))
def test_bit_list_matches_the_per_bit_definition(x):
    assert core.bit_list(x) == [int(ch) for ch in x]


@given(st.integers(min_value=0, max_value=2**20))
def test_encode_decode_round_trip(m):
    bits = encode_int(m)
    assert len(bits) == 2 * m.bit_length() + 1 == encoded_length(m)
    tape = AdviceTape(bits)
    assert decode_int(tape) == m
    assert tape.bits_read == len(bits)  # never past the written end
    # trailing content stays untouched
    tape = AdviceTape(bits + [1, 1, 0])
    assert decode_int(tape) == m
    assert tape.bits_read == len(bits)


@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=0, max_value=4000))
def test_encoding_prefix_free(m1, m2):
    if m1 != m2:
        b1, b2 = encode_int(m1), encode_int(m2)
        shorter, longer = sorted((b1, b2), key=len)
        assert longer[: len(shorter)] != shorter


def test_decode_malformed():
    # a cut codeword runs into the tape's zero extension, past the written end
    for bits, value in (
        ([1, 1], 0),  # unary part never terminated
        ([1, 1, 0, 1], 2),  # binary part cut short
    ):
        tape = AdviceTape(bits)
        assert decode_int(tape) == value
        assert tape.bits_read > len(bits)


class _Echo(OnlineAlgorithm):
    """Answers the advice tape verbatim, one bit per round."""

    def answer(self, i, request):
        return self.tape.read_bit()


class _Pair:
    def __init__(self, oracle, factory):
        self.oracle = oracle
        self.algorithm = factory


def test_run_asg_echo_pair():
    pair = _Pair(lambda x: [int(ch) for ch in x], _Echo)
    res = run_asg(Variant.MIN_UNKNOWN, pair, "011010")
    assert res.y == "011010"
    assert res.score == 3
    assert res.bits == 6
    assert res.to_json() == {"y": "011010", "score": 3, "bits": 6}


def test_unknown_history_depends_only_on_tape():
    # Same tape, different inputs: identical output and identical bits_read.
    fixed = [1, 0, 1, 1, 0, 0]
    pair = _Pair(lambda x: fixed, _Echo)
    outs = {run_asg(Variant.MAX_UNKNOWN, pair, x).y for x in all_bitstrings(6)}
    bits = {run_asg(Variant.MAX_UNKNOWN, pair, x).bits for x in all_bitstrings(6)}
    assert outs == {"101100"}
    assert bits == {6}


class _CopyPrev(OnlineAlgorithm):
    """Known history: guess that the current bit equals the previous one."""

    def answer(self, i, request):
        return 0 if request is None else request


def test_known_history_receives_previous_bits():
    pair = _Pair(lambda x: [], _CopyPrev)
    res = run_asg(Variant.MIN_KNOWN, pair, "0110")
    assert res.y == "0011"
    assert res.bits == 0


def test_run_rejects_bad_answers():
    class Bad(OnlineAlgorithm):
        def answer(self, i, request):
            return 2

    with pytest.raises(ValueError):
        run_asg(Variant.MIN_UNKNOWN, _Pair(lambda x: [], Bad), "01")


def test_run_all_plays_once_per_tape_and_requests(monkeypatch):
    # a view is the tape, and under known history the requests too: the
    # weight tape gives one play per weight, or per x under known history
    # (a prefix and a weight fix x); the empty tape gives one play, or one
    # per prefix
    plays = []
    real = core.run_online
    monkeypatch.setattr(core, "run_online", lambda *args: plays.append(1) or real(*args))
    weight, empty = (_Pair(oracle, _CopyPrev) for oracle in (lambda x: encode_int(x.count("1")), lambda x: []))
    for variant, pair, count in ((Variant.MIN_UNKNOWN, weight, 6), (Variant.MIN_KNOWN, weight, 32),
                                 (Variant.MAX_UNKNOWN, empty, 1), (Variant.MAX_KNOWN, empty, 16)):
        plays.clear()
        assert list(run_all(variant, pair, 5)) == [(x, run_asg(variant, pair, x)) for x in all_bitstrings(5)]
        assert len(plays) == count + 32  # run_asg plays every x once more
    assert list(run_all(Variant.MAX_KNOWN, weight, 0)) == [("", run_asg(Variant.MAX_KNOWN, weight, ""))]


class _FailOnWeightTwo(OnlineAlgorithm):
    """Reads a weight from the tape; on weight 2 it answers `bad`, or raises
    it when it is an exception."""

    bad = 2

    def begin(self, tape):
        self.weight = decode_int(tape)

    def answer(self, i, request):
        if self.weight != 2:
            return 1
        if isinstance(self.bad, Exception):
            raise self.bad
        return self.bad


def _first_failure(runs):
    """(the inputs run before the first error, the error's type and text)."""
    done = []
    try:
        for x in runs:
            done.append(x)
    except (ValueError, RuntimeError) as exc:
        return done, type(exc), str(exc)
    return done, None, None


@pytest.mark.parametrize("bad", [2, None, RuntimeError("no answer on weight 2")])
@pytest.mark.parametrize("variant", list(Variant))
def test_run_all_fails_where_run_asg_fails(monkeypatch, variant, bad):
    monkeypatch.setattr(_FailOnWeightTwo, "bad", bad)
    pair = _Pair(lambda x: encode_int(x.count("1")), _FailOnWeightTwo)
    each = (run_asg(variant, pair, x) and x for x in all_bitstrings(5))
    together = (x for x, _ in run_all(variant, pair, 5))
    done, kind, text = _first_failure(together)
    assert (done, kind, text) == _first_failure(each)
    assert done[-1] == "00010" and kind is not None  # 00011 is the first of weight 2


class _AllOnes(OnlineAlgorithm):
    def answer(self, i, request):
        return 1


def test_infeasible_output_fails_any_finite_ratio():
    assert not core.competitive_ok("min", PLUS_INF, 3, Fraction(100))
    assert not core.competitive_ok("max", MINUS_INF, 3, Fraction(100))
    assert core.competitive_ok("min", 4, 2, Fraction(2))
    assert not core.competitive_ok("min", 5, 2, Fraction(2))
    assert core.competitive_ok("max", 2, 4, Fraction(2))


SCORES = [MINUS_INF, *range(13), PLUS_INF]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(3), 2], ids=repr)
def test_competitive_ok_in_integers_agrees_with_the_fraction_form(c):
    for alg in SCORES:
        for opt in SCORES:
            assert core.competitive_ok("min", alg, opt, c) == (alg <= c * opt), (alg, opt)
            assert core.competitive_ok("max", alg, opt, c) == (opt <= c * alg), (alg, opt)


def test_variant_fields_and_lookup():
    v = Variant(("max", "known"))
    assert v is Variant.MAX_KNOWN
    assert (v.objective, v.history) == ("max", "known") == v.value
    for member in Variant:
        assert Variant(member.value) is member
        assert member.value == (member.objective, member.history)


def test_empty_input_has_no_rounds_in_either_history_model():
    pair = _Pair(lambda x: [], _AllOnes)
    for variant in Variant:
        res = run_asg(variant, pair, "")
        assert res.y == ""
        assert res.bits == 0
