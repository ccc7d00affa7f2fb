"""Closed-form advice bounds, the binary entropy, approximation checks, and
the sampled advice curve.

The central quantity is the per-input advice bound

    B(n, c) = n * log2(1 + (c-1)^(c-1) / c^c),

the number of advice bits needed and sufficient for strict c-competitiveness
on length-n inputs, up to O(log n).  It is sandwiched between the linear
envelopes n/(e ln2 c) and n/c, and is approximated within stated additive
slacks by the exact log of the maximal binomial quotient
binom(n,t)/binom(floor(c t), t) over weights t (minimization form) and by
binom(n,u)/binom(n - ceil(u/c), n - u) over zero counts u (maximization
form).

High-precision values are stdlib Decimals at 50 significant digits
(_PRECISION_DIGITS), computed from the exact integers of the ratio.  Sweeps
decide in floats from one log-factorial table and take exact big-integer
binomials, with logs at 50 digits, only where a value sits within the
table's proven error (_float_margin) of its threshold.  Ratios are exact
rationals; floats are rejected at the API boundary.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from asg.core import JsonRecord, as_ratio, check_work, render_text

__all__ = [
    "advice_bound",
    "envelope",
    "BoundReport",
    "bound_report",
    "log2_binom",
    "log_max_weight_quotient",
    "log_max_cozero_quotient",
    "QuotientApproxReport",
    "check_min_quotient_approx",
    "check_max_quotient_approx",
    "exp_growth_floor_sweep",
    "sg_comparison_value",
    "CURVE_STEPS",
    "CURVE_COLUMNS",
    "CurvePoint",
    "curve_point",
    "emit_curve",
    "render_curve",
]

_PRECISION_DIGITS = 50  # significant decimal digits of every Decimal computation
QUOTIENT_TOL = 1e-9  # absolute slack allowed on each side of a quotient window
_LN2 = math.log(2)

# the working context: _PRECISION_DIGITS digits, and exponents wide enough
# that no n or c a caller can pass overflows or underflows
_CONTEXT = Context(prec=_PRECISION_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
_SERIES_BELOW = Decimal("0.01")  # _log1p sums its series for |x| below this


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) for x > -1 at working precision, also where 1 + x would
    round to 1 and lose x.  Called inside _CONTEXT."""
    if abs(x) >= _SERIES_BELOW:  # rounding 1 + x costs at most two of x's digits
        return (1 + x).ln()
    # x - x^2/2 + x^3/3 - ...; each term is under 1/100 of the one before
    total, power, k = x, x, 1
    negligible = abs(x).scaleb(-_PRECISION_DIGITS - 1)
    while abs(power) > negligible:
        k += 1
        power *= -x
        total += power / k
    return total


def _ln(p: int, q: int = 1) -> Decimal:
    """ln(p/q) for positive integers at working precision, accurate relative
    to the result also for p/q near 1.  Called inside _CONTEXT."""
    if abs(p - q) >= q * _SERIES_BELOW:
        # |ln(p/q)| > 1/101, so rounding p/q costs at most two of its digits
        return (Decimal(p) / q).ln()
    return _log1p(Decimal(p - q) / q)


with localcontext(_CONTEXT):
    _LN2_D = _ln(2)
    _E_D = Decimal(1).exp()


def advice_bound(n: int, c) -> Decimal:
    """B(n, c) for rational c > 1, bits of advice for strict c-competitiveness.

    Evaluated as n log2(1 + r) with ln r = (c-1) ln((c-1)/c) - ln c, each
    log taken of an exact ratio of integers and log2(1 + r) kept precise for
    tiny r, so the value stays precise both as c -> 1+ and for huge c.
    """
    c = as_ratio(c)
    if c <= 1:
        raise ValueError("the bound needs c > 1")
    with localcontext(_CONTEXT):
        return n * _bound_rate(c)


RATE_CACHE = 1024  # B(1, c) values kept, least recently used dropped first


@lru_cache(maxsize=RATE_CACHE)
def _bound_rate(c: Fraction) -> Decimal:
    """B(1, c) = log2(1 + ((c-1)/c)^(c-1) / c) at working precision, once per c."""
    p, q = c.numerator, c.denominator
    with localcontext(_CONTEXT):
        log_ratio = Decimal(p - q) / q * _ln(p - q, p) - _ln(p, q)
        return _log1p(log_ratio.exp()) / _LN2_D


def envelope(n: int, c) -> tuple[Decimal, Decimal]:
    """(lower, upper) linear envelopes n/(e ln2 c) and n/c around B(n, c)."""
    c = as_ratio(c)
    if c <= 1:
        raise ValueError("the envelope needs c > 1")
    with localcontext(_CONTEXT):
        hi = Decimal(n * c.denominator) / c.numerator
        return hi / (_E_D * _LN2_D), hi


class BoundReport(JsonRecord, namedtuple(
    "BoundReport", "n c bound_bits lower_envelope upper_envelope slack_terms"
)):
    """B(n, c) and its envelopes as floats, with the quotient forms' slacks
    by name."""

    __slots__ = ()


_SLACK_TERMS = ("min_form_lower", "min_form_upper", "max_form_lower", "max_form_upper")


def _slacks(n: int) -> tuple[float, ...]:
    """The additive slacks of the two quotient forms around B(n, c), in
    _SLACK_TERMS order."""
    lg = math.log2(n + 1)
    return 2 * lg + 5, 3 * lg, 3 * math.log2(max(n, 1)) + 6, 4 * lg


def bound_report(n: int, c) -> BoundReport:
    c = as_ratio(c)
    if n < 0:
        raise ValueError("the bound needs n >= 0")
    lo, hi = envelope(n, c)
    if not math.isfinite(float(hi)):  # hi = n/c is the largest of the three
        raise ValueError("n is too large: the bound overflows a float")
    slacks = dict(zip(_SLACK_TERMS, _slacks(n)))
    return BoundReport(n, c, float(advice_bound(n, c)), float(lo), float(hi), slacks)


_LOG_BITS = 256  # fraction bits of log2_binom's integer logs, far past 50 digits
_ONE = 1 << _LOG_BITS
_WIDE = Context(prec=100)  # ln 2 on _LOG_BITS fraction bits takes 78 digits
_LN2_BITS = int(_WIDE.multiply(_WIDE.ln(2), _ONE))


def log2_binom(n: int, m: int) -> Decimal:
    """log2 of the exact binomial as the working precision gives it: the ln
    of the binomial rounded to the working digits, over ln 2.  That ln is
    summed in integers, b ln 2 + 2 atanh((x-1)/(x+1)) for the bit length b
    and the leading bits x scaled into [1/sqrt 2, sqrt 2)."""
    with localcontext(_CONTEXT):
        value = int(+Decimal(math.comb(n, m)))
        if not value:  # m > n: the log of 0, as Decimal.ln gives it
            return Decimal("-Infinity")
        b = value.bit_length()
        x = value << _LOG_BITS >> b  # value / 2^b, in [1/2, 1)
        if 2 * x * x < _ONE * _ONE:
            x, b = x << 1, b - 1
        z = (abs(x - _ONE) << _LOG_BITS) // (x + _ONE)
        z2, term, atanh, k = z * z >> _LOG_BITS, z, z, 1
        while term:  # |z| < 0.172: each term over 5 bits below the one before
            term, k = term * z2 >> _LOG_BITS, k + 2
            atanh += term // k
        return Decimal(b * _LN2_BITS + (2 * atanh if x >= _ONE else -2 * atanh)) / _ONE / _LN2_D


def _log2_quotient(n: int, w: int, k: int, t: int) -> Decimal:
    """log2(binom(n, w) / binom(k, t)) at working precision."""
    with localcontext(_CONTEXT):
        return log2_binom(n, w) - log2_binom(k, t)


_LOG_FACTORIALS = [0.0, 0.0]  # entry i is ln(i!), grown on demand by _log_factorials


def _log_factorials(n: int) -> list[float]:
    """The shared table of ln(i!) for every i <= n.  Entry i is the running
    sum ln 2 + ... + ln i in that order, so it holds the same float however
    far earlier calls grew the table."""
    lg = _LOG_FACTORIALS
    for i in range(len(lg), n + 1):
        lg.append(lg[-1] + math.log(i))
    return lg


def _float_margin(n: int) -> float:
    """Bits by which a float log2 quotient of up to six table entries <= n, or a
    window edge below ln(n!), may miss its exact value.  Entry i is i - 1
    rounded logs and additions, so within 2 i ulp(entry i) nats of ln(i!);
    six are 17.3 n ulp(ln n!) bits, the last roundings stay under 20 n ulp."""
    return max(1e-6, 20 * n * math.ulp(_log_factorials(n)[n]))


def _quotient_peak(objective: str, n: int, c: Fraction) -> tuple[float, int, int, int]:
    """(peak, w, k, t): the float maximum over the weights w with k < n of
    log2(binom(n,w)/binom(k,t)), for the (k, t) that core.design_shapes
    assigns to w, and the first w with the largest exact quotient.  Every
    exact maximizer is within 2 _float_margin(n) bits of the peak in floats,
    and exact integer cross-products pick among those candidates."""
    if c <= 1:
        raise ValueError("needs c > 1")
    # design_shapes' (k, t) for each weight w, inline, over the w with k < n
    p, q = c.numerator, c.denominator
    if objective == "min":
        ws = range((n * q - 1) // p + 1)  # floor(c w) < n
        ks = [p * w // q for w in ws]
        ts = ws
    else:
        if n < 2:
            raise ValueError("needs n >= 2")
        ws = range(1, n + 1)  # n - ceil(w / c) < n
        ks = [n + (-w * q) // p for w in ws]
        ts = [n - w for w in ws]
    lg = _log_factorials(n)
    # t is w or n - w, so binom(n,w)/binom(k,t) = n! (k-t)! / ((n-t)! k!); in nats, less ln n!
    approx = [lg[k - t] - lg[k] - lg[n - t] for k, t in zip(ks, ts)]
    if not approx:
        raise ValueError(f"no weight t has floor(c t) < n for n={n}, c={c}")
    peak = max(approx)
    floor = peak - 2 * _LN2 * _float_margin(n)
    best = None
    for i, a in enumerate(approx):  # ascending w, so only a strictly larger quotient moves best
        if a >= floor and (
            best is None
            or math.comb(n, ws[i]) * math.comb(ks[best], ts[best])
            > math.comb(n, ws[best]) * math.comb(ks[i], ts[i])
        ):
            best = i
    return (lg[n] + peak) / _LN2, ws[best], ks[best], ts[best]


def _log_max_quotient(objective: str, n: int, c: Fraction) -> tuple[Decimal, int]:
    """The largest quotient's log2 at working precision, and its first maximizer."""
    _, w, k, t = _quotient_peak(objective, n, c)
    return _log2_quotient(n, w, k, t), w


def log_max_weight_quotient(n: int, c) -> tuple[Decimal, int]:
    """max over t with floor(c t) < n of log2(binom(n,t)/binom(floor(ct),t))."""
    return _log_max_quotient("min", n, as_ratio(c))


def log_max_cozero_quotient(n: int, c) -> tuple[Decimal, int]:
    """max over 0 < u < n of log2(binom(n,u)/binom(n - ceil(u/c), n - u));
    the sweep also admits u = n, whose quotient 1 never beats u = 1's n."""
    return _log_max_quotient("max", n, as_ratio(c))


class QuotientApproxReport(namedtuple(
    "QuotientApproxReport", "n c argmax shape lower_slack upper_slack lower_ok upper_ok"
)):
    """One quotient form's check at (n, c): the quotient is binom(n, argmax)
    / binom(k, t) with shape (k, t).  log_max_quotient and bound_bits are
    taken at working precision when read."""

    __slots__ = ()

    @property
    def log_max_quotient(self) -> float:
        return float(_log2_quotient(self.n, self.argmax, *self.shape))

    @property
    def bound_bits(self) -> float:
        return float(advice_bound(self.n, self.c))

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def _check_quotient_approx(objective, n, c, slack_lo, slack_hi) -> QuotientApproxReport:
    """One quotient form's maximum against [B - slack_lo, B + slack_hi] around
    B(n,c), each edge widened by QUOTIENT_TOL: in floats when the peak is more
    than _float_margin(n) from both edges, else at working precision."""
    value, w, k, t = _quotient_peak(objective, n, c)
    b = n * float(_bound_rate(c))
    lo, hi = b - slack_lo - QUOTIENT_TOL, b + slack_hi + QUOTIENT_TOL
    if min(abs(value - lo), abs(hi - value)) <= _float_margin(n):
        # decide at working precision; the float slacks convert exactly
        value, b = _log2_quotient(n, w, k, t), advice_bound(n, c)
        with localcontext(_CONTEXT):
            lo = b - Decimal(slack_lo) - Decimal(QUOTIENT_TOL)
            hi = b + Decimal(slack_hi) + Decimal(QUOTIENT_TOL)
    return QuotientApproxReport(n, c, w, (k, t), slack_lo, slack_hi, value >= lo, value <= hi)


def check_min_quotient_approx(n: int, c) -> QuotientApproxReport:
    """The minimization-form quotient tracks B(n,c) within the stated slacks:
    B - 2 log(n+1) - 5 <= log max quotient <= B + 3 log(n+1)."""
    return _check_quotient_approx("min", n, as_ratio(c), *_slacks(n)[:2])


def check_max_quotient_approx(n: int, c) -> QuotientApproxReport:
    """The maximization-form quotient tracks B(n,c) within
    B - 3 log n - 6 <= log max quotient <= B + 4 log(n+1)."""
    return _check_quotient_approx("max", n, as_ratio(c), *_slacks(n)[2:])


def exp_growth_floor_sweep(n_max: int, c: int, tol: float = 1e-9) -> list[int]:
    """Every n <= n_max where binom(n,t)/binom(ct,t) >= e^t fails at
    t = floor(n/(e c)), in log2 space less tol (empty when the floor bound
    holds throughout; a row with t = 0 holds trivially).

    Each row is decided in floats from the log-factorial table; a row within
    _float_margin(n_max) of its threshold is decided by
    log2(C(n, t)) - log2(C(ct, t)) on the exact binomials.
    """
    if not isinstance(c, int) or c < 2:
        raise TypeError("needs an integer ratio c >= 2")
    if n_max < 1:
        raise ValueError("needs n_max >= 1")
    lg = _log_factorials(n_max)
    log2e = math.log2(math.e)
    margin = _float_margin(n_max)
    bad: list[int] = []
    with localcontext(_CONTEXT):
        # e c at working precision as an exact fraction; e c is irrational, so
        # floor(n / (e c)) first reaches t at n = ceil(t e c)
        ec_num, ec_den = (_E_D * c).as_integer_ratio()
    t, floor, den_log = 0, 0.0, 0.0  # den_log ~ log2 C(ct, t); row n fails below floor
    nxt = -(-ec_num // ec_den)
    for n in range(1, n_max + 1):
        if n == nxt:
            t += 1
            den_log = (lg[c * t] - lg[t] - lg[c * t - t]) / _LN2
            floor = t * log2e - tol
            nxt = -(-(t + 1) * ec_num // ec_den)
        if t:
            gap = (lg[n] - lg[t] - lg[n - t]) / _LN2 - den_log - floor
            if gap < -margin or gap <= margin and (
                math.log2(math.comb(n, t)) - math.log2(math.comb(c * t, t)) < floor
            ):
                bad.append(n)
    return bad


def sg_comparison_value(c) -> Decimal:
    """Per-request advice for plain string guessing: log2((c-1)^(c-1)/((c/2)^c))/c,
    meaningful for 1 < c <= 2."""
    c = as_ratio(c)
    if not 1 < c <= 2:
        raise ValueError("comparison curve defined for 1 < c <= 2")
    p, q = c.numerator, c.denominator
    with localcontext(_CONTEXT):
        # (c-1) ln(c-1) - c ln(c/2), exactly 0 at c = 2
        log_val = Decimal(p - q) / q * _ln(p - q, q) - Decimal(p) / q * _ln(p, 2 * q)
        return log_val / (Decimal(p) / q * _LN2_D)


# --- the advice curve ---------------------------------------------------------

CURVE_STEPS = 10_000  # points one curve samples; each costs the same
CURVE_COLUMNS = ("c", "asg_bits_per_request", "envelope_hi", "envelope_lo", "sg_bits_per_request")


class CurvePoint(JsonRecord, namedtuple("CurvePoint", CURVE_COLUMNS)):
    """One sampled ratio: per-request advice with its envelopes and, for
    1 < c <= 2, the per-request advice of plain string guessing (else None)."""

    __slots__ = ()


def curve_point(c) -> CurvePoint:
    """The curve at ratio c: B(n, c) and its envelopes are linear in n, so
    their values at n = 1 are the per-request rates."""
    c = as_ratio(c)
    bound = advice_bound(1, c)
    lo, hi = envelope(1, c)
    sg = float(sg_comparison_value(c)) if 1 < c <= 2 else None
    return CurvePoint(c, float(bound), float(hi), float(lo), sg)


def emit_curve(c_min, c_max, steps: int) -> list[CurvePoint]:
    """Sample the advice curve on an evenly spaced rational grid."""
    c_min, c_max = as_ratio(c_min), as_ratio(c_max)
    if c_min <= 1:
        raise ValueError("the curve needs c > 1")
    if c_max < c_min:
        raise ValueError("needs c_max >= c_min")
    if steps < 1 or (steps < 2 and c_max != c_min):
        raise ValueError("needs at least two steps to span a ratio range")
    check_work("curve steps", steps, CURVE_STEPS)
    if c_max == c_min:
        grid = [c_min] * min(steps, 1)
    else:
        step = (c_max - c_min) / (steps - 1)
        grid = [c_min + i * step for i in range(steps)]
    return [curve_point(c) for c in grid]


def render_curve(points, fmt: str = "csv") -> str:
    """Serialize curve points; the column order is CURVE_COLUMNS in both
    formats, with the comparison column empty/null for c > 2."""
    return render_text(fmt, points, CURVE_COLUMNS, (
        (
            str(p.c),
            format(p.asg_bits_per_request, ".12g"),
            format(p.envelope_hi, ".12g"),
            format(p.envelope_lo, ".12g"),
            "" if p.sg_bits_per_request is None else format(p.sg_bits_per_request, ".12g"),
        )
        for p in points
    ))
