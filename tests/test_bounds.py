import hashlib
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from asg.bounds import (
    QUOTIENT_TOL,
    RATE_CACHE,
    _bound_rate,
    _check_quotient_approx,
    _float_margin,
    _log_factorials,
    advice_bound,
    bound_report,
    check_max_quotient_approx,
    check_min_quotient_approx,
    emit_curve,
    envelope,
    exp_growth_floor_sweep,
    log2_binom,
    log_max_cozero_quotient,
    log_max_weight_quotient,
    sg_comparison_value,
)
from asg.core import as_ratio

# mpmath is the tests' reference: REFERENCE_BITS of working precision, and
# the library's Decimal values within 2^-REFERENCE_TOL_BITS of it, relative
REFERENCE_BITS = 128
REFERENCE_TOL_BITS = 120


def _mpf(value) -> mpmath.mpf:
    """An int, Fraction or Decimal as an mpf at the current precision (floats
    are rejected)."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    if isinstance(value, Decimal):
        return mpmath.mpf(str(value))
    if not isinstance(value, int):
        raise TypeError(f"not an exact number: {value!r}")
    return mpmath.mpf(value)


def _close(value: Decimal, reference: mpmath.mpf) -> bool:
    """value within 2^-REFERENCE_TOL_BITS of reference, relative."""
    with mpmath.workprec(REFERENCE_BITS + 64):
        return abs(_mpf(value) - reference) <= abs(reference) * mpmath.mpf(2) ** -REFERENCE_TOL_BITS


def reference_bound(n: int, c, bits: int = REFERENCE_BITS) -> mpmath.mpf:
    """B(n, c) = n log2(1 + ((c-1)/c)^(c-1) / c) in mpmath at bits of precision."""
    with mpmath.workprec(bits):
        cm = _mpf(as_ratio(c))
        return n * mpmath.log(1 + mpmath.power((cm - 1) / cm, cm - 1) / cm, 2)


def reference_log2_quotient(quotient: Fraction) -> mpmath.mpf:
    """log2 of an exact quotient of binomials in mpmath at REFERENCE_BITS."""
    with mpmath.workprec(REFERENCE_BITS):
        return mpmath.log(_mpf(quotient), 2)


def binary_entropy(p) -> mpmath.mpf:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    with mpmath.workprec(REFERENCE_BITS):
        p = _mpf(p) if isinstance(p, (int, Fraction)) else mpmath.mpf(p)
        if p < 0 or p > 1:
            raise ValueError(f"entropy argument {p} outside [0, 1]")
        if p == 0 or p == 1:
            return mpmath.mpf(0)
        q = 1 - p
        return -(p * mpmath.log(p, 2) + q * mpmath.log(q, 2))


def exp_growth_floor_ok(n: int, c: int, tol: float = 1e-9) -> bool:
    """binom(n,t)/binom(ct,t) >= e^t at t = floor(n/(e c)), in log space: the
    pointwise claim exp_growth_floor_sweep decides row by row.

    Only defined for integer c >= 2 with c t < n; t = 0 holds trivially.
    """
    if not isinstance(c, int) or c < 2:
        raise TypeError("needs an integer ratio c >= 2")
    with mpmath.workprec(REFERENCE_BITS):
        t = int(mpmath.floor(n / (mpmath.e * c)))
        if t == 0:
            return True
        if c * t >= n:
            raise ValueError("c t must stay below n")
        lhs = math.log2(math.comb(n, t)) - math.log2(math.comb(c * t, t))
        return bool(lhs >= t * float(mpmath.log(mpmath.e, 2)) - tol)


# --- the entropy lemmas behind the bound, as probes --------------------------


def entropy_gap(n: int, t: int, c) -> mpmath.mpf:
    """n H(t/n) - c t H(1/c): the entropy estimate of the log quotient."""
    c = as_ratio(c)
    with mpmath.workprec(REFERENCE_BITS):
        return n * binary_entropy(Fraction(t, n)) - _mpf(c) * t * binary_entropy(1 / c)


@dataclass(frozen=True)
class Maximizer:
    c: Fraction
    x_value: mpmath.mpf  # (c/(c-1))^c (c-1) + 1
    t_star: mpmath.mpf  # n / x_value


def gap_maximizer(n: int, c) -> Maximizer:
    """Where the entropy gap peaks: t* = n/x with x = (c/(c-1))^c (c-1) + 1."""
    c = as_ratio(c)
    if c <= 1:
        raise ValueError("the maximizer needs c > 1")
    with mpmath.workprec(REFERENCE_BITS):
        cm = _mpf(c)
        x = mpmath.power(cm / (cm - 1), cm) * (cm - 1) + 1
        return Maximizer(c, x, n / x)


def check_entropy_properties(
    s_values=range(2, 60),
    fd_step: Fraction = Fraction(1, 10000),
    fd_tol: float = 1e-6,
) -> list[str]:
    """Verify the standard entropy facts used by the bound proofs.

    Returns a list of violation descriptions (empty when all hold):
      1. H(1/s) = log s + ((1-s)/s) log(s-1) for s > 1
      2. s H(1/s) <= log s + 2
      3. H is strictly concave: second differences at step fd_step are < -fd_tol
      4. s H(t/s) is increasing in s for s > t
      5. n H(1/x) - n H(1/x + 1/n) < 3 for n >= 3, x > 2
    """
    bad = []
    with mpmath.workprec(REFERENCE_BITS):
        tol = mpmath.mpf(10) ** -25
        for s in s_values:
            lhs = binary_entropy(Fraction(1, s))
            rhs = mpmath.log(s, 2) + mpmath.mpf(1 - s) / s * mpmath.log(s - 1, 2)
            if abs(lhs - rhs) > tol:
                bad.append(f"H(1/s) identity fails at s={s}")
            if s * binary_entropy(Fraction(1, s)) > mpmath.log(s, 2) + 2 + tol:
                bad.append(f"s H(1/s) <= log s + 2 fails at s={s}")
        h = fd_step
        for num in range(1, 50):
            p = Fraction(num, 50)
            if p - h <= 0 or p + h >= 1:
                continue
            d2 = (binary_entropy(p + h) - 2 * binary_entropy(p) + binary_entropy(p - h)) / _mpf(
                h * h
            )
            if not d2 < -fd_tol:
                bad.append(f"concavity fails at p={p}")
        for t in range(1, 8):
            prev = None
            for s in range(t + 1, 40):
                val = s * binary_entropy(Fraction(t, s))
                if prev is not None and not val > prev - tol:
                    bad.append(f"s H(t/s) not increasing at t={t}, s={s}")
                prev = val
        for n in (3, 4, 5, 10, 100, 1000):
            for x in (Fraction(21, 10), Fraction(5, 2), Fraction(3), Fraction(10), Fraction(50)):
                if x <= 2:
                    continue
                gap = n * binary_entropy(1 / x) - n * binary_entropy(1 / x + Fraction(1, n))
                if not gap < 3:
                    bad.append(f"entropy shift bound fails at n={n}, x={x}")
    return bad


def binomial_entropy_ok(n: int, m: int) -> bool:
    """2^{n H(m/n)} / (n+1) <= binom(n, m) <= 2^{n H(m/n)}, checked in log space."""
    if not 0 <= m <= n or n < 1:
        raise ValueError("need 1 <= n and 0 <= m <= n")
    with mpmath.workprec(REFERENCE_BITS):
        lhs = _mpf(log2_binom(n, m))
        ent = n * binary_entropy(Fraction(m, n))
        return ent - mpmath.log(n + 1, 2) <= lhs <= ent


def forms_within_factor_n(n: int, c, tol: float = 1e-9) -> bool:
    """The two quotient forms agree within a multiplicative factor n each way."""
    min_form, _ = log_max_weight_quotient(n, c)
    max_form, _ = log_max_cozero_quotient(n, c)
    with mpmath.workprec(REFERENCE_BITS):
        gap = mpmath.log(n, 2)
        return bool(abs(_mpf(min_form) - _mpf(max_form)) <= gap + tol)


def binom_ratio_identity_ok(a: int, b: int, c: int) -> bool:
    """binom(a,c)/binom(b,c) = binom(a,b)/binom(a-c,a-b) for c <= b <= a, exactly."""
    if not 0 <= c <= b <= a:
        raise ValueError("need c <= b <= a")
    lhs = Fraction(math.comb(a, c), math.comb(b, c))
    rhs = Fraction(math.comb(a, b), math.comb(a - c, a - b))
    return lhs == rhs


def test_entropy_values():
    assert binary_entropy(0) == 0
    assert binary_entropy(1) == 0
    assert abs(binary_entropy(Fraction(1, 2)) - 1) < 1e-30
    # H(1/4) = 2 - (3/4) log2 3
    want = 2 - 0.75 * math.log2(3)
    assert abs(float(binary_entropy(Fraction(1, 4))) - want) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(Fraction(3, 2))


def test_advice_bound_values():
    # B(1000, 2) = 1000 log2(5/4)
    assert abs(float(advice_bound(1000, 2)) - 1000 * math.log2(1.25)) < 1e-9
    assert float(advice_bound(1000, 2)) == pytest.approx(321.928094887, abs=1e-6)
    with pytest.raises(ValueError):
        advice_bound(10, 1)
    with pytest.raises(TypeError):
        advice_bound(10, 1.5)


def test_advice_bound_bits_are_pinned():
    # each value within 2^-120 of mpmath at 128 bits; its float as when the
    # library computed in mpmath at 128 bits; and the digits themselves
    args = [(n, c) for c in ("21/20", "3/2", "2", "3", "5") for n in (*range(2001), 10**6, 10**12)]
    values = [advice_bound(n, c) for n, c in args]
    rates = {c: reference_bound(1, c) for c in ("21/20", "3/2", "2", "3", "5")}
    with mpmath.workprec(REFERENCE_BITS):
        assert all(_close(v, n * rates[c]) for (n, c), v in zip(args, values))
    floats = [f"{c} {n} {float(v)!r}" for (n, c), v in zip(args, values)]
    digest = hashlib.sha256("\n".join(floats).encode()).hexdigest()
    assert digest == "02b7a86b289aedb2b4532e033a66b6d22f9531c585b301ebe7e2ae70b90ab77b"
    rows = [f"{c} {n} {v}" for (n, c), v in zip(args, values)]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "aeee224f476efaef4ef32a9717b00a37816036fe97b597e96f00085fecd2cb45"


@pytest.mark.parametrize(
    "c",
    [10**22, 10**30, 10**39, 10**300, 1 + Fraction(1, 10**30), 1 + Fraction(1, 10**300)],
    ids=["1e22", "1e30", "1e39", "1e300", "1+1e-30", "1+1e-300"],
)
def test_advice_bound_keeps_its_precision_at_extreme_ratios(c):
    # r ~ 1/(e c) in log2(1 + r) is lost where 1 + r is rounded; at 128 bits
    # that took bound_bits from c = 10^22 on, and to 0.0 by 10^39.  The
    # reference has the bits to hold 1 - 1/c, and then some
    c = Fraction(c)
    bits = 2 * max(c.numerator, c.denominator).bit_length() + 600
    assert _close(advice_bound(1000, c), reference_bound(1000, c, bits=bits))
    rep = bound_report(1000, c)
    assert 0 < rep.lower_envelope <= rep.bound_bits <= rep.upper_envelope


def test_advice_bound_stable_near_one():
    # rewritten form stays finite and between the envelopes as c -> 1+
    for c in (Fraction(101, 100), Fraction(1001, 1000), Fraction(10001, 10000)):
        b = advice_bound(10**6, c)
        lo, hi = envelope(10**6, c)
        assert lo <= b <= hi


def test_envelope_sandwich_grid():
    for c in (Fraction(101, 100), Fraction(11, 10), Fraction(3, 2), 2, 3, 5, 10, 100):
        lo, hi = envelope(10**6, c)
        b = advice_bound(10**6, c)
        assert float(lo) * (1 - 1e-9) <= float(b) <= float(hi) * (1 + 1e-9)
        assert lo < hi


def test_entropy_gap_peaks_at_bound():
    # M(n, t*) = B(n, c), and t* = n/5 for c = 2
    n = 1000
    m = gap_maximizer(n, 2)
    assert abs(float(m.x_value) - 5) < 1e-25
    assert abs(float(m.t_star) - 200) < 1e-22
    with mpmath.workprec(REFERENCE_BITS):
        peak = entropy_gap(n, 200, 2)
        assert abs(float(peak - _mpf(advice_bound(n, 2)))) < 1e-20


def test_maximizer_interval():
    # t* lies strictly between n/(e c) and n/(2 c): equivalently 2c < x < e c
    for c in (Fraction(3, 2), 2, 3, 5, Fraction(7, 3), 10):
        m = gap_maximizer(100, c)
        cf = float(Fraction(c))
        assert 2 * cf < float(m.x_value) < math.e * cf


def test_gap_concave_in_t():
    n = 400
    vals = [float(entropy_gap(n, t, 2)) for t in range(1, n // 2)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


def test_entropy_properties_all_hold():
    assert check_entropy_properties() == []


def test_binomial_entropy_bounds():
    for n in range(1, 201):
        for m in range(0, n + 1):
            assert binomial_entropy_ok(n, m), (n, m)


def test_min_quotient_approx_example():
    # n=100, c=2: the exact log-max quotient within [B - 2log(101) - 5, B + 3log(101)]
    rep = check_min_quotient_approx(100, 2)
    assert rep.ok
    assert rep.bound_bits == pytest.approx(100 * math.log2(1.25), abs=1e-9)
    value, argmax = log_max_weight_quotient(100, 2)
    assert 0 < argmax < 50
    # brute cross-check of the maximum with exact arithmetic
    best = max(
        math.log2(math.comb(100, t)) - math.log2(math.comb(2 * t, t))
        for t in range(0, 50)
    )
    assert float(value) == pytest.approx(best, abs=1e-9)


def test_quotient_approx_small_grid():
    for n in (3, 10, 37, 100, 256):
        for c in (Fraction(3, 2), 2, 3, 5):
            assert check_min_quotient_approx(n, c).ok, (n, c)
            if n >= 2:
                assert check_max_quotient_approx(n, c).ok, (n, c)
                assert forms_within_factor_n(n, c), (n, c)


def _brute_max_quotient(quotients):
    """(the first weight with the largest exact quotient, that quotient)."""
    best = max(quotients.values())
    return min(w for w, q in quotients.items() if q == best), best


def test_quotient_forms_match_an_exact_brute_force():
    # every admissible weight, with floor(c t) and ceil(u/c) written out here
    for c in (Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)):
        for n in range(1, 81):
            min_form = {
                t: Fraction(math.comb(n, t), math.comb(math.floor(c * t), t))
                for t in range(n + 1)
                if math.floor(c * t) < n
            }
            forms = [(log_max_weight_quotient, min_form)]
            if n >= 2:
                max_form = {
                    u: Fraction(math.comb(n, u), math.comb(n - math.ceil(u / c), n - u))
                    for u in range(1, n)
                }
                forms.append((log_max_cozero_quotient, max_form))
            for quotient, exact in forms:
                # exact ties exist, e.g. n = 14, c = 5/4: C(14,6)/C(7,6) = C(14,7)/C(8,7);
                # the first maximiser is the one reported
                first, best = _brute_max_quotient(exact)
                value, got = quotient(n, c)
                assert got == first, (quotient.__name__, n, c)
                with mpmath.workprec(REFERENCE_BITS):
                    want = mpmath.log(best.numerator, 2) - mpmath.log(best.denominator, 2)
                    assert abs(_mpf(value) - want) < mpmath.mpf(2) ** -100, (quotient.__name__, n, c)


def test_quotient_sweep_values_are_pinned():
    # (value, argmax) of both forms at the sweep's four ratios; n = 2000 comes
    # first so that the small n read a table grown past them.  Each value is
    # within 2^-120 of mpmath at 128 bits, its float and argmax are as when
    # the library computed in mpmath at 128 bits, and the digits are pinned
    rows, floats = [], []
    for c in ("3/2", "2", "3", "5"):
        ratio = Fraction(c)
        for n in (2000, 1999, 1000, 500, *range(1, 201)):
            forms = [("min", log_max_weight_quotient, lambda w: (math.floor(ratio * w), w))]
            if n >= 2:
                forms.append(("max", log_max_cozero_quotient,
                              lambda w: (n - math.ceil(w / ratio), n - w)))
            for name, quotient, shape in forms:
                value, w = quotient(n, c)
                exact = Fraction(math.comb(n, w), math.comb(*shape(w)))
                assert _close(value, reference_log2_quotient(exact)), (name, c, n)
                rows.append(f"{name} {c} {n} {(value, w)!r}")
                floats.append(f"{name} {c} {n} {float(value)!r} {w}")
    assert rows[0] == "min 3/2 2000 (Decimal('939.79697841306235085924401541119386197896423532080'), 555)"
    digest = hashlib.sha256("\n".join(floats).encode()).hexdigest()
    assert digest == "3134208e969d69a753b6f6bc8f35f71c8d5900d671e1cefb3f7de1a5011d3206"
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "680a4b76bd4827414f54ac9d0c6012b209c0736be346a00036f39a9ee2820abe"


def test_log_factorials_stay_within_the_stated_bound():
    # entry i is i - 1 rounded logs and additions: within 2 i ulp(entry) nats
    lg = _log_factorials(10**5)
    with mpmath.workprec(REFERENCE_BITS):
        for i in (400, 2000, 10**4, 10**5):
            assert abs(lg[i] - mpmath.loggamma(i + 1)) <= 2 * i * math.ulp(lg[i]), i
    # the 1e-6 floor holds through the pinned sweep; the derived bound takes
    # over past it
    assert _float_margin(2000) == 1e-6 < _float_margin(10**5)


def test_quotient_window_edges_are_decided_exactly():
    # slacks that put the exact maximum within 1e-12 bits of a window edge,
    # on either side: the floats cannot tell, and the answer is mpmath's
    # 128-bit comparison of the exact maximum with that edge
    seen = set()
    for objective in ("min", "max"):
        for n, c in ((37, Fraction(3, 2)), (100, Fraction(2)), (256, Fraction(3)), (1000, Fraction(5))):
            rep = _check_quotient_approx(objective, n, c, 0.0, 0.0)  # for its argmax and shape
            exact = Fraction(math.comb(n, rep.argmax), math.comb(*rep.shape))
            value = reference_log2_quotient(exact)
            with mpmath.workprec(REFERENCE_BITS):
                b = reference_bound(n, c)
                lo_edge, hi_edge = float(b - value - QUOTIENT_TOL), float(value - b - QUOTIENT_TOL)
            far = lo_edge + hi_edge + 100  # a slack far from either edge
            for d in (-5e-13, -2e-14, -1e-15, 0.0, 1e-15, 2e-14, 5e-13):
                for slacks in ((lo_edge + d, far), (far, hi_edge + d), (lo_edge + d, hi_edge - d)):
                    rep = _check_quotient_approx(objective, n, c, *slacks)
                    with mpmath.workprec(REFERENCE_BITS):
                        want = (
                            bool(value >= b - slacks[0] - QUOTIENT_TOL),
                            bool(value <= b + slacks[1] + QUOTIENT_TOL),
                        )
                    assert (rep.lower_ok, rep.upper_ok) == want, (objective, n, c, slacks)
                    seen.add(want)
    assert seen >= {(True, True), (False, True), (True, False)}


def test_quotient_forms_at_the_smallest_lengths():
    assert log_max_weight_quotient(1, 2) == (0, 0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="needs n >= 2"):
            log_max_cozero_quotient(n, 2)
        with pytest.raises(ValueError, match="needs n >= 2"):
            check_max_quotient_approx(n, 2)


def test_binom_ratio_identity_random_triples():
    rng = random.Random(20260816)
    for _ in range(200):
        a = rng.randrange(0, 60)
        b = rng.randrange(0, a + 1)
        c = rng.randrange(0, b + 1)
        assert binom_ratio_identity_ok(a, b, c)


def test_exp_growth_floor():
    for c in range(2, 11):
        for n in (10, 50, 137, 1000):
            assert exp_growth_floor_ok(n, c), (n, c)
    with pytest.raises(TypeError):
        exp_growth_floor_ok(100, Fraction(3, 2))


def test_growth_floor_sweep_on_its_threshold():
    # tol puts row n0 exactly on the threshold of the pointwise formula, so
    # the floats cannot decide it; the sweep still flips where the pointwise
    # check flips
    log2e = math.log2(math.e)
    for c in (2, 3, 4, 5):
        for n0 in (60, 123, 199):
            t0 = math.floor(n0 / (math.e * c))
            tol = t0 * log2e - (math.log2(math.comb(n0, t0)) - math.log2(math.comb(c * t0, t0)))
            expected = [n for n in range(1, 201) if not exp_growth_floor_ok(n, c, tol=tol)]
            assert exp_growth_floor_sweep(200, c, tol=tol) == expected, (c, n0)


def test_bound_rate_cache_stays_within_its_cap():
    # two curve grids that share only their last ratio, more ratios in all
    # than the cache keeps: an unbounded cache would hold every one of them
    steps = RATE_CACHE // 2 + 100
    for start in (Fraction(3, 2), Fraction(3, 2) + Fraction(1, 7 * steps)):
        emit_curve(start, 4, steps)
    info = _bound_rate.cache_info()
    assert info.maxsize == RATE_CACHE
    assert 0 < info.currsize <= RATE_CACHE


def test_sg_comparison_curve():
    assert abs(float(sg_comparison_value(2))) < 1e-25
    assert float(sg_comparison_value(Fraction(101, 100))) > 0.9
    with pytest.raises(ValueError):
        sg_comparison_value(3)


def test_bound_report_fields():
    rep = bound_report(1000, 2)
    assert rep.lower_envelope < rep.bound_bits < rep.upper_envelope
    data = rep.to_json()
    assert data["c"] == "2"
    assert set(data["slack_terms"]) == {
        "min_form_lower",
        "min_form_upper",
        "max_form_lower",
        "max_form_upper",
    }


def test_growth_floor_sweep_matches_the_pointwise_check():
    # default tolerance: no failures anywhere on a modest range
    for c in (2, 3):
        assert exp_growth_floor_sweep(80, c) == []
    # negative tolerances move the threshold into the range, so rows pass or
    # fail on the value of both binomials; the sweep flips exactly where the
    # pointwise form flips
    for c in range(2, 11):
        for tol in (-1.0, -3.0, -10.0):
            expected = [n for n in range(1, 1001) if not exp_growth_floor_ok(n, c, tol=tol)]
            assert exp_growth_floor_sweep(1000, c, tol=tol) == expected, (c, tol)
            assert 0 < len(expected) < 1000  # both outcomes occur
    with pytest.raises(TypeError):
        exp_growth_floor_sweep(100, Fraction(3, 2))
    with pytest.raises(ValueError):
        exp_growth_floor_sweep(0, 2)
