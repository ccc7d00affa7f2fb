import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest

from asg.bounds import (
    PRECISION,
    QUOTIENT_TOL,
    _check_quotient_approx,
    _float_margin,
    _log_factorials,
    _mpf,
    advice_bound,
    binary_entropy,
    bound_report,
    check_max_quotient_approx,
    check_min_quotient_approx,
    envelope,
    exp_growth_floor_ok,
    exp_growth_floor_sweep,
    log2_binom,
    log_max_cozero_quotient,
    log_max_weight_quotient,
    sg_comparison_value,
)
from asg.core import as_ratio

# --- the entropy lemmas behind the bound, as probes --------------------------


def entropy_gap(n: int, t: int, c) -> mpmath.mpf:
    """n H(t/n) - c t H(1/c): the entropy estimate of the log quotient."""
    c = as_ratio(c)
    with mpmath.workprec(PRECISION):
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
    with mpmath.workprec(PRECISION):
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
    with mpmath.workprec(PRECISION):
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
    with mpmath.workprec(PRECISION):
        lhs = log2_binom(n, m)
        ent = n * binary_entropy(Fraction(m, n))
        return ent - mpmath.log(n + 1, 2) <= lhs <= ent


def forms_within_factor_n(n: int, c, tol: float = 1e-9) -> bool:
    """The two quotient forms agree within a multiplicative factor n each way."""
    min_form, _ = log_max_weight_quotient(n, c)
    max_form, _ = log_max_cozero_quotient(n, c)
    with mpmath.workprec(PRECISION):
        gap = mpmath.log(n, 2)
        return bool(abs(min_form - max_form) <= gap + tol)


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
    # every 128-bit mantissa, recorded when each call recomputed the per-c
    # constant; it is now computed once per c and multiplied by n
    rows = [
        f"{c} {n} {advice_bound(n, c)._mpf_}"
        for c in ("21/20", "3/2", "2", "3", "5")
        for n in (*range(2001), 10**6, 10**12)
    ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "2922bec48f38cc95c26aaf546711ba3cb8aad91977c5458a74f3f4ef8b23a274"


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
    with mpmath.workprec(128):
        peak = entropy_gap(n, 200, 2)
        assert abs(float(peak - advice_bound(n, 2))) < 1e-20


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
                with mpmath.workprec(PRECISION):
                    want = mpmath.log(best.numerator, 2) - mpmath.log(best.denominator, 2)
                    assert abs(value - want) < mpmath.mpf(2) ** -100, (quotient.__name__, n, c)


def test_quotient_sweep_values_are_pinned():
    # (repr of the value, argmax) of both forms at the sweep's four ratios,
    # recorded when each call rebuilt its own log-factorials; n = 2000 comes
    # first so that the small n read a table grown past them
    rows = []
    for c in ("3/2", "2", "3", "5"):
        for n in (2000, 1999, 1000, 500, *range(1, 201)):
            rows.append(f"min {c} {n} {log_max_weight_quotient(n, c)!r}")
            if n >= 2:
                rows.append(f"max {c} {n} {log_max_cozero_quotient(n, c)!r}")
    assert rows[0] == "min 3/2 2000 (mpf('939.79697841306235'), 555)"
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "a2c29ea4b56dad5bc4a9e2f339ac3a41a217cfa4d54c2c962621f7f677aa6f20"


def test_log_factorials_stay_within_the_stated_bound():
    # entry i is i - 1 rounded logs and additions: within 2 i ulp(entry) nats
    lg = _log_factorials(10**5)
    with mpmath.workprec(PRECISION):
        for i in (400, 2000, 10**4, 10**5):
            assert abs(lg[i] - mpmath.loggamma(i + 1)) <= 2 * i * math.ulp(lg[i]), i
    # the 1e-6 floor holds through the pinned sweep; the derived bound takes
    # over past it
    assert _float_margin(2000) == 1e-6 < _float_margin(10**5)


def test_quotient_window_edges_are_decided_exactly():
    # slacks that put the exact maximum within 1e-12 bits of a window edge,
    # on either side: the floats cannot tell, and the answer is the 128-bit
    # comparison of the exact maximum with that edge
    seen = set()
    for objective, quotient in (("min", log_max_weight_quotient), ("max", log_max_cozero_quotient)):
        for n, c in ((37, Fraction(3, 2)), (100, Fraction(2)), (256, Fraction(3)), (1000, Fraction(5))):
            value, _ = quotient(n, c)
            with mpmath.workprec(PRECISION):
                b = advice_bound(n, c)
                lo_edge, hi_edge = float(b - value - QUOTIENT_TOL), float(value - b - QUOTIENT_TOL)
            far = lo_edge + hi_edge + 100  # a slack far from either edge
            for d in (-5e-13, -2e-14, -1e-15, 0.0, 1e-15, 2e-14, 5e-13):
                for slacks in ((lo_edge + d, far), (far, hi_edge + d), (lo_edge + d, hi_edge - d)):
                    rep = _check_quotient_approx(objective, n, c, *slacks)
                    with mpmath.workprec(PRECISION):
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
