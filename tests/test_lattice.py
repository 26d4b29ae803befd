"""Infrared integrals: two independent methods, identities, asymptotics."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import run_python
from mfspin import lattice
from mfspin.errors import DimensionTooSmall, MethodInfeasible, QuadratureFailure
from mfspin.lattice import compute_id

# Classical simple-cubic Watson integral in closed form (Watson 1939;
# Glasser and Zucker 1977): sqrt(6)/(32 pi^3) G(1/24) G(5/24) G(7/24) G(11/24).
W3_REFERENCE = (math.sqrt(6.0) / (32.0 * math.pi ** 3) * math.gamma(1 / 24)
                * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24))


def test_w3_two_methods_agree_and_match_reference():
    quad = compute_id(3, "quad", tol=1e-7)
    bessel = compute_id(3, "bessel", tol=1e-12)
    assert abs(quad.wd_value - bessel.wd_value) < 1e-5
    assert abs(quad.wd_value - W3_REFERENCE) < 2e-6
    assert abs(bessel.wd_value - W3_REFERENCE) < 1e-12


def test_w3_method_agreement_within_tolerances():
    tol = 1e-7
    a = compute_id(3, "quad", tol=tol)
    b = compute_id(3, "bessel", tol=tol)
    assert abs(a.wd_value - b.wd_value) < 2 * tol + a.abs_error_estimate + b.abs_error_estimate


def test_w4_method_agreement():
    a = compute_id(4, "quad", tol=1e-6)
    b = compute_id(4, "bessel", tol=1e-9)
    assert abs(a.wd_value - b.wd_value) < 1e-5


def test_w12_band():
    est = compute_id(12, "bessel", tol=1e-9)
    assert 1.0 < est.wd_value < 1.1


def test_i3_equals_w3_minus_one():
    est = compute_id(3, "bessel", tol=1e-12)
    assert abs(est.value - (W3_REFERENCE - 1.0)) < 1e-12


@pytest.mark.parametrize("d", range(3, 17))
def test_identity_id_equals_wd_minus_one(d):
    tol = 1e-9
    ide = compute_id(d, "bessel", tol=tol)
    assert abs(ide.value - (ide.wd_value - 1.0)) <= 2 * tol


def test_identity_quad_method():
    for d, tol in ((3, 1e-7), (4, 1e-6)):
        ide = compute_id(d, "quad", tol=tol)
        assert abs(ide.value - (ide.wd_value - 1.0)) <= 2 * tol


def test_via_identity_path_matches_direct():
    est = compute_id(5, "bessel", tol=1e-10)
    assert abs(est.value - (est.wd_value - 1.0)) < 2e-10


def test_monotone_decreasing_in_d():
    vals = [compute_id(d, "bessel", tol=1e-9).value for d in range(3, 17)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_asymptotic_2d_id_approaches_one():
    vals = {d: compute_id(d, "bessel", tol=1e-10).value for d in (8, 12, 16, 20, 28)}
    errs = {d: abs(2 * d * v - 1.0) for d, v in vals.items()}
    assert errs[20] < 0.15
    for lo, hi in ((8, 12), (12, 16), (16, 20), (20, 28)):
        assert errs[hi] < errs[lo]


def test_error_estimate_within_requested_tolerance():
    for method, tol in (("bessel", 1e-9), ("quad", 1e-7)):
        est = compute_id(3, method, tol=tol)
        assert est.abs_error_estimate <= tol


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        compute_id(2, "bessel", 1e-8)
    with pytest.raises(DimensionTooSmall):
        compute_id(1, "quad", 1e-8)


def test_quad_infeasible_above_four():
    with pytest.raises(MethodInfeasible):
        compute_id(5, "quad", 1e-6)


def test_bad_tol_rejected():
    with pytest.raises(ValueError):
        compute_id(3, "bessel", 0.0)


def test_determinism():
    a = compute_id(6, "bessel", 1e-9)
    b = compute_id(6, "bessel", 1e-9)
    assert a == b


@pytest.mark.parametrize("tol", [1e-7, 1e-8])
def test_quad_w3_and_i3_within_their_error_of_closed_form(tol):
    est = compute_id(3, "quad", tol=tol)
    assert abs(est.wd_value - W3_REFERENCE) <= est.abs_error_estimate
    assert abs(est.value - (W3_REFERENCE - 1.0)) <= est.abs_error_estimate


def test_quad_w4_and_i4_within_their_error_of_bessel():
    bessel = compute_id(4, "bessel", tol=1e-12)
    quad = compute_id(4, "quad", tol=1e-6)
    assert abs(quad.value - bessel.value) <= quad.abs_error_estimate
    assert abs(quad.wd_value - 1.0 - bessel.value) <= quad.abs_error_estimate


@pytest.mark.parametrize("d, tol", [(3, 1e-8), (4, 1e-6)])
def test_quad_error_estimate_within_tol(d, tol):
    assert compute_id(d, "quad", tol=tol).abs_error_estimate <= tol


def test_bessel_orders_that_disagree_fail(monkeypatch):
    # orders 2 and 4 per panel cannot resolve the integrand to 1e-6
    monkeypatch.setattr(lattice, "_BESSEL_ORDERS", range(2, 5, 2))
    with pytest.raises(QuadratureFailure, match="orders 2 and 4"):
        compute_id(3, "bessel", 1e-6)
    with pytest.raises(QuadratureFailure):
        compute_id(1024, "bessel", 1e-6)
    # outer orders 4 and 6 differ by about 6e-6 at d = 3, far above 1e-8/4
    monkeypatch.setattr(lattice, "_OUTER_ORDERS", range(4, 7, 2))
    with pytest.raises(QuadratureFailure, match="orders 4 and 6"):
        compute_id(3, "quad", 1e-8)


def test_quad_below_the_ball_error_fails():
    # the excluded ball's expansion is good to about 3.6e-9 at d = 3
    with pytest.raises(QuadratureFailure):
        compute_id(3, "quad", 1e-10)


def test_lattice_routes_leave_scipy_unloaded():
    probe = ("import sys; from mfspin.lattice import compute_id; "
             "compute_id(4, 'quad', 1e-6); compute_id(1024, 'bessel', 1e-10); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(probe).strip() == "[]"


@pytest.mark.parametrize("d", [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_large_d_identity_within_reported_error(d):
    # i0e(x)**d would multiply i0e's rounding error by d; the log-space
    # powers keep I_d and W_d - 1 apart by no more than the reported error
    est = compute_id(d, "bessel", 1e-12)
    assert 0.0 < est.abs_error_estimate <= 1e-12
    assert abs(est.value - (est.wd_value - 1.0)) <= 2.0 * est.abs_error_estimate


@pytest.mark.parametrize("d", [10 ** 4, 10 ** 5, 10 ** 6])
def test_large_d_asymptotic_expansion(d):
    # I_d = 1/(2d) + 3/(4d^2) + c/d^3 + ..., c about 1.5
    value = compute_id(d, "bessel", 1e-12).value
    assert abs(value - 1.0 / (2 * d) - 3.0 / (4 * d * d)) <= 2.0 / d ** 3


def _wd_series_coefficients(terms):
    """w_0, w_1, ... of W_d = sum_n w_n / d^n, exact.

    d log I0(t/d) = sum_k l_k t^{2k} / d^{2k-1}, l_k the coefficients of
    log I0(x) = sum_k l_k x^{2k}; exponentiated as a series in 1/d whose
    coefficients are polynomials in t, and integrated against e^{-t} term by
    term, int_0^inf t^m e^{-t} dt = m!.
    """
    b = [Fraction(1, 4 ** k * math.factorial(k) ** 2) for k in range(terms)]
    log_i0 = [Fraction(0)] * terms
    for n in range(1, terms):
        log_i0[n] = b[n] - sum((k * log_i0[k] * b[n - k] for k in range(1, n)),
                               Fraction(0)) / n
    # the exponent's coefficient of 1/d^n as {power of t: coefficient}
    p = [{} for _ in range(terms)]
    for k in range(1, terms // 2 + 1):
        p[2 * k - 1] = {2 * k: log_i0[k]}
    # e = exp(sum_n p_n / d^n) by n e_n = sum_{k=1}^n k p_k e_{n-k}
    e = [{0: Fraction(1)}]
    for n in range(1, terms):
        acc = {}
        for k in range(1, n + 1):
            for i, a in p[k].items():
                for j, c in e[n - k].items():
                    acc[i + j] = acc.get(i + j, Fraction(0)) + k * a * c / n
        e.append(acc)
    return [sum(c * math.factorial(m) for m, c in en.items()) for en in e]


WD_SERIES = _wd_series_coefficients(16)


def test_wd_series_coefficients():
    assert WD_SERIES[:9] == [1, Fraction(1, 2), Fraction(3, 4), Fraction(3, 2),
                             Fraction(15, 4), Fraction(355, 32), Fraction(595, 16),
                             Fraction(8715, 64), Fraction(67095, 128)]


@pytest.mark.parametrize("d", [64, 256, 1024, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_large_d_matches_the_exact_series(d):
    # the series is asymptotic, its terms shrinking until n ~ d; the 16th
    # is below 3e-19 from d = 64 on, far inside the reported error
    est = compute_id(d, "bessel", 1e-12)
    terms = [c / Fraction(d) ** n for n, c in enumerate(WD_SERIES)]
    assert abs(terms[-1]) < est.abs_error_estimate / 100
    exact = sum(terms[1:])
    assert abs(Fraction(est.value) - exact) <= Fraction(est.abs_error_estimate)


def _mp_id(d):
    """I_d = int_0^inf e^{-t} expm1(d log I0(t/d)) dt at 30 digits, with
    mpmath's error estimate."""
    with mpmath.workdps(30):
        def f(t):
            return mpmath.exp(-t) * mpmath.expm1(d * mpmath.log(mpmath.besseli(0, t / d)))
        return mpmath.quad(f, [0, 1, 4, 16, 64, 256, max(1024, 64 * d), mpmath.inf],
                           error=True)


@pytest.mark.parametrize("d", [*range(3, 17), 32, 64, 128])
def test_id_matches_mpmath(d):
    reference, quad_error = _mp_id(d)
    assert quad_error < 1e-25
    est = compute_id(d, "bessel", 1e-12)
    with mpmath.workdps(30):
        assert abs(est.value - reference) <= est.abs_error_estimate


def test_bessel_route_sums_one_integral(monkeypatch):
    # W_d = 1 + I_d exactly, from one order search
    calls = []
    converge = lattice._converge
    monkeypatch.setattr(lattice, "_converge",
                        lambda *args: calls.append(args[2]) or converge(*args))
    est = compute_id(7, "bessel", 1e-12)
    assert calls == ["I_7 (bessel)"]
    assert est.wd_value == 1.0 + est.value


def _mp_array(f, x, dps):
    with mpmath.workdps(dps):
        return np.array([float(f(mpmath.mpf(float(v)))) for v in x])


BESSEL_POINTS = np.unique(np.concatenate([np.geomspace(1e-6, 1e8, 2001),
                                          np.linspace(1e-3, 20.0, 1001)]))


def test_scaled_bessel_series_match_mpmath():
    assert len(BESSEL_POINTS) >= 3000
    i0e = _mp_array(lambda v: mpmath.besseli(0, v) * mpmath.exp(-v), BESSEL_POINTS, 30)
    assert np.max(np.abs(lattice._i0e(BESSEL_POINTS) / i0e - 1.0)) <= 1e-15


def test_log_i0_series_matches_mpmath():
    # 60 working digits keep 30 of log I0 = log(1 + x^2/4 + ...) at x = 1e-8
    top = lattice._LOG_I0_SERIES_MAX
    x = np.unique(np.concatenate([np.geomspace(1e-8, top, 1000), np.linspace(1e-3, top, 1000)]))
    log_i0 = _mp_array(lambda v: mpmath.log(mpmath.besseli(0, v)), x, 60)
    assert np.max(np.abs(lattice._log_i0_series(x) / log_i0 - 1.0)) <= 1e-15
    # and log I0 - x to a few ulps on both sides of the switch
    x = np.concatenate([x, np.geomspace(top, 1e8, 500)])
    log_i0e = _mp_array(lambda v: mpmath.log(mpmath.besseli(0, v)) - v, x, 60)
    assert np.max(np.abs(lattice._log_i0e(x) / log_i0e - 1.0)) <= 1e-15
