"""Infrared integrals: two independent methods, identities, asymptotics."""

import math

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


def _mp_array(f, x, dps):
    with mpmath.workdps(dps):
        return np.array([float(f(mpmath.mpf(float(v)))) for v in x])


BESSEL_POINTS = np.unique(np.concatenate([np.geomspace(1e-6, 1e8, 2001),
                                          np.linspace(1e-3, 20.0, 1001)]))


def test_scaled_bessel_series_match_mpmath():
    assert len(BESSEL_POINTS) >= 3000
    i0e = _mp_array(lambda v: mpmath.besseli(0, v) * mpmath.exp(-v), BESSEL_POINTS, 30)
    i1e = _mp_array(lambda v: mpmath.besseli(1, v) * mpmath.exp(-v), BESSEL_POINTS, 30)
    assert np.max(np.abs(lattice._i0e(BESSEL_POINTS) / i0e - 1.0)) <= 1e-15
    assert np.max(np.abs(lattice._i1e(BESSEL_POINTS) / i1e - 1.0)) <= 2e-15


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
