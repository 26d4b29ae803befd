"""Model thermodynamics: closed forms, convexity, Legendre duality."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy import optimize

from mfspin import models as M
from mfspin.errors import BoundaryMagnetization, OutOfSimplex

RNG = np.random.default_rng(20240911)

ALL_MODELS = [M.potts(3), M.potts(10), M.cubic(2), M.cubic(4), M.nematic(3),
              M.nematic(5)]


# ---------------------------------------------------------------------------
# ModelSpec constants and magnetization intervals
# ---------------------------------------------------------------------------

def test_model_constants():
    p = M.potts(7)
    assert p.n == 6 and p.kappa == pytest.approx(6 / 7)
    assert p.omega_norm_sq == pytest.approx(7 / 6)
    c = M.cubic(4)
    assert c.n == 4 and c.kappa == 1.0 and c.omega_norm_sq == 1.0
    n = M.nematic(5)
    assert n.n == 10 and n.kappa == pytest.approx(4 / 5)
    assert n.omega_norm_sq == pytest.approx(5 / 4)


def test_delta_factor_formulas():
    assert M.potts(3).delta_factor == pytest.approx((3 - 1) ** 2 / (2 * 3))
    assert M.potts(10).delta_factor == pytest.approx((10 - 1) ** 2 / (2 * 10))
    assert M.cubic(4).delta_factor == pytest.approx(4 / 2)
    assert M.nematic(3).delta_factor == pytest.approx((3 - 1) ** 2 / 4)
    assert M.nematic(6).delta_factor == pytest.approx((6 - 1) ** 2 / 4)


def test_magnetization_interval_checked():
    p = M.potts(4)
    lo, hi = p.m_bounds()
    assert lo == pytest.approx(-0.25) and hi == pytest.approx(0.75)
    with pytest.raises(OutOfSimplex):
        p.check_magnetization(hi + 1e-6)
    with pytest.raises(OutOfSimplex):
        M.nematic(4).check_magnetization(-0.5)
    assert M.cubic(3).check_magnetization(0.99) == 0.99


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        M.potts(1)
    with pytest.raises(ValueError):
        M.nematic(2)
    with pytest.raises(ValueError):
        M.ModelSpec("heisenberg", 3)


# ---------------------------------------------------------------------------
# Potts closed forms
# ---------------------------------------------------------------------------

def test_potts_phi_symmetric_point():
    assert M.potts_phi(3, 2.73, 0.0) == pytest.approx(-2.73 / 6 - np.log(3), abs=1e-12)


def test_potts_phi_degenerate_at_transition():
    J = 4 * np.log(2)
    assert abs(M.potts_phi(3, J, 1 / 3) - M.potts_phi(3, J, 0.0)) < 1e-9


def test_potts_phi_matches_direct_simplex_evaluation():
    # q=10, J=4.5, m=0.7: occupations (0.8, 0.0222..., x9)
    q, J, m = 10, 4.5, 0.7
    x = np.array([1 / q + m] + [1 / q - m / (q - 1)] * (q - 1))
    assert x[0] == pytest.approx(0.8)
    direct = float(np.sum(-J / 2 * x ** 2 + x * np.log(x)))
    assert M.potts_phi(q, J, m) == pytest.approx(direct, abs=1e-12)


def test_potts_phi_out_of_simplex():
    with pytest.raises(OutOfSimplex):
        M.potts_phi(3, 1.0, 0.7)  # x_k = 1/3 - 0.35 < 0


def test_potts_g_prime_zero_at_origin():
    for q in (3, 5, 10):
        assert M.potts_g_prime(q, 0.0) == 0.0


def test_potts_g_prime_is_mjpotts_rhs():
    # rhs(m) = ((q-1)/q)(e^{Jqm/(q-1)}-1)/(e^{Jqm/(q-1)}+q-1)
    q, J = 3, 2.9
    for m in (0.05, 0.2, 0.5):
        t = np.exp(J * m * q / (q - 1))
        expect = (q - 1) / q * (t - 1) / (t + q - 1)
        assert M.potts_g_prime(q, J * m) == pytest.approx(expect, rel=1e-13)


def test_potts_g_prime_large_field_saturates():
    assert M.potts_g_prime(3, 500.0) == pytest.approx(2 / 3, abs=1e-12)
    assert M.potts_g_prime(3, -500.0) == pytest.approx(-1 / 3, abs=1e-12)


def test_potts_derivatives_at_the_largest_fields_are_silent_limits():
    # t = h q/(q-1) overflows to +-inf; the Potts oracle at J = 1e308 gets here
    h = np.array([-1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert M.potts_g_prime(3, h).tolist() == [-1 / 3, 2 / 3]
        assert M.potts_g_second(3, h).tolist() == [0.0, 0.0]
        assert M.potts_g_prime(3, 1e308) == 2 / 3


# ---------------------------------------------------------------------------
# cubic closed forms
# ---------------------------------------------------------------------------

def test_cubic_g_at_origin():
    # r=4: g(0) = -log 8 + log 4 = -log 2
    assert M.cubic_g(4, 0.0) == pytest.approx(-np.log(2), abs=1e-14)
    assert M.cubic_g_prime(4, 0.0) == 0.0


def test_cubic_g_prime_inflection():
    """g' switches convex->concave where (r-1)cosh h = (r-1)^2 - 2.

    The location is derived here by bisection on centered differences of g''.
    """
    r = 4
    eps = 1e-5

    def g3_fd(h):
        return (M.cubic_g_second(r, h + eps) - M.cubic_g_second(r, h - eps)) / (2 * eps)

    assert g3_fd(1.0) > 0 and g3_fd(2.0) < 0
    h_star = optimize.brentq(g3_fd, 1.0, 2.0, xtol=1e-10)
    expect = np.arccosh(((r - 1) ** 2 - 2) / (r - 1))
    assert h_star == pytest.approx(expect, abs=1e-6)


def test_cubic_g_large_field_stable():
    assert M.cubic_g_prime(4, 200.0) == pytest.approx(1.0, abs=1e-12)
    assert M.cubic_g(4, 100.0) == pytest.approx(100.0 - np.log(16), abs=1e-10)


@pytest.mark.parametrize("r", [1, 2, 4])
def test_cubic_entropy_ends_are_its_limits(r):
    # s(m) = g(h) - m h -> -log 2r - log 2 as h -> inf; above J ~ 38 the solver
    # reports the ordered root at m = 1 exactly
    ms = np.array([-1.0, 1.0, np.nextafter(1.0, 0.0), 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, h = M.cubic(r).entropy(ms)
    assert s[0] == s[1] == -np.log(4.0 * r)
    assert h[0] == -np.inf and h[1] == np.inf
    assert abs(s[2] + np.log(4.0 * r)) <= 1e-14 and h[2] > 18.0
    for i, m in enumerate(ms):
        assert M.cubic(r).entropy(float(m)) == (s[i], h[i])


@pytest.mark.parametrize("r", [2, 3, 4])
def test_cubic_entropy_is_even_up_to_an_ulp_of_the_ends(r):
    # the root u = e^|h| is formed from |m|, so no m < 0 divides by a
    # cancelled difference: finite at -nextafter(1, 0), s even and h odd
    edge = np.nextafter(1.0, 0.0)
    ms = np.concatenate([[edge], np.linspace(0.0, edge, 1001)[1:-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, h = M.cubic(r).entropy(ms)
        s_neg, h_neg = M.cubic(r).entropy(-ms)
        assert M.cubic(r).entropy(-edge) == (s_neg[0], h_neg[0])
    assert np.all(np.isfinite(s_neg)) and np.all(np.isfinite(h_neg))
    assert np.array_equal(s_neg, s) and np.array_equal(h_neg, -h)
    assert h_neg[0] < -18.0 and abs(s_neg[0] + np.log(4.0 * r)) <= 1e-14


# ---------------------------------------------------------------------------
# Ising block
# ---------------------------------------------------------------------------

def test_ising_theta_symmetric_value():
    for J in (0.7, 3.3, 11.0):
        assert M.ising_theta(J, 0.0) == pytest.approx(-np.log(2), abs=1e-14)


def test_ising_theta_even_in_mu():
    for _ in range(10):
        J = 5 * RNG.random()
        mu = 2 * RNG.random() - 1
        assert M.ising_theta(J, mu) == pytest.approx(M.ising_theta(J, -mu), abs=1e-14)


def _ising_rho(J):
    """Largest solution of rho = tanh(J rho / 2), for J > 2."""
    return optimize.brentq(lambda rho: np.tanh(J * rho / 2.0) - rho,
                           1e-12, 1.0 - 1e-15, xtol=1e-14)


def test_ising_theta_minimizer_is_tanh_fixed_point():
    J = 4.0
    rho = _ising_rho(J)
    assert rho == pytest.approx(0.9575, abs=1e-4)
    assert rho == pytest.approx(np.tanh(J * rho / 2), abs=1e-12)
    # direct minimization of Theta agrees
    res = optimize.minimize_scalar(lambda mu: M.ising_theta(J, mu),
                                   bounds=(0, 1), method="bounded",
                                   options={"xatol": 1e-12})
    assert res.x == pytest.approx(rho, abs=1e-8)


def test_ising_rho_subcritical():
    # for J <= 2, tanh(J rho / 2) < rho at every rho > 0: only rho = 0 solves it
    rhos = np.linspace(1e-6, 1.0, 1001)
    for J in (1.5, 2.0):
        assert np.all(np.tanh(J * rhos / 2.0) < rhos)
    rho = _ising_rho(4.0)
    assert 4.0 * (1 - rho ** 2) < 2.0


# ---------------------------------------------------------------------------
# nematic Kummer-function g
# ---------------------------------------------------------------------------

def _nematic_reference(N, h):
    """g, g', g'' from 30-digit mpmath Kummer functions, straight from the definition."""
    with mpmath.workdps(30):
        N, h = mpmath.mpf(N), mpmath.mpf(h)
        a, b = h * N / (N - 1), N / 2
        F0, F1, F2 = (mpmath.hyp1f1(j + 0.5, b + j, a) for j in range(3))
        x2, x4 = F1 / (N * F0), 3 * F2 / (N * (N + 2) * F0)
        return [float(v) for v in ((N - 1) / N * (mpmath.log(F0) - a / N),
                                   x2 - 1 / N, N / (N - 1) * (x4 - x2 * x2))]


# h = 0 and +-10^k over the whole range the solvers reach.  At large N the
# bound is set by g itself: for h > 0 it is formed as (N-1)/N ell + h with
# ell = log Z - a ~ -a, so it keeps the absolute rounding of |a| ~ 400 while
# |g| ~ 1-40 (a dense scan of h in [-3000, 3000] at N = 1000 gave 9.2e-14)
@pytest.mark.parametrize("N,tol", [(3, 1e-13), (4, 1e-13), (10, 1e-13),
                                   (200, 1.5e-13), (1000, 1.5e-13)])
def test_nematic_g_family_matches_mpmath(N, tol):
    hs = np.array([0.0] + [s * 10.0 ** k for k in range(-3, 10) for s in (1, -1)])
    got = [M.nematic_g(N, hs), M.nematic_g_prime(N, hs), M.nematic_g_second(N, hs)]
    for i, h in enumerate(hs):
        for name, vals, want in zip(("g", "g'", "g''"), got, _nematic_reference(N, h)):
            # relative, or absolute where |value| < 1
            assert abs(vals[i] - want) <= tol * max(abs(want), 1.0), (name, N, h, vals[i], want)


@pytest.mark.parametrize("N", [3, 4, 10, 200, 1000, 20000])
def test_nematic_g_family_covers_every_field(N):
    # both routes of the moments, and the switch between them, over
    # |h| from 1e-300 to 1e300: finite, convex, g' nondecreasing through
    # h = 0, with no numpy warning on the way
    mag = np.logspace(-300, 300, 601)
    hs = np.concatenate([-mag[::-1], [0.0], mag])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, g1, g2 = M.nematic_g(N, hs), M.nematic_g_prime(N, hs), M.nematic_g_second(N, hs)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))
    assert np.all(g2 >= 0.0)
    assert np.all(np.diff(g1) >= 0.0)


def test_nematic_g_family_array_has_the_scalar_bits():
    # each point keeps its own blocks and order of summation, whatever the batch
    hs = np.concatenate([np.linspace(-60.0, 60.0, 241), [0.0, 1e-9, -1e-9, 1e3, -1e3]])
    for N in (3, 4, 1000):
        for f in (M.nematic_g, M.nematic_g_prime, M.nematic_g_second):
            batch = f(N, hs)
            assert [f(N, float(h)) for h in hs] == batch.tolist()


def _nematic_dual_reference(N, m, h0):
    """(s, h*) with g'(h*) = m, from a 40-digit mpmath root of the Kummer ratio."""
    with mpmath.workdps(40):
        N, m = mpmath.mpf(N), mpmath.mpf(m)
        b = N / 2

        def g_prime(h):
            a = h * N / (N - 1)
            return mpmath.hyp1f1(1.5, b + 1, a) / (N * mpmath.hyp1f1(0.5, b, a)) - 1 / N
        h = mpmath.findroot(lambda x: g_prime(x) - m, mpmath.mpf(h0))
        a = h * N / (N - 1)
        s = (N - 1) / N * (mpmath.log(mpmath.hyp1f1(0.5, b, a)) - a / N) - m * h
        return float(s), float(h)


def test_nematic_entropy_at_the_ends_of_the_certify_and_profile_grids():
    model = M.nematic(3)
    # top point of the certify grid, hi * (1 - 1e-9): the dual field is ~1e9
    s, h = model.entropy(0.6666666659999999)
    assert s == pytest.approx(-13.8812519914, abs=1e-9)
    s_ref, h_ref = _nematic_dual_reference(3, 0.6666666659999999, 1e9)
    assert s == pytest.approx(s_ref, abs=1e-12) and h == pytest.approx(h_ref, rel=1e-9)
    # first point of `profile`, lo + 1e-9: the dual field is ~ -3e8
    m = -1 / 3 + 1e-9
    s, h = model.entropy(m)
    s_ref, h_ref = _nematic_dual_reference(3, m, -3e8)
    assert s == pytest.approx(s_ref, abs=1e-12) and h == pytest.approx(h_ref, rel=1e-9)


def test_nematic_entropy_on_the_certify_grid_matches_mpmath():
    # the certificate's s(m) grid, its first and last points included; over
    # all 2000 points the largest error measured was 1.8e-15, at the top one
    model = M.nematic(3)
    hi = model.m_bounds()[1]
    ms = np.linspace(0.0, hi - 1e-9 * hi, 2000)
    s, h = model.entropy(ms)
    for i in (0, 1, 2, 3, 50, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800,
              1900, 1990, 1996, 1997, 1998, 1999):
        s_ref, h_ref = _nematic_dual_reference(3, ms[i], h[i])
        assert s[i] == pytest.approx(s_ref, abs=4e-15)
        assert h[i] == pytest.approx(h_ref, rel=1e-9, abs=1e-12)


def test_nematic_entropy_reaches_within_an_ulp_of_the_ends():
    model = M.nematic(4)       # ends -1/4 and 3/4 are exact doubles
    lo, hi = model.m_bounds()
    inside = np.array([np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)])
    s, h = model.entropy(inside)
    assert h[0] < -1e15 and h[1] > 1e15
    for i, m in enumerate(inside):
        assert model.entropy(float(m)) == (s[i], h[i])
        s_ref, h_ref = _nematic_dual_reference(4, m, h[i])
        assert s[i] == pytest.approx(s_ref, abs=1e-12) and h[i] == pytest.approx(h_ref, rel=1e-9)
    for end in (lo, hi):
        with pytest.raises(BoundaryMagnetization):
            model.entropy(end)


@pytest.mark.parametrize("N", [3, 4, 7])
def test_nematic_g_normalization(N):
    assert M.nematic_g(N, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert M.nematic_g_prime(N, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_nematic_large_field_asymptotics():
    # <x^2> = g'(h) + 1/N approaches 1 like O(1/h)
    h = 50.0
    x2 = M.nematic_g_prime(3, h) + 1 / 3
    assert 0.0 < 1.0 - x2 < 1.5 / h


def test_nematic_large_N_fixed_point():
    """lambda = g'(J N lambda) at J=3 approaches (1+sqrt(1-2/3))/2.

    The scaled cumulant limit g_inf(h) = max(0, h - 1/2 - log(2h)/2) makes
    the limiting stable solution (1+sqrt(1-2/J))/2; at N=1000 the finite-N
    value sits within 1e-3 of it.
    """
    N = 1000
    lam_limit = 0.5 * (1 + np.sqrt(1 - 2 / 3))
    lam = optimize.brentq(lambda l: M.nematic_g_prime(N, 3 * N * l) - l,
                          0.6, 0.95, xtol=1e-10)
    assert lam == pytest.approx(lam_limit, abs=2e-3)


def test_nematic_g_second_is_variance():
    # differentiation under the integral vs centered differences of g'
    N, h = 4, 1.7
    eps = 1e-5
    fd = (M.nematic_g_prime(N, h + eps) - M.nematic_g_prime(N, h - eps)) / (2 * eps)
    assert M.nematic_g_second(N, h) == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# convexity, duality, derivative consistency (all models)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_g_convexity_on_grid(model):
    hs = np.linspace(-6, 6, 41) if model.kind != "nematic" else np.linspace(-6, 6, 21)
    for h in hs:
        assert model.g_second(float(h)) >= 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_derivative_consistency(model):
    eps = 1e-4
    n_pts = 20 if model.kind != "nematic" else 8
    hs = 4 * RNG.random(n_pts) - 2
    for h in hs:
        h = float(h)
        fd = (model.g(h + eps) - model.g(h - eps)) / (2 * eps)
        assert abs(model.g_prime(h) - fd) < 5e-7


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_fenchel_duality_round_trip(model):
    """sup_m (s(m) + h m) = g(h), attained at m = g'(h)."""
    for h in (-1.3, 0.0, 0.8, 2.1):
        m_star = model.g_prime(h)
        s, _ = model.entropy(m_star)
        assert s + h * m_star == pytest.approx(model.g(h), abs=1e-8)
        # Fenchel inequality on a sample of interior points
        lo, hi = model.m_bounds()
        for m in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7):
            s_m, _ = model.entropy(float(m))
            assert s_m + h * m <= model.g(h) + 1e-10


def test_legendre_symmetric_point():
    for model in (M.potts(4), M.cubic(3), M.nematic(4)):
        s, h = model.entropy(0.0)
        assert h == pytest.approx(0.0, abs=1e-9)
        assert s == pytest.approx(model.g(0.0), abs=1e-12)


def test_legendre_round_trip_random_fields():
    model = M.cubic(4)
    for h0 in (-2.0, 0.4, 1.7, 3.0):
        m = model.g_prime(h0)
        s, h_star = M.legendre_entropy(model.g, model.g_prime, m)
        assert h_star == pytest.approx(h0, abs=1e-9)


def test_legendre_potts_matches_simplex_entropy():
    q, m = 3, 1 / 3
    s_num, h_num = M.legendre_entropy(lambda h: M.potts_g(q, h),
                                      lambda h: M.potts_g_prime(q, h), m)
    x = np.array([1 / q + m, 1 / q - m / (q - 1), 1 / q - m / (q - 1)])
    s_closed = (q - 1) / q * (-float(np.sum(x * np.log(x))) - np.log(q))
    assert s_num == pytest.approx(s_closed, abs=1e-8)


def test_legendre_boundary_magnetization():
    model = M.potts(3)
    with pytest.raises(BoundaryMagnetization):
        M.legendre_entropy(model.g, model.g_prime, 0.75)  # beyond (q-1)/q limit of g'


# ---------------------------------------------------------------------------
# scalar free energy
# ---------------------------------------------------------------------------

def test_scalar_phi_cubic_symmetric_value():
    # phi(0) = -s(0) = -g(0) = log 2 under the raw additive convention
    assert M.scalar_phi(M.cubic(4), 1.7, 0.0) == pytest.approx(np.log(2), abs=1e-12)


def test_scalar_phi_potts_affine_relation():
    """potts_phi = (q/(q-1)) scalar_phi - J/(2q) - log q, exactly."""
    q = 3
    model = M.potts(q)
    for J, m in ((1.1, 0.0), (2.9, 0.25), (4.0, -0.2), (2.0, 0.6)):
        lhs = M.potts_phi(q, J, m)
        rhs = q / (q - 1) * M.scalar_phi(model, J, m) - J / (2 * q) - np.log(q)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scalar_phi_nematic_entropy_maximal_at_zero():
    model = M.nematic(4)
    assert M.scalar_phi(model, 0.0, 0.3) > M.scalar_phi(model, 0.0, 0.0)


@pytest.mark.parametrize("model,J", [(M.potts(3), 2.9), (M.cubic(4), 3.9),
                                     (M.nematic(3), 7.0)], ids=str)
def test_stationarity_equivalence(model, J):
    """m solves m = g'(Jm) iff phi_J'(m) = 0 (checked by centered differences)."""
    from mfspin.solver import solve_branches
    eps = 1e-6
    for p in solve_branches(model, J).points:
        lo, hi = model.m_bounds()
        if not (lo + 10 * eps < p.m < hi - 10 * eps):
            continue
        dphi = (M.scalar_phi(model, J, p.m + eps)
                - M.scalar_phi(model, J, p.m - eps)) / (2 * eps)
        assert abs(dphi) < 5e-6
    # a non-root has a visibly nonzero derivative
    m_off = 0.3 * (model.m_bounds()[1])
    if abs(model.g_prime(J * m_off) - m_off) > 1e-3:
        dphi = (M.scalar_phi(model, J, m_off + eps)
                - M.scalar_phi(model, J, m_off - eps)) / (2 * eps)
        assert abs(dphi) > 1e-4


# ---------------------------------------------------------------------------
# ndarray paths: bit-identical to the scalar path, same typed errors
# ---------------------------------------------------------------------------

NDARRAY_MODELS = [(M.potts(3), 41), (M.potts(10), 41), (M.cubic(3), 41),
                  (M.cubic(4), 41), (M.nematic(3), 7)]


def _interior_grid(model, n):
    lo, hi = model.m_bounds()
    eps = 1e-9 * (hi - lo)     # the nematic dual field is ~1e9 at both ends
    return np.linspace(lo + eps, hi - eps, n)


@pytest.mark.parametrize("model,n", NDARRAY_MODELS, ids=str)
def test_entropy_ndarray_matches_scalar_bitwise(model, n):
    ms = _interior_grid(model, n)
    s, h = model.entropy(ms)
    pairs = [model.entropy(float(m)) for m in ms]
    assert isinstance(s, np.ndarray) and s.shape == ms.shape
    assert np.array_equal(s, [p[0] for p in pairs])
    assert np.array_equal(h, [p[1] for p in pairs])
    assert all(type(v) is float for v in pairs[0])


@pytest.mark.parametrize("model,n", NDARRAY_MODELS, ids=str)
def test_phi_ndarray_matches_scalar_bitwise(model, n):
    ms = _interior_grid(model, n)
    for J in (0.0, 2.77, 4.9):
        full = M.phi_full_scale(model, J, ms)
        assert np.array_equal(full, [M.phi_full_scale(model, J, float(m)) for m in ms])
        assert np.array_equal(M.scalar_phi(model, J, ms),
                              [M.scalar_phi(model, J, float(m)) for m in ms])
    assert np.array_equal(model.check_magnetization(ms), ms)


def test_potts_entropy_ndarray_at_simplex_corners():
    model = M.potts(4)
    lo, hi = model.m_bounds()
    ms = np.array([lo, 0.0, hi])
    s, h = model.entropy(ms)
    for i, m in enumerate(ms):
        s_i, h_i = model.entropy(float(m))
        assert s[i] == s_i and h[i] == h_i
    assert h[0] == -np.inf and h[2] == np.inf


@pytest.mark.parametrize("model", [m for m, _ in NDARRAY_MODELS], ids=str)
def test_ndarray_out_of_range_raises_scalar_error(model):
    lo, hi = model.m_bounds()
    for bad in (hi + 0.01, lo - 0.01):
        ms = np.append(_interior_grid(model, 5), bad)
        for fn in (model.check_magnetization,
                   lambda m: M.scalar_phi(model, 2.0, m),
                   lambda m: M.phi_full_scale(model, 2.0, m)):
            with pytest.raises(OutOfSimplex):
                fn(bad)
            with pytest.raises(OutOfSimplex, match=str(bad)):
                fn(ms)
        with pytest.raises(BoundaryMagnetization):
            model.entropy(bad)
        with pytest.raises(BoundaryMagnetization):
            model.entropy(ms)


# Indices into linspace(lo, hi, 50001) where squaring by libm pow and by
# multiplication round differently (at J = 2.77 or 4.94).
POTTS_POW_INDICES = {3: [677, 2426, 2596, 2615, 2706, 8451, 14787],
                     4: [601, 909, 4998, 9799, 11735],
                     10: [8751, 25299, 25510, 28424, 31791, 33803, 38177]}


@pytest.mark.parametrize("q", sorted(POTTS_POW_INDICES))
def test_potts_phi_ndarray_matches_scalar_bitwise(q):
    lo, hi = M.potts(q).m_bounds()
    fine = np.linspace(lo, hi, 50001)[POTTS_POW_INDICES[q]]
    ms = np.concatenate([np.linspace(lo, hi, 401), fine])
    for J in (0.0, 2.77, 4.94):
        assert np.array_equal(M.potts_phi(q, J, ms),
                              [M.potts_phi(q, J, m) for m in ms.tolist()])


@pytest.mark.parametrize("model,n", NDARRAY_MODELS, ids=str)
def test_g_family_ndarray_matches_scalar_bitwise(model, n):
    hs = np.linspace(-3.0, 3.0, n)
    for fn in (model.g, model.g_prime, model.g_second):
        vals = fn(hs)
        assert isinstance(vals, np.ndarray) and vals.shape == hs.shape
        assert np.array_equal(vals, [fn(float(h)) for h in hs])
        assert type(fn(float(hs[0]))) is float
        assert np.array_equal(fn(hs.reshape(-1, 1))[:, 0], vals)
        assert fn(np.array([])).shape == (0,)
    s, h = model.entropy(np.array([]))
    assert s.shape == h.shape == (0,)


def test_model_records_keep_identity_and_names():
    for kind, letter in (("potts", "q"), ("cubic", "r"), ("nematic", "N")):
        model = M.ModelSpec(kind, 4)
        assert model == M.ModelSpec(kind, 4) and hash(model) == hash(M.ModelSpec(kind, 4))
        assert str(model) == f"{kind}({letter}=4)"
