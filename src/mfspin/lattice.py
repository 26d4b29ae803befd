"""Hypercubic lattice integrals W_d = int 1/Dhat and I_d = int (1-Dhat)^2/Dhat.

Dhat(k) = 1 - (1/d) sum_j cos(k_j) over the Brillouin zone [-pi, pi]^d, d >= 3.
I_d controls the infrared error budget of the mean-field bound and satisfies
the exact identity I_d = W_d - 1 (expand (1-Dhat)^2/Dhat = 1/Dhat - 2 + Dhat
and note that Dhat integrates to 1).  I_d ~ 1/(2d) for large d.

Two independent methods:

* ``bessel`` -- the product representation 1/Dhat = int_0^inf e^{-t Dhat} dt
  gives W_d = int_0^inf e^{-t} I0(t/d)^d dt, and the identity gives
  I_d = int_0^inf e^{-t} (I0(t/d)^d - 1) dt, valid for every d >= 3.  The
  route sums that one integrand and reports W_d = 1 + I_d.  It is summed by
  one fixed rule: Gauss-Legendre panels on [0, T] with doubling edges,
  T = max(400, 60d), and the tail t = T/u^2 on u in (0, 1], where the
  t^{-d/2} decay is smooth in u.  The per-panel order steps through 16, 24,
  32, ... until two successive orders agree within tol/4; the error estimate
  is that difference plus a few ulps of I_d, plus half an ulp of W_d for
  its rounding.  I0(t/d)^d is formed in log space, so that its rounding
  error does not grow with d: y = d log I0(t/d) from a power series of
  log I0 where t/d <= 2, and Cephes' Chebyshev series of e^-x I0 above.
  Where y < 1 the integrand is e^{-t} expm1(y), so that I_d keeps its
  relative accuracy at large d; elsewhere the difference of the two
  exponentials loses no digits.  mpmath and an exact large-d series check
  the route in the tests.
* ``quad``  -- tensor Gauss-Legendre quadrature of the momentum integral
  itself, feasible for d <= 4.  k1 is integrated in closed form, which
  leaves d / sqrt(A^2 - 1), A = d - sum_{j>=2} cos k_j, over [0, pi]^(d-1);
  Duffy's map k = t (1, u) on each pyramid where one coordinate is largest
  turns its point singularity at k = 0 into an integrand analytic on a box,
  and one Gauss-Legendre rule of the same order on every axis converges
  geometrically.  W_d and I_d are summed from the same nodes in one pass.
  The order steps through 4, 6, 8, ... until two successive orders agree
  within tol/4; the error estimate is that difference plus a few ulps of
  W_d.

Neither route checks I_d = W_d - 1 independently (``bessel`` uses it, and
``quad`` sums both integrals from the same nodes); the check is ``quad``
against ``bessel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import DimensionTooSmall, MethodInfeasible, QuadratureFailure

__all__ = ["IdEstimate", "compute_id", "METHODS"]

METHODS = ("bessel", "quad")


@dataclass(frozen=True)
class IdEstimate:
    """One evaluation of the infrared integrals at dimension d."""

    d: int
    value: float              # I_d
    wd_value: float           # W_d
    method: str               # "bessel" (product) or "quad" (momentum space)
    abs_error_estimate: float

    def as_dict(self):
        return {"d": self.d, "id": self.value, "wd": self.wd_value,
                "method": self.method, "err": self.abs_error_estimate}


def _check_args(d: int, method: str, tol: float):
    if d < 3:
        raise DimensionTooSmall(f"d={d}: the integrals diverge for d < 3")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "quad" and d > 4:
        raise MethodInfeasible(
            f"momentum quadrature costs n^(d-1) nodes at order n; "
            f"d={d} > 4 unsupported")
    if tol <= 0:
        raise ValueError("tol must be positive")


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights of one order, mapped to [0, 1]; read only."""
    x, w = legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


# ---------------------------------------------------------------------------
# Bessel-product representation
# ---------------------------------------------------------------------------

# Chebyshev series of the exponentially scaled Bessel function e^-x I0(x),
# highest degree first, in the Cephes convention of _chebyshev: Cephes' i0.c
# tables (the ones numpy's np.i0 uses), e^-x I0(x) in x/2 - 2 on [0, 8] and
# sqrt(x) e^-x I0(x) in 32/x - 2 on (8, inf).
_I0E_LO = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_HI = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_LOG_I0_SERIES_MAX = 2.0           # log I0 from its power series up to here
_LOG_I0_TERMS = 14                 # terms of I0 - 1 = sum_k (x^2/4)^k / k!^2
_BESSEL_ORDERS = range(16, 65, 8)  # per-panel orders tried in turn, up to the cap
_ROUNDING_ULPS = 4                 # error floor of either route, in ulps


def _chebyshev(y, coeffs):
    """c_0/2 + sum_j c_j T_j(y/2) by Clenshaw's recurrence (Cephes' chbevl),
    coeffs listed highest degree first; y in [-2, 2]."""
    b0, b1, b2 = np.full_like(y, coeffs[0]), 0.0, 0.0
    for c in coeffs[1:]:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _i0e(x):
    """e^-x I0(x) on an array x > 0: the series _I0E_LO at the entries
    x <= 8 and _I0E_HI over sqrt(x) at the entries x > 8."""
    out = np.empty_like(x)
    small = x <= 8.0
    out[small] = _chebyshev(x[small] / 2.0 - 2.0, _I0E_LO)
    xl = x[~small]
    out[~small] = _chebyshev(32.0 / xl - 2.0, _I0E_HI) / np.sqrt(xl)
    return out


def _log_i0_series(x):
    """log I0(x) on an array 0 < x <= _LOG_I0_SERIES_MAX, to a few ulps:
    log1p of the power series of I0 - 1 = sum_k (x^2/4)^k / k!^2."""
    z = x * x / 4.0
    s = np.ones_like(z)
    for k in range(_LOG_I0_TERMS, 1, -1):
        s = 1.0 + s * z / (k * k)
    return np.log1p(z * s)


def _log_i0e(x):
    """log(e^-x I0(x)) = log I0(x) - x on an array x > 0.

    Near 0, log(i0e(x)) would carry i0e's absolute rounding error of about
    1e-16 into log I0 ~ x^2/4, and a power i0e^k would carry k times it;
    the series keeps the relative error of log I0 - x at a few ulps.
    """
    out = np.empty_like(x)
    small = x <= _LOG_I0_SERIES_MAX
    out[small] = _log_i0_series(x[small]) - x[small]
    out[~small] = np.log(_i0e(x[~small]))
    return out


def _bessel_nodes(d: int, order: int):
    """Nodes and weights of the rule on [0, inf) with `order` nodes a panel.

    Gauss-Legendre panels with edges 0, 1, 2, 4, ... up to T = max(400, 60d)
    follow both the e^-t decay near 0 and the Bessel factors' scale t ~ d;
    t = T/u^2 maps the tail [T, inf) onto u in (0, 1], where the integrand,
    ~ t^{-d/2} dt ~ u^{d-3} du, is smooth for every d >= 3.
    """
    u, w = _gauss_legendre(order)
    T = max(400.0, 60.0 * d)
    edges = np.append(0.0, np.minimum(2.0 ** np.arange(np.ceil(np.log2(T)) + 1), T))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    t = np.concatenate([(lo + width * u).ravel(), T / (u * u)])
    weight = np.concatenate([(width * w).ravel(), 2.0 * T * w / u ** 3])
    return t, weight


def _converge(orders, values, what: str, tol: float):
    """(values(order), difference) at the first of `orders` whose tuple of
    values agrees with the previous order's within tol/4 in every entry, the
    difference being the largest entry's; QuadratureFailure if no two
    successive orders agree.
    """
    prev = diff = None
    for order in orders:
        cur = values(order)
        if prev is not None:
            diff = max(abs(a - b) for a, b in zip(cur, prev))
            if diff <= tol / 4.0:
                return cur, diff
        prev = cur
    raise QuadratureFailure(
        f"{what}: orders {order - orders.step} and {order} differ by {diff:.2e}, "
        f"more than tol/4 = {tol / 4.0:.2e}")


def _bessel_integral(d: int, integrand, what: str, tol: float):
    """(integral of integrand(t) over [0, inf), error estimate).

    The per-panel order steps through _BESSEL_ORDERS until two successive
    orders agree within tol/4; the error estimate is their difference plus a
    rounding floor of a few ulps.
    """
    def at(order):
        t, w = _bessel_nodes(d, order)
        return (float(w @ integrand(t)),)
    (value,), diff = _converge(_BESSEL_ORDERS, at, f"{what} (bessel)", tol)
    return value, diff + _ROUNDING_ULPS * float(np.spacing(value))


def _id_integrand(t, d: int):
    """e^{-t} (I0(t/d)^d - 1) on an array t > 0, the power formed in log space.

    Where y = d log I0(t/d) < 1 (only at t/d <= 2, since every t/d > 2 has
    y > 2.4) the integrand is e^{-t} expm1(y), y from the power series of
    log I0; elsewhere it is exp(d log i0e(t/d)) - e^{-t}, whose first term
    is at least e times the second, so the difference loses no digits.
    """
    x = t / d
    out = np.exp(d * _log_i0e(x)) - np.exp(-t)
    small = np.flatnonzero(x <= _LOG_I0_SERIES_MAX)
    y = d * _log_i0_series(x[small])
    near = y < 1.0
    at = small[near]
    out[at] = np.exp(-t[at]) * np.expm1(y[near])
    return out


# ---------------------------------------------------------------------------
# momentum-space quadrature
# ---------------------------------------------------------------------------

_QUAD_ORDERS = range(4, 25, 2)     # orders per axis tried in turn, up to the cap


def _momentum_integrals(d: int, order: int):
    """(W_d, I_d) by the tensor Gauss-Legendre rule of `order` nodes an axis.

    k1 is integrated exactly: (1/pi) int_0^pi dk1 / (A - cos k1) =
    1/sqrt(A^2 - 1), A = d - sum_{j>=2} cos k_j, so W_d is the mean of
    d / sqrt((A - 1)(A + 1)) over [0, pi]^m, m = d - 1, and the k1-average of
    Dhat is A/d.  The integrand is symmetric in k2..kd, so the m pyramids
    where one coordinate is largest are alike, and k = t (1, u), t in
    [0, pi], u in [0, 1]^(m-1), maps one of them onto a box with Jacobian
    t^(m-1) (Duffy's map).  With A - 1 = 2 s, s = sum sin^2(k_j/2) formed
    without cancellation, t^(m-1) / sqrt((A - 1)(A + 1)) is analytic on the
    closed box.  I_d = W_d - 2 + mean(A/d) is summed from the same nodes.
    """
    m = d - 1
    x, w = _gauss_legendre(order)
    t = np.pi * x
    s = np.sin(t / 2.0) ** 2
    weight = (m / np.pi ** (m - 1)) * w * t ** (m - 1)
    off_axis = np.sin(np.multiply.outer(t, x) / 2.0) ** 2
    for j in range(m - 1):
        s = s[..., None] + off_axis.reshape((order,) + (1,) * j + (order,))
        weight = np.multiply.outer(weight, w)
    s, weight = s.ravel(), weight.ravel()
    wd = 0.5 * d * float(weight @ (1.0 / np.sqrt(s * (1.0 + s))))
    return wd, wd - 2.0 + float(weight @ (1.0 + 2.0 * s)) / d


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def compute_id(d: int, method: str = "bessel", tol: float = 1e-8) -> IdEstimate:
    """Infrared integral I_d = int (1-Dhat)^2/Dhat over the Brillouin zone.

    The one entry to both integrals: the estimate carries W_d in
    ``wd_value``.  The Bessel route sums I_d = int e^{-t} (I0(t/d)^d - 1) dt
    once and reports W_d = 1 + I_d, its error estimate widened by half an
    ulp of W_d so that it covers both; the quad route sums W_d and I_d from
    the same nodes of a momentum-space rule, checked against the Bessel
    route.  The estimate is accepted while its error estimate is at most
    max(tol, 1e-14), else QuadratureFailure.
    """
    _check_args(d, method, tol)
    if method == "bessel":
        v, err = _bessel_integral(d, lambda t: _id_integrand(t, d), f"I_{d}", tol)
        wd = 1.0 + v
        err += 0.5 * float(np.spacing(wd))
    else:
        (wd, v), diff = _converge(_QUAD_ORDERS, lambda order: _momentum_integrals(d, order),
                                  f"d={d} (quad)", tol)
        err = diff + _ROUNDING_ULPS * float(np.spacing(wd))
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"I_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=float(v), wd_value=float(wd), method=method,
                      abs_error_estimate=float(err))
