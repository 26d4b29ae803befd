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
* ``quad``  -- fixed-panel Gauss-Legendre quadrature of the momentum integral
  itself, feasible for d <= 4.  The integrable 1/|k|^2 singularity at k = 0 is
  removed by excluding a ball of radius r0 and adding its analytic small-k
  expansion; on every axis the ball's slice [0, c] is mapped by k = c sin(psi),
  so each panel sees a smooth integrand.  W_d and I_d are summed from the same
  nodes in one pass.  The outer axes (k3, and k4 for d = 4) step through
  orders 4, 6, 8, ... until two successive orders agree within tol/4; the
  error estimate is the ball expansion's plus that last difference.

Neither route checks I_d = W_d - 1 independently (``bessel`` uses it, and
``quad`` sums both integrals from the same nodes); the check is ``quad``
against ``bessel``.
"""

from __future__ import annotations

import math
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
            f"nested quadrature is exponential in d; d={d} > 4 unsupported")
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
_ROUNDING_ULPS = 4                 # error floor of a Bessel integral, in ulps


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
# fixed-panel quadrature with ball exclusion
# ---------------------------------------------------------------------------

_R0 = 0.2                          # radius of the excluded ball around k = 0
_INNER_ORDER = 40                  # Gauss-Legendre order per (k1, k2) panel
_OUTER_ORDERS = range(4, 17, 2)    # outer orders tried in turn, up to the cap
_CHUNK = 16                        # outer nodes per vectorized (k1, k2) block


def _panels(c, order: int, slice_panel: bool = True):
    """Gauss-Legendre panels of one axis of [0, pi], one at a time, as
    (nodes, weights, the ball radius left to the next axis); each broadcasts
    to c.shape + (order,).

    c (an array) is the radius of the ball's slice on this axis, 0 where the
    slice is empty.  The panel [0, c] uses k = c sin(psi), so a node leaves a
    slice of radius c cos(psi) to the next axis and the curved boundary costs
    no accuracy; the panels [c, 2 r0], [2 r0, 1.5] and [1.5, pi] resolve the
    sharp-but-smooth peak left near the origin.  slice_panel=False leaves
    [0, c] out (the last axis, whose slice is inside the ball).
    """
    t, w = _gauss_legendre(order)
    c = np.asarray(c, dtype=float)[..., None]
    if slice_panel:
        psi = (np.pi / 2.0) * t
        rest = c * np.cos(psi)
        yield c * np.sin(psi), rest * (np.pi / 2.0) * w, rest
    lo = c
    for hi in (2.0 * _R0, 1.5, np.pi):
        yield lo + (hi - lo) * t, (hi - lo) * w, 0.0
        lo = hi


def _outer_nodes(d: int, order: int):
    """(sum of cos k_j, ball radius left to (k1, k2), weight) of every node of
    the outer axes k3..kd, flattened."""
    cos_rest, s, weight = np.zeros(1), np.full(1, _R0), np.ones(1)
    for _ in range(d - 2):
        shape = s.shape + (order,)
        k, w, s = (np.concatenate([np.broadcast_to(x, shape) for x in xs], axis=-1)
                   for xs in zip(*_panels(s, order)))
        cos_rest = (np.cos(k) + cos_rest[:, None]).ravel()
        weight = (w * weight[:, None]).ravel()
        s = s.ravel()
    return cos_rest, s, weight


def _inner_sums(cos_rest, s, weight, d: int):
    """Sums of w/Dhat, w*Dhat and w over a chunk of outer nodes (arrays) and
    their (k1, k2) nodes in [0, pi]^2 outside the disk of radius s, w being
    the product of the outer and inner weights."""
    sums = np.zeros(3)
    for k2, w2, s1 in _panels(s, _INNER_ORDER, slice_panel=bool(s.any())):
        dhat2 = 1.0 - (np.cos(k2) + cos_rest[:, None]) / d
        w2 = w2 * weight[:, None]
        for k1, w1, _ in _panels(s1, _INNER_ORDER, slice_panel=False):
            dhat = dhat2[..., None] - np.cos(k1) / d
            w1 = np.broadcast_to(w1, dhat.shape)
            sums += (np.einsum("ijk,ijk,ij->", w1, 1.0 / dhat, w2),
                     np.einsum("ijk,ijk,ij->", w1, dhat, w2),
                     np.einsum("ijk,ij->", w1, w2))
    return sums


def _outside_ball(d: int, order: int):
    """int 1/Dhat and int (1-Dhat)^2/Dhat over [0, pi]^d outside the ball,
    divided by pi^d, with outer Gauss-Legendre order `order`.

    Both integrands are summed from the same nodes, _CHUNK outer nodes at a
    time; the nodes with a slice of the ball come first, so the chunks
    after them share their (k1, k2) nodes.
    """
    cos_rest, s, weight = _outer_nodes(d, order)
    first = np.argsort(s == 0.0, kind="stable")
    cos_rest, s, weight = cos_rest[first], s[first], weight[first]
    inv, dhat, vol = sum(_inner_sums(cos_rest[lo:lo + _CHUNK], s[lo:lo + _CHUNK],
                                     weight[lo:lo + _CHUNK], d)
                         for lo in range(0, len(s), _CHUNK))
    return inv / np.pi ** d, (inv - 2.0 * vol + dhat) / np.pi ** d


def _ball_series(d: int):
    """Analytic small-k contributions of the excluded ball to W_d and I_d,
    with an error guess.

    1/Dhat = (2d/rho^2)(1 + S4/(12 rho^2) + [S4^2/144 - S6/360]/rho^2 + ...)
    averaged over angles; S_p = sum k_j^p.  I_d adds the exact -2 + Dhat
    ball integrals.
    """
    r0 = _R0
    A_d = 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)
    norm = A_d / (2.0 * np.pi) ** d
    c2 = d * (d + 20.0) / (24.0 * (d + 2.0) * (d + 4.0) * (d + 6.0))
    val = norm * (2.0 * d * r0 ** (d - 2) / (d - 2.0)
                  + r0 ** d / (2.0 * (d + 2.0))
                  + c2 * r0 ** (d + 2) / (d + 2.0))
    err = 3.0 * r0 * r0 * norm * c2 * r0 ** (d + 2) / (d + 2.0)
    vol = norm * r0 ** d / d
    # int_B Dhat = (1/d)[int rho^2/2 - int S4/24 + ...]
    int_rho2 = norm * r0 ** (d + 2) / (d + 2.0)
    int_s4 = norm * (3.0 / (d + 2.0)) * r0 ** (d + 4) / (d + 4.0)
    return val, val - 2.0 * vol + (int_rho2 / 2.0 - int_s4 / 24.0) / d, err


def _quad_value(d: int, tol: float):
    """(W_d, I_d, error estimate) by fixed-panel quadrature.

    The outer order steps through _OUTER_ORDERS until two successive orders
    agree within tol/4 on both integrals; the error estimate is the ball's
    plus their last difference.
    """
    ball_w, ball_i, ball_err = _ball_series(d)
    (w, i), diff = _converge(_OUTER_ORDERS, lambda order: _outside_ball(d, order),
                             f"d={d} (quad)", tol)
    return w + ball_w, i + ball_i, ball_err + diff


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def compute_id(d: int, method: str = "bessel", tol: float = 1e-8) -> IdEstimate:
    """Infrared integral I_d = int (1-Dhat)^2/Dhat over the Brillouin zone.

    The one entry to both integrals: the estimate carries W_d in
    ``wd_value``.  The Bessel route sums I_d = int e^{-t} (I0(t/d)^d - 1) dt
    once and reports W_d = 1 + I_d, its error estimate widened by half an
    ulp of W_d so that it covers both; the quad route sums (1-Dhat)^2/Dhat
    and 1/Dhat from the same nodes, checked against the Bessel route.
    """
    _check_args(d, method, tol)
    if method == "bessel":
        v, err = _bessel_integral(d, lambda t: _id_integrand(t, d), f"I_{d}", tol)
        wd = 1.0 + v
        err += 0.5 * float(np.spacing(wd))
    else:
        wd, v, err = _quad_value(d, tol)
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"I_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=float(v), wd_value=float(wd), method=method,
                      abs_error_estimate=float(err))
