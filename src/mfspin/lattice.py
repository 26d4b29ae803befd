"""Hypercubic lattice integrals W_d = int 1/Dhat and I_d = int (1-Dhat)^2/Dhat.

Dhat(k) = 1 - (1/d) sum_j cos(k_j) over the Brillouin zone [-pi, pi]^d, d >= 3.
I_d controls the infrared error budget of the mean-field bound and satisfies
the exact identity I_d = W_d - 1 (expand (1-Dhat)^2/Dhat = 1/Dhat - 2 + Dhat
and note that Dhat integrates to 1).  I_d ~ 1/(2d) for large d.

Two independent methods:

* ``bessel`` -- the product representation W_d = int_0^inf e^{-t} I0(t/d)^d dt
  (and an analogous three-Bessel formula for I_d directly), valid for every
  d >= 3.  The integrand decays like t^{-d/2}; the slow tail is integrated
  exactly after the substitution t -> T/s.
* ``quad``  -- fixed-panel Gauss-Legendre quadrature of the momentum integral
  itself, feasible for d <= 4.  The integrable 1/|k|^2 singularity at k = 0 is
  removed by excluding a ball of radius r0 and adding its analytic small-k
  expansion; on every axis the ball's slice [0, c] is mapped by k = c sin(psi),
  so each panel sees a smooth integrand.  W_d and I_d are summed from the same
  nodes in one pass.  The outer axes (k3, and k4 for d = 4) step through
  orders 4, 6, 8, ... until two successive orders agree within tol/4; the
  error estimate is the ball expansion's plus that last difference.

Within ``quad`` the identity I_d = W_d - 1 is not an independent check, since
both integrals share their nodes; the check is ``quad`` against ``bessel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionTooSmall, MethodInfeasible, QuadratureFailure

__all__ = ["IdEstimate", "compute_wd", "compute_id", "METHODS"]

METHODS = ("bessel", "quad")


@dataclass(frozen=True)
class IdEstimate:
    """One evaluation of the infrared integrals at dimension d."""

    d: int
    value: float              # I_d
    wd_value: float           # W_d
    method: str               # "bessel" (product) or "quad" (nested)
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


# ---------------------------------------------------------------------------
# Bessel-product representation
# ---------------------------------------------------------------------------

def _bessel_integral(d: int, integrand, tol: float):
    """integrate integrand(t) over [0, inf); integrand ~ C t^{-d/2} at infinity."""
    from scipy import integrate     # on first use: commands without I_d skip it
    T = max(400.0, 60.0 * d)
    kw = dict(epsabs=tol / 8.0, epsrel=1e-13, limit=500)
    v1, e1 = integrate.quad(integrand, 0.0, 40.0, **kw)
    v2, e2 = integrate.quad(integrand, 40.0, T, **kw)
    # tail: t = T/s maps [T, inf) to (0, 1]; endpoint behaviour s^{d/2-2}
    tail_f = lambda s: integrand(T / s) * T / (s * s)
    v3, e3 = integrate.quad(tail_f, 0.0, 1.0, **kw)
    return v1 + v2 + v3, e1 + e2 + e3


def _wd_bessel(d: int, tol: float):
    from scipy import special       # on first use, as scipy.integrate
    f = lambda t: special.ive(0, t / d) ** d
    return _bessel_integral(d, f, tol)


def _id_bessel(d: int, tol: float):
    """Direct product formula for I_d.

    Writing 1 - Dhat = (1/d) sum_j cos k_j and expanding the square under
    1/Dhat = int_0^infty e^{-t Dhat} dt gives, with x = t/d and exponentially
    scaled Bessel functions,

        I_d = int_0^inf [ (ive0+ive2)(x)/2 * ive0(x)^{d-1} / d
                          + (d-1)/d * ive1(x)^2 * ive0(x)^{d-2} ] dt.
    """
    from scipy import special

    def f(t):
        x = t / d
        i0 = special.ive(0, x)
        i1 = special.ive(1, x)
        i2 = special.ive(2, x)
        return (0.5 * (i0 + i2) * i0 ** (d - 1) / d
                + (d - 1) / d * i1 * i1 * i0 ** (d - 2))
    return _bessel_integral(d, f, tol)


# ---------------------------------------------------------------------------
# fixed-panel quadrature with ball exclusion
# ---------------------------------------------------------------------------

_R0 = 0.2                          # radius of the excluded ball around k = 0
_INNER_ORDER = 40                  # Gauss-Legendre order per (k1, k2) panel
_OUTER_ORDERS = range(4, 17, 2)    # outer orders tried in turn, up to the cap
_CHUNK = 16                        # outer nodes per vectorized (k1, k2) block


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights of one order, mapped to [0, 1]; read only."""
    from scipy import special
    x, w = special.roots_legendre(order)
    return (x + 1.0) / 2.0, w / 2.0


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
    from scipy import special
    r0 = _R0
    A_d = 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)
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
    agree within tol/4 on both integrals; the higher order's values are
    returned and the error estimate is the ball's plus their last difference.
    """
    ball_w, ball_i, ball_err = _ball_series(d)
    prev = diff = None
    for order in _OUTER_ORDERS:
        w, i = _outside_ball(d, order)
        if prev is not None:
            diff = max(abs(w - prev[0]), abs(i - prev[1]))
            if diff <= tol / 4.0:
                return w + ball_w, i + ball_i, ball_err + diff
        prev = w, i
    raise QuadratureFailure(
        f"d={d} (quad): orders {order - 2} and {order} differ by {diff:.2e}, "
        f"more than tol/4 = {tol / 4.0:.2e}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def compute_wd(d: int, method: str = "bessel", tol: float = 1e-8) -> IdEstimate:
    """Watson-type integral W_d = int 1/Dhat over the Brillouin zone.

    The returned estimate also carries I_d = W_d - 1 in ``value`` so the two
    integrals always travel together.
    """
    _check_args(d, method, tol)
    if method == "bessel":
        w, err = _wd_bessel(d, tol)
    else:
        w, _, err = _quad_value(d, tol)
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"W_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=w - 1.0, wd_value=w, method=method,
                      abs_error_estimate=float(err))


def compute_id(d: int, method: str = "bessel", tol: float = 1e-8) -> IdEstimate:
    """Infrared integral I_d = int (1-Dhat)^2/Dhat over the Brillouin zone.

    The integrand is evaluated directly: the three-Bessel product formula,
    checked against `compute_wd`'s W_d - 1, or fixed-panel quadrature of
    (1-Dhat)^2/Dhat from the nodes that also give W_d, checked against the
    Bessel route.
    """
    _check_args(d, method, tol)
    if method == "bessel":
        v, err = _id_bessel(d, tol)
        wd, werr = _wd_bessel(d, tol)
        err = max(err, werr)
    else:
        wd, v, err = _quad_value(d, tol)
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"I_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=float(v), wd_value=float(wd), method=method,
                      abs_error_estimate=float(err))
