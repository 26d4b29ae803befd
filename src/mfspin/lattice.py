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
* ``quad``  -- nested quadrature of the momentum integral itself, feasible for
  d <= 4.  The integrable 1/|k|^2 singularity at k = 0 is removed by excluding
  a ball of radius r0 and adding its analytic small-k expansion; the curved
  exclusion boundary is handled exactly by a trigonometric substitution so the
  inner Gauss-Legendre panels see a smooth integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.special import gamma as _gamma, roots_legendre

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
    def f(t):
        x = t / d
        i0 = special.ive(0, x)
        i1 = special.ive(1, x)
        i2 = special.ive(2, x)
        return (0.5 * (i0 + i2) * i0 ** (d - 1) / d
                + (d - 1) / d * i1 * i1 * i0 ** (d - 2))
    return _bessel_integral(d, f, tol)


# ---------------------------------------------------------------------------
# nested quadrature with ball exclusion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gauss_legendre():
    """Order-40 Gauss-Legendre nodes and weights on [-1, 1]; read only."""
    return roots_legendre(40)


def _panels(lo: float, hi: float, edges):
    """Panel boundaries [lo, *interior edges in (lo,hi)*, hi]."""
    pts = [lo] + [e for e in edges if lo < e < hi] + [hi]
    return list(zip(pts[:-1], pts[1:]))


def _gl_nodes(a, b):
    """Affine-mapped Gauss-Legendre nodes/weights; a may be an array."""
    x, w = _gauss_legendre()
    a = np.asarray(a, dtype=float)
    half = (b - a) / 2.0
    nodes = a + half * (x[:, None] + 1.0) if a.ndim else a + half * (x + 1.0)
    weights = half * (w[:, None] if a.ndim else w)
    return nodes, weights


def _inner2d(cos_rest: float, d: int, s2: float, r0: float, want_id: bool):
    """Integral over (k1,k2) in [0,pi]^2 minus the ball slice of radius s.

    cos_rest = sum of cos(k_j) over the outer dimensions.  The integrand is
    1/Dhat (or additionally -2+Dhat for the I_d variant).  The circular
    exclusion boundary k1^2 + k2^2 = s^2 is parametrized as k2 = s sin(theta)
    so every Gauss-Legendre panel sees a smooth function.
    """
    s = np.sqrt(s2) if s2 > 0.0 else 0.0

    def eval_block(k2_vec, k2_wts, k1_lo_vec):
        """Sum over GL nodes of the k1-integral for each k2 node.

        Panel edges at ~2*r0 and 1.5 resolve the sharp-but-smooth peak left
        near the origin after the ball exclusion.
        """
        acc = np.zeros_like(k2_vec)
        prev = np.asarray(k1_lo_vec, dtype=float)
        for e in (2.0 * r0, 1.5, np.pi):
            hi = np.minimum(np.maximum(prev, e), np.pi)
            nodes, wts = _gl_nodes(prev, hi)  # (order, n_k2)
            c = np.cos(nodes) + np.cos(k2_vec)[None, :] + cos_rest
            dhat = 1.0 - c / d
            f = 1.0 / dhat
            if want_id:
                f = f - 2.0 + dhat
            acc += np.sum(wts * f, axis=0)
            prev = hi
        return float(np.sum(acc * k2_wts))

    total = 0.0
    if s > 0.0:
        # k2 in [0, s]: k1 from sqrt(s^2-k2^2); substitute k2 = s sin(theta)
        th, thw = _gl_nodes(0.0, np.pi / 2.0)
        k2 = s * np.sin(th)
        wts = s * np.cos(th) * thw
        total += eval_block(k2, wts, s * np.cos(th))
        lo2 = s
    else:
        lo2 = 0.0
    # k2 in [lo2, pi]: full k1 range
    for a, b in _panels(lo2, np.pi, (2.0 * r0, 1.5)):
        k2, wts = _gl_nodes(a, b)
        total += eval_block(k2, wts, np.zeros_like(k2))
    return total


def _ball_series(d: int, r0: float, want_id: bool):
    """Analytic small-k contribution of the excluded ball, with error guess.

    1/Dhat = (2d/rho^2)(1 + S4/(12 rho^2) + [S4^2/144 - S6/360]/rho^2 + ...)
    averaged over angles; S_p = sum k_j^p.  For the I_d variant the exact
    -2 + Dhat ball integrals are added.
    """
    A_d = 2.0 * np.pi ** (d / 2.0) / _gamma(d / 2.0)
    norm = A_d / (2.0 * np.pi) ** d
    c2 = d * (d + 20.0) / (24.0 * (d + 2.0) * (d + 4.0) * (d + 6.0))
    val = norm * (2.0 * d * r0 ** (d - 2) / (d - 2.0)
                  + r0 ** d / (2.0 * (d + 2.0))
                  + c2 * r0 ** (d + 2) / (d + 2.0))
    err = 3.0 * r0 * r0 * norm * c2 * r0 ** (d + 2) / (d + 2.0)
    if want_id:
        vol = norm * r0 ** d / d
        # int_B Dhat = (1/d)[int rho^2/2 - int S4/24 + ...]
        int_rho2 = norm * r0 ** (d + 2) / (d + 2.0)
        int_s4 = norm * (3.0 / (d + 2.0)) * r0 ** (d + 4) / (d + 4.0)
        val += -2.0 * vol + (int_rho2 / 2.0 - int_s4 / 24.0) / d
    return val, err


def _quad_value(d: int, tol: float, want_id: bool, r0: float = 0.2):
    from scipy import integrate
    ball, ball_err = _ball_series(d, r0, want_id)

    if d == 3:
        def outer(k3):
            return _inner2d(np.cos(k3), 3, r0 * r0 - k3 * k3, r0, want_id)
        v, e = integrate.quad(outer, 0.0, np.pi, epsabs=tol / 4.0, epsrel=1e-12,
                              limit=300, points=[r0, 2 * r0])
        total = v / np.pi ** 3 + ball
        err = e / np.pi ** 3 + ball_err
    else:  # d == 4
        def mid(k3, k4, c4):
            return _inner2d(np.cos(k3) + c4, 4,
                            r0 * r0 - k3 * k3 - k4 * k4, r0, want_id)

        def outer(k4):
            c4 = np.cos(k4)
            s = r0 * r0 - k4 * k4
            pts = [np.sqrt(s)] if s > 0 else []
            v, _ = integrate.quad(lambda k3: mid(k3, k4, c4), 0.0, np.pi,
                                  epsabs=tol / (4.0 * np.pi), epsrel=1e-10,
                                  limit=200, points=pts + [2 * r0])
            return v
        v, e = integrate.quad(outer, 0.0, np.pi, epsabs=tol / 4.0, epsrel=1e-10,
                              limit=200, points=[r0, 2 * r0])
        total = v / np.pi ** 4 + ball
        err = e / np.pi ** 4 + ball_err + tol / 4.0
    return total, err


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
        w, err = _quad_value(d, tol, want_id=False)
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"W_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=w - 1.0, wd_value=w, method=method,
                      abs_error_estimate=float(err))


def compute_id(d: int, method: str = "bessel", tol: float = 1e-8) -> IdEstimate:
    """Infrared integral I_d = int (1-Dhat)^2/Dhat over the Brillouin zone.

    The integrand is evaluated directly (three-Bessel product formula, or
    nested quadrature of (1-Dhat)^2/Dhat); `compute_wd` gives I_d as
    W_d - 1 instead, so the two cross-check each other.
    """
    _check_args(d, method, tol)
    if method == "bessel":
        v, err = _id_bessel(d, tol)
        wd, werr = _wd_bessel(d, tol)
        err = max(err, werr)
    else:
        v, err = _quad_value(d, tol, want_id=True)
        wd, werr = _quad_value(d, tol, want_id=False)
        err = max(err, werr)
    if err > max(tol, 1e-14):
        raise QuadratureFailure(
            f"I_{d} ({method}): error estimate {err:.2e} exceeds tol {tol:.2e}")
    return IdEstimate(d=d, value=float(v), wd_value=float(wd), method=method,
                      abs_error_estimate=float(err))
