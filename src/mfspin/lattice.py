"""Hypercubic lattice integrals W_d = int 1/Dhat and I_d = int (1-Dhat)^2/Dhat.

Dhat(k) = 1 - (1/d) sum_j cos(k_j) over the Brillouin zone [-pi, pi]^d, d >= 3.
I_d controls the infrared error budget of the mean-field bound and satisfies
the exact identity I_d = W_d - 1 (expand (1-Dhat)^2/Dhat = 1/Dhat - 2 + Dhat
and note that Dhat integrates to 1).  I_d ~ 1/(2d) for large d.

Two independent methods:

* ``bessel`` -- the product representation W_d = int_0^inf e^{-t} I0(t/d)^d dt
  and an analogous three-Bessel formula for I_d directly, valid for every
  d >= 3.  Both are summed by one fixed rule: Gauss-Legendre panels on
  [0, T] with doubling edges, T = max(400, 60d), and the tail t = T/u^2 on
  u in (0, 1], where the t^{-d/2} decay is smooth in u.  The per-panel order
  steps through 16, 24, 32, ... until two successive orders agree within
  tol/4; the error estimate is that difference plus a few ulps.  e^-x I0
  and e^-x I1 come from Chebyshev series kept in this module (Cephes' for
  I0, fitted ones for I1), and the powers I0(t/d)^k are formed in log space
  from a power series of log I0, so that their rounding error does not grow
  with d.  The direct I_d formula is an integrand independent of W_d's, so
  I_d = W_d - 1 checks the route.
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

# Chebyshev series of the exponentially scaled Bessel functions, highest
# degree first, in the Cephes convention of _chebyshev.  _I0E_LO and _I0E_HI
# are Cephes' i0.c tables (the ones numpy's np.i0 uses): e^-x I0(x) in
# x/2 - 2 on [0, 8] and sqrt(x) e^-x I0(x) in 32/x - 2 on (8, inf).  _I1E_LO
# and _I1E_HI were fitted in 50-digit arithmetic (docs/decisions.md): e^-x
# I1(x)/x in x/2 - 2 on [0, 8] and sqrt(x) e^-x I1(x) in 32/x - 2 on (8, inf).
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
_I1E_LO = (
    -3.541581772542136e-19, 2.7779141127610464e-18, -2.111421214358166e-17,
    1.5536319577362005e-16, -1.1055969477353862e-15, 7.600684294735408e-15,
    -5.042185504727912e-14, 3.223793365945575e-13, -1.9839743977649436e-12,
    1.1736186298890901e-11, -6.663489723502027e-11, 3.625590281552117e-10,
    -1.8872497517228294e-09, 9.381537386495773e-09, -4.445059128796328e-08,
    2.0032947535521353e-07, -8.568720264695455e-07, 3.4702513081376785e-06,
    -1.3273163656039436e-05, 4.781565107550054e-05, -0.00016176081582589674,
    0.0005122859561685758, -0.0015135724506312532, 0.004156422944312888,
    -0.010564084894626197, 0.024726449030626516, -0.05294598120809499,
    0.1026436586898471, -0.17641651835783406, 0.25258718644363365,
)
_I1E_HI = (
    -1.242193275194891e-18, -9.314178867326884e-19, 7.517296310842105e-18,
    4.414348323071708e-18, -4.6503053684893586e-17, -3.209525921993424e-17,
    2.96262899764595e-16, 3.3082023109209285e-16, -1.8803547755107825e-15,
    -3.8144030724370075e-15, 1.0420276984128802e-14, 4.272440016711951e-14,
    -2.1015418427726643e-14, -4.0835511110921974e-13, -7.198551776245908e-13,
    2.0356285441470896e-12, 1.4125807436613782e-11, 3.2526035830154884e-11,
    -1.8974958123505413e-11, -5.589743462196584e-10, -3.835380385964237e-09,
    -2.6314688468895196e-08, -2.512236237870209e-07, -3.882564808877691e-06,
    -0.00011058893876262371, -0.009761097491361469, 0.7785762350182801,
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


def _scaled_bessel(x, lo, hi):
    """Series lo at the entries x <= 8 and series hi over sqrt(x) at the
    entries x > 8 of an array x > 0."""
    out = np.empty_like(x)
    small = x <= 8.0
    out[small] = _chebyshev(x[small] / 2.0 - 2.0, lo)
    xl = x[~small]
    out[~small] = _chebyshev(32.0 / xl - 2.0, hi) / np.sqrt(xl)
    return out


def _i0e(x):
    """e^-x I0(x) on an array x >= 0."""
    return _scaled_bessel(x, _I0E_LO, _I0E_HI)


def _i1e(x):
    """e^-x I1(x) on an array x > 0."""
    return _scaled_bessel(x, _I1E_LO, _I1E_HI) * np.where(x <= 8.0, x, 1.0)


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


def _wd_bessel(d: int, tol: float):
    """W_d = int_0^inf e^{-t} I0(t/d)^d dt, the power formed in log space."""
    return _bessel_integral(d, lambda t: np.exp(d * _log_i0e(t / d)), f"W_{d}", tol)


def _id_bessel(d: int, tol: float):
    """Direct product formula for I_d.

    Writing 1 - Dhat = (1/d) sum_j cos k_j and expanding the square under
    1/Dhat = int_0^infty e^{-t Dhat} dt gives, with x = t/d and exponentially
    scaled Bessel functions,

        I_d = int_0^inf [ (i0e+i2e)(x)/2 * i0e(x)^{d-1} / d
                          + (d-1)/d * i1e(x)^2 * i0e(x)^{d-2} ] dt,

    where (i0e + i2e)/2 = i0e - i1e/x and the powers of i0e are formed in
    log space, as for W_d.
    """
    def f(t):
        x = t / d
        i0, i1, log_i0e = _i0e(x), _i1e(x), _log_i0e(x)
        return ((i0 - i1 / x) * np.exp((d - 1) * log_i0e) / d
                + (d - 1) / d * i1 * i1 * np.exp((d - 2) * log_i0e))
    return _bessel_integral(d, f, f"I_{d}", tol)


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
    ``wd_value``.  I_d is evaluated directly, by the three-Bessel product
    formula next to W_d's own (so I_d = W_d - 1 checks the route), or by
    fixed-panel quadrature of (1-Dhat)^2/Dhat from the nodes that also give
    W_d, checked against the Bessel route.
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
