"""Single-spin model data and exact on-axis scalar thermodynamics.

Three model families are supported:

* ``potts(q)``   -- q states embedded as hypertetrahedron vertices, so that
  (S_x, S_y) = delta - 1/q.  The scalar magnetization m parametrizes the
  occupation vector x_1 = 1/q + m, x_k = 1/q - m/(q-1) for k >= 2.
* ``cubic(r)``   -- spins are +-e_k in R^r; the scalar m is the component
  along one axis.
* ``nematic(N)`` -- spins are traceless rank-one projectors built from unit
  vectors in R^N; the scalar lambda is the top eigenvalue of the order
  parameter along omega = diag(1, -1/(N-1), ..., -1/(N-1)).

Every model exposes the on-axis cumulant function g(h) = |omega|^-2 G(h omega),
its first two derivatives and the entropy s(m), each elementwise on a float or
an ndarray; `ModelSpec` finds them in the model's record in `_KINDS`.  The
scalar free energy used throughout the package is

    phi_J(m) = -J m^2 / 2 - s(m),      s(m) = inf_h { g(h) - m h },

whose stationary points are exactly the solutions of m = g'(J m), and along
any smooth stationary branch d(phi)/dJ = -m^2/2.  The full-scale free energy
(the one entering the infrared error budget) is |omega|^2 * phi_J(m).

Additive conventions: the cubic g carries the constant -log 2 of its source
formula (g(0) = -log 2), and the Potts simplex formula `potts_phi` is raw
(potts_phi(q, J, 0) = -J/(2q) - log q).  Constants are never normalized away;
they cancel in every difference the solvers and certificates take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import BoundaryMagnetization, OutOfSimplex

__all__ = [
    "ModelSpec", "potts", "cubic", "nematic",
    "potts_phi", "potts_g", "potts_g_prime", "potts_g_second",
    "cubic_g", "cubic_g_prime", "cubic_g_second",
    "nematic_g", "nematic_g_prime", "nematic_g_second",
    "ising_theta",
    "legendre_entropy", "scalar_phi", "phi_full_scale",
]

_XLOGX_FLOOR = 1e-300


def _xlogx(x):
    """x*log(x) with the 0*log(0) = 0 convention, ndarray-safe."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0.0, x * np.log(np.maximum(x, _XLOGX_FLOOR)), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# model descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Which model, plus the constants entering the infrared error budget.

    n is the dimension of the spin vector space E_Omega, kappa the maximal
    squared spin norm, omega_norm_sq the squared norm of the on-axis
    direction.  The J-independent error-budget factor is n*kappa/2.  Every
    model-dependent value comes from the model's `_Kind` record in `_KINDS`.
    """

    kind: str          # "potts" | "cubic" | "nematic"
    param: int         # q, r or N

    def __post_init__(self):
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.param < spec.least:
            raise ValueError(f"{self.kind} requires {spec.letter} >= {spec.least}")

    @property
    def _spec(self) -> "_Kind":
        return _KINDS[self.kind]

    # -- constants -----------------------------------------------------
    @property
    def n(self) -> int:
        return self._spec.n(self.param)

    @property
    def kappa(self) -> float:
        return self._spec.kappa(self.param)

    @property
    def omega_norm_sq(self) -> float:
        return self._spec.omega_norm_sq(self.param)

    @property
    def delta_factor(self) -> float:
        """n*kappa/2: multiply by I_d to get the J-independent slack factor."""
        return self.n * self.kappa / 2.0

    # -- scalar magnetization interval ----------------------------------
    def m_bounds(self) -> Tuple[float, float]:
        return self._spec.m_bounds(self.param)

    def check_magnetization(self, m):
        """m clipped into m_bounds(); OutOfSimplex if any element lies outside.

        Takes a float or an ndarray and returns the same kind.
        """
        lo, hi = self.m_bounds()
        arr = np.asarray(m, dtype=float)
        bad = ~((lo - 1e-12 <= arr) & (arr <= hi + 1e-12))
        if np.any(bad):
            raise OutOfSimplex(
                f"scalar magnetization {arr[bad].flat[0]} outside [{lo}, {hi}] for {self}")
        out = np.minimum(np.maximum(arr, lo), hi)
        return out if out.ndim else float(out)

    # -- on-axis cumulant function and its Legendre transform -----------
    # Each takes a float or an ndarray and returns the same kind.
    def g(self, h):
        return self._spec.g(self.param, h)

    def g_prime(self, h):
        return self._spec.g_prime(self.param, h)

    def g_second(self, h):
        return self._spec.g_second(self.param, h)

    def entropy(self, m):
        """s(m) and the minimizing dual field h (g'(h) = m).

        A float gives a pair of floats; an ndarray gives a pair of arrays,
        elementwise equal to the scalar results.
        """
        return self._spec.entropy(self.param, m)

    def __str__(self):
        return f"{self.kind}({self._spec.letter}={self.param})"


def potts(q: int) -> ModelSpec:
    return ModelSpec("potts", int(q))


def cubic(r: int) -> ModelSpec:
    return ModelSpec("cubic", int(r))


def nematic(N: int) -> ModelSpec:
    return ModelSpec("nematic", int(N))


# ---------------------------------------------------------------------------
# Potts: exact simplex free energy and on-axis g
# ---------------------------------------------------------------------------

def potts_occupations(q: int, m):
    """Occupation vector (x_1, x_k) of the on-axis parametrization."""
    m = np.asarray(m, dtype=float)
    return 1.0 / q + m, 1.0 / q - m / (q - 1.0)


def potts_phi(q: int, J: float, m):
    """Simplex mean-field free energy sum_k(-J/2 x_k^2 + x_k log x_k).

    Raw additive convention: potts_phi(q, J, 0) = -J/(2q) - log q.
    """
    x1, xk = potts_occupations(q, m)
    bad = (np.minimum(x1, xk) < -1e-12)
    if np.any(bad):
        raise OutOfSimplex(f"occupation left the simplex for m={m}")
    x1 = np.clip(x1, 0.0, 1.0)
    xk = np.clip(xk, 0.0, 1.0)
    # squares by multiplication: a scalar ** 2 goes through libm pow, whose
    # last bit can differ from the ndarray path's
    val = (-J / 2.0 * (x1 * x1 + (q - 1) * (xk * xk))
           + _xlogx(x1) + (q - 1) * _xlogx(xk))
    return val if np.ndim(m) else float(val)


def potts_g(q: int, h):
    """On-axis cumulant function (q-1)/q * log[(e^h + (q-1)e^{-h/(q-1)})/q]."""
    h = np.asarray(h, dtype=float)
    # log(e^h + (q-1) e^{-h/(q-1)}) computed via logaddexp for stability
    val = (q - 1.0) / q * (np.logaddexp(h, np.log(q - 1.0) - h / (q - 1.0))
                           - np.log(q))
    return val if val.ndim else float(val)


def potts_g_prime(q: int, h):
    """(q-1)/q * (e^t - 1)/(e^t + q - 1) with t = h q/(q-1).

    Composed as m -> potts_g_prime(q, J*m) this is the fixed-point right-hand
    side of the scalar mean-field equation.
    """
    t = np.asarray(h, dtype=float) * q / (q - 1.0)
    # (e^t - 1)/(e^t + q - 1) = (1 - e^{-t})/(1 + (q-1)e^{-t}),  stable for t>0
    with np.errstate(over="ignore"):
        em = np.exp(-np.abs(t))
    pos = (1.0 - em) / (1.0 + (q - 1.0) * em)
    neg = (em - 1.0) / (em + q - 1.0)
    val = (q - 1.0) / q * np.where(t >= 0, pos, neg)
    return val if val.ndim else float(val)


def potts_g_second(q: int, h):
    """q e^t/(e^t + q - 1)^2 with t = h q/(q-1)."""
    t = np.asarray(h, dtype=float) * q / (q - 1.0)
    with np.errstate(over="ignore"):
        em = np.exp(-np.abs(t))
    # q e^t/(e^t+q-1)^2 = q e^{-t}/(1+(q-1)e^{-t})^2 for t >= 0
    pos = q * em / (1.0 + (q - 1.0) * em) ** 2
    neg = q * em / (em + q - 1.0) ** 2
    val = np.where(t >= 0, pos, neg)
    return val if val.ndim else float(val)


def _potts_entropy(q: int, m):
    """Closed-form s(m) = (q-1)/q * (-sum x_k log x_k - log q), with h*.

    Elementwise on an ndarray m; a scalar m gives a pair of floats.
    """
    x1, xk = potts_occupations(q, m)
    bad = np.minimum(x1, xk) < -1e-12
    if np.any(bad):
        raise BoundaryMagnetization(
            f"m={np.asarray(m)[bad].flat[0]} outside the Potts interval")
    s = (q - 1.0) / q * (-_xlogx(x1) - (q - 1) * _xlogx(xk) - np.log(q))
    # dual field: g'(h) = m  <=>  e^{hq/(q-1)} = x1/xk (interior only)
    interior = (x1 > 0.0) & (xk > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(interior, (q - 1.0) / q * np.log(x1 / xk),
                     np.where(np.asarray(m) > 0, np.inf, -np.inf))
    if h.ndim:
        return s, h
    return float(s), float(h)


# ---------------------------------------------------------------------------
# cubic: closed forms
# ---------------------------------------------------------------------------

def cubic_g(r: int, h):
    """-log(2r) + log(r - 1 + cosh h); additive convention g(0) = -log 2."""
    h = np.abs(np.asarray(h, dtype=float))
    # log(r-1+cosh h) = h - log 2 + log1p((2(r-1) + e^{-h}) e^{-h})  (h >= 0)
    small = h < 30.0
    with np.errstate(over="ignore"):
        direct = np.log(r - 1.0 + np.cosh(np.where(small, h, 0.0)))
    em = np.exp(-h)
    big = h - np.log(2.0) + np.log1p((2.0 * (r - 1.0) + em) * em)
    val = np.where(small, direct, big) - np.log(2.0 * r)
    return val if val.ndim else float(val)


def cubic_g_prime(r: int, h):
    """sinh h / (r - 1 + cosh h)."""
    h = np.asarray(h, dtype=float)
    a = np.abs(h)
    small = a < 30.0
    with np.errstate(over="ignore"):
        direct = np.sinh(np.where(small, a, 0.0)) / (r - 1.0 + np.cosh(np.where(small, a, 0.0)))
    em = np.exp(-a)
    big = (1.0 - em ** 2) / (1.0 + 2.0 * (r - 1.0) * em + em ** 2)
    val = np.sign(h) * np.where(small, direct, big)
    return val if val.ndim else float(val)


def cubic_g_second(r: int, h):
    """((r-1) cosh h + 1)/(r - 1 + cosh h)^2; strictly positive."""
    a = np.abs(np.asarray(h, dtype=float))
    small = a < 30.0
    with np.errstate(over="ignore"):
        ch = np.cosh(np.where(small, a, 0.0))
        direct = ((r - 1.0) * ch + 1.0) / (r - 1.0 + ch) ** 2
    em = np.exp(-a)
    # exact rewrite in e^{-a}: 2e^{-a}((r-1)(1+e^{-2a}) + 2e^{-a}) / (...)^2
    c = r - 1.0
    big = (2.0 * em * (c * (1.0 + em ** 2) + 2.0 * em)
           / (1.0 + 2.0 * c * em + em ** 2) ** 2)
    val = np.where(small, direct, big)
    return val if val.ndim else float(val)


def _cubic_entropy(r: int, m):
    """Closed-form Legendre data for the cubic chain.

    Inverts g'(h) = m: u = e^h solves (1-m)u^2 - 2m(r-1)u - (1+m) = 0.
    Elementwise on an ndarray m; a scalar m gives a pair of floats.
    """
    m = np.asarray(m, dtype=float)
    bad = np.abs(m) >= 1.0
    if np.any(bad):
        raise BoundaryMagnetization(
            f"|m|={np.abs(m[bad].flat[0])} at/beyond the cubic range")
    c = r - 1.0
    u = (m * c + np.sqrt(m * m * c * c + 1.0 - m * m)) / (1.0 - m)
    h = np.log(u)
    s = cubic_g(r, h) - m * h
    if m.ndim:
        return s, h
    return float(s), float(h)


# ---------------------------------------------------------------------------
# Ising building block
# ---------------------------------------------------------------------------

def ising_theta(J: float, mu):
    """Ising mean-field free energy with bias mu at coupling J.

    Theta_J(mu) = -J mu^2/4 + ((1+mu)/2) log((1+mu)/2) + ((1-mu)/2) log((1-mu)/2).
    Stationarity gives mu = tanh(J mu / 2), so the critical coupling is J = 2.
    Theta_J(0) = -log 2 at every J; endpoints use 0*log 0 = 0.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0 + 1e-12):
        raise ValueError("|mu| must not exceed 1")
    mu = np.clip(mu, -1.0, 1.0)
    val = (-J / 4.0 * mu ** 2
           + _xlogx((1.0 + mu) / 2.0) + _xlogx((1.0 - mu) / 2.0))
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# nematic: Kummer-function moments of the Watson distribution
# ---------------------------------------------------------------------------

def _nematic_moments(N: int, end, h, order: int):
    """`watson.moments`: g - e h (order 0), g' - e (1) or g'' (2), e an end
    of m's range (end = 0, 1) or, for g', 0 (end = None)."""
    from .watson import moments         # on first use: no Potts or cubic command needs it
    return moments(N, end, h, order)


def nematic_g(N: int, h):
    """(N-1)/N * log of the tilted/untilted partition ratio, g(0) = 0."""
    val = np.asarray(_nematic_moments(N, 0, h, 0) - h / N)
    return val if val.ndim else float(val)


def nematic_g_prime(N: int, h):
    """<x^2>_h - 1/N: the right-hand side of the scalar mean-field equation."""
    val = _nematic_moments(N, None, h, 1)
    return val if val.ndim else float(val)


def nematic_g_second(N: int, h):
    """N/(N-1) * Var_h(x^2)."""
    val = _nematic_moments(N, 0, h, 2)
    return val if val.ndim else float(val)


def _nematic_entropy(N: int, m):
    """Legendre data by one dual solve per end e of m's range, top for m >= 0.

    Each solve takes g tilted by its end and the exact m - e, so that
    s = (g - e h) - (m - e) h keeps its digits at |h| ~ 1e9.  The ends
    themselves raise BoundaryMagnetization.  A scalar m gives two floats.
    """
    m = np.asarray(m, dtype=float)
    top = m >= 0.0
    m_hi = m * 134217729.0 - (m * 134217729.0 - m)   # Veltkamp: N m splits exactly
    d = ((np.where(top, N - 1.0, -1.0) - N * m_hi) - N * (m - m_hi)) / N
    bad = ~(np.where(top, d, -d) > 0.0)
    if np.any(bad):
        raise BoundaryMagnetization(f"m={m[bad].flat[0]} not inside (-1/{N}, {N - 1}/{N})")
    s, h = np.empty_like(m), np.empty_like(m)
    for end in (1, 0):
        sel = top == end
        s[sel], h[sel] = legendre_entropy(lambda x: _nematic_moments(N, end, x, 0),
                                          lambda x: _nematic_moments(N, end, x, 1), -d[sel])
    return (s, h) if m.ndim else (float(s), float(h))


# ---------------------------------------------------------------------------
# Legendre machinery and the scalar free energy
# ---------------------------------------------------------------------------

def legendre_entropy(g: Callable, g_prime: Callable, m):
    """s(m) = inf_h {g(h) - m h} by solving the convex dual equation g'(h) = m.

    Returns (s, argmin_h): floats for a float m, arrays for an ndarray m.
    g and g_prime act elementwise; each point keeps its own bracket (from
    [-1, 1], doubled outward) and stops on its own, so an ndarray gives the
    bits of the scalar calls.  BoundaryMagnetization (s = -infinity) when g'
    stops changing in floating point, or turns non-finite, before reaching m.
    """
    m_arr = np.asarray(m, dtype=float)
    target = np.atleast_1d(m_arr)
    lo, hi = np.full(target.shape, -1.0), np.full(target.shape, 1.0)
    glo, ghi = g_prime(lo), g_prime(hi)
    for x, gx, sign in ((lo, glo, -1.0), (hi, ghi, 1.0)):
        todo = sign * (gx - target) < 0.0
        while np.any(todo):
            new = 2.0 * x[todo]
            gnew = g_prime(new)
            stuck = ~np.isfinite(gnew) | (gnew == gx[todo])
            if np.any(stuck):
                raise BoundaryMagnetization(f"m={target[todo][stuck][0]} "
                                            f"{'above' if sign > 0 else 'below'} the range of g'")
            x[todo], gx[todo] = new, gnew
            todo[todo] = sign * (gnew - target[todo]) < 0.0
    h = np.where(glo == target, lo, hi)
    act = (glo < target) & (ghi > target)
    while np.any(act):                      # bisection
        x = lo[act] + 0.5 * (hi[act] - lo[act])
        fx = g_prime(x) - target[act]
        h[act] = x
        lo[act], hi[act] = np.where(fx < 0.0, x, lo[act]), np.where(fx > 0.0, x, hi[act])
        act[act] = (np.abs(fx) > 0.0) & (hi[act] - lo[act] > 1e-13 + 8.9e-16 * np.abs(x))
    s = g(h) - target * h
    return (s, h) if m_arr.ndim else (float(s[0]), float(h[0]))


def scalar_phi(model: ModelSpec, J: float, m):
    """Scalar free energy phi_J(m) = -J m^2/2 - s(m).

    Normalized so that stationary points solve m = g'(Jm) and
    d(phi)/dJ = -m^2/2 along stationary branches.  For Potts this delegates
    to the exact simplex closed form (no numerical Legendre transform).
    Takes a float or an ndarray m and returns the same kind; an ndarray
    gives elementwise the same bits as the scalar calls.
    """
    model.check_magnetization(m)
    s, _ = model.entropy(m)
    return -J * m * m / 2.0 - s


def phi_full_scale(model: ModelSpec, J: float, m):
    """Free energy on the full-Phi scale, |omega|^2 * phi_J(m).

    This is the scale on which the infrared error budget J * n * kappa/2 * I_d
    lives; for Potts it differs from `potts_phi` only by an m-independent
    constant, so differences at fixed J agree exactly.  Takes a float or an
    ndarray m, like `scalar_phi`.
    """
    return model.omega_norm_sq * scalar_phi(model, J, m)


# ---------------------------------------------------------------------------
# model table
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """Everything that depends on the model kind, as functions of its parameter.

    g, g_prime, g_second and entropy take (param, value) with value a float
    or an ndarray.
    """

    letter: str                                   # parameter name in str()
    least: int                                    # least allowed parameter
    n: Callable[[int], int]
    kappa: Callable[[int], float]
    omega_norm_sq: Callable[[int], float]
    m_bounds: Callable[[int], Tuple[float, float]]
    g: Callable
    g_prime: Callable
    g_second: Callable
    entropy: Callable


# Potts and nematic share kappa, |omega|^2 and the m interval.  For nematic
# the eigenvalues of a convex combination of the projector spins constrain
# the on-axis coefficient to [-1/N, (N-1)/N], which is also the closure of
# the range of g'.
_SIMPLEX_CONSTANTS = dict(kappa=lambda p: (p - 1) / p,
                          omega_norm_sq=lambda p: p / (p - 1),
                          m_bounds=lambda p: (-1.0 / p, (p - 1.0) / p))

_KINDS = {
    "potts": _Kind(letter="q", least=2, n=lambda q: q - 1, **_SIMPLEX_CONSTANTS,
                   g=potts_g, g_prime=potts_g_prime, g_second=potts_g_second,
                   entropy=_potts_entropy),
    "cubic": _Kind(letter="r", least=1, n=lambda r: r, kappa=lambda r: 1.0,
                   omega_norm_sq=lambda r: 1.0, m_bounds=lambda r: (-1.0, 1.0),
                   g=cubic_g, g_prime=cubic_g_prime, g_second=cubic_g_second,
                   entropy=_cubic_entropy),
    "nematic": _Kind(letter="N", least=3, n=lambda N: N * (N - 1) // 2,
                     **_SIMPLEX_CONSTANTS,
                     g=nematic_g, g_prime=nematic_g_prime, g_second=nematic_g_second,
                     entropy=_nematic_entropy),
}
