"""Independent references for the correctness gates.

Nothing here imports mfspin.  The values come from closed forms of the
source model definitions:

* Potts: J_MF = 2(q-1)/(q-2) log(q-1) and m_c = (q-2)/q, plus the simplex
  free energy sum_k(-J/2 x_k^2 + x_k log x_k);
* cubic: g(h) = log(r - 1 + cosh h) - log(2r), g'(h) = sinh h/(r - 1 + cosh h);
* nematic N=3: the tilted moments of x^2 on [0, 1] under exp(a x^2),
  a = 3h/2, in closed form through Dawson's function (no quadrature);
* W_3 = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
  (Watson; Glasser and Zucker).

Roots of the scalar mean-field equation m = g'(J m) and the degeneracy
coupling J_MF are found here by a plain scan plus brentq, independently of
the solver under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

W3 = (math.sqrt(6.0) / (32.0 * math.pi ** 3) * math.gamma(1 / 24) * math.gamma(5 / 24)
      * math.gamma(7 / 24) * math.gamma(11 / 24))


def potts_j_mf(q: int) -> float:
    return 2.0 * (q - 1) / (q - 2) * math.log(q - 1)


def potts_m_c(q: int) -> float:
    return (q - 2) / q


def potts_phi(q: int, J: float, m):
    """Raw simplex free energy on the on-axis family x_1 = 1/q + m."""
    x1 = 1.0 / q + np.asarray(m, dtype=float)
    xk = 1.0 / q - np.asarray(m, dtype=float) / (q - 1)
    xlx = lambda x: np.where(x > 0, x * np.log(np.maximum(x, 1e-300)), 0.0)
    return -J / 2.0 * (x1 ** 2 + (q - 1) * xk ** 2) + xlx(x1) + (q - 1) * xlx(xk)


class Potts:
    def __init__(self, q: int):
        self.q, self.hi = q, (q - 1.0) / q

    def g_prime(self, h):
        q = self.q
        e = math.exp(h * q / (q - 1.0))
        return (q - 1.0) / q * (e - 1.0) / (e + q - 1.0)


class Cubic:
    def __init__(self, r: int):
        self.r, self.hi = r, 1.0

    def g(self, h):
        return math.log(self.r - 1.0 + math.cosh(h)) - math.log(2.0 * self.r)

    def g_prime(self, h):
        return math.sinh(h) / (self.r - 1.0 + math.cosh(h))


class Nematic3:
    """N = 3: g'(h) = <x^2>_a - 1/3 with weight exp(a x^2) on [0, 1], a = 3h/2."""

    hi = 2.0 / 3.0

    @staticmethod
    def _series(a):
        n = np.arange(30)
        c = a ** n / special.factorial(n)
        return float(np.sum(c / (2 * n + 1))), float(np.sum(c / (2 * n + 3)))

    @classmethod
    def _log_z(cls, a):
        if abs(a) < 1.0:
            return math.log(cls._series(a)[0])
        if a > 0:
            s = math.sqrt(a)
            return a + math.log(special.dawsn(s) / s)
        s = math.sqrt(-a)
        return math.log(math.sqrt(math.pi) * math.erf(s) / (2.0 * s))

    @classmethod
    def _x2(cls, a):
        if abs(a) < 1.0:
            m0, m2 = cls._series(a)
            return m2 / m0
        # integration by parts: <x^2> = (e^a / Z(a) - 1) / (2a)
        return (math.exp(a - cls._log_z(a)) - 1.0) / (2.0 * a)

    def g(self, h):
        a = 1.5 * h
        return 2.0 / 3.0 * (self._log_z(a) - a / 3.0)

    def g_prime(self, h):
        return self._x2(1.5 * h) - 1.0 / 3.0


def stationary_residual(model, J: float, m: float) -> float:
    return m - model.g_prime(J * m)


def largest_stable_root(model, J: float, grid: int = 4000) -> float:
    """Largest m > 0 with m = g'(J m) where f(m) = g'(J m) - m crosses downward."""
    ms = np.linspace(1e-6, model.hi * (1.0 - 1e-9), grid)
    f = np.array([model.g_prime(J * m) - m for m in ms])
    down = np.nonzero((f[:-1] > 0.0) & (f[1:] <= 0.0))[0]
    if len(down) == 0:
        return 0.0
    i = down[-1]
    return optimize.brentq(lambda m: model.g_prime(J * m) - m, ms[i], ms[i + 1], xtol=1e-14)


def transition_coupling(model, J_lo: float, J_hi: float) -> float:
    """J_MF: zero of J/2 m+^2 - g(J m+) + g(0) on a bracket where m+ exists."""
    def gap(J):
        m = largest_stable_root(model, J)
        if m == 0.0:
            raise ValueError(f"no asymmetric stable root at J={J}")
        return J / 2.0 * m * m - model.g(J * m) + model.g(0.0)
    return optimize.brentq(gap, J_lo, J_hi, xtol=1e-12)
