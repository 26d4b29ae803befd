"""Nelder-Mead simplex minimizer, a line-for-line port of scipy's.

This is ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead")`` as scipy
1.17's ``_minimize_neldermead`` runs it with no bounds, the standard (not
adaptive) coefficients rho = 1, chi = 2, psi = sigma = 1/2, the default
initial simplex (each coordinate of x0 scaled by 1.05, or set to 0.00025
where it is 0), and the options ``xatol``, ``fatol`` and ``maxiter``.  Step
for step it keeps scipy's order: the first sort of the simplex, the
convergence test before each iteration, reflection, expansion, outside and
inside contraction and shrink, the re-sort by ``argsort``/``take`` after each
iteration, a copy of the trial point passed to ``fun``, and the result
x = the best vertex, fun = min(fsim).  IEEE double arithmetic gives the same
iterates, so the oracles' polish needs no ``scipy.optimize`` (about 0.5 s to
import) and gives scipy's bits.  tests/test_neldermead.py compares both.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = ["NelderMeadResult", "minimize"]


class NelderMeadResult(NamedTuple):
    x: np.ndarray          # best vertex
    fun: float             # smallest function value on the final simplex
    nit: int               # iterations, counted as scipy counts them
    nfev: int              # function evaluations
    success: bool          # converged before maxiter


def minimize(fun: Callable[[np.ndarray], float], x0, maxiter: int,
             xatol: float = 1e-4, fatol: float = 1e-4) -> NelderMeadResult:
    """Minimize fun from x0; success when, before maxiter iterations, every
    vertex is within xatol of the best in each coordinate and every value
    within fatol of the best.  As in scipy with maxiter given and maxfev not,
    the number of evaluations is not capped."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    x0 = np.atleast_1d(np.asarray(x0)).flatten()
    x0 = np.asarray(x0, dtype=x0.dtype if np.issubdtype(x0.dtype, np.inexact) else np.float64)
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    fcalls = 0

    def func(x):
        nonlocal fcalls
        fcalls += 1
        fx = fun(np.copy(x))
        return fx if np.isscalar(fx) else np.asarray(fx).item()

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        doshrink = 0
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:          # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:                       # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return NelderMeadResult(x=sim[0], fun=np.min(fsim), nit=iterations, nfev=fcalls,
                            success=iterations < maxiter)
