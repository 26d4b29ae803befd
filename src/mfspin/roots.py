"""Brent's bracketing root finder over an array of brackets, each lane scipy's
``brentq`` step for step.

Brent (Algorithms for Minimization without Derivatives, 1973, ch. 4) keeps a
bracket [xcur, xblk] with f(xcur) the smaller end in |f|, and steps from xcur
by inverse quadratic extrapolation, secant interpolation or bisection.  Each
lane runs the steps of scipy's C ``brentq`` (scipy/optimize/Zeros/brentq.c):
the same updates, step test, tolerance (xtol + rtol |xcur|) / 2, default rtol
of 4 eps and 100 steps.  The lanes move in lockstep, so each step's new points
go into one call of f.  Numpy's elementwise IEEE arithmetic is C's, and a
division by zero gives inf or nan in both, which fails the step test and
bisects: every lane's root is bit-identical to scipy's on its bracket, and no
command imports ``scipy.optimize`` (about 0.45 s) to find one.
tests/test_roots.py compares the evaluation sequences of both.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["brentq"]

_RTOL = 4 * 2.0 ** -52         # 4 * machine epsilon, scipy's floor for rtol
_ITER = 100


def _values(f: Callable, x: np.ndarray, args: tuple) -> np.ndarray:
    fx = np.asarray(f(x, *args), dtype=float)
    if np.isnan(fx).any():
        raise ValueError(f"The function value at x={x[np.isnan(fx)][0]} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f: Callable, a, b, xtol: float, rtol: float = _RTOL, args=()) -> np.ndarray:
    """Roots of f in the brackets [a[i], b[i]], where f(a[i]) and f(b[i]) differ
    in sign, as a 1-d array.

    f(x, *args) is called on the points of the running lanes only, with each
    array in args cut to the same lanes.  A lane converges when half its
    bracket is below (xtol + rtol |x|) / 2.  Raises ValueError on a same-sign
    bracket or a NaN value of f, and RuntimeError when a lane has not
    converged after 100 steps.
    """
    xpre, xcur = np.array(a, dtype=float).ravel(), np.array(b, dtype=float).ravel()
    if not xpre.size:
        return xpre
    fpre, fcur = _values(f, xpre, args), _values(f, xcur, args)
    root = np.where(fpre == 0.0, xpre, xcur)
    run = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    if not run.size:                        # every lane has a root at an end
        return root
    if np.any((fpre[run] < 0.0) == (fcur[run] < 0.0)):
        raise ValueError("f(a) and f(b) must have different signs")
    xpre, xcur, fpre, fcur = xpre[run], xcur[run], fpre[run], fcur[run]
    args = tuple(v[run] for v in args)
    xblk = fblk = spre = scur = np.zeros(run.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ITER):
            flip = (fpre < 0.0) != (fcur < 0.0)     # C adds fcur != 0: fcur = 0 stops below
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                root[run[done]] = xcur[done]
                go = ~done
                if not go.any():
                    return root
                run, args = run[go], tuple(v[go] for v in args)
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[go] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                    delta, sbis))

            # interpolate where xpre == xblk, else extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            # a good short step; inf or nan from a zero division fails the test
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = _values(f, xcur, args)
    raise RuntimeError(f"Failed to converge after {_ITER} iterations.")
