"""Brent's bracketing root finder, a line-for-line port of scipy's ``brentq``.

Brent (Algorithms for Minimization without Derivatives, 1973, ch. 4) keeps a
bracket [xcur, xblk] with f(xcur) the smaller end in |f|, and steps from xcur
by inverse quadratic extrapolation, secant interpolation or bisection.  This
is scipy's C ``brentq`` (scipy/optimize/Zeros/brentq.c) step for step: the
same ``xpre/xcur/xblk`` updates, the same acceptance test for the
interpolated step, the same tolerance delta = (xtol + rtol |xcur|) / 2,
scipy's default rtol of 4 eps and its 100 steps.  IEEE double arithmetic
gives the same iterates, so every root the package reports is bit-identical
to the scipy call it replaces, and no command has to import
``scipy.optimize`` (about 0.45 s) to find one.  tests/test_roots.py compares
the evaluation sequences of both.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["brentq"]

_RTOL = 4 * 2.0 ** -52         # 4 * machine epsilon, scipy's floor for rtol
_ITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = _RTOL) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ValueError on a same-sign bracket or a NaN value of f, and RuntimeError
    after 100 steps without convergence.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = float("inf")     # C gives inf or nan here: both bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_ITER} iterations.")
