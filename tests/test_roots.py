"""mfspin.roots.brentq against scipy.optimize.brentq: the same roots, bit for
bit, from the same sequence of evaluation points."""

import math

import numpy as np
import pytest
from scipy import optimize

from mfspin.roots import brentq

# (xtol, rtol): scipy's default rtol at a tight xtol, as find_transition calls
# it, then solve_branches' setting
SETTINGS = [dict(xtol=1e-14), dict(xtol=1e-12, rtol=8.9e-16)]

# Each family draws its parameters and returns a smooth g; a bracket solves
# g(x) = g(r).  Near-triple roots, and brackets holding several roots or a
# bump, make Brent reject its interpolated step and bisect, so every branch
# of the method is exercised.
def _cubic(rng):
    c = 10.0 ** rng.uniform(-12.0, 1.0)
    return lambda x: x ** 3 + c * x


def _power11(rng):
    c = 10.0 ** rng.uniform(-9.0, 1.0)
    return lambda x: x ** 11 + c * x


def _step(rng):
    c, e = 10.0 ** rng.uniform(-1.0, 4.0), rng.uniform(0.0, 3.0)
    return lambda x: math.tanh(c * x) + e * x


def _exp(rng):
    c, e = rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0)
    return lambda x: math.exp(c * x) - e * x


def _atan(rng):
    c, e = 10.0 ** rng.uniform(-1.0, 3.0), rng.uniform(0.0, 1.0)
    return lambda x: math.atan(c * x) - e * math.sin(x)


def _sine(rng):
    c = 10.0 ** rng.uniform(0.0, 1.5)
    return lambda x: math.sin(c * x)


def _bump(rng):
    c, s, w = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 0.0)
    return lambda x: x + c * math.exp(-((x - s) / w) ** 2)


def _ising(rng):
    c = rng.uniform(2.0, 20.0)
    return lambda x: np.tanh(c * x / 2.0) - x     # numpy scalars, as the solver's g'


FAMILIES = [_cubic, _power11, _step, _exp, _atan, _sine, _bump, _ising]


def _brackets(n, seed=20260):
    """n seeded (f, a, b) with f(a) and f(b) of opposite signs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        g = FAMILIES[rng.integers(len(FAMILIES))](rng)
        r = rng.uniform(-2.0, 2.0)
        shift = float(g(r))
        f = lambda x, g=g, shift=shift: g(x) - shift
        a = r - 10.0 ** rng.uniform(-9.0, 0.5)
        b = r + 10.0 ** rng.uniform(-9.0, 0.5)
        if rng.random() < 0.5:
            a, b = b, a
        fa, fb = f(a), f(b)
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            out.append((f, float(a), float(b)))
    return out


def _run(solver, f, a, b, **kw):
    xs = []

    def rec(x):
        xs.append(x)
        return f(x)
    return solver(rec, a, b, **kw), xs


def test_brentq_matches_scipy_bit_for_bit():
    brackets = _brackets(2100)
    mismatches = []
    for i, (f, a, b) in enumerate(brackets):
        for kw in SETTINGS:
            ours, our_xs = _run(brentq, f, a, b, **kw)
            ref, ref_xs = _run(optimize.brentq, f, a, b, **kw)
            if repr(ours) != repr(float(ref)) or our_xs != ref_xs:
                mismatches.append((i, kw, ours, ref, len(our_xs), len(ref_xs)))
    assert mismatches == []


def test_brentq_zero_at_an_end_returns_it():
    assert brentq(lambda x: x, 0.0, 2.0, xtol=1e-14) == 0.0
    assert brentq(lambda x: x - 2.0, 0.0, 2.0, xtol=1e-14) == 2.0
    assert optimize.brentq(lambda x: x, 0.0, 2.0, xtol=1e-14) == 0.0


def test_brentq_same_sign_bracket_is_value_error():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x + 5.0, -1.0, 2.0, xtol=1e-14)


def test_brentq_nan_value_is_value_error():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.4 else x - 0.5, -1.0, 2.0, xtol=1e-14)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, -1.0, 2.0, xtol=1e-14)


def test_brentq_without_convergence_is_runtime_error():
    # |f| never shrinks, so every step bisects; from a 2e300 bracket to the
    # 1e-16 tolerance near 0.3 takes about 1050 halvings, past the 100 allowed.
    f = lambda x: -1.0 if x < 0.3 else 1.0
    xs = {}
    for solver in (brentq, optimize.brentq):
        xs[solver] = []
        with pytest.raises(RuntimeError, match="converge"):
            solver(lambda x: xs[solver].append(x) or f(x), -1e300, 1e300, xtol=1e-300)
    assert len(xs[brentq]) == 102
    assert xs[brentq] == xs[optimize.brentq]
