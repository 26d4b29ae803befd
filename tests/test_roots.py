"""mfspin.roots.brentq against scipy.optimize.brentq: in every lane of a batch
the same root, bit for bit, from the same sequence of evaluation points."""

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


def _record(f, xs):
    return lambda x: xs.append(x) or f(x)


def _lanes(brackets, **kw):
    """One brentq call over all brackets: the roots and each lane's evaluation
    points, each lane evaluated by its own scalar f."""
    xs = [[] for _ in brackets]

    def f(x, lane):
        return np.array([float(_record(brackets[i][0], xs[i])(xk))
                         for xk, i in zip(x.tolist(), lane.tolist())])
    roots = brentq(f, [b[1] for b in brackets], [b[2] for b in brackets],
                   args=(np.arange(len(brackets)),), **kw)
    return roots, xs


def test_brentq_matches_scipy_bit_for_bit():
    # every lane of one call against scipy on its own bracket
    brackets = _brackets(2100)
    mismatches = []
    for kw in SETTINGS:
        roots, xs = _lanes(brackets, **kw)
        assert roots.shape == (len(brackets),)
        for i, (f, a, b) in enumerate(brackets):
            ref_xs = []
            ref = optimize.brentq(_record(f, ref_xs), a, b, **kw)
            if repr(float(roots[i])) != repr(float(ref)) or xs[i] != ref_xs:
                mismatches.append((i, kw, float(roots[i]), ref, len(xs[i]), len(ref_xs)))
    assert mismatches == []


def test_brentq_zero_at_an_end_returns_it():
    # lanes: f(a) = 0, f(b) = 0, and an interior root
    roots = brentq(lambda x, c: x - c, [0.0, 0.0, 0.0], [2.0, 2.0, 2.0], xtol=1e-14,
                   args=(np.array([0.0, 2.0, 1.5]),))
    assert roots.tolist() == [0.0, 2.0, optimize.brentq(lambda x: x - 1.5, 0.0, 2.0,
                                                        xtol=1e-14)]
    assert optimize.brentq(lambda x: x, 0.0, 2.0, xtol=1e-14) == 0.0


def test_brentq_empty_batch_calls_nothing():
    def f(x):
        raise AssertionError("f called on an empty batch")
    roots = brentq(f, [], [], xtol=1e-14)
    assert roots.shape == (0,) and roots.dtype == float


def test_brentq_lanes_with_roots_at_their_ends_call_f_once_per_end():
    # every lane has f = 0 at an end: those ends are the roots, with no step
    calls = []
    roots = brentq(lambda x: calls.append(x.copy()) or x - np.round(x),
                   [0.0, 1.0, -0.5], [0.5, 1.5, 0.0], xtol=1e-14)
    assert roots.tolist() == [0.0, 1.0, 0.0] and len(calls) == 2


def test_brentq_same_sign_bracket_is_value_error():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x + 5.0, [-1.0], [2.0], xtol=1e-14)
    # one bad lane in a batch fails the call
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x, c: x - c, [-1.0, -1.0, -1.0], [2.0, 2.0, 2.0], xtol=1e-14,
               args=(np.array([0.5, 3.0, 1.0]),))


def test_brentq_nan_value_is_value_error():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: np.where(x > 0.4, np.nan, x - 0.5), [-1.0], [2.0], xtol=1e-14)
    # a lane that meets a NaN inside its bracket fails the whole batch
    f = lambda x, c: np.where((c == 1.0) & (0.0 < x) & (x < 1.0), np.nan, x - c * 0.5)
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, [-1.0, -1.0], [2.0, 2.0], xtol=1e-14, args=(np.array([2.0, 1.0]),))


def test_brentq_without_convergence_is_runtime_error():
    # |f| never shrinks, so every step bisects; from a 2e300 bracket to the
    # 1e-16 tolerance near 0.3 takes about 1050 halvings, past the 100 allowed.
    f = lambda x: -1.0 if x < 0.3 else 1.0
    ours, ref = [], []
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: np.array([_record(f, ours)(xk) for xk in x.tolist()]),
               [-1e300], [1e300], xtol=1e-300)
    with pytest.raises(RuntimeError, match="converge"):
        optimize.brentq(_record(f, ref), -1e300, 1e300, xtol=1e-300)
    assert len(ours) == 102
    assert ours == ref
    # a converging lane beside it does not save the batch
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: np.where(x < 0.3, -1.0, 1.0), [-1e300, 0.0], [1e300, 1.0],
               xtol=1e-300)
