"""Scalar mean-field equation: roots, stability, transition point, barrier.

At a stationary point s(m) = g(J m) - J m^2, so the free energy
-J m^2/2 - s(m) has the dual closed form phi_J(m) = (J/2) m^2 - g(J m).  With
h = J m the stationary branches are the explicit curve J(h) = h / g'(h),
m = g'(h), from J(0) = J2 = 1/g''(0), the m = 0 spinodal; a root m is stable
(a candidate local minimum) iff J g''(J m) < 1.  m = 0 is a root at every J,
and J(h) is monotone between its folds, the roots of g'(h) = h g''(h), found
once per model: each piece holds at most one root of h - J g'(h), so the
pieces, not a grid, make the roots complete.  Along the branch the
degeneracy gap with the symmetric point is

    F(h) = phi_J(m) - phi_J(0) = h g'(h)/2 - g(h) + g(0).

The first-order transition J_MF is the root of F on the stable part of that
curve below J2: one sign scan over a log grid in h and one Brent refinement,
with no bracket in J and no root scan per coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketInvalid
from .models import ModelSpec
from .roots import brentq

__all__ = [
    "BranchPoint", "BranchSet", "TransitionPoint", "solve_branches",
    "find_transition", "barrier_height",
]

STABLE = "stable"
UNSTABLE = "unstable"

_ROOT_XTOL = 1e-12
_MERGE_TOL = 1e-8

# the log grid in |h| of find_transition and of the fold scan; below about 1e-3
# the gap F ~ g'''(0) h^3/12 (h^4 for the symmetric models) is lost in the
# rounding of g, and g' - h g'' in that of g' (cubic r = 3 to 3e-4)
_H_MIN = 1e-3
_H_POINTS = 400


@dataclass(frozen=True)
class BranchPoint:
    """One solution of the scalar mean-field equation at coupling J."""

    J: float
    m: float
    stability: str          # "stable" iff J g''(Jm) < 1
    phi: float              # scalar free energy phi_J(m)


@dataclass
class BranchSet:
    """All mean-field-equation roots found at one coupling."""

    model: ModelSpec
    J: float
    points: List[BranchPoint]

    def stable(self, nonnegative: bool = False) -> List[BranchPoint]:
        out = [p for p in self.points if p.stability == STABLE]
        if nonnegative:
            out = [p for p in out if p.m >= -_MERGE_TOL]
        return out

    def unstable(self) -> List[BranchPoint]:
        return [p for p in self.points if p.stability == UNSTABLE]

    def max_stable_root(self) -> Optional[BranchPoint]:
        cand = self.stable()
        return max(cand, key=lambda p: p.m) if cand else None

    def global_minimum(self) -> Optional[BranchPoint]:
        """Stable root of lowest phi, restricted to the physical m >= 0 family."""
        cand = self.stable(nonnegative=True)
        return min(cand, key=lambda p: p.phi) if cand else None

    def barrier(self) -> float:
        """Barrier Delta: the unstable ridge between the symmetric (smallest
        nonnegative) and asymmetric (largest) stable minima less the HIGHER
        of the two, times |omega|^2 (the infrared budget's full-Phi scale);
        0 with a single minimum."""
        mins = sorted(self.stable(nonnegative=True), key=lambda p: p.m)
        ridge = [p.phi for p in self.unstable() if len(mins) > 1
                 and mins[0].m + _MERGE_TOL < p.m < mins[-1].m - _MERGE_TOL]
        delta = max(ridge) - max(mins[0].phi, mins[-1].phi) if ridge else 0.0
        return self.model.omega_norm_sq * max(delta, 0.0)


@dataclass(frozen=True)
class TransitionPoint:
    """Coupling at which the symmetric and asymmetric minima are degenerate."""

    J_MF: float
    m_c: float
    degeneracy_residual: float

    def as_dict(self):
        return {"J_MF": self.J_MF, "m_c": self.m_c,
                "degeneracy_residual": self.degeneracy_residual}


@lru_cache(maxsize=None)
def _folds(model: ModelSpec) -> np.ndarray:
    """The folds of J(h) = h / g'(h), sorted: the roots of g'(h) - h g''(h),
    the numerator of J'(h), by one sign scan of find_transition's log grid on
    each side of 0 and one Brent refinement."""
    d = lambda h: model.g_prime(h) - h * model.g_second(h)
    grid = np.geomspace(_H_MIN, model.m_bounds()[1] * (1.0 / model.g_second(0.0)), _H_POINTS)
    out = []
    for h in (-grid[::-1], grid):
        dv = d(h)
        cells = np.flatnonzero((dv[:-1] < 0.0) != (dv[1:] < 0.0))
        out.append(brentq(d, h[cells], h[cells + 1], xtol=1e-14))
    return np.concatenate(out)


def solve_branches(model: ModelSpec, J):
    """Find all roots of m = g'(J m) on the model's scalar interval: one
    BranchSet for a float J, a list of them for an array J.

    Each monotone piece of J(h) between the folds whose ends bracket J holds
    one root of h - J g'(h).  A piece is cut at |h| = J _MERGE_TOL (a root
    nearer 0 has |m| < _MERGE_TOL) and closed at |h| = J |end| + 1, beyond
    which h - J g'(h) has the sign of h.  One lockstep Brent call refines
    every (J, piece) lane; m = g'(h), and roots within _MERGE_TOL of each
    other or of 0 merge.
    """
    Js = np.atleast_1d(np.asarray(J, dtype=float))
    if np.any(Js < 0):
        raise ValueError("J must be non-negative")
    folds = _folds(model)
    f = lambda h, J: h - J * model.g_prime(h)
    lanes = []
    for end in model.m_bounds():
        side = np.sign(end)
        inner, outer = _MERGE_TOL * Js[:, None], Js[:, None] * abs(end) + 1.0
        mags = np.sort(side * folds[side * folds > 0.0])
        nodes = side * np.hstack([inner, np.clip(mags, inner, outer), outer])
        fv = np.sign(f(nodes, Js[:, None]))
        r, c = np.nonzero(fv[:, :-1] * fv[:, 1:] <= 0.0)
        lanes.append((nodes[r, c], nodes[r, c + 1], r))
    lo, hi, rows = map(np.concatenate, zip(*lanes))
    h = brentq(f, lo, hi, xtol=_ROOT_XTOL, rtol=8.9e-16, args=(Js[rows],))
    order = np.argsort(rows, kind="stable")
    found = np.split(model.g_prime(h[order]), np.searchsorted(rows[order], np.arange(1, Js.size)))

    per_J: List[List[float]] = []
    for roots in found:
        # a root with |m| < _MERGE_TOL is reported as m = 0 itself
        merged: List[float] = []
        for r in sorted([r for r in roots.tolist() if abs(r) >= _MERGE_TOL] + [0.0]):
            if not merged or abs(r - merged[-1]) >= _MERGE_TOL:
                merged.append(r)
        per_J.append(merged)
    counts = [len(p) for p in per_J]
    Jm, m = np.repeat(Js, counts), np.array([r for p in per_J for r in p])
    stable = (Jm * model.g_second(Jm * m) < 1.0).tolist()     # J g''(J m) < 1
    phi = (Jm * m * m / 2.0 - model.g(Jm * m)).tolist()       # (J/2) m^2 - g(J m)
    points = iter([BranchPoint(J=a, m=b, stability=STABLE if s else UNSTABLE, phi=c)
                   for a, b, s, c in zip(Jm.tolist(), m.tolist(), stable, phi)])
    sets = [BranchSet(model=model, J=Jk, points=list(islice(points, c)))
            for Jk, c in zip(Js.tolist(), counts)]
    return sets if np.ndim(J) else sets[0]


def find_transition(model: ModelSpec,
                    bracket: Optional[Tuple[float, float]] = None) -> TransitionPoint:
    """Locate J_MF as the root in h of the degeneracy gap on the branch h = J m.

    F(h) = h g'(h)/2 - g(h) + g(0) is scanned on a log grid of h up to
    m_hi / g''(0), which bounds h* = J_MF m_c.  Of its sign changes between
    grid points where the branch is stable (J g''(h) < 1) below J2 = 1/g''(0),
    the one of largest h is refined by Brent's method.  A given bracket must
    contain the J_MF so found.
    """
    if bracket is not None and not (0 <= bracket[0] < bracket[1]):
        raise BracketInvalid(f"bad bracket {bracket}")
    J2 = 1.0 / model.g_second(0.0)
    g0 = model.g(0.0)
    gap = lambda h: 0.5 * h * model.g_prime(h) - model.g(h) + g0
    h = np.geomspace(_H_MIN, model.m_bounds()[1] * J2, _H_POINTS)
    m = model.g_prime(h)
    J = h / m
    F = 0.5 * h * m - model.g(h) + g0
    ok = (J * model.g_second(h) < 1.0) & (J < J2)
    cells = np.flatnonzero(ok[:-1] & ok[1:] & ((F[:-1] < 0.0) != (F[1:] < 0.0)))
    if not cells.size:
        raise BracketInvalid(f"no first-order jump: no stable branch of {model} "
                             f"below J2={J2} meets phi(0)")
    i = cells[-1]
    h_star = float(brentq(gap, h[i:i + 1], h[i + 1:i + 2], xtol=1e-14)[0])
    m_c = float(model.g_prime(h_star))
    tp = TransitionPoint(J_MF=h_star / m_c, m_c=m_c,
                         degeneracy_residual=float(gap(h_star)))
    if bracket is not None and not (bracket[0] <= tp.J_MF <= bracket[1]):
        raise BracketInvalid(f"bracket {bracket} does not contain J_MF={tp.J_MF}")
    return tp


def barrier_height(model: ModelSpec, J):
    """`BranchSet.barrier` at J: a float for a float J, an array for an
    array, from one `solve_branches` call."""
    out = [bs.barrier() for bs in solve_branches(model, np.atleast_1d(J))]
    return np.array(out) if np.ndim(J) else out[0]
