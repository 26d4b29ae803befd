"""Scalar mean-field equation: roots, stability, transition point, barrier.

All solutions of m = g'(J m) are located by a sign-change scan refined with
Brent's method; a root m is dynamically stable (candidate local minimum of
the scalar free energy) iff J g''(J m) < 1.  One scan takes an array of
couplings: it refines the brackets of every J in one lockstep Brent call.

At a stationary point s(m) = g(J m) - J m^2, so the free energy
-J m^2/2 - s(m) has the dual closed form phi_J(m) = (J/2) m^2 - g(J m).  With
h = J m the stationary branches are the explicit curve J = h / g'(h),
m = g'(h), along which the degeneracy gap with the symmetric point is

    F(h) = phi_J(m) - phi_J(0) = h g'(h)/2 - g(h) + g(0).

The first-order transition J_MF is the root of F on the stable part of that
curve below the m = 0 spinodal J2 = 1/g''(0): one sign scan over a log grid
in h and one Brent refinement, with no bracket in J and no root scan per
coupling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketInvalid, ScanTooCoarse
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
_BLOCK = 2 ** 16            # (J, m) grid entries per evaluation of f

# find_transition's log grid in h; below about 1e-3 the gap F ~ g'''(0) h^3/12
# (h^4 for the symmetric models) is lost in the rounding of g
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


@dataclass(frozen=True)
class TransitionPoint:
    """Coupling at which the symmetric and asymmetric minima are degenerate."""

    J_MF: float
    m_c: float
    degeneracy_residual: float

    def as_dict(self):
        return {"J_MF": self.J_MF, "m_c": self.m_c,
                "degeneracy_residual": self.degeneracy_residual}


def solve_branches(model: ModelSpec, J, scan_resolution: int = 400):
    """Find all roots of m = g'(J m) on the model's scalar interval: one
    BranchSet for a float J, a list of them for an array J.

    f = g'(J m) - m is evaluated on the J x m scan grid in blocks of about
    2^16 entries.  The sign changes of every coupling are refined to well
    below 1e-10 in m by one lockstep Brent call, and all roots are classified
    by one array call each of g'' and g.  Roots closer than two grid cells
    trigger a ScanTooCoarse warning.  m = 0 is always included when g'(0) = 0.
    """
    Js = np.atleast_1d(np.asarray(J, dtype=float))
    if np.any(Js < 0):
        raise ValueError("J must be non-negative")
    lo, hi = model.m_bounds()
    eps = 1e-9 * (hi - lo)
    # the ends close the two outer cells, so a root within eps of an end is bracketed too
    grid = np.concatenate(([lo], np.linspace(lo + eps, hi - eps, int(scan_resolution)), [hi]))
    n = grid.size
    f = lambda m, J: model.g_prime(J * m) - m
    hits, cells = [np.zeros(0, int)], [np.zeros(0, int)]   # flat (J, m) grid indices
    step = max(1, _BLOCK // n)
    for k in range(0, Js.size, step):
        f_vals = f(grid, Js[k:k + step, None])
        hits.append(np.flatnonzero(f_vals == 0.0) + k * n)
        r, c = np.nonzero(f_vals[:, :-1] * f_vals[:, 1:] < 0.0)
        cells.append((k + r) * n + c)
    hits, cells = np.concatenate(hits), np.concatenate(cells)
    found = np.concatenate([grid[hits % n], brentq(f, grid[cells % n], grid[cells % n + 1],
                                                   xtol=_ROOT_XTOL, rtol=8.9e-16,
                                                   args=(Js[cells // n],))])
    rows = np.concatenate([hits, cells]) // n
    order = np.argsort(rows, kind="stable")
    found = np.split(found[order], np.searchsorted(rows[order], np.arange(1, Js.size)))

    symmetric = abs(model.g_prime(0.0)) < 1e-14     # m = 0 is a root; the grid straddles it
    cell = (hi - lo) / max(scan_resolution - 1, 1)
    per_J: List[List[float]] = []
    for Jk, roots in zip(Js.tolist(), found):
        roots = roots.tolist()
        if symmetric and not any(abs(r) < _MERGE_TOL for r in roots):
            roots.append(0.0)
        merged: List[float] = []
        for r in sorted(roots):
            if not merged or abs(r - merged[-1]) >= _MERGE_TOL:
                merged.append(r)
        for r1, r2 in zip(merged, merged[1:]):
            if r2 - r1 < 2.0 * cell:
                warnings.warn(f"roots {r1:.6g} and {r2:.6g} closer than two grid "
                              f"cells at J={Jk}; raise scan_resolution", ScanTooCoarse)
                break
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


def barrier_height(model: ModelSpec, J, scan_resolution: int = 800):
    """Barrier Delta(J) on the full-Phi scale; 0 when a single minimum.

    Delta(J) is the gap between the unstable ridge separating the symmetric
    (smallest nonnegative) and asymmetric (largest) stable minima and the
    HIGHER of the two minima, multiplied by |omega|^2 to live on the same
    scale as the infrared error budget.  A float J gives a float, an array
    an array, from one `solve_branches` call.
    """
    out = []
    for bs in solve_branches(model, np.atleast_1d(J), scan_resolution):
        mins = sorted(bs.stable(nonnegative=True), key=lambda p: p.m)
        ridge = [p.phi for p in bs.unstable() if len(mins) > 1
                 and mins[0].m + _MERGE_TOL < p.m < mins[-1].m - _MERGE_TOL]
        delta = max(ridge) - max(mins[0].phi, mins[-1].phi) if ridge else 0.0
        out.append(model.omega_norm_sq * max(delta, 0.0))
    return np.array(out) if np.ndim(J) else out[0]
