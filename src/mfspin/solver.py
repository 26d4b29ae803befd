"""Scalar mean-field equation: roots, stability, transition point, barrier.

All solutions of m = g'(J m) at fixed J are located by a sign-change scan
refined with Brent's method; a root m is dynamically stable (candidate
local minimum of the scalar free energy) iff J g''(J m) < 1.  Callers that
need a branch over J run one such root scan per coupling.

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


def _point(model: ModelSpec, J: float, m: float) -> BranchPoint:
    """The stationary point m at J, classified by J g''(Jm) against 1, with
    phi_J(m) from the dual form (J/2)m^2 - g(Jm)."""
    return BranchPoint(J=float(J), m=float(m),
                       stability=STABLE if J * model.g_second(J * m) < 1.0 else UNSTABLE,
                       phi=J * m * m / 2.0 - model.g(J * m))


def solve_branches(model: ModelSpec, J: float,
                   scan_resolution: int = 400) -> BranchSet:
    """Find all roots of m = g'(J m) on the model's scalar interval.

    Sign changes on the scan grid are refined by Brent's method to well
    below 1e-10 in m; roots closer than two grid cells trigger a
    ScanTooCoarse warning.  m = 0 is always included when g'(0) = 0.
    """
    if J < 0:
        raise ValueError("J must be non-negative")
    lo, hi = model.m_bounds()
    eps = 1e-9 * (hi - lo)
    grid = np.linspace(lo + eps, hi - eps, int(scan_resolution))
    f_vals = model.g_prime(J * grid) - grid

    f = lambda m: model.g_prime(J * m) - m
    zero = f_vals == 0.0
    roots = [float(grid[i]) if zero[i]
             else brentq(f, grid[i], grid[i + 1], xtol=_ROOT_XTOL, rtol=8.9e-16)
             for i in np.flatnonzero(zero[:-1] | (f_vals[:-1] * f_vals[1:] < 0.0))]
    if zero[-1]:
        roots.append(float(grid[-1]))

    # the symmetric solution exists whenever g'(0) = 0; the grid straddles it
    if abs(model.g_prime(0.0)) < 1e-14 and not any(abs(r) < _MERGE_TOL for r in roots):
        roots.append(0.0)

    roots.sort()
    merged: List[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) < _MERGE_TOL:
            continue
        merged.append(r)
    cell = (hi - lo) / max(scan_resolution - 1, 1)
    for r1, r2 in zip(merged, merged[1:]):
        if r2 - r1 < 2.0 * cell:
            warnings.warn(f"roots {r1:.6g} and {r2:.6g} closer than two grid "
                          f"cells at J={J}; raise scan_resolution",
                          ScanTooCoarse)
            break

    return BranchSet(model=model, J=float(J),
                     points=[_point(model, J, r) for r in merged])


def max_stable_root(model: ModelSpec, J: float,
                    scan_resolution: int = 400) -> Optional[BranchPoint]:
    """Largest stable root at J."""
    return solve_branches(model, J, scan_resolution).max_stable_root()


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
    h_star = brentq(gap, h[i], h[i + 1], xtol=1e-14)
    m_c = float(model.g_prime(h_star))
    tp = TransitionPoint(J_MF=h_star / m_c, m_c=m_c,
                         degeneracy_residual=float(gap(h_star)))
    if bracket is not None and not (bracket[0] <= tp.J_MF <= bracket[1]):
        raise BracketInvalid(f"bracket {bracket} does not contain J_MF={tp.J_MF}")
    return tp


def barrier_height(model: ModelSpec, J: float,
                   scan_resolution: int = 800) -> float:
    """Barrier Delta(J) on the full-Phi scale; 0 when a single minimum.

    Delta(J) is the gap between the unstable ridge separating the symmetric
    (smallest nonnegative) and asymmetric (largest) stable minima and the
    HIGHER of the two minima, multiplied by |omega|^2 to live on the same
    scale as the infrared error budget.
    """
    bs = solve_branches(model, J, scan_resolution)
    mins = bs.stable(nonnegative=True)
    if len(mins) < 2:
        return 0.0
    mins = sorted(mins, key=lambda p: p.m)
    p_lo, p_hi = mins[0], mins[-1]
    ridge = [p for p in bs.unstable() if p_lo.m + _MERGE_TOL < p.m < p_hi.m - _MERGE_TOL]
    if not ridge:
        return 0.0
    phi_sep = max(p.phi for p in ridge)
    delta = phi_sep - max(p_lo.phi, p_hi.phi)
    return float(model.omega_norm_sq * max(delta, 0.0))
