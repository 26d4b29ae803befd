"""Scalar mean-field equation: roots, stability, transition point, barrier.

All solutions of m = g'(J m) at fixed J are located by a sign-change scan
refined with Brent's method; a root m is dynamically stable (candidate
local minimum of the scalar free energy) iff J g''(J m) < 1.  Callers that
need a branch over J run one such root scan per coupling.  The first-order
transition point J_MF is located by bisecting the degeneracy gap

    dphi(J) = phi_J(m+(J)) - phi_J(0),

which is strictly decreasing in J on a valid bracket because
d(phi)/dJ = -m^2/2 along stationary branches.  At a stationary point
s(m) = g(J m) - J m^2, so the free energy -J m^2/2 - s(m) has the dual closed
form phi_J(m) = (J/2) m^2 - g(J m), and dphi(J) = (J/2) m+^2 - g(J m+) + g(0)
is what the bisection evaluates (no numerical Legendre transform in the inner
loop).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketInvalid, NoAsymmetricBranch, ScanTooCoarse
from .models import ModelSpec
from .roots import brentq

__all__ = [
    "BranchPoint", "BranchSet", "TransitionPoint", "solve_branches",
    "auto_bracket", "find_transition", "barrier_height",
]

STABLE = "stable"
UNSTABLE = "unstable"

_ROOT_XTOL = 1e-12
_MERGE_TOL = 1e-8


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


def _refine_near(model: ModelSpec, J: float, seed: float,
                 width: float) -> Optional[float]:
    """Locate a root of m = g'(Jm) near ``seed`` by expanding a local bracket."""
    lo_b, hi_b = model.m_bounds()
    f = lambda m: model.g_prime(J * m) - m
    w = max(width, 1e-6)
    for _ in range(12):
        a = max(seed - w, lo_b + 1e-12)
        b = min(seed + w, hi_b - 1e-12)
        fa, fb = f(a), f(b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb < 0.0:
            return brentq(f, a, b, xtol=_ROOT_XTOL, rtol=8.9e-16)
        w *= 2.0
        if a <= lo_b + 1e-12 and b >= hi_b - 1e-12:
            break
    return None


def max_stable_root(model: ModelSpec, J: float, seed: Optional[float] = None,
                    scan_resolution: int = 400) -> Optional[BranchPoint]:
    """Largest stable root at J; a seed enables cheap local continuation."""
    if seed is not None and seed > _MERGE_TOL:
        r = _refine_near(model, J, seed, width=0.02 * max(abs(seed), 0.1))
        if r is not None and r > _MERGE_TOL:
            bp = _point(model, J, r)
            if bp.stability == STABLE:
                return bp
    return solve_branches(model, J, scan_resolution).max_stable_root()


def _degeneracy_gap(model: ModelSpec, J: float,
                    seed: Optional[float]) -> Tuple[Optional[float], Optional[float]]:
    """(phi(m+) - phi(0), m+) via the dual closed form; (None, None) if no m+."""
    bp = max_stable_root(model, J, seed=seed)
    if bp is None or bp.m <= _MERGE_TOL:
        return None, None
    return bp.phi + model.g(0.0), bp.m


def auto_bracket(model: ModelSpec) -> Tuple[float, float]:
    """Heuristic transition bracket: just below the m=0 spinodal J2 down to
    the first coupling where the asymmetric branch still sits above phi(0)."""
    J2 = 1.0 / model.g_second(0.0)
    hi = 0.999 * J2
    J = hi
    for _ in range(400):
        J *= 0.997
        gap, _ = _degeneracy_gap(model, J, seed=None)
        if gap is None:
            break
        if gap > 0:
            return J, hi
    raise BracketInvalid("could not auto-bracket the transition; pass --Jlo/--Jhi")


def find_transition(model: ModelSpec, bracket: Tuple[float, float],
                    tol_J: float = 1e-10) -> TransitionPoint:
    """Locate J_MF by bisecting dphi(J) = phi_J(m+) - phi_J(0) on a bracket.

    Requires the asymmetric stable branch to exist and lie above phi(0) at
    J_lo, and below at J_hi; dphi is strictly decreasing in J there, so the
    root is unique.
    """
    J_lo, J_hi = float(bracket[0]), float(bracket[1])
    if not (0 <= J_lo < J_hi):
        raise BracketInvalid(f"bad bracket {bracket}")
    gap_lo, m_lo = _degeneracy_gap(model, J_lo, seed=None)
    if gap_lo is None:
        raise NoAsymmetricBranch(
            f"no nonzero stable branch at J_lo={J_lo} for {model}")
    gap_hi, m_hi = _degeneracy_gap(model, J_hi, seed=m_lo)
    if gap_hi is None:
        raise NoAsymmetricBranch(
            f"no nonzero stable branch at J_hi={J_hi} for {model}")
    if not (gap_lo > 0.0 > gap_hi):
        raise BracketInvalid(
            f"dphi does not straddle 0 on {bracket}: ({gap_lo}, {gap_hi})")

    seed = m_lo
    a, b = J_lo, J_hi
    gap_mid, m_mid = gap_lo, m_lo
    while b - a > tol_J:
        mid = 0.5 * (a + b)
        gap_mid, m_mid = _degeneracy_gap(model, mid, seed=seed)
        if gap_mid is None:
            # asymmetric branch vanished: transition lies above
            a = mid
            continue
        seed = m_mid
        if gap_mid > 0.0:
            a = mid
        else:
            b = mid
    J_star = 0.5 * (a + b)
    gap, m_c = _degeneracy_gap(model, J_star, seed=seed)
    if gap is None:
        gap, m_c = gap_mid, m_mid
    return TransitionPoint(J_MF=float(J_star), m_c=float(m_c),
                           degeneracy_residual=float(gap))


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
