"""Computable first-order-transition certificates from the infrared budget.

The mean-field bound forces every physical magnetization to bring the
full-scale free energy within slack = J * n * (kappa/2) * I_d of its minimum.
When the barrier Delta(J) between the symmetric and asymmetric minima exceeds
that slack throughout a J-window containing J_MF, the allowed magnetizations
split into disjoint bands and the magnetization must jump: the window is
certified first-order at dimension d.

The certificate here is a numerical statement about quantities computed on
stated coupling grids at stated tolerances, not a proof object.  The constants
varkappa (minimal asymmetric magnetization over the window) and K (Lipschitz
bound of the free energy near the minima) entering epsilon_2 are existential
in the source argument; the instantiation below is one admissible,
conservative choice, and is recorded in the certificate metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import WindowExcludesTransition
from .models import ModelSpec
from .roots import brentq
from .solver import BranchSet, find_transition, solve_branches

__all__ = ["Certificate", "allowed_bands", "compute_DJ", "certify"]


def _sublevel(model: ModelSpec, sets: List[BranchSet], thetas):
    """Per BranchSet, its stable m >= 0 minima and the maximal intervals of
    {m >= 0 : Phi_J(m) <= min Phi_J + theta}, theta one value or one per set.

    With m = g'(h), Phi(h) = |omega|^2 (-J m^2/2 + h m - g(h)) has the slope
    |omega|^2 g''(h) (h - J m): it is monotone between the stationary fields
    h = J m, and on the top piece, which doubling closes where Phi exceeds the
    level (where g' stops moving first, the band reaches m_hi).  One lockstep
    Brent lane per (set, piece) whose ends straddle the level gives each edge,
    in u = log(1 + h): a node at h ~ 1e300 is 690 away, not 1000 halvings."""
    if not sets:
        return []
    w, m_hi = model.omega_norm_sq, model.m_bounds()[1]
    phi = lambda u, J, m: w * (-J * m * m / 2.0 + np.expm1(u) * m - model.g(np.expm1(u)))
    # a row per set: its nodes, padded with its top node, which the last column moves up
    nodes = [[bs.J * q.m for q in bs.points if q.m >= 0.0] for bs in sets]
    width = max(map(len, nodes)) + 1
    u = np.log1p([hs + hs[-1:] * (width - len(hs)) for hs in nodes])
    J, g = np.array([bs.J for bs in sets])[:, None], model.g_prime(np.expm1(u))
    p = phi(u, J, g)
    level = p.min(axis=1) + np.asarray(thetas, dtype=float)
    todo = np.flatnonzero(p[:, -1] <= level)
    while todo.size:
        new = np.minimum(2.0 * u[todo, -1] + 1.0, 709.0)    # expm1 overflows above 709.78
        gnew = model.g_prime(np.expm1(new))
        moved = gnew > g[todo, -1]              # the rest reach m_hi
        todo, new, gnew = todo[moved], new[moved], gnew[moved]
        u[todo, -1], g[todo, -1], p[todo, -1] = new, gnew, phi(new, J[todo, 0], gnew)
        todo = todo[p[todo, -1] <= level[todo]]
    inside = p <= level[:, None]
    r, c = np.nonzero(inside[:, :-1] != inside[:, 1:])
    f = lambda x, J, lv: phi(x, J, model.g_prime(np.expm1(x))) - lv
    edges = model.g_prime(np.expm1(brentq(f, u[r, c], u[r, c + 1], xtol=1e-14,
                                          args=(J[r, 0], level[r]))))
    # a band starts at m = 0 or at an edge, and ends at an edge or at m_hi
    ends = [[0.0] * lo + edges[r == i].tolist() + [m_hi] * hi
            for i, (lo, hi) in enumerate(inside[:, [0, -1]].tolist())]
    return [([q.m for q in bs.stable(nonnegative=True)], list(zip(e[::2], e[1::2])))
            for bs, e in zip(sets, ends)]


def _sup_distance(mins: List[float], bands: List[Tuple[float, float]]) -> float:
    """The largest distance to the nearest minimum over the bands (nan with no
    minimum): at a band's end or a midpoint of adjacent minima inside a band."""
    mids = [(a + b) / 2.0 for a, b in zip(mins, mins[1:])]
    pts = [e for b in bands for e in b] + [x for x in mids
                                           if any(lo <= x <= hi for lo, hi in bands)]
    return float(np.min(np.abs(np.subtract.outer(pts, mins)), axis=1).max()) if mins else np.nan


def _lipschitz(model: ModelSpec, bs: BranchSet, radius: float) -> float:
    """K = max |dPhi/dm| = |omega|^2 max |h - J m| over the balls of this radius
    about the stable m >= 0 minima of bs, inf if one reaches m_hi (as h does):
    at the balls' ends, with h from `entropy`, or where J g''(h) = 1, once
    between adjacent roots of opposite stability."""
    mins = np.array([q.m for q in bs.stable(nonnegative=True)])
    if np.any(mins + radius >= model.m_bounds()[1]):
        return float("inf")
    ends = np.append(np.maximum(mins - radius, 0.0), mins + radius)
    roots = [q for q in bs.points if q.m >= 0.0]
    lo, hi = np.array([(bs.J * a.m, bs.J * b.m) for a, b in zip(roots, roots[1:])
                       if a.stability != b.stability]).reshape(-1, 2).T
    h = brentq(lambda h: bs.J * model.g_second(h) - 1.0, lo, hi, xtol=1e-14)
    h = h[np.any(np.abs(np.subtract.outer(model.g_prime(h), mins)) <= radius, axis=1)]
    h, m = np.append(model.entropy(ends)[1], h), np.append(ends, model.g_prime(h))
    return float(model.omega_norm_sq * np.abs(h - bs.J * m).max())


def allowed_bands(model: ModelSpec, J: float, slack: float) -> List[Tuple[float, float]]:
    """Maximal intervals of {m >= 0 : Phi_J(m) <= min Phi_J + slack}, Phi the
    full-scale free energy |omega|^2 phi_J.  With slack = 0 they degenerate to
    the global minimizers; slack above the barrier yields one band.
    """
    if slack < 0:
        raise ValueError("slack must be non-negative")
    return _sublevel(model, [solve_branches(model, J)], slack)[0][1]


def compute_DJ(model: ModelSpec, J, theta: float):
    """D_J(theta) = sup { dist(m, minima) : m >= 0, Phi_J(m) <= F_MF + theta },
    the minima being the stable mean-field-equation roots: monotone in theta,
    -> 0 as theta -> 0 at nondegenerate minima.  A float J gives a float, an
    array an array, from one `solve_branches` call."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    out = [_sup_distance(*mb)
           for mb in _sublevel(model, solve_branches(model, np.atleast_1d(J)), theta)]
    return np.array(out) if np.ndim(J) else out[0]


@dataclass
class Certificate:
    """Error-budget certificate for a first-order transition on a J-window."""

    model: ModelSpec
    d: int
    J_window: Tuple[float, float]
    I_d: float
    delta_d: float
    J_MF: float
    min_margin: float                       # min over window of Delta(J) - J*delta_d
    margins: Dict[float, float]             # Delta(J) - J*delta_d at each grid J
    argmin_J: float                         # the grid J where min_margin is reached
    barrier_min: float
    epsilon1: float
    epsilon2: float
    forbidden_bands: Dict[float, List[Tuple[float, float]]] = field(default_factory=dict)
    passed: bool = False
    notes: str = ""
    I_d_method: Optional[str] = None        # compute_id's method and error estimate;
    I_d_err: Optional[float] = None         # None for an I_d passed in

    def as_dict(self):
        return {
            "model": str(self.model), "d": self.d,
            "J_window": list(self.J_window), "I_d": self.I_d,
            "I_d_method": self.I_d_method, "I_d_err": self.I_d_err,
            "delta_d": self.delta_d, "J_MF": self.J_MF,
            "min_margin": self.min_margin, "barrier_min": self.barrier_min,
            "margins": {str(k): v for k, v in self.margins.items()},
            "argmin_J": self.argmin_J,
            "epsilon1": self.epsilon1, "epsilon2": self.epsilon2,
            "forbidden_bands": {str(k): [list(b) for b in v]
                                for k, v in self.forbidden_bands.items()},
            "passed": self.passed, "notes": self.notes,
        }


def certify(model: ModelSpec, d: int, J_window: Tuple[float, float],
            J_grid: int = 21, I_d: Optional[float] = None,
            DJ_J_grid: int = 25) -> Certificate:
    """Evaluate the error-budget certificate at dimension d over a J-window.

    Margin: min over the window of Delta(J) - J*delta_d, with Delta the
    full-scale barrier; the certificate passes iff the margin is positive.
    epsilon_1 = sup_{J' <= J_hi} D_{J'}(J_hi * delta_d) over DJ_J_grid
    couplings from 1e-3; epsilon_2 = (2 epsilon_1 K + J_hi delta_d) /
    (varkappa^2 / 2) with varkappa the least asymmetric minimum over the window
    and K = max |dPhi/dm| over the epsilon_1-balls about the minima at J_MF.
    """
    J_lo, J_hi = float(J_window[0]), float(J_window[1])
    if not (0 < J_lo < J_hi):
        raise ValueError(f"bad J_window {J_window}")
    if J_grid < 1 or DJ_J_grid < 1:
        raise ValueError(f"J_grid and DJ_J_grid must be at least 1, "
                         f"got {J_grid} and {DJ_J_grid}")
    I_d_method = I_d_err = None
    if I_d is None:
        from .lattice import compute_id     # on first use: bands and figures need no I_d
        est = compute_id(d, "bessel", 1e-10)
        I_d, I_d_method, I_d_err = est.value, est.method, est.abs_error_estimate
    delta_d = float(model.delta_factor * I_d)    # the slack at coupling J is J*delta_d

    tp = find_transition(model)
    if not (J_lo <= tp.J_MF <= J_hi):
        raise WindowExcludesTransition(
            f"J_MF={tp.J_MF:.6f} outside window {J_window}")

    # one solve: the window, the D_J couplings J' <= J_hi, and J_MF for K
    Js, DJs = np.linspace(J_lo, J_hi, int(J_grid)), np.linspace(1e-3, J_hi, int(DJ_J_grid))
    sets = solve_branches(model, np.concatenate([Js, DJs, [tp.J_MF]]))
    window = sets[:Js.size]
    barriers = np.array([bs.barrier() for bs in window])
    margins = dict(zip(Js.tolist(), (barriers - Js * delta_d).tolist()))
    varkappa = min((p.m for bs in window for p in bs.stable(nonnegative=True)
                    if p.m > 1e-6), default=0.0)

    # epsilon_1 = sup_{J' <= J_hi} D_{J'}(J_hi delta_d), theta floored for zero slack
    # (d = infinity); Python's max skips the nan D_J of a coupling without minima
    theta = max(J_hi * delta_d, 1e-12)
    sub = _sublevel(model, sets[:-1], np.append(Js * delta_d, np.full(DJs.size, theta)))
    forbidden = {J: [(a[1], b[0]) for a, b in zip(bands, bands[1:])]
                 for J, (_, bands) in zip(Js.tolist(), sub)}
    eps1 = max(0.0, *(_sup_distance(*mb) for mb in sub[Js.size:]))
    K = _lipschitz(model, sets[-1], eps1)
    eps2 = ((2.0 * eps1 * K + J_hi * delta_d) / (0.5 * varkappa ** 2) if varkappa > 0
            else float("inf"))

    argmin_J = min(margins, key=margins.get)
    min_margin = margins[argmin_J]
    return Certificate(
        model=model, d=d, J_window=(J_lo, J_hi), I_d=float(I_d),
        delta_d=delta_d, J_MF=tp.J_MF, min_margin=min_margin,
        margins=margins, argmin_J=argmin_J,
        barrier_min=float(min(barriers)), epsilon1=float(eps1),
        epsilon2=float(eps2), forbidden_bands=forbidden,
        passed=bool(min_margin > 0.0), I_d_method=I_d_method, I_d_err=I_d_err,
        notes=(f"scalar on-axis reduction; bands, epsilon1 and K exact in the field h; gridded: "
               f"the window on {int(J_grid)} couplings, the sup over J' on {int(DJ_J_grid)} "
               "couplings from 1e-3; numerical certificate, not interval arithmetic"),
    )
