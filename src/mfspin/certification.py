"""Computable first-order-transition certificates from the infrared budget.

The mean-field bound forces every physical magnetization to bring the
full-scale free energy within slack = J * n * (kappa/2) * I_d of its minimum.
When the barrier Delta(J) between the symmetric and asymmetric minima exceeds
that slack throughout a J-window containing J_MF, the allowed magnetizations
split into disjoint bands and the magnetization must jump: the window is
certified first-order at dimension d.

The certificate here is a numerical statement about quantities computed on
stated grids at stated tolerances, not a proof object.  The constants
varkappa (minimal asymmetric magnetization over the window) and K (Lipschitz
bound of the free energy near the minima) entering epsilon_2 are existential
in the source argument; the instantiation below is one admissible,
conservative choice, and is recorded in the certificate metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import WindowExcludesTransition
from .models import ModelSpec
from .solver import find_transition, solve_branches

__all__ = ["Certificate", "allowed_bands", "compute_DJ", "certify"]


@lru_cache(maxsize=8)
def _entropy_grid(model: ModelSpec, grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform m >= 0 grid (interior endpoints) and s(m) on it, read-only."""
    _, hi = model.m_bounds()
    eps = 1e-9 * hi
    ms = np.linspace(0.0, hi - eps, grid)
    s, _ = model.entropy(ms)
    ms.flags.writeable = False
    s.flags.writeable = False
    return ms, s


def _phi_grid(model: ModelSpec, J: float, grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full-scale free energy |omega|^2 (-J m^2/2 - s(m)) on the m >= 0 grid.

    s(m) does not depend on J, so it comes from the per-(model, grid) cache
    `_entropy_grid`; only the quadratic term is formed per J, in the same
    operation order as `phi_full_scale`, so the values are bit-identical.
    """
    ms, s = _entropy_grid(model, int(grid))
    return ms, model.omega_norm_sq * (-J * ms * ms / 2.0 - s)


def allowed_bands(model: ModelSpec, J: float, slack: float,
                  grid: int = 2000) -> List[Tuple[float, float]]:
    """Maximal intervals of {m >= 0 : Phi_J(m) <= min Phi_J + slack}.

    Phi is the full-scale free energy |omega|^2 phi_J.  With slack = 0 the
    bands degenerate to the global-minimizer set (up to grid resolution);
    slack above the barrier yields a single connected band.
    """
    if slack < 0:
        raise ValueError("slack must be non-negative")
    ms, phis = _phi_grid(model, J, grid)
    level = phis.min() + slack
    ok = phis <= level + 1e-15
    # +1 where a run of allowed points starts, -1 just past where one ends
    edges = np.diff(ok.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [(float(ms[i]), float(ms[j - 1])) for i, j in zip(starts, stops)]


def compute_DJ(model: ModelSpec, J, theta: float, grid: int = 2000):
    """Sup distance to the local-minima set over the theta-sublevel set.

    D_J(theta) = sup { dist(m, minima) : m >= 0, Phi_J(m) < F_MF + theta },
    with minima taken from the stable mean-field-equation roots (scalar
    reduction).  Monotone non-decreasing in theta; -> 0 as theta -> 0 at
    couplings with nondegenerate minima.  A float J gives a float, an array
    an array, from one `solve_branches` call.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    out = []
    for bs in solve_branches(model, np.atleast_1d(J)):
        mins = np.array([p.m for p in bs.stable(nonnegative=True)])
        ms, phis = _phi_grid(model, bs.J, grid)
        near = ms[phis < phis.min() + theta]
        if not mins.size:
            out.append(float("nan"))
        elif not near.size:
            out.append(0.0)
        else:
            out.append(float(np.min(np.abs(near[:, None] - mins[None, :]), axis=1).max()))
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

    def as_dict(self):
        return {
            "model": str(self.model), "d": self.d,
            "J_window": list(self.J_window), "I_d": self.I_d,
            "delta_d": self.delta_d, "J_MF": self.J_MF,
            "min_margin": self.min_margin, "barrier_min": self.barrier_min,
            "margins": {str(k): v for k, v in self.margins.items()},
            "argmin_J": self.argmin_J,
            "epsilon1": self.epsilon1, "epsilon2": self.epsilon2,
            "forbidden_bands": {str(k): [list(b) for b in v]
                                for k, v in self.forbidden_bands.items()},
            "passed": self.passed, "notes": self.notes,
        }


def _forbidden_from_allowed(bands: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    return [(a[1], b[0]) for a, b in zip(bands, bands[1:])]


def certify(model: ModelSpec, d: int, J_window: Tuple[float, float],
            J_grid: int = 21, m_grid: int = 2000,
            I_d: Optional[float] = None,
            DJ_J_grid: int = 25) -> Certificate:
    """Evaluate the error-budget certificate at dimension d over a J-window.

    Margin: min over the window of Delta(J) - J*delta_d, with Delta the
    full-scale barrier; the certificate passes iff the margin is positive.
    epsilon_1 = sup_{J' <= J_hi} D_{J'}(J_hi * delta_d);
    epsilon_2 = (2 epsilon_1 K + J_hi delta_d) / (varkappa^2 / 2) with
    varkappa the least asymmetric-minimum magnetization over the window and
    K a gridded Lipschitz bound of the full-scale free energy near the
    minima.
    """
    J_lo, J_hi = float(J_window[0]), float(J_window[1])
    if not (0 < J_lo < J_hi):
        raise ValueError(f"bad J_window {J_window}")
    if m_grid < 4:
        raise ValueError(f"m_grid must be at least 4, got {m_grid}")
    if J_grid < 1 or DJ_J_grid < 1:
        raise ValueError(f"J_grid and DJ_J_grid must be at least 1, "
                         f"got {J_grid} and {DJ_J_grid}")
    if I_d is None:
        from .lattice import compute_id     # on first use: bands and figures need no I_d
        I_d = compute_id(d, "bessel", 1e-10).value
    delta_d = float(model.delta_factor * I_d)    # the slack at coupling J is J*delta_d

    tp = find_transition(model)
    if not (J_lo <= tp.J_MF <= J_hi):
        raise WindowExcludesTransition(
            f"J_MF={tp.J_MF:.6f} outside window {J_window}")

    Js = np.linspace(J_lo, J_hi, int(J_grid))
    # one solve: the window's barriers and varkappa, and J_MF's minima for K
    *window, at_mf = solve_branches(model, np.append(Js, tp.J_MF))
    barriers = np.array([bs.barrier() for bs in window])
    margins = dict(zip(Js.tolist(), (barriers - Js * delta_d).tolist()))
    forbidden: Dict[float, List[Tuple[float, float]]] = {
        J: _forbidden_from_allowed(allowed_bands(model, J, J * delta_d, grid=m_grid))
        for J in Js.tolist()}
    asym = [[p.m for p in bs.stable(nonnegative=True) if p.m > 1e-6] for bs in window]
    kappas = [min(a) for a in asym if a]

    # epsilon_1 per the sup_{J' <= J} D_{J'}(J delta_d) recipe; at zero slack
    # (ideal d = infinity) the floor leaves only grid resolution in epsilon_1.
    # Python's max skips a nan D_J (a coupling without minima); np.max would not
    theta = max(J_hi * delta_d, 1e-12)
    eps1 = max(0.0, *compute_DJ(model, np.linspace(1e-3, J_hi, int(DJ_J_grid)), theta,
                                grid=m_grid).tolist())

    # K: max |dPhi/dm| (full scale) within eps1-balls around the minima at J_MF
    ms, phis = _phi_grid(model, tp.J_MF, m_grid)
    dphi = np.gradient(phis, ms)
    mins = [p.m for p in at_mf.stable(nonnegative=True)]
    near = np.zeros_like(ms, dtype=bool)
    for m0 in mins:
        near |= np.abs(ms - m0) <= max(eps1, 1e-3)
    K = float(np.abs(dphi[near]).max()) if near.any() else float(np.abs(dphi).max())

    varkappa = min(kappas) if kappas else 0.0
    if varkappa > 0:
        eps2 = (2.0 * eps1 * K + J_hi * delta_d) / (0.5 * varkappa ** 2)
    else:
        eps2 = float("inf")

    argmin_J = min(margins, key=margins.get)
    min_margin = margins[argmin_J]
    return Certificate(
        model=model, d=d, J_window=(J_lo, J_hi), I_d=float(I_d),
        delta_d=delta_d, J_MF=tp.J_MF, min_margin=min_margin,
        margins=margins, argmin_J=argmin_J,
        barrier_min=float(min(barriers)), epsilon1=float(eps1),
        epsilon2=float(eps2), forbidden_bands=forbidden,
        passed=bool(min_margin > 0.0),
        notes=("varkappa/K instantiated from dense grids; scalar on-axis "
               "reduction; numerical certificate, not interval arithmetic"),
    )
