"""Brute-force minimizers over the full (unreduced) variational domains.

These oracles gate the correctness of the one-component reductions used
everywhere else: they search gridded versions of the full Potts simplex, the
cubic (occupation, bias) domain and the nematic dual (traceless diagonal
field) space, with no symmetry assumptions beyond the domains themselves.
They run at coarse resolution by design; tolerances scale like 1/resolution.

Deterministic by construction: grids are enumerated in lexicographic order,
exact ties in the minimum resolve to the first (lexicographically smallest)
grid index, the N = 3 nematic sphere rule is a fixed product quadrature and
the N = 4 one a fixed-seed scrambled Sobol sequence, so outputs are
reproducible bit-for-bit for fixed inputs.  The nematic dual grid is mapped
onto itself by swapping h_1 and h_2, so at ordered couplings two mirror-image
minimizers tie in exact arithmetic and the rounding of G, not the
lexicographic tie-break, decides which one is reported (docs/decisions.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Tuple

import numpy as np
import warnings

from . import neldermead
from .errors import BudgetExceeded, NoStableRoot, SamplingNoise
from .models import (ModelSpec, _xlogx, ising_theta, phi_full_scale, potts_phi,
                     scalar_phi)
from .solver import solve_branches

__all__ = ["potts_fullspace_min", "cubic_fullspace_min", "nematic_dual_min",
           "check_reduction", "OracleResult"]

_MAX_GRID_POINTS = 3_000_000


@dataclass
class OracleResult:
    """Minimizer found by a brute-force grid search plus local polish."""

    minimizer: np.ndarray      # simplex point / (y, mu) stack / diagonal field
    value: float
    grid_value: float          # before polish
    meta: dict

    def as_dict(self):
        return {"minimizer": np.asarray(self.minimizer).tolist(),
                "value": self.value, "grid_value": self.grid_value,
                "meta": self.meta}


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` summing to `total`,
    in lexicographic order; shape (n, parts), int32.  Each row with `rest`
    left to place gets the children 0..rest, one column at a time."""
    lead = np.zeros((1, 0), dtype=np.int32)
    rest = np.array([total], dtype=np.int32)
    for _ in range(parts - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(len(rest)), counts)
        child = (np.arange(len(parent), dtype=np.int32)
                 - np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts))
        lead = np.column_stack([lead[parent], child])
        rest = rest[parent] - child
    return np.column_stack([lead, rest])


def _simplex_grid_min(t: np.ndarray, parts: int, resolution: int
                      ) -> Tuple[np.ndarray, float]:
    """Lexicographically first composition c of `resolution` into `parts`
    minimizing sum_k t[c_k], and that sum, added left to right (see
    docs/decisions.md: the order and the tie-break are part of the output)."""
    comps = _compositions(resolution, parts)
    vals = t[comps[:, 0]]
    for k in range(1, parts):
        vals += t[comps[:, k]]
    i0 = int(np.argmin(vals))
    return comps[i0], float(vals[i0])


def _polish(fun, z0: np.ndarray, grid_val: float) -> Tuple[np.ndarray, float]:
    """Nelder-Mead from the grid point z0, run once more from its result when
    it converges (a restart rebuilds a collapsed simplex), kept only if the
    last run converges and does not end above the grid value; else
    (z0, grid_val).  `fun` is inf outside the domain."""
    res = neldermead.minimize(fun, z0, xatol=1e-10, fatol=1e-13, maxiter=4000)
    if res.success:
        res = neldermead.minimize(fun, res.x, xatol=1e-10, fatol=1e-13, maxiter=4000)
    if res.success and res.fun <= grid_val + 1e-12:
        return res.x, float(res.fun)
    return z0, grid_val


def _simplex_point(free: np.ndarray) -> np.ndarray:
    """The occupations whose first entries are `free`: the last is 1 - their sum."""
    return np.concatenate([free, [1.0 - np.sum(free)]])


# ---------------------------------------------------------------------------
# Potts simplex
# ---------------------------------------------------------------------------

def potts_fullspace_min(q: int, J: float, resolution: int = 200) -> OracleResult:
    """Minimize sum_k(-J/2 x_k^2 + x_k log x_k) over the full q-simplex."""
    if q > 6:
        raise BudgetExceeded(f"exhaustive simplex search limited to q <= 6, got {q}")
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    if comb(resolution + q - 1, q - 1) > _MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"simplex grid would have {comb(resolution + q - 1, q - 1)} points")

    xs = np.arange(resolution + 1) / resolution
    comp, grid_val = _simplex_grid_min(-J / 2.0 * xs ** 2 + _xlogx(xs), q, resolution)

    def fun(xf):
        x = _simplex_point(xf)
        if np.any(x < 0.0):
            return np.inf
        return float(np.sum(-J / 2.0 * x ** 2 + _xlogx(x)))
    xf, val = _polish(fun, comp[:-1] / resolution, grid_val)
    return OracleResult(minimizer=_simplex_point(xf), value=val,
                        grid_value=grid_val,
                        meta={"q": q, "J": J, "resolution": resolution})


# ---------------------------------------------------------------------------
# cubic (occupations, biases)
# ---------------------------------------------------------------------------

def cubic_fullspace_min(r: int, J: float, resolution: int = 200) -> OracleResult:
    """Minimize K_J(y, mu) = sum_k (y_k log y_k + y_k Theta_{2J y_k}(mu_k)).

    The domain has no cross terms between the mu_k, so for each gridded
    occupation vector the per-component bias optimum is exact; this keeps the
    search exhaustive over the product grid without any structural ansatz.
    """
    if r > 4:
        raise BudgetExceeded(f"exhaustive cubic search limited to r <= 4, got {r}")
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    if comb(resolution + r - 1, r - 1) > _MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"occupation grid would have {comb(resolution + r - 1, r - 1)} points")
    mu_resolution = 2 * resolution + 1
    mus = np.linspace(-1.0, 1.0, mu_resolution)
    ys = np.arange(resolution + 1) / resolution
    # theta[c, j] = Theta_{2 J y_c}(mu_j)
    theta = ising_theta(2.0 * J * ys[:, None], mus)
    j_best = np.argmin(theta, axis=1)
    comp, grid_val = _simplex_grid_min(_xlogx(ys) + ys * theta.min(axis=1), r, resolution)

    def fun(z):
        y, mu = _simplex_point(z[:r - 1]), z[r - 1:]
        if np.any(y < 0.0) or np.any(np.abs(mu) > 1.0):
            return np.inf
        return float(np.sum(_xlogx(y) + y * (
            -(2.0 * J * y) / 4.0 * mu ** 2
            + _xlogx((1.0 + mu) / 2.0) + _xlogx((1.0 - mu) / 2.0))))
    z, val = _polish(
        fun, np.concatenate([comp[:-1] / resolution, mus[j_best[comp]]]), grid_val)
    y_star, mu_star = _simplex_point(z[:r - 1]), z[r - 1:]
    return OracleResult(
        minimizer=np.vstack([y_star, mu_star]), value=val, grid_value=grid_val,
        meta={"r": r, "J": J, "resolution": resolution,
              "mu_resolution": mu_resolution,
              "m_induced": (y_star * mu_star).tolist()})


# ---------------------------------------------------------------------------
# nematic dual field
# ---------------------------------------------------------------------------

def _sphere_x2_nodes(N: int, sphere_samples: int, seed: int = 20240913
                     ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(squared-coordinate nodes, weights, batch index) on the unit sphere.

    N = 3 uses a deterministic product quadrature: 48 Gauss-Legendre nodes in
    u = cos psi times 48 midpoint angles theta.  Its squared coordinates
    (s^2 cos^2 theta, s^2 sin^2 theta, u^2), s^2 = 1 - u^2, are the same under
    u <-> -u and theta <-> pi - theta, pi + theta, 2 pi - theta, so only the
    24 positive u times the 12 first-quadrant theta are built, each node
    carrying the weight of its 8 images.  Other N use a fixed-seed scrambled
    Sobol sequence mapped through the Gaussian-normalization construction.
    """
    if N == 3:
        u, wu = np.polynomial.legendre.leggauss(48)   # symmetric: u[24:] = -u[23::-1]
        u, wu = u[24:], wu[24:]
        th = (np.arange(12) + 0.5) * (2 * np.pi / 48)
        s2 = 1.0 - u ** 2
        X2 = np.column_stack([np.outer(s2, np.cos(th) ** 2).ravel(),
                              np.outer(s2, np.sin(th) ** 2).ravel(),
                              np.repeat(u ** 2, 12)])
        W = np.repeat(wu / 12.0, 12)   # 8 product-rule nodes of weight wu / 2 / 48
        return X2, W, None
    from scipy import special       # on first use: scipy.stats takes about 0.9 s
    from scipy.stats import qmc     # to import, scipy.special 0.26 s of it
    sob = qmc.Sobol(d=N, scramble=True, seed=seed)
    m = int(np.ceil(np.log2(max(sphere_samples, 64))))
    pts = sob.random_base2(m)
    g = special.ndtri(np.clip(pts, 1e-12, 1 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    X2 = g ** 2
    W = np.full(X2.shape[0], 1.0 / X2.shape[0])
    batches = np.arange(X2.shape[0]) % 8
    return X2, W, batches


def _g_diag(h: np.ndarray, X2: np.ndarray, W: np.ndarray) -> np.ndarray:
    """G(diag h) = log E[exp(sum_a h_a v_a^2)] for a batch of h rows, as
    log(exp(E - max) @ W) + max with E = h X2^T: shifting each row by its
    largest exponent keeps exp from overflowing, and the row's largest term
    is then its positive weight times exp(0) = 1, so the log is finite."""
    expo = h @ X2.T  # (n_h, n_nodes)
    top = expo.max(axis=1)
    expo -= top[:, None]
    return np.log(np.exp(expo, out=expo) @ W) + top


def nematic_dual_min(N: int, J: float, resolution: int = 120,
                     sphere_samples: int = 4096) -> OracleResult:
    """Minimize Psi_J(h) = |h|^2/(2J) - G(h) over traceless diagonal h.

    The first N-1 diagonal entries run over a box covering the on-axis
    stationary family (h_1 = J*lambda with lambda < 1, subdominant entries
    down to -J/(N-1)); the last entry closes the trace.  J must be positive:
    at J = 0 the box collapses to h = 0, where Psi is 0/0.
    """
    if J <= 0:
        raise ValueError("J must be positive")
    if N > 4:
        raise BudgetExceeded(f"dual grid search limited to N <= 4, got {N}")
    if resolution ** (N - 1) > _MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"dual grid would have {resolution ** (N - 1)} points")

    X2, W, batches = _sphere_x2_nodes(N, sphere_samples)
    lo, hi = -1.3 * J / (N - 1), 1.1 * J
    axes = [np.linspace(lo, hi, resolution)] * (N - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    hfree = np.stack([m.ravel() for m in mesh], axis=-1)
    h_all = np.hstack([hfree, -hfree.sum(axis=1, keepdims=True)])

    vals = np.empty(h_all.shape[0])
    chunk = 500
    for i in range(0, h_all.shape[0], chunk):
        H = h_all[i:i + chunk]
        vals[i:i + chunk] = (H * H).sum(axis=1) / (2.0 * J) - _g_diag(H, X2, W)
    i0 = int(np.argmin(vals))
    h0 = h_all[i0]
    grid_val = float(vals[i0])

    noise = 0.0
    if batches is not None:
        # spread of batch estimates of G at the grid minimizer
        ests = [float(_g_diag(h0[None, :], X2[batches == b],
                              np.full((batches == b).sum(), 1.0 / (batches == b).sum()))[0])
                for b in range(8)]
        noise = float(np.std(ests) / np.sqrt(8))
        cell = (hi - lo) / (resolution - 1)
        if noise > max(cell, 1e-6):
            warnings.warn(
                f"G sampling stderr {noise:.2e} exceeds grid scale {cell:.2e}",
                SamplingNoise)

    def fun(hf):
        h = np.concatenate([hf, [-np.sum(hf)]])
        return float((h * h).sum() / (2.0 * J) - _g_diag(h[None, :], X2, W)[0])
    hf, val = _polish(fun, h0[:-1], grid_val)
    return OracleResult(minimizer=np.concatenate([hf, [-np.sum(hf)]]), value=val,
                        grid_value=grid_val,
                        meta={"N": N, "J": J, "resolution": resolution,
                              "sphere_samples": int(X2.shape[0]),
                              "sampling_stderr": noise})


# ---------------------------------------------------------------------------
# one check per model: the full-space search against the scalar reduction
# ---------------------------------------------------------------------------

# per kind: the search, called as (param, J, resolution), and
# the scalar reduction's value at m in that search's own convention; each
# looks its function up by module name at call time (perfbench's tracer rebinds it)
_ORACLES = {
    "potts": (lambda q, J, res: potts_fullspace_min(q, J, res),
              lambda model, J, m: potts_phi(model.param, J, m)),
    "cubic": (lambda r, J, res: cubic_fullspace_min(r, J, res),
              lambda model, J, m: scalar_phi(model, J, m) - np.log(4.0 * model.param)),
    "nematic": (lambda N, J, res: nematic_dual_min(N, J, res),
                lambda model, J, m: phi_full_scale(model, J, m)),
}


def check_reduction(model: ModelSpec, J: float,
                    resolution: int = 200) -> Tuple[OracleResult, float]:
    """Full-space minimum of `model` at coupling J, and the scalar reduction's
    value at its global minimum m >= 0 in the same convention.  Raises
    NoStableRoot, before any search, when no root m >= 0 is stable."""
    bp = solve_branches(model, J).global_minimum()
    if bp is None:
        raise NoStableRoot(f"no stable root m >= 0 of the mean-field equation "
                           f"for {model} at J={J}")
    search, scalar = _ORACLES[model.kind]
    return (search(model.param, J, resolution),
            float(scalar(model, J, bp.m)))
