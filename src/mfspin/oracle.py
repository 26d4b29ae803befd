"""Brute-force minimizers over the full (unreduced) variational domains.

These oracles gate the correctness of the one-component reductions used
everywhere else: they search gridded versions of the full Potts simplex, the
cubic (occupation, bias) domain and the nematic dual (traceless diagonal
field) space, with no symmetry assumptions beyond the domains themselves.
They run at coarse resolution by design; tolerances scale like 1/resolution.

Deterministic by construction: grids are enumerated in lexicographic order,
exact ties in the minimum resolve to the first (lexicographically smallest)
grid index, and the nematic G(diag h) = log E exp(sum_a h_a v_a^2), the
Bingham normalising constant, is summed by one fixed rule at every N and h
(a trapezoid rule on a Laplace-inversion contour), so outputs are
reproducible bit-for-bit for fixed inputs.  G sorts h before it sums, so it
is exactly permutation-invariant: the two mirror-image minimizers the dual
grid holds at ordered couplings (it is mapped onto itself by swapping h_1
and h_2) tie to the bit, and the lexicographic tie-break decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gamma
from typing import Tuple

import numpy as np

from . import neldermead
from .errors import BudgetExceeded, CouplingOverflow, NoStableRoot
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


def _first_min(blocks):
    """(block, index, value) of the least value over the (values, block) pairs
    of `blocks`, taken in order: argmin's first index within a block, and a
    later block wins only when strictly lower, so ties go to the earliest
    entry, as argmin over all the values at once would give it."""
    best = None
    for vals, block in blocks:
        i = int(np.argmin(vals))
        if best is None or vals[i] < best[2]:
            best = block, i, float(vals[i])
    return best


def _simplex_grid_min(t: np.ndarray, parts: int, resolution: int
                      ) -> Tuple[np.ndarray, float]:
    """Lexicographically first composition c of `resolution` into `parts`
    minimizing sum_k t[c_k], and that sum, added left to right (see
    docs/decisions.md: the order and the tie-break are part of the output).

    One block per first part c0 = 0..resolution, in order: the compositions
    of `resolution` into parts - 1 whose last part (the slack) is at least
    c0, with c0 taken off it, are those of resolution - c0, still in
    lexicographic order, so only one block is ever held."""
    if parts == 1:
        return np.array([resolution], dtype=np.int32), float(t[resolution])
    tails = _compositions(resolution, parts - 1)

    def blocks():
        for c0 in range(resolution + 1):
            rows = tails[tails[:, -1] >= c0]
            rows[:, -1] -= c0
            vals = t[c0] + t[rows[:, 0]]
            for k in range(1, parts - 1):
                vals += t[rows[:, k]]
            yield vals, (c0, rows)
    (c0, rows), i, val = _first_min(blocks())
    return np.concatenate([np.array([c0], dtype=np.int32), rows[i]]), val


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
    if not np.isfinite(2.0 * J):
        raise CouplingOverflow(f"J = {J}: the Ising coupling 2 J y overflows at y = 1")
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

# G's rule (docs/decisions.md): the trapezoid rule of step 1/8 on the contour
# s = 2 (1 + iu)^2 at u_k = k/8, k = 0..35, where |e^s| falls to e^-36; _C
# holds e^s s'(u) s^(-1/2), s^(-1/2) being the top entry's factor, with the
# k = 0 term halved
_U = np.arange(36) / 8.0
_S = 2.0 * (1.0 + 1j * _U) ** 2
_C = np.exp(_S) * 4j * (1.0 + 1j * _U) / np.sqrt(_S)
_C[0] /= 2.0


def _g_diag(H: np.ndarray) -> np.ndarray:
    """G(diag h) = log E[exp(sum_a h_a v_a^2)] over the unit sphere of R^N,
    for a batch of rows h.  The v_a^2 are Dirichlet(1/2, ..., 1/2), so
    E = Gamma(N/2) L^-1[prod_a (s - h_a)^(-1/2)](1), the Bingham normalising
    constant; after the shift by max h every branch point lies on (-inf, 0],
    and one fixed trapezoid rule on a parabolic Bromwich contour sums it at
    every h.  Each factor's |s - d|^(1/2) is scaled by an exact power of two
    near (1 - d)^(-1/2), so no product overflows at any N or |h|.  Each row
    is sorted first, so that G is the same to the bit under every
    permutation."""
    h = np.sort(H, axis=1)
    d = h[:, :-1, None] - h[:, -1:, None]
    e = np.frexp(1.0 - d)[1] // 2
    f = np.prod(np.sqrt(_S - d) * np.ldexp(1.0, -e), axis=1)
    return (np.log(gamma(h.shape[1] / 2.0) / (8.0 * np.pi) * (_C / f).imag.sum(axis=1))
            - np.log(2.0) * e.sum(axis=(1, 2)) + h[:, -1])


def _close_trace(hfree: np.ndarray) -> np.ndarray:
    """Rows of free entries with the trace-closing last entry appended."""
    return np.hstack([hfree, -hfree.sum(axis=1, keepdims=True)])


def nematic_dual_min(N: int, J: float, resolution: int = 120) -> OracleResult:
    """Minimize Psi_J(h) = |h|^2/(2J) - G(h) over traceless diagonal h.

    The first N-1 diagonal entries run over a box covering the on-axis
    stationary family (h_1 = J*lambda with lambda < 1, subdominant entries
    down to -J/(N-1)); the last entry closes the trace.  J must be positive:
    at J = 0 the box collapses to h = 0, where Psi is 0/0.
    """
    if J <= 0:
        raise ValueError("J must be positive")
    if resolution ** (N - 1) > _MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"dual grid would have {resolution ** (N - 1)} points")

    lo, hi = -1.3 * J / (N - 1), 1.1 * J
    # no entry of the box, the trace-closing one included, exceeds (N - 1) hi
    # in size, so N ((N - 1) hi)^2 bounds every |h|^2 the search forms
    if not np.isfinite(N * ((N - 1) * hi) * ((N - 1) * hi)):
        raise CouplingOverflow(f"J = {J}: |h|^2 overflows on the dual grid's box")
    axis = np.linspace(lo, hi, resolution)
    shape, n, chunk = (resolution,) * (N - 1), resolution ** (N - 1), 500

    def blocks():
        # the grid is the meshgrid of `axis` (ij order) with the trace closed
        # by the last entry, built one chunk of flat indices at a time
        for i in range(0, n, chunk):
            idx = np.unravel_index(np.arange(i, min(i + chunk, n)), shape)
            H = _close_trace(axis[np.stack(idx, axis=-1)])
            yield (H * H).sum(axis=1) / (2.0 * J) - _g_diag(H), H
    H, i0, grid_val = _first_min(blocks())

    def fun(hf):
        h = np.concatenate([hf, [-np.sum(hf)]])
        return float((h * h).sum() / (2.0 * J) - _g_diag(h[None, :])[0])
    hf, val = _polish(fun, H[i0, :-1], grid_val)
    return OracleResult(minimizer=np.concatenate([hf, [-np.sum(hf)]]), value=val,
                        grid_value=grid_val,
                        meta={"N": N, "J": J, "resolution": resolution})


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
    value at its global minimum m >= 0 in the same convention.  The scalar
    side comes first, so NoStableRoot, when no root m >= 0 is stable, or any
    error of the scalar value, is raised before the search runs."""
    bp = solve_branches(model, J).global_minimum()
    if bp is None:
        raise NoStableRoot(f"no stable root m >= 0 of the mean-field equation "
                           f"for {model} at J={J}")
    search, scalar = _ORACLES[model.kind]
    value = float(scalar(model, J, bp.m))
    return search(model.param, J, resolution), value
