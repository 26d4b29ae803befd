"""Brute-force minimizers over the full (unreduced) variational domains.

These oracles gate the correctness of the one-component reductions used
everywhere else: they search gridded versions of the full Potts simplex, the
cubic (occupation, bias) domain and the nematic dual (traceless diagonal
field) space, with no symmetry assumptions beyond the domains themselves.
They run at coarse resolution by design; tolerances scale like 1/resolution.

The grid minima are polished in the dual, where G(h) = log sum_s e^{h.s} over
the spins s makes min_h Psi_J(h) = |h|^2/(2J) - G(h) the full-space minimum:
one damped Newton loop on Psi's exact derivatives from each basin the grid
shows (docs/decisions.md).

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

from .errors import BudgetExceeded, CouplingOverflow, NoStableRoot
from .models import ModelSpec, _xlogx, ising_theta, potts_phi, scalar_phi
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


def _grid_min(blocks):
    """The first least (value, point) over a stream of (values, point(i))
    blocks, as one argmin over all the values gives it, and the seeds: the
    least points of the blocks whose minimum is strictly below the previous
    block's and no higher than the next one's (the ends compare with inf),
    in block order.  The grid minimum's block is always one."""
    minima = []
    for vals, point in blocks:
        i = int(np.argmin(vals))
        minima.append((float(vals[i]), point(i)))
    vals = [np.inf, *(v for v, _ in minima), np.inf]
    seeds = [p for k, (v, p) in enumerate(minima) if vals[k] > v <= vals[k + 2]]
    return min(minima, key=lambda vp: vp[0]), seeds


def _simplex_blocks(t: np.ndarray, parts: int, resolution: int):
    """The sums sum_k t[c_k], added left to right, over the compositions c of
    `resolution` into `parts` in lexicographic order, in blocks by first part
    c0 = 0..resolution (docs/decisions.md: order and tie-break are output).

    The compositions with first part c0 are those of `resolution` into
    parts - 1 whose last part (the slack) is at least c0, with c0 taken off
    it, which are those of resolution - c0, still in lexicographic order, so
    only one block is ever held."""
    if parts == 1:
        yield t[[resolution]], lambda i: np.array([resolution], dtype=np.int32)
        return
    tails = _compositions(resolution, parts - 1)
    for c0 in range(resolution + 1):
        rows = tails[tails[:, -1] >= c0]
        rows[:, -1] -= c0
        vals = t[c0] + t[rows[:, 0]]
        for k in range(1, parts - 1):
            vals += t[rows[:, k]]
        yield vals, lambda i: np.concatenate([np.array([c0], dtype=np.int32), rows[i]])


def _polish(g, J: float, P: np.ndarray, seeds, report, grid):
    """Damped Newton on Psi_J(h) = |h|^2/(2J) - G(h), h = P z, from each seed
    z, with g(h) = (G, its gradient E_h[s], its Hessian Cov_h[s]).  A step is
    halved, up to 30 times, until Psi falls (a full step also when Psi stays
    and the gradient shrinks; a value that is not finite is not lower), and
    no further once z - t step rounds to z, whose Psi and gradient are z's.
    Newton stops when no step is taken, when the Hessian has no Cholesky
    factor (z is in no convex basin, as at every z when J <= 0), or after 50
    steps.  `report` maps each result to (point, value); the least value
    wins, the earliest seed on ties, if at or below the grid's + 1e-12."""
    def psi(z):
        h = P @ z
        G, mean, cov = g(h)
        return (h / J) @ h / 2.0 - G, P.T @ (h / J - mean), P.T @ (eye - cov) @ P

    def newton(z):
        f, grad, hess = psi(z)
        for _ in range(50):
            try:
                np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                break
            step = np.linalg.solve(hess, grad)
            for t in 0.5 ** np.arange(31):
                z1 = z - t * step
                if np.array_equal(z1, z):   # and so does every shorter step: none is taken
                    return report(P @ z)
                f1, grad1, hess1 = psi(z1)
                if f1 < f or t == 1.0 and f1 == f and grad1 @ grad1 < grad @ grad:
                    break
            else:
                break
            z, f, grad, hess = z1, f1, grad1, hess1
        return report(P @ z)
    with np.errstate(all="ignore"):
        eye = np.eye(P.shape[0]) / J
        best = min(map(newton, seeds), key=lambda pv: pv[1], default=grid)
    return best if best[1] <= grid[1] + 1e-12 else grid


# ---------------------------------------------------------------------------
# Potts simplex
# ---------------------------------------------------------------------------

def _potts_g(h: np.ndarray):
    """G(h) = log sum_k e^{h_k} over the spins {e_k}, shifted by max h, its
    gradient, the softmax p, and its Hessian diag(p) - p p^T."""
    e = np.exp(h - np.max(h))
    p = e / e.sum()
    return np.max(h) + np.log(e.sum()), p, np.diag(p) - np.outer(p, p)


def potts_fullspace_min(q: int, J: float, resolution: int = 200) -> OracleResult:
    """Minimize sum_k(-J/2 x_k^2 + x_k log x_k) over the full q-simplex: the
    grid x = c/resolution, then Newton in the dual from the seeds h = J x,
    reporting the objective at the softmax of the result."""
    if q > 6:
        raise BudgetExceeded(f"exhaustive simplex search limited to q <= 6, got {q}")
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    if comb(resolution + q - 1, q - 1) > _MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"simplex grid would have {comb(resolution + q - 1, q - 1)} points")

    xs = np.arange(resolution + 1) / resolution
    (grid_val, comp), seeds = _grid_min(
        _simplex_blocks(-J / 2.0 * xs ** 2 + _xlogx(xs), q, resolution))

    def report(h):
        x = _potts_g(h)[1]
        return x, float(np.sum(-J / 2.0 * x ** 2 + _xlogx(x)))
    x, val = _polish(_potts_g, J, np.eye(q), [J * (c / resolution) for c in seeds],
                     report, (comp / resolution, grid_val))
    return OracleResult(minimizer=x, value=val, grid_value=grid_val,
                        meta={"q": q, "J": J, "resolution": resolution})


# ---------------------------------------------------------------------------
# cubic (occupations, biases)
# ---------------------------------------------------------------------------

def _cubic_g(h: np.ndarray):
    """G(h) = log sum_k 2 cosh h_k over the spins {+-e_k}, its gradient and
    Hessian: the spins are Q e_j, Q = [I, -I], for the 2r Potts spins e_j,
    so these are the Potts G at Q^T h = [h, -h], Q p and Q Cov_p Q^T."""
    Q = np.hstack([np.eye(len(h)), -np.eye(len(h))])
    G, p, cov = _potts_g(Q.T @ h)
    return G, Q @ p, Q @ cov @ Q.T


def cubic_fullspace_min(r: int, J: float, resolution: int = 200) -> OracleResult:
    """Minimize K_J(y, mu) = sum_k (y_k log y_k + y_k Theta_{2J y_k}(mu_k)).

    The domain has no cross terms between the mu_k, so for each gridded
    occupation vector the per-component bias optimum is exact; this keeps the
    search exhaustive over the product grid without any structural ansatz.
    K is the entropy of the law y_k (1 +- mu_k)/2 on {+-e_k} less J |m|^2/2,
    m = y mu, so Newton in the dual runs from the seeds h = J m and reports
    K at the occupations and biases tanh h the result induces.
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
    (grid_val, comp), seeds = _grid_min(
        _simplex_blocks(_xlogx(ys) + ys * theta.min(axis=1), r, resolution))

    def report(h):
        p = _potts_g(np.concatenate([h, -h]))[1]
        y, mu = p[:r] + p[r:], np.tanh(h)
        return (np.vstack([y, mu]),
                float(np.sum(_xlogx(y) + y * ising_theta(2.0 * J * y, mu))))
    (y_star, mu_star), val = _polish(
        _cubic_g, J, np.eye(r), [J * (c / resolution * mus[j_best[c]]) for c in seeds],
        report, (np.vstack([comp / resolution, mus[j_best[comp]]]), grid_val))
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


def _g_diag(H: np.ndarray, weights: bool = False):
    """G(diag h) = log E[exp(sum_a h_a v_a^2)] over the unit sphere of R^N,
    for a batch of rows h.  The v_a^2 are Dirichlet(1/2, ..., 1/2), so
    E = Gamma(N/2) L^-1[prod_a (s - h_a)^(-1/2)](1), the Bingham normalising
    constant; after the shift by max h every branch point lies on (-inf, 0],
    and one fixed trapezoid rule on a parabolic Bromwich contour sums it at
    every h.  Each factor's |s - d|^(1/2) is scaled by an exact power of two
    near (1 - d)^(-1/2), so no product overflows at any N or |h|.  Each row
    is sorted first, so that G is the same to the bit under every
    permutation.  With `weights`, (w, G), w = _C / prod_a (s - d_a)^(1/2)
    the scaled weights of the sum, over the entries d = h - max h below 0."""
    h = np.sort(H, axis=1)
    d = h[:, :-1, None] - h[:, -1:, None]
    e = np.frexp(1.0 - d)[1] // 2
    w = _C / np.prod(np.sqrt(_S - d) * np.ldexp(1.0, -e), axis=1)
    G = (np.log(gamma(h.shape[1] / 2.0) / (8.0 * np.pi) * w.imag.sum(axis=1))
         - np.log(2.0) * e.sum(axis=(1, 2)) + h[:, -1])
    return (w, G) if weights else G


def _nematic_g(h: np.ndarray):
    """G(diag h) for one field h, its gradient E_h[v_a^2] and its Hessian,
    the covariance of the v_a^2, from _g_diag's weights: d/dh_a multiplies
    the factor (s - h_a)^(-1/2) by r_a = 1/(2 (s - h_a)) and d^2/dh_a^2 by
    3 r_a^2, so sum w r_a / sum w = dE/dh_a / E, and sum w r_a r_b / sum w,
    three times it for a = b, is d^2E/dh_a dh_b / E (h_a shifted by max h,
    as in the weights)."""
    (w,), (G,) = _g_diag(h[None, :], weights=True)
    r = 0.5 / (_S - (h - np.max(h))[:, None])
    E, wr = w.imag.sum(), w * r
    grad = wr.imag.sum(axis=1) / E
    second = (wr[:, None, :] * r[None, :, :]).imag.sum(axis=2) / E
    second[np.diag_indices(len(h))] *= 3.0
    return G, grad, second - np.outer(grad, grad)


def nematic_dual_min(N: int, J: float, resolution: int = 120) -> OracleResult:
    """Minimize Psi_J(h) = |h|^2/(2J) - G(h) over traceless diagonal h.

    The first N-1 diagonal entries run over a box covering the on-axis
    stationary family (h_1 = J*lambda with lambda < 1, subdominant entries
    down to -J/(N-1)); the last entry closes the trace, h = P z with
    P = [I; -1^T].  J must be positive: at J = 0 the box collapses to h = 0,
    where Psi is 0/0.
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
    shape, row, chunk = (resolution,) * (N - 1), resolution ** (N - 2), 500

    def fields(start, stop):
        # the grid is the meshgrid of `axis` (ij order) with the trace closed
        # by the last entry; these are its points at the flat indices start..stop-1
        free = axis[np.stack(np.unravel_index(np.arange(start, stop), shape), axis=-1)]
        return np.hstack([free, -free.sum(axis=1, keepdims=True)])

    def rows():
        # the blocks are the grid's rows (first entry fixed), their values
        # formed one chunk of flat indices at a time
        for start in range(0, resolution ** (N - 1), row):
            vals = []
            for i in range(start, start + row, chunk):
                H = fields(i, min(i + chunk, start + row))
                vals.append((H * H).sum(axis=1) / (2.0 * J) - _g_diag(H))
            yield np.concatenate(vals), lambda i: fields(start + i, start + i + 1)[0]
    (grid_val, h0), seeds = _grid_min(rows())

    def report(h):
        return h, float((h * h).sum() / (2.0 * J) - _g_diag(h[None, :])[0])
    h, val = _polish(_nematic_g, J, np.vstack([np.eye(N - 1), -np.ones(N - 1)]),
                     [s[:-1] for s in seeds], report, (h0, grid_val))
    return OracleResult(minimizer=h, value=val, grid_value=grid_val,
                        meta={"N": N, "J": J, "resolution": resolution})


# ---------------------------------------------------------------------------
# one check per model: the full-space search against the scalar reduction
# ---------------------------------------------------------------------------

# per kind: the search, called as (param, J, resolution), and
# the scalar reduction's value at the branch point bp in that search's own
# convention; each looks its function up by module name at call time
# (perfbench's tracer rebinds it).  The nematic value is the dual form
# |omega|^2 ((J/2) m^2 - g(J m)) the solver already formed, which needs no
# entropy at m and so stays finite where m rounds to the interval's end.
_ORACLES = {
    "potts": (lambda q, J, res: potts_fullspace_min(q, J, res),
              lambda model, J, bp: potts_phi(model.param, J, bp.m)),
    "cubic": (lambda r, J, res: cubic_fullspace_min(r, J, res),
              lambda model, J, bp: scalar_phi(model, J, bp.m) - np.log(4.0 * model.param)),
    "nematic": (lambda N, J, res: nematic_dual_min(N, J, res),
                lambda model, J, bp: model.omega_norm_sq * bp.phi),
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
    value = float(scalar(model, J, bp))
    return search(model.param, J, resolution), value
