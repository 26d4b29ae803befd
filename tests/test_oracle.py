"""Full-space brute-force oracles vs the scalar reductions."""

import itertools
import tracemalloc

import numpy as np
import pytest

from mfspin import models as M
from mfspin import oracle as O
from mfspin import solver as S
from mfspin.errors import BudgetExceeded, CouplingOverflow
from mfspin.models import _xlogx

J_MF_Q3 = 4 * np.log(2)


def scalar_min(model, J):
    bp = S.solve_branches(model, J, 600).global_minimum()
    return bp.m


def traced_peak_mib(fn, *args):
    """Largest traced allocation total while fn(*args) runs, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# composition-grid search
# ---------------------------------------------------------------------------

def lex_compositions(total, parts):
    """Compositions of total into parts, lexicographic, by plain enumeration."""
    return [c + (total - sum(c),)
            for c in itertools.product(range(total + 1), repeat=parts - 1)
            if sum(c) <= total]


def potts_table(J, resolution):
    xs = np.arange(resolution + 1) / resolution
    return -J / 2.0 * xs ** 2 + _xlogx(xs)


def cubic_table(J, resolution):
    ys = np.arange(resolution + 1) / resolution
    mus = np.linspace(-1.0, 1.0, 2 * resolution + 1)
    return _xlogx(ys) + ys * M.ising_theta(2.0 * J * ys[:, None], mus).min(axis=1)


@pytest.mark.parametrize("parts,resolution",
                         [(1, 9), (2, 30), (3, 20), (4, 12), (5, 9), (6, 7)])
def test_compositions_match_plain_enumeration(parts, resolution):
    comps = O._compositions(resolution, parts)
    assert comps.dtype == np.int32
    assert comps.tolist() == [list(c) for c in lex_compositions(resolution, parts)]


@pytest.mark.parametrize("table,J,parts,resolution,tied", [
    (potts_table, 2.0, 1, 9, False), (potts_table, 2.0, 2, 30, False),
    (potts_table, 2.0, 3, 10, True), (potts_table, 4.0, 3, 20, False),
    (potts_table, 2.0, 4, 12, False), (potts_table, 3.0, 5, 9, False),
    (potts_table, 3.0, 6, 7, False), (cubic_table, 1.0, 4, 10, True),
    (cubic_table, 5.0, 3, 20, False), (cubic_table, 1.0, 2, 15, False)])
def test_simplex_grid_min_matches_plain_enumeration(table, J, parts, resolution, tied):
    # Potts q=3 below J_MF and cubic r=4 at J=1 have exactly tied permutations
    t = table(J, resolution)
    values = []
    for c in lex_compositions(resolution, parts):
        v = float(t[c[0]])
        for k in c[1:]:
            v = v + float(t[k])
        values.append((v, c))
    best = min(values)[0]
    first = next(c for v, c in values if v == best)
    comp, value = O._simplex_grid_min(t, parts, resolution)
    assert tuple(comp.tolist()) == first and value == best
    if tied:
        assert sum(v == best for v, _ in values) > 1


# ---------------------------------------------------------------------------
# Potts
# ---------------------------------------------------------------------------

def test_potts_subcritical_uniform():
    res = O.potts_fullspace_min(3, 2.0, 200)
    assert np.allclose(res.minimizer, 1 / 3, atol=1e-6)


def test_potts_supercritical_shape_and_value():
    res = O.potts_fullspace_min(3, 3.0, 200)
    x = np.sort(res.minimizer)[::-1]
    # one large component, the rest equal (Potts minimizer structure)
    assert x[1] == pytest.approx(x[2], abs=1e-6)
    m_plus = scalar_min(M.potts(3), 3.0)
    assert x[0] == pytest.approx(1 / 3 + m_plus, abs=1e-3)
    assert res.value == pytest.approx(M.potts_phi(3, 3.0, m_plus), abs=1e-3)


def test_potts_asymmetric_minimizer_field_inequality():
    # J x_1 > 1 > J x_2 at any asymmetric local minimum
    for J in (2.9, 3.3):
        res = O.potts_fullspace_min(3, J, 150)
        x = np.sort(res.minimizer)[::-1]
        if x[0] - x[1] > 1e-3:
            assert J * x[0] > 1.0 > J * x[1]


@pytest.mark.parametrize("J", [0.5, 1.8, J_MF_Q3, 3.6, 5.2])
def test_potts_reduction_valid_over_couplings(J):
    res = O.potts_fullspace_min(3, J, 200)
    m_plus = scalar_min(M.potts(3), J)
    assert res.value == pytest.approx(M.potts_phi(3, J, m_plus), abs=1e-2)
    x = np.sort(res.minimizer)[::-1]
    assert np.allclose(x[1:], x[1:].mean(), atol=2e-3)


def test_potts_budget_guards():
    with pytest.raises(BudgetExceeded):
        O.potts_fullspace_min(7, 2.0, 100)
    with pytest.raises(BudgetExceeded):
        O.potts_fullspace_min(6, 2.0, 200)
    with pytest.raises(ValueError):
        O.potts_fullspace_min(3, 2.0, 10)


def test_potts_oracle_deterministic():
    a = O.potts_fullspace_min(3, 2.9, 100)
    b = O.potts_fullspace_min(3, 2.9, 100)
    assert np.array_equal(a.minimizer, b.minimizer) and a.value == b.value


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------

def test_cubic_subcritical_uniform_unbiased():
    res = O.cubic_fullspace_min(4, 1.0, 80)
    y, mu = res.minimizer
    assert np.allclose(y, 0.25, atol=1e-6)
    assert np.allclose(mu, 0.0, atol=1e-6)


def test_cubic_supercritical_one_dominant_component():
    res = O.cubic_fullspace_min(4, 12.0, 80)
    y, mu = res.minimizer
    k = int(np.argmax(y))
    others = [i for i in range(4) if i != k]
    assert abs(mu[k]) > 0.5
    assert np.allclose(mu[others], 0.0, atol=5e-3)
    m_ind = np.asarray(res.meta["m_induced"])
    m_plus = scalar_min(M.cubic(4), 12.0)
    assert np.max(np.abs(m_ind)) == pytest.approx(m_plus, abs=2e-2)


def test_cubic_dominant_occupation_implies_bias():
    res = O.cubic_fullspace_min(4, 5.0, 80)
    y, mu = res.minimizer
    order = np.argsort(y)[::-1]
    if y[order[0]] - y[order[1]] > 1e-3:
        assert abs(mu[order[0]]) > 1e-3


@pytest.mark.parametrize("J", [1.0, 3.0, 3.7852, 5.5, 7.5])
def test_cubic_reduction_valid_over_couplings(J):
    r = 4
    res = O.cubic_fullspace_min(r, J, 80)
    m_plus = scalar_min(M.cubic(r), J)
    scal = M.scalar_phi(M.cubic(r), J, m_plus) - np.log(4 * r)
    assert res.value == pytest.approx(scal, abs=1e-2)
    y, mu = res.minimizer
    ys = np.sort(y)
    assert np.allclose(ys[:-1], ys[:-1].mean(), atol=5e-3)


@pytest.mark.parametrize("model,J", [(M.potts(3), 3.6), (M.potts(3), 5.2),
                                     (M.potts(3), 12.0), (M.cubic(4), 5.5),
                                     (M.cubic(4), 7.5)])
def test_polish_reaches_the_scalar_reduction(model, J):
    # in the ordered phase the polish ends on the reduced minimum to rounding,
    # whatever the grid's cell: Nelder-Mead restarted once from its result.
    # At Potts J = 12 the grid minimizer has an occupation 0, and the polish
    # must stay on the simplex from the edge (its objective is inf outside)
    res, scalar = O.check_reduction(model, J, 200)
    assert abs(res.value - scalar) <= 1e-12


def test_cubic_budget_guard():
    with pytest.raises(BudgetExceeded):
        O.cubic_fullspace_min(5, 2.0, 50)


def test_cubic_grid_search_holds_one_block():
    # r = 4 at resolution 200 searches C(203, 3) = 1 373 701 compositions;
    # holding them all, with their gathered sums, peaked at 58 MiB
    assert traced_peak_mib(O.cubic_fullspace_min, 4, 3.7852, 200) < 16.0


def test_cubic_coupling_overflow_is_typed():
    # 2J = inf would make Theta_{2Jy}(0) = inf * 0 = nan
    with pytest.raises(CouplingOverflow):
        O.cubic_fullspace_min(4, 1e308, 20)


# ---------------------------------------------------------------------------
# nematic sphere rules and G
# ---------------------------------------------------------------------------

def product_rule_x2_nodes():
    """The unfolded N = 3 rule: all 48 x 48 Gauss-Legendre u by midpoint theta
    nodes, each of weight w_u / 2 / 48."""
    u, wu = np.polynomial.legendre.leggauss(48)
    th = (np.arange(48) + 0.5) * (2 * np.pi / 48)
    U, TH = np.meshgrid(u, th, indexing="ij")
    s = np.sqrt(1 - U ** 2)
    X2 = np.stack([(s * np.cos(TH)) ** 2, (s * np.sin(TH)) ** 2, U ** 2],
                  axis=-1).reshape(-1, 3)
    return X2, (np.outer(wu, np.full(48, 1.0 / 48)) / 2.0).reshape(-1)


def traceless_fields(rng, N, radii):
    """Random traceless diagonal fields h in R^N, one of norm r per r in radii."""
    h = rng.standard_normal((len(radii), N))
    h -= h.mean(axis=1, keepdims=True)
    return h * (radii / np.linalg.norm(h, axis=1))[:, None]


def test_folded_sphere_rule_weights_sum_to_one():
    X2, W, batches = O._sphere_x2_nodes(3, 4096)
    assert X2.shape == (288, 3) and batches is None
    assert abs(W.sum() - 1.0) <= 4 * np.spacing(1.0)
    assert np.allclose(X2.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_folded_sphere_rule_matches_product_rule():
    from scipy import special
    X2, W, _ = O._sphere_x2_nodes(3, 4096)
    X2_ref, W_ref = product_rule_x2_nodes()
    rng = np.random.default_rng(1)
    h = traceless_fields(rng, 3, rng.uniform(0, 100, 1000))
    ref = special.logsumexp(h @ X2_ref.T, axis=1, b=W_ref[None, :])
    assert np.max(np.abs(O._g_diag(h, X2, W) - ref)) <= 1e-13


def test_folded_sphere_rule_on_axis_is_the_scalar_g():
    # G(h omega) / |omega|^2 with omega = diag(1, -1/2, -1/2) is the scalar g
    X2, W, _ = O._sphere_x2_nodes(3, 4096)
    h = np.linspace(-10.0, 10.0, 401)
    G = O._g_diag(h[:, None] * np.array([1.0, -0.5, -0.5]), X2, W) / 1.5
    assert np.max(np.abs(G - M.nematic_g(3, h))) <= 1e-12


def test_folded_sphere_rule_is_symmetric_in_h1_h2():
    # swapping h_1 and h_2 maps the dual grid onto itself; G moves by rounding only
    X2, W, _ = O._sphere_x2_nodes(3, 4096)
    rng = np.random.default_rng(3)
    h = traceless_fields(rng, 3, rng.uniform(0, 10, 1000))
    assert np.max(np.abs(O._g_diag(h[:, [1, 0, 2]], X2, W) - O._g_diag(h, X2, W))) <= 1e-14


def test_g_diag_matches_logsumexp_on_sobol_nodes():
    from scipy import special
    X2, W, _ = O._sphere_x2_nodes(4, 2048)
    # up to |h| = 1e3 the largest exponent passes exp's overflow at 709.8
    rng = np.random.default_rng(5)
    h = traceless_fields(rng, 4, 10.0 ** rng.uniform(0, 3, 1000))
    assert np.max(h @ X2.T) > 710.0
    G = O._g_diag(h, X2, W)
    assert np.all(np.isfinite(G))
    np.testing.assert_allclose(
        G, special.logsumexp(h @ X2.T, axis=1, b=W[None, :]), rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# nematic dual
# ---------------------------------------------------------------------------

def test_nematic_small_J_zero_field():
    res = O.nematic_dual_min(3, 2.0, resolution=80)
    assert np.allclose(res.minimizer, 0.0, atol=0.1)
    assert res.value == pytest.approx(0.0, abs=1e-3)


def test_nematic_large_J_two_equal_small_eigenvalues():
    res = O.nematic_dual_min(3, 30.0, resolution=100)
    h = np.sort(res.minimizer)
    assert h[0] == pytest.approx(h[1], abs=1e-4)
    assert h[2] > 0 > h[0]


def test_nematic_dual_value_matches_on_axis_stationary():
    J = 30.0
    res = O.nematic_dual_min(3, J, resolution=100)
    model = M.nematic(3)
    lam = scalar_min(model, J)
    # Psi at the stationary point equals the full-scale free energy
    assert res.value == pytest.approx(M.phi_full_scale(model, J, lam), abs=5e-3)
    # and the minimizer is (a permutation of) J * lam * omega
    assert np.max(res.minimizer) == pytest.approx(J * lam, abs=0.05)


@pytest.mark.parametrize("J", [2.0, 6.0, 6.8122, 9.0, 13.0])
def test_nematic_reduction_valid_over_couplings(J):
    model = M.nematic(3)
    res = O.nematic_dual_min(3, J, resolution=120)
    lam = scalar_min(model, J)
    assert res.value == pytest.approx(M.phi_full_scale(model, J, lam), abs=1e-2)


def test_nematic_n4_sobol_path_runs():
    res = O.nematic_dual_min(4, 4.0, resolution=40, sphere_samples=2048)
    assert res.meta["sphere_samples"] >= 2048
    assert np.allclose(res.minimizer, 0.0, atol=0.3)
    # determinism of the fixed-seed low-discrepancy sampling
    res2 = O.nematic_dual_min(4, 4.0, resolution=40, sphere_samples=2048)
    assert np.array_equal(res.minimizer, res2.minimizer)
    assert res.value == res2.value


def whole_dual_grid_min(N, J, resolution):
    """The grid minimizer and value of nematic_dual_min's search, from the
    whole grid at once, in the same 500-row chunks."""
    X2, W, _ = O._sphere_x2_nodes(N, 4096)
    axes = [np.linspace(-1.3 * J / (N - 1), 1.1 * J, resolution)] * (N - 1)
    hfree = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    h_all = np.hstack([hfree, -hfree.sum(axis=1, keepdims=True)])
    vals = np.concatenate([
        (H * H).sum(axis=1) / (2.0 * J) - O._g_diag(H, X2, W)
        for H in (h_all[i:i + 500] for i in range(0, len(h_all), 500))])
    i0 = int(np.argmin(vals))
    return h_all[i0], vals[i0], int(np.sum(vals == vals[i0]))


@pytest.mark.parametrize("N,J,resolution,tied", [
    (3, 6.8122, 61, False), (3, 6.8122, 40, True), (3, 20.0, 60, True),
    (4, 9.5, 11, False)])
def test_dual_grid_chunks_walk_the_whole_grid(monkeypatch, N, J, resolution, tied):
    # two grid points tie exactly at J = 6.8122, resolution 40 (flat indices
    # 575 and 614, one chunk) and at J = 20, resolution 60 (762 and 2532, two
    # chunks); without the polish the minimizer is the grid point itself
    monkeypatch.setattr(O, "_polish", lambda fun, z0, grid_val: (z0, grid_val))
    res = O.nematic_dual_min(N, J, resolution)
    h0, grid_val, ties = whole_dual_grid_min(N, J, resolution)
    assert res.grid_value == grid_val == res.value
    assert res.minimizer[:-1].tolist() == h0[:-1].tolist()
    assert (ties > 1) == tied


def test_dual_grid_search_holds_one_chunk():
    # 160 000 grid points; the whole grid and its values peaked at 11 MiB
    assert traced_peak_mib(O.nematic_dual_min, 3, 6.8122, 400) < 4.0


def test_nematic_budget_guard():
    with pytest.raises(BudgetExceeded):
        O.nematic_dual_min(5, 3.0, resolution=40)
    with pytest.raises(BudgetExceeded):
        O.nematic_dual_min(4, 3.0, resolution=400)


@pytest.mark.parametrize("N", [3, 4])
def test_nematic_zero_coupling_is_rejected(N):
    # at J = 0 the dual box is the single point h = 0, where Psi is 0/0
    with pytest.raises(ValueError):
        O.nematic_dual_min(N, 0.0, resolution=20)
