"""Full-space brute-force oracles vs the scalar reductions."""

import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from mfspin import models as M
from mfspin import oracle as O
from mfspin import solver as S
from mfspin.errors import BudgetExceeded, CouplingOverflow, NoStableRoot
from mfspin.models import _xlogx

J_MF_Q3 = 4 * np.log(2)


def scalar_min(model, J):
    bp = S.solve_branches(model, J).global_minimum()
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
    (value, comp), _ = O._grid_min(O._simplex_blocks(t, parts, resolution))
    assert tuple(comp.tolist()) == first and value == best
    if tied:
        assert sum(v == best for v, _ in values) > 1
    # and each block's first least point, the polish seeds' source, is the
    # plain enumeration's for that first part (a block's point is read
    # before the next block is drawn, as _grid_min reads it)
    blocks = 0
    for vals, point in O._simplex_blocks(t, parts, resolution):
        i = int(np.argmin(vals))
        c = tuple(point(i).tolist())
        block = [(v, cc) for v, cc in values if cc[0] == c[0]]
        assert vals.tolist() == [v for v, _ in block]
        assert (float(vals[i]), c) == min(block, key=lambda vc: vc[0])
        blocks += 1
    assert blocks == (resolution + 1 if parts > 1 else 1)


def test_grid_min_seeds_are_the_blocks_below_their_neighbours():
    # a seed is strictly below the previous block and no higher than the
    # next, the ends comparing with inf; the grid minimum is the first least
    def blocks(mins):
        return [(np.array([9.0, v]), lambda i, k=k: (k, i)) for k, v in enumerate(mins)]
    (value, point), seeds = O._grid_min(blocks([3.0, 1.0, 1.0, 2.0, 0.0, 5.0, 0.0]))
    assert (value, point) == (0.0, (4, 1))
    assert seeds == [(1, 1), (4, 1), (6, 1)]
    assert O._grid_min(blocks([2.0, 2.0])) == ((2.0, (0, 1)), [(0, 1)])


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


def test_potts_grid_search_at_the_budget_edge_holds_one_block():
    # q = 6 at resolution 48 searches C(53, 5) = 2 869 685 compositions, the
    # most the budget allows, from 270 725 tails; building that table peaks
    # near 20 MiB, and compressing every gathered column of it at once for
    # each block peaked at 37 MiB
    assert math.comb(53, 5) <= O._MAX_GRID_POINTS < math.comb(54, 5)
    assert traced_peak_mib(O.potts_fullspace_min, 6, 3.6, 48) < 24.0


@pytest.mark.parametrize("J", [np.nan, np.inf, -np.inf])
def test_potts_nonfinite_coupling_is_typed(J):
    # as the cubic and nematic searches do; the grid gave value nan and a
    # RuntimeWarning
    with pytest.raises(CouplingOverflow):
        O.potts_fullspace_min(3, J, 20)


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
                                     (M.cubic(4), 7.5), (M.potts(3), J_MF_Q3),
                                     (M.cubic(4), 3.7852), (M.nematic(3), 6.8122)])
def test_polish_reaches_the_scalar_reduction(model, J):
    # the polish ends on the reduced minimum to rounding, whatever the grid's
    # cell: Newton in the dual from each basin's seed.  At Potts J = 12 the
    # grid minimizer has an occupation 0; at cubic 3.7852 and nematic 6.8122
    # the grid's least point lies in the disordered basin, an exactly
    # stationary point 4.3e-7 and 7.1e-7 above the ordered minimum
    res, scalar = O.check_reduction(model, J, 200)
    assert abs(res.value - scalar) <= 1e-12


def test_potts_fixture_minimizer_is_uniform_to_the_ulp():
    # the oracle_potts3.json input; a simplex polish left it 7.2e-9 off
    res = O.potts_fullspace_min(3, 2.7725887, 200)
    assert np.max(np.abs(res.minimizer - 1.0 / 3.0)) <= 1e-15


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
# nematic G: the Bingham normalising constant by one Laplace contour
# ---------------------------------------------------------------------------

def traceless_fields(rng, N, radii):
    """Random traceless diagonal fields h in R^N, one of norm r per r in radii."""
    h = rng.standard_normal((len(radii), N))
    h -= h.mean(axis=1, keepdims=True)
    return h * (radii / np.linalg.norm(h, axis=1))[:, None]


def bingham_g(h):
    """G(diag h) to 20 digits by mpmath, from another 1-D reduction than the
    oracle's: for N = 3 the largest entry on the axis u = |v_3|, for N = 4
    t = v_1^2 + v_3^2 with the sorted entries paired (h_1, h_3), (h_2, h_4),
    each integrand's sharp ends split off at 2^-20, 2^-12 and 2^-6."""
    with mpmath.workdps(20):
        h = sorted(mpmath.mpf(float(v)) for v in h)
        top = h[-1]
        ends = [mpmath.mpf(2) ** -k for k in (20, 12, 6)]
        points = [0, *ends, *(1 - e for e in reversed(ends)), 1]
        i0 = lambda z: mpmath.besseli(0, z)
        if len(h) == 3:
            a, b = (h[0] + h[1]) / 2, (h[1] - h[0]) / 2
            f = lambda u: (mpmath.exp(h[2] * u * u + a * (1 - u * u) - top)
                           * i0(b * (1 - u * u)))
        else:
            a1, b1 = (h[0] + h[2]) / 2, (h[2] - h[0]) / 2
            a2, b2 = (h[1] + h[3]) / 2, (h[3] - h[1]) / 2
            f = lambda t: (mpmath.exp(a1 * t + a2 * (1 - t) - top)
                           * i0(b1 * t) * i0(b2 * (1 - t)))
        return float(mpmath.log(mpmath.quad(f, points)) + top)


@pytest.mark.parametrize("N, rtol", [(3, 1e-14), (4, 1e-13)])
def test_g_diag_matches_mpmath(N, rtol):
    # |h| from 1 to 1000, and the two uniaxial fields of norm 1000, whose
    # largest entries (816 and 866) pass exp's overflow at 709.8
    rng = np.random.default_rng(5)
    axis = np.append(np.full(N - 1, -1.0 / (N - 1)), 1.0)
    h = np.vstack([traceless_fields(rng, N, 10.0 ** rng.uniform(0, 3, 12)),
                   1000.0 * np.array([axis, -axis]) / np.linalg.norm(axis)])
    assert np.max(h) > 710.0
    G = O._g_diag(h)
    ref = np.array([bingham_g(v) for v in h])
    np.testing.assert_allclose(G, ref, rtol=rtol, atol=0)
    # and within 1e-13 up to |h| = 100, as the folded N = 3 sphere rule was
    # against the product rule it folded
    assert np.max(np.abs(G - ref)[np.linalg.norm(h, axis=1) <= 100.0]) <= 1e-13


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_g_diag_at_huge_fields_is_the_leading_term(N):
    # with every d_a = h_a - max h below -1e17, log E is
    # log(Gamma(N/2)/sqrt(pi)) - sum_a log|d_a|/2 to far below an ulp, up to
    # the largest |d| the dual box holds at its CouplingOverflow edge; the
    # top entry is 0, since G(h + c) = G(h) + c would hide log E behind c
    edge = N / (N - 1) * np.sqrt(np.finfo(float).max / N)
    rng = np.random.default_rng(11)
    d = -10.0 ** rng.uniform(17.0, np.log10(edge), (40, N - 1))
    h = np.vstack([np.hstack([d, np.zeros((40, 1))]),
                   np.append(np.full(N - 1, -edge), 0.0)])
    with mpmath.workdps(30):
        lead = [float(mpmath.loggamma(mpmath.mpf(N) / 2) - mpmath.log(mpmath.pi) / 2
                      - sum(mpmath.log(-mpmath.mpf(float(x))) for x in row[:-1]) / 2)
                for row in h]
    np.testing.assert_allclose(O._g_diag(h), lead, rtol=1e-15, atol=0)


def product_g_diag(H, weights=False):
    """_g_diag as one product over every row's own factors, each formed
    where it is used, the reference that forming one factor per distinct
    gap must keep to the bit."""
    h = np.sort(H, axis=1)
    d = h[:, :-1, None] - h[:, -1:, None]
    e = np.frexp(1.0 - d)[1] // 2
    w = O._C / np.prod(np.sqrt(O._S - d) * np.ldexp(1.0, -e), axis=1)
    G = (np.log(math.gamma(h.shape[1] / 2.0) / (8.0 * np.pi) * w.imag.sum(axis=1))
         - np.log(2.0) * e.sum(axis=(1, 2)) + h[:, -1])
    return (w, G) if weights else G


def dual_grid_batch(N, J, resolution, start, stop):
    """Rows start..stop-1 of nematic_dual_min's grid, in its flat order."""
    axis = np.linspace(-1.3 * J / (N - 1), 1.1 * J, resolution)
    idx = np.stack(np.unravel_index(np.arange(start, stop), (resolution,) * (N - 1)),
                   axis=-1)
    free = axis[idx]
    return np.hstack([free, -free.sum(axis=1, keepdims=True)])


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_g_diag_one_factor_per_gap_keeps_the_bits(N):
    # dual-grid batches, where gaps repeat heavily; rows with tied entries
    # (gaps of 0 below the top and repeated gaps within a row); zero rows;
    # and random fields up to |h| = 1e17
    rng = np.random.default_rng(N)
    resolution = {3: 200, 4: 50}.get(N, 6)
    grid = dual_grid_batch(N, 6.8122, resolution, 0, min(3000, resolution ** (N - 1)))
    tied = np.round(rng.standard_normal((300, N)) * 3.0)
    tied[::3, 1:] = tied[::3, :1]
    big = rng.standard_normal((300, N)) * 10.0 ** rng.uniform(-3, 17, (300, 1))
    for H in (grid, tied, np.zeros((5, N)), big, np.vstack([grid[:100], tied, big])):
        assert len(np.unique(H)) < H.size or H is big
        assert np.array_equal(O._g_diag(H), product_g_diag(H))
        (w, G), (w0, G0) = O._g_diag(H, weights=True), product_g_diag(H, weights=True)
        assert np.array_equal(w, w0) and np.array_equal(G, G0)
    for h in np.vstack([grid[:20], tied[:20], big[:20]]):
        assert np.array_equal(O._g_diag(h[None, :], weights=True)[0],
                              product_g_diag(h[None, :], weights=True)[0])


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_g_diag_at_zero_field_is_zero(N):
    assert abs(O._g_diag(np.zeros((1, N)))[0]) <= 1e-15


@pytest.mark.parametrize("N", [3, 4, 5])
def test_g_diag_on_axis_is_the_scalar_g(N):
    # G(h omega) / |omega|^2 with omega = diag(-1/(N-1), ..., 1) is the scalar g
    omega = np.append(np.full(N - 1, -1.0 / (N - 1)), 1.0)
    h = np.linspace(-10.0, 10.0, 401)
    G = O._g_diag(h[:, None] * omega) / (omega @ omega)
    assert np.max(np.abs(G - M.nematic_g(N, h))) <= 1e-12


@pytest.mark.parametrize("N", [3, 4, 5])
def test_g_diag_is_permutation_invariant_to_the_bit(N):
    # swapping h_1 and h_2 maps the dual grid onto itself, so mirror-image
    # grid points tie exactly and the lexicographic tie-break decides
    rng = np.random.default_rng(3)
    h = traceless_fields(rng, N, rng.uniform(0, 100, 200))
    G = O._g_diag(h)
    for perm in itertools.permutations(range(N)):
        assert O._g_diag(h[:, perm]).tolist() == G.tolist()


# ---------------------------------------------------------------------------
# the dual's derivative layer: G, its gradient E_h[s] and Hessian Cov_h[s]
# ---------------------------------------------------------------------------

DUAL_G = ([(O._potts_g, q) for q in range(3, 7)] + [(O._cubic_g, r) for r in range(1, 5)]
          + [(O._nematic_g, N) for N in range(3, 7)])
DUAL_IDS = ([f"potts{q}" for q in range(3, 7)] + [f"cubic{r}" for r in range(1, 5)]
            + [f"nematic{N}" for N in range(3, 7)])


def dual_fields(n):
    """Random fields of norm 0.1 to 30, and h = 0."""
    rng = np.random.default_rng(7)
    h = rng.standard_normal((12, n))
    h *= (10.0 ** rng.uniform(-1, np.log10(30.0), 12) / np.linalg.norm(h, axis=1))[:, None]
    return np.vstack([h, np.zeros((1, n))])


@pytest.mark.parametrize("g,n", DUAL_G, ids=DUAL_IDS)
def test_dual_derivatives_match_central_differences(g, n):
    for h in dual_fields(n):
        G, mean, cov = g(h)
        eps = 1e-5 * max(1.0, np.abs(h).max())
        steps = [(g(h + eps * e), g(h - eps * e)) for e in np.eye(n)]
        np.testing.assert_allclose(mean, [(p[0] - m[0]) / (2 * eps) for p, m in steps],
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(cov, [(p[1] - m[1]) / (2 * eps) for p, m in steps],
                                   rtol=0, atol=1e-6)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_potts_and_cubic_g_are_the_log_partition_functions(r):
    for h in dual_fields(r):
        assert O._potts_g(h)[0] == pytest.approx(np.log(np.exp(h).sum()), rel=1e-15)
        assert O._cubic_g(h)[0] == pytest.approx(np.log(2.0 * np.cosh(h).sum()), rel=1e-15)


@pytest.mark.parametrize("g,n", DUAL_G[:4] + DUAL_G[8:], ids=DUAL_IDS[:4] + DUAL_IDS[8:])
def test_dual_derivatives_keep_the_sum_rules(g, n):
    # sum_a s_a = 1 on the Potts and nematic spins: the gradient sums to 1
    # and the Hessian annihilates the vector of ones
    for h in dual_fields(n):
        G, mean, cov = g(h)
        assert abs(mean.sum() - 1.0) <= 1e-13
        assert np.max(np.abs(cov.sum(axis=1))) <= 1e-13


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_nematic_derivatives_are_finite_at_the_coupling_overflow_edge(N):
    # the fields of test_g_diag_at_huge_fields_is_the_leading_term: without
    # the shared power-of-two scaling the product over the factors overflows
    # (|d|^((N-1)/2) ~ 1e385 at N = 6); E[v_a^2] is then 1/(2|d_a|) below the top
    edge = N / (N - 1) * np.sqrt(np.finfo(float).max / N)
    rng = np.random.default_rng(11)
    d = -10.0 ** rng.uniform(17.0, np.log10(edge), (10, N - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in np.vstack([np.hstack([d, np.zeros((10, 1))]),
                            np.append(np.full(N - 1, -edge), 0.0)]):
            G, mean, cov = O._nematic_g(h)
            assert np.isfinite(G) and np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))
            np.testing.assert_allclose(mean[:-1] * 2.0 * np.abs(h[:-1]), 1.0, rtol=1e-14)
            assert abs(mean.sum() - 1.0) <= 1e-13


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


def test_nematic_n4_is_deterministic_and_matches_the_scalar_reduction():
    J, model = 9.5, M.nematic(4)
    res = O.nematic_dual_min(4, J, resolution=24)
    assert res.value == pytest.approx(
        M.phi_full_scale(model, J, scalar_min(model, J)), rel=0, abs=1e-12)
    res2 = O.nematic_dual_min(4, J, resolution=24)
    assert np.array_equal(res.minimizer, res2.minimizer)
    assert res.value == res2.value


def whole_dual_grid_min(N, J, resolution):
    """The grid minimizer and value of nematic_dual_min's search, from the
    whole grid at once, in 500-row chunks of flat indices."""
    lo, hi = -1.3 * J / (N - 1), 1.1 * J
    axes = [np.linspace(lo, hi, resolution)] * (N - 1)
    hfree = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    h_all = np.hstack([hfree, -hfree.sum(axis=1, keepdims=True)])
    vals = np.concatenate([
        (H * H).sum(axis=1) / (2.0 * J) - O._g_diag(H)
        for H in (h_all[i:i + 500] for i in range(0, len(h_all), 500))])
    i0 = int(np.argmin(vals))
    return h_all[i0], vals[i0], int(np.sum(vals == vals[i0]))


@pytest.mark.parametrize("N,J,resolution,tied", [
    (3, 6.8122, 61, False), (3, 6.8122, 40, True), (3, 20.0, 60, True),
    (4, 9.5, 11, False)])
def test_dual_grid_chunks_walk_the_whole_grid(monkeypatch, N, J, resolution, tied):
    # two grid points tie exactly at J = 6.8122, resolution 40 (flat indices
    # 575 and 614, rows 14 and 15) and at J = 20, resolution 60 (762 and
    # 2532, rows 12 and 42); without the polish the minimizer is the grid
    # point itself
    monkeypatch.setattr(O, "_polish", lambda g, J, P, seeds, report, grid: grid)
    res = O.nematic_dual_min(N, J, resolution)
    h0, grid_val, ties = whole_dual_grid_min(N, J, resolution)
    assert res.grid_value == grid_val == res.value
    assert res.minimizer[:-1].tolist() == h0[:-1].tolist()
    assert (ties > 1) == tied


def test_dual_grid_search_holds_one_chunk():
    # 160 000 grid points; the whole grid and its values peaked at 11 MiB
    assert traced_peak_mib(O.nematic_dual_min, 3, 6.8122, 400) < 4.0


def test_nematic_budget_guard():
    # the grid budget alone bounds N: 42^4 = 3 111 696 points
    with pytest.raises(BudgetExceeded):
        O.nematic_dual_min(5, 3.0, resolution=42)
    with pytest.raises(BudgetExceeded):
        O.nematic_dual_min(4, 3.0, resolution=400)


def test_check_reduction_fails_on_the_scalar_side_before_the_search(monkeypatch):
    # J = 3 is the m = 0 spinodal of cubic r = 3, where no root is stable
    def search(*args):
        raise AssertionError("the full-space search ran")
    monkeypatch.setattr(O, "cubic_fullspace_min", search)
    with pytest.raises(NoStableRoot):
        O.check_reduction(M.cubic(3), 3.0, resolution=20)


def test_check_reduction_nematic_scalar_side_is_finite_past_the_rounding_coupling():
    # from J ~ 3e16 the N = 4 ordered root, 3/4 - O(1/J), rounds to 3/4, the
    # end of the m interval, where the entropy is -inf; the dual form
    # |omega|^2 ((J/2) m^2 - g(J m)) needs no entropy and stays finite
    model, J = M.nematic(4), 1e17
    _, scal = O.check_reduction(model, J, resolution=20)
    assert np.isfinite(scal)
    assert scal == model.omega_norm_sq * S.solve_branches(model, J).global_minimum().phi
    # |omega|^2 (-(J/2) m^2 - s(m)) at m = 3/4, up to the O(log J) entropy
    assert scal == pytest.approx(-(4 / 3) * J * (3 / 4) ** 2 / 2, rel=1e-12)


@pytest.mark.parametrize("N", [3, 4])
def test_nematic_zero_coupling_is_rejected(N):
    # at J = 0 the dual box is the single point h = 0, where Psi is 0/0
    with pytest.raises(ValueError):
        O.nematic_dual_min(N, 0.0, resolution=20)
