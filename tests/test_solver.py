"""Branch solving, stability classification, transition location, barriers."""

import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from conftest import branch_ms, reference_roots
from mfspin import certification as C
from mfspin import models as M
from mfspin import solver as S
from mfspin.errors import BracketInvalid, MFSpinError

J_MF_Q3 = 4 * np.log(2)
J_MF_Q10 = 2 * 9 / 8 * np.log(9)


def stable_ms(bs, nonneg=False):
    return sorted(p.m for p in bs.stable(nonnegative=nonneg))


def test_potts_q3_subcritical_single_root():
    bs = S.solve_branches(M.potts(3), 1.0)
    assert len(bs.points) == 1
    p = bs.points[0]
    assert p.m == pytest.approx(0.0, abs=1e-10)
    assert p.stability == S.STABLE


def test_potts_q3_roots_at_transition():
    # at J_MF the nonnegative roots are exactly {0, (q-2)/2q, (q-2)/q}
    bs = S.solve_branches(M.potts(3), J_MF_Q3)
    nonneg = sorted(p.m for p in bs.points if p.m > -1e-9)
    assert nonneg == pytest.approx([0.0, 1 / 6, 1 / 3], abs=1e-9)
    by_m = {round(p.m, 6): p for p in bs.points}
    assert by_m[0.0].stability == S.STABLE
    assert by_m[round(1 / 6, 6)].stability == S.UNSTABLE
    assert by_m[round(1 / 3, 6)].stability == S.STABLE


def test_potts_q10_roots_at_transition():
    bs = S.solve_branches(M.potts(10), J_MF_Q10)
    nonneg = sorted(p.m for p in bs.points if p.m > -1e-9)
    assert nonneg == pytest.approx([0.0, 0.4, 0.8], abs=1e-9)


def test_roots_satisfy_fixed_point_equation():
    for model, J in ((M.potts(3), J_MF_Q3), (M.potts(10), 4.8), (M.cubic(4), 3.9)):
        for p in S.solve_branches(model, J).points:
            assert abs(p.m - model.g_prime(J * p.m)) < 1e-10


def test_stability_flag_matches_criterion():
    model = M.potts(3)
    for J in (1.0, 2.76, 2.9):
        for p in S.solve_branches(model, J).points:
            crit = J * model.g_second(J * p.m)
            assert (p.stability == S.STABLE) == (crit < 1.0)


def test_cubic_zero_always_root():
    for J in (0.5, 2.0, 3.9, 6.0):
        bs = S.solve_branches(M.cubic(4), J)
        assert any(abs(p.m) < 1e-10 for p in bs.points)


def test_branch_phi_matches_scalar_phi():
    model = M.potts(3)
    for p in S.solve_branches(model, 2.9).points:
        assert p.phi == pytest.approx(M.scalar_phi(model, 2.9, p.m), abs=1e-10)


def test_stable_roots_have_positive_phi_curvature():
    eps = 1e-5
    for model, J in ((M.potts(3), 2.9), (M.cubic(4), 3.9)):
        for p in S.solve_branches(model, J).points:
            lo, hi = model.m_bounds()
            if not (lo + 2 * eps < p.m < hi - 2 * eps):
                continue
            marginal = abs(J * model.g_second(J * p.m) - 1.0) < 1e-9
            d2 = (M.scalar_phi(model, J, p.m + eps) - 2 * M.scalar_phi(model, J, p.m)
                  + M.scalar_phi(model, J, p.m - eps)) / eps ** 2
            if p.stability == S.STABLE and not marginal:
                assert d2 > 0
            elif p.stability == S.UNSTABLE and not marginal:
                assert d2 < 0


# every model family the completeness and fold tests cover
FAMILIES = ([M.potts(q) for q in (2, 3, 4, 10, 100, 1000)]
            + [M.cubic(r) for r in range(1, 9)] + [M.nematic(N) for N in range(3, 7)])


def dense_fold_couplings(model, factor):
    """J(h) = h / g'(h) at the sign changes of g' - h g'' on a log grid of |h|
    `factor` times denser than the solver's fold scan, over the same range."""
    top = model.m_bounds()[1] * (1.0 / model.g_second(0.0))
    h = np.geomspace(S._H_MIN, top, factor * (S._H_POINTS - 1) + 1)
    out = []
    for x in (-h, h):
        d = model.g_prime(x) - x * model.g_second(x)
        i = np.flatnonzero((d[:-1] < 0.0) != (d[1:] < 0.0))
        out += (x[i] / model.g_prime(x[i])).tolist()
    return out


@pytest.mark.parametrize("model", FAMILIES, ids=str)
def test_fold_count_matches_a_denser_grid(model):
    # each fold lies in a cell of the 100x denser grid, and no cell there
    # holds a fold that the solver's scan misses
    folds = S._folds(model)
    dense = dense_fold_couplings(model, 100)
    assert len(folds) == len(dense)
    assert np.allclose(sorted(folds / model.g_prime(folds)), sorted(dense), rtol=1e-6)


def test_folds_are_the_first_order_spinodals():
    # J1 of Potts q = 3 (2.745644), q = 10 and nematic N = 3; no fold for
    # cubic r = 3, where the quartic term of g vanishes
    for model, J1 in ((M.potts(3), 2.745644), (M.potts(10), 4.559779),
                      (M.nematic(3), 6.731486)):
        folds = S._folds(model)
        assert folds.size == 1 and folds[0] > 0.0
        assert folds[0] / model.g_prime(folds[0]) == pytest.approx(J1, abs=1e-6)
    assert S._folds(M.cubic(3)).size == 0
    folds = S._folds(M.cubic(4))
    assert folds.tolist() == [-folds[1], folds[1]]


def test_branch_completeness_vs_dense_scan():
    # on couplings across both spinodals, every root of a dense reference walk
    # (2e5 cells; 2e4 for the slower nematic g') is found to 1e-10, and no
    # other root is reported
    for model in FAMILIES:
        J2 = 1.0 / model.g_second(0.0)
        near = [J2] + dense_fold_couplings(model, 1)
        Js = np.sort(np.concatenate([J2 * np.linspace(0.5, 1.5, 6)]
                                    + [J * np.array([0.99, 0.999, 1.001, 1.01]) for J in near]))
        cells = 10 ** 4 if model.kind == "nematic" else 10 ** 5
        for bs in S.solve_branches(model, Js):
            found = [p.m for p in bs.points]
            ref = reference_roots(model, bs.J, cells)
            assert len(found) == len(ref), (str(model), bs.J, found, ref)
            assert np.allclose(found, ref, rtol=0.0, atol=1e-10), (str(model), bs.J)


def test_sign_scan_matches_the_interval_walk():
    # reference: a walk over the cells of the former scan grid (the two ends,
    # then 400 interior points) with scipy's brentq on each sign change; the
    # roots agree to 1e-12
    for model, J in ((M.potts(10), 4.9), (M.cubic(4), 3.79), (M.nematic(3), 6.81)):
        lo, hi = model.m_bounds()
        grid = np.concatenate(([lo], np.linspace(lo + 1e-9 * (hi - lo),
                                                 hi - 1e-9 * (hi - lo), 400), [hi]))
        f = lambda m: model.g_prime(J * m) - m
        fv = model.g_prime(J * grid) - grid
        walk = []
        for a, b, fa, fb in zip(grid, grid[1:], fv, fv[1:]):
            if fa == 0.0:
                walk.append(float(a))
            elif fa * fb < 0.0:
                walk.append(optimize.brentq(f, a, b, xtol=S._ROOT_XTOL, rtol=8.9e-16))
        assert len(walk) >= 3
        scan = [p.m for p in S.solve_branches(model, J).points if abs(p.m) > 1e-8]
        walk = [m for m in walk if abs(m) > 1e-8]
        assert len(scan) == len(walk)
        assert np.allclose(scan, walk, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# branches over J
# ---------------------------------------------------------------------------

def test_trace_q3_nondecreasing_and_value_at_transition():
    ms = branch_ms(M.potts(3), np.linspace(2.78, 2.98, 41), S.BranchSet.max_stable_root)
    assert all(b >= a - 1e-9 for a, b in zip(ms, ms[1:]))
    bp = S.solve_branches(M.potts(3), J_MF_Q3).max_stable_root()
    assert bp.m == pytest.approx(1 / 3, abs=1e-6)


def test_trace_records_spinodals():
    model = M.potts(3)
    Js = np.linspace(2.70, 3.05, 71)
    tops = branch_ms(model, Js, S.BranchSet.max_stable_root)
    # J1: first grid J with a positive stable root; J2: last with m = 0 stable
    J1 = next(J for J, m in zip(Js, tops) if m > 1e-8)
    J2 = [J for J in Js if J * model.g_second(0.0) < 1.0][-1]
    assert 2.73 < J1 < 2.76                 # true J1 = 2.74564
    assert abs(J2 - 3.0) < 0.01             # zero destabilizes at J2=q


def test_trace_q10_discontinuous_onset():
    ms = branch_ms(M.potts(10), np.linspace(4.4, 5.2, 81), S.BranchSet.max_stable_root)
    dm = max(abs(b - a) for a, b in zip(ms, ms[1:]))
    assert dm > 0.3


def test_global_branch_switches_at_transition():
    Js = np.linspace(2.75, 2.80, 51)
    for J, m in zip(Js, branch_ms(M.potts(3), Js, S.BranchSet.global_minimum)):
        if J < J_MF_Q3 - 1e-3:
            assert abs(m) < 1e-8
        if J > J_MF_Q3 + 1e-3:
            assert m > 0.3


def test_global_minimizer_magnitude_nondecreasing():
    ms = [abs(m) for m in branch_ms(M.potts(3), np.linspace(2.5, 3.2, 57),
                                    S.BranchSet.global_minimum)]
    assert all(b >= a - 1e-9 for a, b in zip(ms, ms[1:]))


def test_nematic_large_N_branch_value():
    """Maximal stable branch at scaled coupling 3N approaches the large-N
    fixed point (1 + sqrt(1 - 2/3))/2 = 0.78868."""
    bp = S.solve_branches(M.nematic(1000), 3000.0).max_stable_root()
    assert bp is not None
    assert bp.m == pytest.approx(0.5 * (1 + np.sqrt(1 / 3)), abs=0.01)


def test_roots_next_to_the_ends_are_found():
    # the ordered roots sit within 1e-9 (hi - lo) of the upper end, on the
    # outer piece, which closes at |h| = J |end| + 1
    bs = S.solve_branches(M.potts(3), 30.0)
    assert abs(bs.max_stable_root().m - 2 / 3) < 1e-12
    for J in (22.0, 24.0, 25.0, 26.0):
        stable = [p.m for p in S.solve_branches(M.cubic(4), J).stable()]
        assert min(stable) < -0.999999 and max(stable) > 0.999999


# ---------------------------------------------------------------------------
# one solve over an array of couplings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [M.potts(3), M.potts(10), M.cubic(2), M.cubic(4),
                                   M.nematic(3), M.nematic(4)], ids=str)
def test_array_calls_have_the_bits_of_the_per_J_calls(model):
    # J = 0, then couplings across both spinodals
    J2 = 1.0 / model.g_second(0.0)
    Js = np.concatenate(([0.0], np.linspace(0.6 * J2, 1.4 * J2, 9)))
    sets = S.solve_branches(model, Js)
    assert isinstance(sets, list)
    assert repr(sets) == repr([S.solve_branches(model, J) for J in Js.tolist()])
    barriers = S.barrier_height(model, Js)
    assert repr(barriers.tolist()) == repr([S.barrier_height(model, J) for J in Js.tolist()])
    dj = C.compute_DJ(model, Js, 1e-3)
    assert repr(dj.tolist()) == repr([C.compute_DJ(model, J, 1e-3)
                                      for J in Js.tolist()])
    assert type(S.barrier_height(model, 1.0)) is float
    assert type(C.compute_DJ(model, 1.0, 1e-3)) is float


def test_array_call_with_a_coupling_without_bracket():
    # at J = 0, h - J g'(h) = h vanishes at the inner ends h = 0 themselves:
    # alone, every Brent lane stops at its first point
    model = M.cubic(4)
    alone = S.solve_branches(model, np.array([0.0]))
    assert [(p.m, p.stability) for p in alone[0].points] == [(0.0, S.STABLE)]
    Js = [0.0, 3.9, 0.0]
    assert repr(S.solve_branches(model, np.array(Js))) == repr(
        [S.solve_branches(model, J) for J in Js])


def test_array_calls_on_no_coupling():
    model = M.nematic(3)
    assert S.solve_branches(model, np.array([])) == []
    assert S.barrier_height(model, np.array([])).shape == (0,)
    assert C.compute_DJ(model, np.array([]), 1e-3).shape == (0,)
    with pytest.raises(ValueError, match="non-negative"):
        S.solve_branches(model, np.array([1.0, -1.0]))


def test_array_solve_stays_small():
    # 2000 couplings take a few Brent lanes each: a few MB at the peak
    tracemalloc.start()
    try:
        sets = S.solve_branches(M.cubic(4), np.linspace(0.5, 5.0, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sets) == 2000
    assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# transition location
# ---------------------------------------------------------------------------

def test_find_transition_potts3_closed_form():
    tp = S.find_transition(M.potts(3), (2.75, 2.95))
    assert tp.J_MF == pytest.approx(J_MF_Q3, abs=1e-8)
    assert tp.m_c == pytest.approx(1 / 3, abs=1e-8)
    assert abs(tp.degeneracy_residual) < 1e-9


def test_find_transition_potts10_closed_form():
    tp = S.find_transition(M.potts(10), (4.6, 5.4))
    assert tp.J_MF == pytest.approx(J_MF_Q10, abs=1e-8)
    assert tp.m_c == pytest.approx(0.8, abs=1e-8)


def test_find_transition_cubic_r4_first_order():
    tp = S.find_transition(M.cubic(4), (3.74, 3.95))
    # inside the metastable window (J1 ~ 3.729, J2 = r = 4)
    assert 3.729 < tp.J_MF < 4.0
    assert tp.m_c > 0.3
    # frozen from an independent scan of the degeneracy gap
    assert tp.J_MF == pytest.approx(3.7851981, abs=1e-6)
    assert tp.m_c == pytest.approx(0.6761629, abs=1e-6)


def test_find_transition_bad_bracket():
    with pytest.raises(BracketInvalid):
        S.find_transition(M.potts(3), (2.80, 2.95))  # both above J_MF
    # J_lo below the spinodal: the bracket still contains J_MF
    tp = S.find_transition(M.potts(3), (2.0, 2.95))
    assert tp.J_MF == pytest.approx(J_MF_Q3, rel=1e-13)


@pytest.mark.parametrize("q", [3, 4, 10, 1000])
def test_find_transition_potts_closed_form_without_bracket(q):
    tp = S.find_transition(M.potts(q))
    J_MF = 2 * (q - 1) / (q - 2) * np.log(q - 1)
    assert abs(tp.J_MF - J_MF) <= 1e-13 * J_MF
    assert abs(tp.m_c - (q - 2) / q) <= 1e-13


# ---------------------------------------------------------------------------
# energy identity and barriers
# ---------------------------------------------------------------------------

def fider_residuals(model, J_lo, J_hi, n, dJ=1e-3):
    """|d(phi)/dJ + m^2/2| along the maximal branch, centered differences."""
    out = []
    for J in np.linspace(J_lo, J_hi, n):
        J = float(J)
        bp = S.solve_branches(model, J).max_stable_root()
        hi = S.solve_branches(model, J + dJ).max_stable_root()
        lo = S.solve_branches(model, J - dJ).max_stable_root()
        dphi = (hi.phi - lo.phi) / (2 * dJ)
        out.append(abs(dphi + bp.m ** 2 / 2))
    return out


def test_energy_identity_along_branches():
    assert max(fider_residuals(M.potts(3), 2.78, 2.97, 12)) < 1e-4
    assert max(fider_residuals(M.cubic(4), 3.80, 3.98, 12)) < 1e-4


def test_barrier_positive_at_transition():
    delta3 = S.barrier_height(M.potts(3), J_MF_Q3)
    delta10 = S.barrier_height(M.potts(10), J_MF_Q10)
    assert delta3 > 0
    # frozen grid-oracle values (full-Phi scale)
    assert delta3 == pytest.approx(0.00112925, abs=1e-7)
    assert delta10 == pytest.approx(0.07138071, abs=1e-7)
    assert delta10 > delta3


def test_barrier_zero_below_spinodal():
    assert S.barrier_height(M.potts(3), 1.5) == 0.0
    assert S.barrier_height(M.cubic(4), 2.0) == 0.0


def test_barrier_full_scale_matches_simplex_differences():
    # for Potts the full-Phi scale equals raw simplex differences exactly
    J = J_MF_Q3
    expect = M.potts_phi(3, J, 1 / 6) - M.potts_phi(3, J, 0.0)
    assert S.barrier_height(M.potts(3), J) == pytest.approx(expect, abs=1e-9)


def test_find_transition_takes_the_largest_h_root():
    # nematic N = 1e5 has sign changes of F in rounding noise at h < 0.03;
    # the one of largest h is J_MF, next to the large-N limit 2.455407 N
    tp = S.find_transition(M.nematic(10 ** 5))
    assert abs(tp.J_MF / 10 ** 5 - 2.455407) < 1e-5


def test_find_transition_without_bracket_matches_bracketed():
    # a bracket only checks the root: both calls return the same point
    tp = S.find_transition(M.potts(3))
    assert tp == S.find_transition(M.potts(3), (2.75, 2.95))
    assert tp.J_MF == pytest.approx(J_MF_Q3, abs=1e-8)


def test_find_transition_fails_typed_without_first_order_transition():
    # the Ising-like cubic r = 2 chain has a continuous transition
    with pytest.raises(MFSpinError, match="no first-order jump") as exc:
        S.find_transition(M.cubic(2))
    assert type(exc.value) is BracketInvalid
