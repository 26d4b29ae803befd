"""Branch solving, stability classification, transition location, barriers."""

import numpy as np
import pytest

from conftest import branch_ms
from mfspin import models as M
from mfspin import solver as S
from mfspin.errors import BracketInvalid, MFSpinError
from mfspin.roots import brentq

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
    bs = S.solve_branches(M.potts(10), J_MF_Q10, 600)
    nonneg = sorted(p.m for p in bs.points if p.m > -1e-9)
    assert nonneg == pytest.approx([0.0, 0.4, 0.8], abs=1e-9)


def test_roots_satisfy_fixed_point_equation():
    for model, J in ((M.potts(3), J_MF_Q3), (M.potts(10), 4.8), (M.cubic(4), 3.9)):
        for p in S.solve_branches(model, J, 500).points:
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


def test_branch_completeness_vs_dense_scan():
    # a 10x finer scan finds the same roots to 1e-6
    for model, J, res in ((M.potts(10), 4.8, 300), (M.cubic(4), 3.9, 300)):
        coarse = sorted(p.m for p in S.solve_branches(model, J, res).points)
        fine = sorted(p.m for p in S.solve_branches(model, J, 10 * res).points)
        assert len(coarse) == len(fine)
        assert np.allclose(coarse, fine, atol=1e-6)


def test_sign_scan_matches_the_interval_walk():
    # reference: the per-interval walk of the scan grid that the vectorized
    # sign test replaced; the roots must agree bit for bit
    for model, J in ((M.potts(10), 4.9), (M.cubic(4), 3.79), (M.nematic(3), 6.81)):
        lo, hi = model.m_bounds()
        grid = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 400)
        f = lambda m: model.g_prime(J * m) - m
        fv = model.g_prime(J * grid) - grid
        walk = []
        for a, b, fa, fb in zip(grid, grid[1:], fv, fv[1:]):
            if fa == 0.0:
                walk.append(float(a))
            elif fa * fb < 0.0:
                walk.append(brentq(f, a, b, xtol=S._ROOT_XTOL, rtol=8.9e-16))
        scan = [p.m for p in S.solve_branches(model, J).points]
        assert len(walk) >= 3
        assert [m for m in scan if abs(m) > 1e-8] == [m for m in walk if abs(m) > 1e-8]


# ---------------------------------------------------------------------------
# branches over J: one root scan per coupling
# ---------------------------------------------------------------------------

def test_trace_q3_nondecreasing_and_value_at_transition():
    ms = branch_ms(M.potts(3), np.linspace(2.78, 2.98, 41), S.BranchSet.max_stable_root)
    assert all(b >= a - 1e-9 for a, b in zip(ms, ms[1:]))
    bp = S.max_stable_root(M.potts(3), J_MF_Q3)
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
    ms = branch_ms(M.potts(10), np.linspace(4.4, 5.2, 81), S.BranchSet.max_stable_root,
                   scan_resolution=600)
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
    bp = S.max_stable_root(M.nematic(1000), 3000.0, scan_resolution=160)
    assert bp is not None
    assert bp.m == pytest.approx(0.5 * (1 + np.sqrt(1 / 3)), abs=0.01)


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
        bp = S.max_stable_root(model, J)
        hi = S.max_stable_root(model, J + dJ)
        lo = S.max_stable_root(model, J - dJ)
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
