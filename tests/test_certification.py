"""Allowed bands, D_J, and the certificate logic."""

import numpy as np
import pytest

from mfspin import certification as C
from mfspin import models as M
from mfspin import solver as S
from mfspin.errors import WindowExcludesTransition

J_MF_Q10 = 2.25 * np.log(9)
J_MF_Q3 = 4 * np.log(2)


# ---------------------------------------------------------------------------
# allowed bands
# ---------------------------------------------------------------------------

def test_bands_zero_slack_degenerates_to_minimizers():
    # slack at the grid-quantization scale: bands hug the degenerate minima
    bands = C.allowed_bands(M.potts(10), J_MF_Q10, 1e-6, grid=4001)
    assert len(bands) == 2
    for (lo, hi), m_star in zip(bands, (0.0, 0.8)):
        assert hi - lo < 5e-3
        assert lo - 2e-3 <= m_star <= hi + 2e-3
    # strictly zero slack keeps only the grid argmin
    assert len(C.allowed_bands(M.potts(10), J_MF_Q10, 0.0, grid=4001)) == 1


def test_bands_q10_fig2_point():
    """q=10 at J_MF with I_d = 0.002: two disjoint bands, gap ~ 0.43."""
    model = M.potts(10)
    slack = J_MF_Q10 * model.delta_factor * 0.002
    bands = C.allowed_bands(model, J_MF_Q10, slack, grid=4000)
    assert len(bands) == 2
    (a_lo, a_hi), (b_lo, b_hi) = bands
    # frozen from the dense grid oracle
    assert a_lo == pytest.approx(0.0, abs=1e-3)
    assert a_hi == pytest.approx(0.18534, abs=3e-3)
    assert b_lo == pytest.approx(0.61466, abs=3e-3)
    assert b_hi == pytest.approx(0.88464, abs=3e-3)
    assert b_lo - a_hi > 0.3
    assert b_lo <= 0.8 <= b_hi


def test_bands_large_slack_connected():
    model = M.potts(10)
    from mfspin.solver import barrier_height
    slack = 2.0 * barrier_height(model, J_MF_Q10)
    bands = C.allowed_bands(model, J_MF_Q10, slack, grid=3000)
    assert len(bands) == 1


def test_band_monotonicity_in_slack():
    model = M.potts(10)
    small = C.allowed_bands(model, J_MF_Q10, 0.02, grid=3000)
    big = C.allowed_bands(model, J_MF_Q10, 0.05, grid=3000)
    # interval-wise containment: every small band sits inside some big band
    for lo, hi in small:
        assert any(blo - 1e-9 <= lo and hi <= bhi + 1e-9 for blo, bhi in big)


def test_bands_reject_negative_slack():
    with pytest.raises(ValueError):
        C.allowed_bands(M.potts(3), 2.0, -0.1)


# ---------------------------------------------------------------------------
# D_J
# ---------------------------------------------------------------------------

def test_DJ_small_theta_small_distance():
    # nondegenerate single minimum: sublevel set hugs it
    d = C.compute_DJ(M.potts(3), 2.5, 1e-4, grid=4000)
    assert d < 0.02


def test_DJ_above_barrier_reaches_half_gap():
    model = M.potts(10)
    from mfspin.solver import barrier_height
    theta = 1.5 * barrier_height(model, J_MF_Q10)
    d = C.compute_DJ(model, J_MF_Q10, theta, grid=4000)
    assert d >= 0.5 * 0.8 * 0.98   # half the gap between the minima at 0 and 0.8


def test_DJ_monotone_in_theta():
    model = M.potts(10)
    thetas = [0.005, 0.02, 0.05, 0.09]
    vals = [C.compute_DJ(model, J_MF_Q10, t, grid=3000) for t in thetas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

WINDOW_Q10 = (4.92, 4.97)


def test_certificate_ideal_dimension_passes():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.0, J_grid=7, m_grid=1200)
    assert cert.passed
    assert cert.min_margin > 0
    assert cert.epsilon1 < 0.05
    assert cert.epsilon2 < 0.2


def test_certificate_q10_fig2_dimension_passes():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.002, J_grid=7, m_grid=1200)
    assert cert.passed
    assert cert.J_MF == pytest.approx(J_MF_Q10, abs=1e-6)
    # forbidden band present at every window J
    assert all(len(v) >= 1 for v in cert.forbidden_bands.values())


def test_certificate_small_dimension_fails():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, J_grid=5, m_grid=1000)
    assert not cert.passed          # I_3 = 0.516 swamps the barrier
    assert cert.min_margin < 0


def test_certificate_reports_the_margin_at_each_grid_J():
    model = M.potts(10)
    cert = C.certify(model, 3, WINDOW_Q10, I_d=0.002, J_grid=7, m_grid=1200)
    Js = np.linspace(*WINDOW_Q10, 7).tolist()
    assert list(cert.margins) == Js == list(cert.forbidden_bands)
    for J, margin in cert.margins.items():
        barrier = S.solve_branches(model, J).barrier()
        assert margin == pytest.approx(barrier - J * cert.delta_d, rel=0, abs=1e-15)
    assert min(cert.margins.values()) == cert.min_margin
    assert cert.argmin_J in Js
    assert cert.margins[cert.argmin_J] == cert.min_margin
    out = cert.as_dict()
    assert out["margins"].keys() == out["forbidden_bands"].keys()
    assert min(out["margins"].values()) == out["min_margin"]
    assert out["margins"][str(out["argmin_J"])] == out["min_margin"]


def test_certificate_monotone_in_d_injected():
    # same machinery, I_d halved repeatedly: margins increase, epsilons shrink
    model = M.potts(10)
    ids = [0.02, 0.008, 0.002, 0.0005]
    certs = [C.certify(model, 3, WINDOW_Q10, I_d=i, J_grid=5, m_grid=1000)
             for i in ids]
    margins = [c.min_margin for c in certs]
    eps1 = [c.epsilon1 for c in certs]
    eps2 = [c.epsilon2 for c in certs]
    assert all(b > a for a, b in zip(margins, margins[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(eps1, eps1[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(eps2, eps2[1:]))
    passed = [c.passed for c in certs]
    assert passed == sorted(passed)  # False...True, no inversions


def test_certificate_window_must_contain_transition():
    with pytest.raises(WindowExcludesTransition):
        C.certify(M.potts(10), 8, (4.6, 4.9), J_grid=3, m_grid=800)


def test_forbidden_bands_empty_when_connected():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.05, J_grid=3, m_grid=1000)
    # slack 0.05*4.05*J ~ 1.0 >> barrier: single band everywhere
    assert all(len(v) == 0 for v in cert.forbidden_bands.values())
    assert not cert.passed


@pytest.mark.parametrize("model,J", [(M.potts(3), 2.77), (M.potts(10), 4.94),
                                     (M.cubic(3), 3.0), (M.cubic(4), 3.785),
                                     (M.nematic(3), 6.81)], ids=str)
def test_phi_grid_matches_pointwise_bitwise(model, J):
    grid = 9 if model.kind == "nematic" else 400
    ms, phis = C._phi_grid(model, J, grid)
    assert np.array_equal(phis, [M.phi_full_scale(model, J, m) for m in ms])
    # s(m) is cached per (model, grid) and shared read-only across couplings
    ms2, _ = C._phi_grid(model, J + 0.01, grid)
    assert ms2 is ms
    assert not ms.flags.writeable
    with pytest.raises(ValueError):
        ms[0] = 1.0


def test_nematic_entropy_grid_takes_few_dual_steps(monkeypatch):
    # the dual equation g'(h) = m is solved for all 2000 points in lockstep,
    # in 47 array calls of g' and 25 419 lane evaluations
    calls = []
    solve = M.legendre_entropy

    def counted(g, g_prime, m):
        def g_prime_counted(x):
            calls.append(np.size(x))
            return g_prime(x)
        return solve(g, g_prime_counted, m)
    monkeypatch.setattr(M, "legendre_entropy", counted)
    C._entropy_grid.__wrapped__(M.nematic(3), 2000)
    assert len(calls) <= 50 and sum(calls) <= 30_000


@pytest.mark.parametrize("kwargs", [dict(m_grid=1), dict(m_grid=3), dict(J_grid=0),
                                    dict(DJ_J_grid=0)], ids=str)
def test_certify_rejects_tiny_grids(kwargs):
    with pytest.raises(ValueError):
        C.certify(M.potts(3), 1024, (2.7715, 2.7735), I_d=1e-3, **kwargs)
