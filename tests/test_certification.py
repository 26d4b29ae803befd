"""Allowed bands, D_J, and the certificate logic."""

import functools

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
    # a small slack: the bands hug the degenerate minima
    bands = C.allowed_bands(M.potts(10), J_MF_Q10, 1e-6)
    assert len(bands) == 2
    for (lo, hi), m_star in zip(bands, (0.0, 0.8)):
        assert hi - lo < 5e-3
        assert lo - 2e-3 <= m_star <= hi + 2e-3
    # strictly zero slack keeps only the argmin
    assert len(C.allowed_bands(M.potts(10), J_MF_Q10, 0.0)) == 1


def test_bands_q10_fig2_point():
    """q=10 at J_MF with I_d = 0.002: two disjoint bands, gap ~ 0.43."""
    model = M.potts(10)
    slack = J_MF_Q10 * model.delta_factor * 0.002
    bands = C.allowed_bands(model, J_MF_Q10, slack)
    assert len(bands) == 2
    (a_lo, a_hi), (b_lo, b_hi) = bands
    # frozen from a dense-grid run
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
    bands = C.allowed_bands(model, J_MF_Q10, slack)
    assert len(bands) == 1


def test_band_monotonicity_in_slack():
    model = M.potts(10)
    small = C.allowed_bands(model, J_MF_Q10, 0.02)
    big = C.allowed_bands(model, J_MF_Q10, 0.05)
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
    d = C.compute_DJ(M.potts(3), 2.5, 1e-4)
    assert d < 0.02


def test_DJ_above_barrier_reaches_half_gap():
    model = M.potts(10)
    from mfspin.solver import barrier_height
    theta = 1.5 * barrier_height(model, J_MF_Q10)
    d = C.compute_DJ(model, J_MF_Q10, theta)
    assert d >= 0.5 * 0.8 * 0.98   # half the gap between the minima at 0 and 0.8


def test_DJ_monotone_in_theta():
    model = M.potts(10)
    thetas = [0.005, 0.02, 0.05, 0.09]
    vals = [C.compute_DJ(model, J_MF_Q10, t) for t in thetas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

WINDOW_Q10 = (4.92, 4.97)


def test_certificate_ideal_dimension_passes():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.0, J_grid=7)
    assert cert.passed
    assert cert.min_margin > 0
    assert cert.epsilon1 < 0.05
    assert cert.epsilon2 < 0.2


def test_certificate_q10_fig2_dimension_passes():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.002, J_grid=7)
    assert cert.passed
    assert cert.J_MF == pytest.approx(J_MF_Q10, abs=1e-6)
    # forbidden band present at every window J
    assert all(len(v) >= 1 for v in cert.forbidden_bands.values())


def test_certificate_small_dimension_fails():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, J_grid=5)
    assert not cert.passed          # I_3 = 0.516 swamps the barrier
    assert cert.min_margin < 0


def test_certificate_reports_the_margin_at_each_grid_J():
    model = M.potts(10)
    cert = C.certify(model, 3, WINDOW_Q10, I_d=0.002, J_grid=7)
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
    certs = [C.certify(model, 3, WINDOW_Q10, I_d=i, J_grid=5)
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
        C.certify(M.potts(10), 8, (4.6, 4.9), J_grid=3)


def test_forbidden_bands_empty_when_connected():
    cert = C.certify(M.potts(10), 3, WINDOW_Q10, I_d=0.05, J_grid=3)
    # slack 0.05*4.05*J ~ 1.0 >> barrier: single band everywhere
    assert all(len(v) == 0 for v in cert.forbidden_bands.values())
    assert not cert.passed


def test_nematic_entropy_grid_takes_few_dual_steps(monkeypatch):
    # the dual equation g'(h) = m is solved for 2000 points of m >= 0 in
    # lockstep, in 47 array calls of g' and 25 419 lane evaluations
    calls = []
    solve = M.legendre_entropy

    def counted(g, g_prime, m):
        def g_prime_counted(x):
            calls.append(np.size(x))
            return g_prime(x)
        return solve(g, g_prime_counted, m)
    monkeypatch.setattr(M, "legendre_entropy", counted)
    hi = M.nematic(3).m_bounds()[1]
    M.nematic(3).entropy(np.linspace(0.0, hi - 1e-9 * hi, 2000))
    assert len(calls) <= 50 and sum(calls) <= 30_000


@pytest.mark.parametrize("kwargs", [dict(J_grid=0), dict(DJ_J_grid=0)], ids=str)
def test_certify_rejects_tiny_grids(kwargs):
    with pytest.raises(ValueError):
        C.certify(M.potts(3), 1024, (2.7715, 2.7735), I_d=1e-3, **kwargs)


# ---------------------------------------------------------------------------
# exact edges against independent routes
# ---------------------------------------------------------------------------

# the three certificate windows of the benchmark, with their exact epsilon_1
WINDOWS = [(M.potts(3), 1024, (2.7715, 2.7735), 0.1082655),
           (M.cubic(4), 512, (3.78, 3.79), 0.3406421),
           (M.nematic(3), 512, (6.80, 6.82), 0.1446066)]
_DENSE = 32_000


@functools.lru_cache(maxsize=None)
def _dense_entropy(model):
    """A dense m >= 0 grid (interior top end) and s(m) on it, by the entropy."""
    hi = model.m_bounds()[1]
    ms = np.linspace(0.0, hi - 1e-9 * hi, _DENSE)
    return ms, model.entropy(ms)[0]


def _dense_phi(model, J):
    ms, s = _dense_entropy(model)
    return ms, model.omega_norm_sq * (-J * ms * ms / 2.0 - s)


def _dense_bands(model, J, slack):
    ms, phis = _dense_phi(model, J)
    ok = phis <= phis.min() + slack + 1e-15
    steps = np.diff(ok.astype(np.int8), prepend=0, append=0)
    return [(ms[i], ms[j - 1])
            for i, j in zip(np.flatnonzero(steps == 1), np.flatnonzero(steps == -1))]


def _dense_DJ(model, J, theta):
    ms, phis = _dense_phi(model, J)
    mins = np.array([p.m for p in S.solve_branches(model, J).stable(nonnegative=True)])
    near = ms[phis < phis.min() + theta]
    return np.min(np.abs(near[:, None] - mins[None, :]), axis=1).max()


@pytest.mark.parametrize("model,J", [(M.potts(3), 2.7725), (M.cubic(4), 3.785),
                                     (M.nematic(3), 6.81)], ids=str)
def test_band_edges_lie_on_the_level_by_the_entropy_route(model, J):
    # Phi at an edge by the primal -J m^2/2 - s(m), not by the field h
    bs = S.solve_branches(model, J)
    low = min(M.phi_full_scale(model, J, p.m) for p in bs.stable(nonnegative=True))
    for slack in (0.3 * bs.barrier(), 3.0 * bs.barrier()):
        bands = C.allowed_bands(model, J, slack)
        edges = [e for b in bands for e in b if 0.0 < e < model.m_bounds()[1]]
        assert len(edges) == (3 if slack < bs.barrier() else 1)
        for e in edges:
            assert M.phi_full_scale(model, J, e) == pytest.approx(low + slack, rel=0,
                                                                  abs=1e-13)


@pytest.mark.parametrize("model,d,window,eps1", WINDOWS, ids=str)
def test_exact_epsilon1_bounds_the_dense_grid(model, d, window, eps1):
    # a grid can only underestimate the sup: the exact value lies above the
    # 32 000-point grid's, on the same 25 couplings J'
    cert = C.certify(model, d, window)
    theta = max(window[1] * cert.delta_d, 1e-12)
    dense = max(_dense_DJ(model, J, theta) for J in np.linspace(1e-3, window[1], 25))
    assert cert.epsilon1 >= dense
    assert cert.epsilon1 == pytest.approx(eps1, rel=0, abs=5e-8)


@pytest.mark.parametrize("model,d,window,eps1", WINDOWS, ids=str)
def test_exact_bands_contain_the_dense_grid_bands(model, d, window, eps1):
    delta_d = model.delta_factor * 1e-3
    barrier = S.barrier_height(model, window[0])
    for J in np.linspace(*window, 3).tolist():
        for slack in (J * delta_d, 0.5 * barrier, 2.0 * barrier):
            exact = C.allowed_bands(model, J, slack)
            for lo, hi in _dense_bands(model, J, slack):
                assert any(a <= lo and hi <= b for a, b in exact), (J, slack, lo, hi, exact)


def test_potts_q3_first_band_edge():
    cert = C.certify(M.potts(3), 1024, (2.7715, 2.7735))
    (lo, hi), = cert.forbidden_bands[2.7715]
    assert lo == pytest.approx(0.110691, rel=0, abs=5e-7)


def test_slack_above_the_top_reaches_m_hi():
    assert C.allowed_bands(M.potts(3), 2.77, 5.0) == [(0.0, 2.0 / 3.0)]
    assert C.allowed_bands(M.cubic(4), 3.785, 5.0) == [(0.0, 1.0)]
    # the nematic s(m) falls to -inf at m_hi, so Phi passes any level first
    (lo, hi), = C.allowed_bands(M.nematic(3), 6.81, 5.0)
    assert lo == 0.0 and 0.6 < hi < 2.0 / 3.0


@pytest.mark.parametrize("model,J", [(M.potts(3), 1e300), (M.nematic(3), 1e16),
                                     (M.nematic(4), 1e17)], ids=str)
def test_extreme_couplings_give_finite_edges(model, J):
    m_hi = model.m_bounds()[1]
    for slack in (0.0, 1e-3, 5.0, J * model.delta_factor * 1e-3):
        ends = np.array(C.allowed_bands(model, J, slack)).ravel()
        assert ends.size and np.all(np.isfinite(ends))
        assert np.all((0.0 <= ends) & (ends <= m_hi)) and np.all(np.diff(ends) >= 0.0)


@pytest.mark.parametrize("model,window", [("potts 3", ("2.7715", "2.7735")),
                                          ("nematic 3", ("6.80", "6.82"))])
def test_certify_and_bands_call_the_entropy_only_for_K(model, window, monkeypatch,
                                                       capsys):
    from mfspin.cli import dispatch
    calls = []
    real = M.ModelSpec.entropy

    def counted(self, m):
        calls.append(np.size(m))
        return real(self, m)
    monkeypatch.setattr(M.ModelSpec, "entropy", counted)
    kind, param = model.split()
    args = ["--model", kind, "--param", param]
    assert dispatch(["bands", *args, "--J", window[1], "--slack", "0.001"]) == 0
    assert calls == []
    assert dispatch(["certify", *args, "--dim", "1024", "--Jlo", window[0],
                     "--Jhi", window[1]]) == 0
    assert calls == [4]         # the ends of K's two balls, at J_MF
    capsys.readouterr()


def test_certificate_reports_how_I_d_was_computed():
    window = (2.7715, 2.7735)
    out = C.certify(M.potts(3), 1024, window, J_grid=3).as_dict()
    assert out["I_d_method"] == "bessel" and 0.0 < out["I_d_err"] < 1e-12
    out = C.certify(M.potts(3), 1024, window, J_grid=3, I_d=1e-3).as_dict()
    assert out["I_d_method"] is None and out["I_d_err"] is None
