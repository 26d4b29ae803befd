"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test records a PASS/FAIL line (summarized at the end of the pytest run).
Three assertions are implemented exactly as the acceptance checklist states
them although the stated expected values are internally inconsistent with the
rest of the checklist; they fail, and companion tests (marked `_corrected_`)
demonstrate the verified property.  The analysis behind each is in
docs/decisions.md:

* criterion 4: at J=2.73 the 3-state asymmetric minimum does not exist yet
  (spinodal J1 = 2.74564), and at J=2.77 < J_MF = 2.77259 the minima have not
  yet switched order (criterion 1 pins that same J_MF to 1e-6);
* criterion 9: the asserted large-N constant 0.87268 = (1+sqrt(1-4/J^2))/2 is
  not a fixed point of the scaled mean-field equation; the equation's own
  limit (1+sqrt(1-2/J))/2 = 0.78868 matches the solver and reproduces the
  companion constant J_MF_inf ~ 2.4554 asserted by the same criterion;
* criterion 11: the q=3 barrier 0.0011293 requires I_d < 6.11e-4, first
  reached at d = 820, so no d in 3..64 can pass; the monotone-boundary and
  epsilon-monotonicity parts hold and a companion shows the pass flip at
  large d (fail at 256, pass at 1024, for a +-0.001 window around J_MF).
"""

import time

import numpy as np
import pytest

from conftest import branch_ms, record_acceptance
from mfspin import certification as C
from mfspin import lattice
from mfspin import mc
from mfspin import models as M
from mfspin import oracle as O
from mfspin import solver as S

J_MF_Q3 = 4 * np.log(2)            # 2.7725887
J_MF_Q10 = 2.25 * np.log(9)        # 4.9437553
FIG1_JS = (2.73, 2.76, 2.77, 2.8)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# 1, 2: Potts transitions from the closed form
# ---------------------------------------------------------------------------

def test_criterion_01_potts3_transition():
    with Timer() as t:
        tp = S.find_transition(M.potts(3), (2.75, 2.95))
    ok = (abs(tp.J_MF - J_MF_Q3) < 1e-6 and abs(tp.m_c - 1 / 3) < 1e-6
          and t.elapsed < 1.0)
    record_acceptance(1, "Potts q=3 transition",
                      ok, f"J_MF={tp.J_MF:.9f} m_c={tp.m_c:.9f} ({t.elapsed:.2f}s)")
    assert abs(tp.J_MF - J_MF_Q3) < 1e-6
    assert abs(tp.m_c - 1 / 3) < 1e-6
    assert t.elapsed < 1.0


def test_criterion_02_potts10_transition():
    with Timer() as t:
        tp = S.find_transition(M.potts(10), (4.6, 5.4))
    ok = (abs(tp.J_MF - J_MF_Q10) < 1e-6 and abs(tp.m_c - 0.8) < 1e-6
          and t.elapsed < 1.0)
    record_acceptance(2, "Potts q=10 transition",
                      ok, f"J_MF={tp.J_MF:.9f} m_c={tp.m_c:.9f} ({t.elapsed:.2f}s)")
    assert abs(tp.J_MF - J_MF_Q10) < 1e-6
    assert abs(tp.m_c - 0.8) < 1e-6
    assert t.elapsed < 1.0


# ---------------------------------------------------------------------------
# 3: infrared-integral suite
# ---------------------------------------------------------------------------

def test_criterion_03_id_suite():
    with Timer() as t:
        tol = 1e-9
        i3_quad = lattice.compute_id(3, "quad", 1e-7)
        i3_bessel = lattice.compute_id(3, "bessel", tol)
        agree = abs(i3_quad.value - i3_bessel.value)
        identity_ok = True
        for d in range(3, 17):
            ide = lattice.compute_id(d, "bessel", tol)
            identity_ok &= abs(ide.value - (ide.wd_value - 1.0)) <= 2 * tol
        i20 = lattice.compute_id(20, "bessel", tol)
        asym = abs(2 * 20 * i20.value - 1.0)
    ok = agree < 1e-5 and identity_ok and asym < 0.15 and t.elapsed < 30.0
    record_acceptance(3, "I_d suite", ok,
                      f"|quad-bessel|={agree:.1e} identity={identity_ok} "
                      f"|2d*I_20-1|={asym:.3f} ({t.elapsed:.1f}s)")
    assert agree < 1e-5
    assert identity_ok
    assert asym < 0.15
    assert t.elapsed < 30.0


# ---------------------------------------------------------------------------
# 4: Fig. 1 reproduction (as stated; see module docstring)
# ---------------------------------------------------------------------------

def _fig1_profile_minima(J, grid=2000):
    """(asym minimum exists, sign of phi(m+) - phi(0)) on the q=3 grid."""
    ms = np.linspace(0.0, 2 / 3 - 1e-9, grid)
    ph = M.potts_phi(3, J, ms)
    inner = np.flatnonzero((ph[1:-1] < ph[:-2]) & (ph[1:-1] < ph[2:])) + 1
    asym = [i for i in inner if ms[i] > 0.05]
    if not asym:
        return False, None
    i = asym[0]
    return True, float(np.sign(ph[i] - ph[0]))


def test_criterion_04_fig1_reproduction_as_stated():
    with Timer() as t:
        found = {J: _fig1_profile_minima(J) for J in FIG1_JS}
    exists_all = all(v[0] for v in found.values())
    signs = {J: v[1] for J, v in found.items()}
    sign_ok = (signs.get(2.73) == 1.0 and signs.get(2.76) == 1.0
               and signs.get(2.77) == -1.0 and signs.get(2.8) == -1.0)
    ok = exists_all and sign_ok and t.elapsed < 5.0
    record_acceptance(4, "Fig.1 reproduction (as stated)", ok,
                      f"exists={ {J: v[0] for J, v in found.items()} } "
                      f"signs={signs} -- see docs/decisions.md")
    assert exists_all, ("no asymmetric minimum at J=2.73: the q=3 spinodal "
                        "is J1=2.74564 > 2.73 (see docs/decisions.md)")
    assert sign_ok, ("sign at J=2.77 is positive because J_MF=2.77259 > 2.77, "
                     "as pinned by criterion 1 (see docs/decisions.md)")
    assert t.elapsed < 5.0


def test_criterion_04_corrected_fig1_property():
    """Verified form: minima exist for J > J1 and the switch brackets J_MF."""
    with Timer() as t:
        found = {J: _fig1_profile_minima(J) for J in FIG1_JS}
    assert not found[2.73][0]                       # below the spinodal
    assert found[2.76][0] and found[2.77][0] and found[2.8][0]
    assert found[2.76][1] > 0 and found[2.77][1] > 0   # metastable above
    assert found[2.8][1] < 0                            # global below
    assert 2.77 < J_MF_Q3 < 2.8                         # switch brackets J_MF
    assert t.elapsed < 5.0
    record_acceptance(4.1, "Fig.1 reproduction (corrected property)", True,
                      "asym min exists at 2.76/2.77/2.8; order switch in (2.77, 2.8)")


# ---------------------------------------------------------------------------
# 5: Fig. 2 reproduction
# ---------------------------------------------------------------------------

def test_criterion_05_fig2_reproduction():
    model = M.potts(10)
    with Timer() as t:
        ms = branch_ms(model, np.linspace(4.4, 5.2, 81), S.BranchSet.max_stable_root)
        onset_jump = max(abs(b - a) for a, b in zip(ms, ms[1:]))
        slack = J_MF_Q10 * model.delta_factor * 0.002
        bands = C.allowed_bands(model, J_MF_Q10, slack, grid=4000)
        gap = bands[1][0] - bands[0][1] if len(bands) == 2 else 0.0
    # endpoints recorded; frozen from the dense-grid oracle run
    ok = (onset_jump > 0.3 and len(bands) == 2 and gap > 0.3
          and abs(gap - 0.4297) < 5e-3 and t.elapsed < 10.0)
    record_acceptance(5, "Fig.2 reproduction", ok,
                      f"onset jump={onset_jump:.3f} bands={[(round(a,5), round(b,5)) for a, b in bands]} "
                      f"gap={gap:.4f} ({t.elapsed:.1f}s)")
    assert onset_jump > 0.3, "maximal-stable branch onset should be discontinuous"
    assert len(bands) == 2
    assert gap > 0.3
    assert abs(gap - 0.4297) < 5e-3
    assert t.elapsed < 10.0


# ---------------------------------------------------------------------------
# 6: energy identity along branches
# ---------------------------------------------------------------------------

def _fider_max_residual(model, J_lo, J_hi, n=50, dJ=1e-3):
    worst = 0.0
    for J in np.linspace(J_lo, J_hi, n):
        J = float(J)
        bp = S.solve_branches(model, J).max_stable_root()
        hi = S.solve_branches(model, J + dJ).max_stable_root()
        lo = S.solve_branches(model, J - dJ).max_stable_root()
        worst = max(worst, abs((hi.phi - lo.phi) / (2 * dJ) + bp.m ** 2 / 2))
    return worst


def test_criterion_06_energy_identity():
    with Timer() as t:
        r3 = _fider_max_residual(M.potts(3), 2.78, 2.97)
        r4 = _fider_max_residual(M.cubic(4), 3.80, 3.98)
    ok = r3 < 1e-4 and r4 < 1e-4 and t.elapsed < 5.0
    record_acceptance(6, "energy identity d(phi)/dJ = -m^2/2", ok,
                      f"max residual q=3: {r3:.2e}, r=4: {r4:.2e} ({t.elapsed:.1f}s)")
    assert r3 < 1e-4
    assert r4 < 1e-4
    assert t.elapsed < 5.0


# ---------------------------------------------------------------------------
# 7: reduction oracles
# ---------------------------------------------------------------------------

def test_criterion_07_reduction_oracles():
    tol = 1e-2
    failures = []
    with Timer() as t:
        # Potts q=3
        for J in (0.5, 1.8, J_MF_Q3, 3.6, 5.2):
            res = O.potts_fullspace_min(3, J, 200)
            m_star = S.solve_branches(M.potts(3), J).global_minimum().m
            if abs(res.value - M.potts_phi(3, J, m_star)) > tol:
                failures.append(("potts", J, "value"))
            x = np.sort(res.minimizer)[::-1]
            if not np.allclose(x[1:], x[1:].mean(), atol=5e-3):
                failures.append(("potts", J, "shape"))
        # cubic r=4 (value convention offset -log 4r between K and phi)
        for J in (1.0, 3.0, 3.7852, 5.5, 7.5):
            res = O.cubic_fullspace_min(4, J, 200)
            m_star = S.solve_branches(M.cubic(4), J).global_minimum().m
            scal = M.scalar_phi(M.cubic(4), J, m_star) - np.log(16.0)
            if abs(res.value - scal) > tol:
                failures.append(("cubic", J, "value"))
            y, mu = res.minimizer
            ys = np.sort(y)
            if not np.allclose(ys[:-1], ys[:-1].mean(), atol=5e-3):
                failures.append(("cubic", J, "y shape"))
            mu_sorted = np.abs(mu)[np.argsort(y)]
            if not np.allclose(mu_sorted[:-1], 0.0, atol=5e-3):
                failures.append(("cubic", J, "mu shape"))
        # nematic N=3 dual
        for J in (2.0, 6.0, 6.8122, 9.0, 13.0):
            res = O.nematic_dual_min(3, J, resolution=200)
            lam = S.solve_branches(M.nematic(3), J).global_minimum().m
            if abs(res.value - M.phi_full_scale(M.nematic(3), J, lam)) > tol:
                failures.append(("nematic", J, "value"))
            h = np.sort(res.minimizer)
            if abs(h[0] - h[1]) > 1e-3 * max(1.0, J):
                failures.append(("nematic", J, "shape"))
    ok = not failures and t.elapsed < 120.0
    record_acceptance(7, "reduction oracles", ok,
                      f"failures={failures} ({t.elapsed:.1f}s)")
    assert not failures
    assert t.elapsed < 120.0


# ---------------------------------------------------------------------------
# 8: cubic first-order vs continuous onset
# ---------------------------------------------------------------------------

def test_criterion_08_cubic_order_of_transition():
    with Timer() as t:
        tp4 = S.find_transition(M.cubic(4), (3.74, 3.95))
        below = branch_ms(M.cubic(4), np.linspace(tp4.J_MF - 0.02, tp4.J_MF - 1e-4, 9),
                          S.BranchSet.global_minimum)
        above = branch_ms(M.cubic(4), np.linspace(tp4.J_MF + 1e-4, tp4.J_MF + 0.02, 9),
                          S.BranchSet.global_minimum)
        left_limit = max(abs(m) for m in below)
        right_limit = min(above)
        ms2 = branch_ms(M.cubic(2), np.linspace(1.9, 2.4, 101), S.BranchSet.max_stable_root)
        jump2 = max(abs(b - a) for a, b in zip(ms2, ms2[1:]))
        m2_onset = S.solve_branches(M.cubic(2), 2.0005).max_stable_root().m
    ok = (left_limit < 1e-6 and right_limit >= 0.3 and jump2 < 0.12
          and m2_onset < 0.04 and t.elapsed < 10.0)
    record_acceptance(8, "cubic r=4 jump vs r=2 continuity", ok,
                      f"left={left_limit:.1e} right={right_limit:.3f} "
                      f"r2 max step jump={jump2:.3f} ({t.elapsed:.1f}s)")
    assert left_limit < 1e-6          # global minimizer still symmetric below J_MF
    assert right_limit >= 0.3         # jumps to m_c = 0.676 above
    assert jump2 < 0.12               # r=2 onset continuous at the grid scale
    assert m2_onset < 0.04
    assert t.elapsed < 10.0


# ---------------------------------------------------------------------------
# 9: nematic large-N
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nematic_large_N():
    data = {}
    with Timer() as t:
        data["lam_1000"] = S.solve_branches(M.nematic(1000), 3000.0).max_stable_root().m
        data["jmf_over_N"] = {}
        for N in (200, 500, 1000):
            tp = S.find_transition(M.nematic(N), (2.30 * N, 2.60 * N))
            data["jmf_over_N"][N] = tp.J_MF / N
    data["elapsed"] = t.elapsed
    return data


def test_criterion_09_nematic_large_N_as_stated(nematic_large_N):
    lam = nematic_large_N["lam_1000"]
    target = 0.5 * (1 + np.sqrt(1 - 4 / 9))          # 0.87268 per the criterion
    ok = abs(lam - target) < 0.01
    record_acceptance(9, "nematic large-N limit (as stated)", ok,
                      f"lam(3N)={lam:.5f} vs asserted {target:.5f} "
                      "-- see docs/decisions.md")
    assert abs(lam - target) < 0.01, (
        f"lambda(3N)={lam:.5f}: the asserted constant 0.87268 is not a fixed "
        "point of the scaled mean-field equation (see docs/decisions.md)")


def test_criterion_09_corrected_nematic_large_N(nematic_large_N):
    """Verified form: lambda -> (1+sqrt(1-2/J))/2 at J=3, and J_MF(N)/N
    approaches the scaled-degeneracy limit ~ 2.4554 monotonically."""
    lam = nematic_large_N["lam_1000"]
    lam_limit = 0.5 * (1 + np.sqrt(1 - 2 / 3))       # 0.788675
    assert abs(lam - lam_limit) < 0.01

    # independent infinite-N oracle: phi_inf(lam) = -J lam^2/2 - log(1-lam)/2
    from scipy import optimize
    u = optimize.brentq(lambda u: (1 - u) / (2 * u) + np.log(u), 0.05, 0.9,
                        xtol=1e-15)
    J_inf = 1.0 / (2.0 * (1 - u) * u)
    assert abs(J_inf - 2.455) < 1e-3                  # the quoted ~2.455

    seq = nematic_large_N["jmf_over_N"]
    dists = [abs(seq[N] - J_inf) for N in (200, 500, 1000)]
    assert dists[0] > dists[1] > dists[2]             # monotone approach
    assert abs(seq[1000] - 2.455) < 0.05
    assert nematic_large_N["elapsed"] < 60.0
    record_acceptance(9.1, "nematic large-N (corrected constant)", True,
                      f"lam={lam:.5f}->~{lam_limit:.5f}; J_MF/N={[round(seq[N],6) for N in (200,500,1000)]}"
                      f" -> {J_inf:.6f} ({nematic_large_N['elapsed']:.1f}s)")


# ---------------------------------------------------------------------------
# 10: complete-graph Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_10_complete_graph_mc():
    with Timer() as t:
        cfg = mc.MCConfig(model=M.potts(3), J=3.2, N=200, sweeps=100000,
                          burn_in=5000, seed=7)
        res = mc.run_mc(cfg)
        m_mf = S.solve_branches(M.potts(3), 3.2).max_stable_root().m
        mag_err = abs(res.mean_scalar_m - m_mf)
        pair_ok = res.pair_correlation >= (res.mean_vector_norm_sq
                                           - 3 * res.pair_correlation_stderr)
        est = mc.estimate_rate_function(M.potts(3), 2.5, [50, 100, 200],
                                        sweeps=30000, burn_in=2000, seed=42)
        shifted = est.shifted_rate()
        phis = np.array([M.phi_full_scale(M.potts(3), 2.5, float(m))
                         for m in est.bin_centers[est.adequate]])
        phis -= phis.min()
        rate_err = float(np.nanmax(np.abs(shifted[est.adequate] - phis)))
    ok = mag_err < 0.05 and pair_ok and rate_err < 0.1 and t.elapsed < 300.0
    record_acceptance(10, "complete-graph MC", ok,
                      f"|m - m_MF|={mag_err:.4f} pair_ok={pair_ok} "
                      f"max|rate-phi|={rate_err:.4f} on {int(est.adequate.sum())} bins "
                      f"({t.elapsed:.0f}s)")
    assert mag_err < 0.05
    assert pair_ok
    assert rate_err < 0.1
    assert t.elapsed < 300.0


# ---------------------------------------------------------------------------
# 11: certificate monotonicity over d = 3..64
# ---------------------------------------------------------------------------

# narrow window around J_MF: the certified margin is the minimum of
# Delta(J) - J*delta_d over the window, and Delta falls off steeply
# towards the spinodal at 2.74564
WINDOW_Q3 = (2.7715, 2.7735)
SWEEP_DS = (3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


@pytest.fixture(scope="module")
def q3_certificates():
    with Timer() as t:
        certs = {d: C.certify(M.potts(3), d, WINDOW_Q3, J_grid=9, m_grid=1500,
                              DJ_J_grid=13)
                 for d in SWEEP_DS}
    return certs, t.elapsed


def test_criterion_11_certificate_sweep_as_stated(q3_certificates):
    certs, elapsed = q3_certificates
    passed = [certs[d].passed for d in SWEEP_DS]
    eps1 = [certs[d].epsilon1 for d in SWEEP_DS]
    eps2 = [certs[d].epsilon2 for d in SWEEP_DS]
    boundary_monotone = passed == sorted(passed)
    eps_monotone = (all(b <= a + 1e-12 for a, b in zip(eps1, eps1[1:]))
                    and all(b <= a + 1e-12 for a, b in zip(eps2, eps2[1:]))
                    and eps1[-1] < eps1[0] and eps2[-1] < eps2[0])
    pass_within_range = any(passed)
    ok = boundary_monotone and eps_monotone and pass_within_range
    record_acceptance(11, "certificate sweep d=3..64 (as stated)", ok,
                      f"passed={passed} eps1 {eps1[0]:.3f}->{eps1[-1]:.3f} "
                      f"eps2 {eps2[0]:.1f}->{eps2[-1]:.2f} ({elapsed:.0f}s) "
                      "-- pass requires d>=820, see docs/decisions.md")
    assert boundary_monotone
    assert eps_monotone
    assert pass_within_range, (
        "no d in 3..64 can pass: the q=3 barrier 0.0011293 needs "
        "I_d < 6.11e-4, first reached at d=820 (see docs/decisions.md)")


def test_criterion_11_corrected_pass_flip_at_large_d(q3_certificates):
    """Verified form of the existence claim: the certificate flips from fail
    to pass at finite d.  On this test's grids (J_grid=9, m_grid=1500,
    DJ_J_grid=13) the first passing dimension is d* = 872, as on the default
    grids.  d = 820 is where I_d first clears the barrier at J_MF alone; the
    barrier is lower towards the window's ends (0.0010619 at J = 2.7715)."""
    certs, _ = q3_certificates
    assert not certs[64].passed
    lo = C.certify(M.potts(3), 256, WINDOW_Q3, J_grid=9, m_grid=1500, DJ_J_grid=13)
    hi = C.certify(M.potts(3), 1024, WINDOW_Q3, J_grid=9, m_grid=1500, DJ_J_grid=13)
    assert not lo.passed
    assert hi.passed
    assert hi.min_margin > lo.min_margin > certs[64].min_margin
    record_acceptance(11.1, "certificate pass flip at large d", True,
                      f"d=256 margin={lo.min_margin:.2e} (fail), "
                      f"d=1024 margin={hi.min_margin:.2e} (pass)")
