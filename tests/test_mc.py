"""Complete-graph Monte Carlo: exactness, determinism, physics checks."""

import itertools
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mfspin import mc
from mfspin import models as M
from mfspin import solver as S
from mfspin.errors import CouplingOverflow


def test_config_validation():
    with pytest.raises(ValueError):
        mc.MCConfig(model=M.potts(3), J=1.0, N=1, sweeps=10)
    with pytest.raises(ValueError):
        mc.MCConfig(model=M.potts(3), J=1.0, N=10, sweeps=10, burn_in=10)
    with pytest.raises(ValueError):     # one measured sweep has no standard error
        mc.MCConfig(model=M.potts(3), J=1.0, N=10, sweeps=11, burn_in=10)
    with pytest.raises(ValueError):
        mc.MCConfig(model=M.potts(3), J=-1.0, N=10, sweeps=10)


def _joint_tv(model, vectors, J, sweeps, seed):
    """TV distance between the recorded joint states of three spins and the
    exact Gibbs law exp((J/N) sum_{x<y} (S_x, S_y)); state s is vectors[s]."""
    N, n = 3, len(vectors)
    cfg = mc.MCConfig(model=model, J=J, N=N, sweeps=sweeps, burn_in=67, seed=seed)
    joint = mc.run_mc(cfg, record_joint_states=True).extras["joint_counts"]
    total = sum(joint.values())
    assert total >= 100000
    states = list(itertools.product(range(n), repeat=N))
    weights = np.array([
        np.exp(J / N * sum(vectors[s[x]] @ vectors[s[y]]
                           for x in range(N) for y in range(x + 1, N)))
        for s in states])
    weights /= weights.sum()
    emp = np.zeros(len(states))
    for i, s in enumerate(states):
        code = 0
        for c in s:
            code = code * n + c
        emp[i] = joint.get(code, 0) / total
    return 0.5 * float(np.abs(emp - weights).sum())


def test_detailed_balance_three_spin_potts():
    """Empirical joint distribution vs the exact Gibbs weights, 1e5 steps."""
    assert _joint_tv(M.potts(3), np.eye(3), J=1.0, sweeps=33400, seed=7) < 1e-2


def test_detailed_balance_three_spin_cubic():
    """The same for cubic r = 2 (state 2k is +e_k, 2k+1 is -e_k): 64 joint
    states, so 9e5 steps keep the sampling TV near 4e-3."""
    vectors = np.repeat(np.eye(2), 2, axis=0) * [[1], [-1], [1], [-1]]
    assert _joint_tv(M.cubic(2), vectors, J=1.0, sweeps=300000, seed=7) < 1e-2


def test_noninteracting_potts_uniform():
    cfg = mc.MCConfig(model=M.potts(3), J=0.0, N=200, sweeps=5000, burn_in=500,
                      seed=11)
    res = mc.run_mc(cfg)
    # i.i.d. uniform spins: vanishing vector magnetization and pair correlation
    assert res.mean_vector_norm_sq < 1e-4
    assert abs(res.pair_correlation) < 3 * res.pair_correlation_stderr + 1e-4
    # the max-state scalar carries only its O(N^-1/2) construction bias
    assert 0.0 <= res.mean_scalar_m < 0.06


def test_ordered_phase_matches_mean_field_branch():
    cfg = mc.MCConfig(model=M.potts(3), J=3.2, N=200, sweeps=8000, burn_in=1000,
                      seed=7)
    res = mc.run_mc(cfg)
    m_mf = S.solve_branches(M.potts(3), 3.2).max_stable_root().m
    assert abs(res.mean_scalar_m - m_mf) < 0.05


def test_pair_correlation_inequality():
    # <(S_x,S_y)> >= |<S>|^2 - 3*stderr across phases and models
    runs = [
        mc.MCConfig(model=M.potts(3), J=0.0, N=100, sweeps=3000, burn_in=300, seed=1),
        mc.MCConfig(model=M.potts(3), J=3.2, N=100, sweeps=3000, burn_in=300, seed=2),
        mc.MCConfig(model=M.potts(3), J=2.5, N=100, sweeps=3000, burn_in=300, seed=3),
        mc.MCConfig(model=M.cubic(4), J=5.0, N=100, sweeps=3000, burn_in=300, seed=4),
    ]
    for cfg in runs:
        res = mc.run_mc(cfg)
        assert res.pair_correlation >= (res.mean_vector_norm_sq
                                        - 3 * res.pair_correlation_stderr)


def test_pair_correlation_within_kappa():
    cfg = mc.MCConfig(model=M.potts(3), J=3.2, N=100, sweeps=2000, burn_in=300, seed=5)
    res = mc.run_mc(cfg)
    kappa = M.potts(3).kappa
    assert -kappa - 1e-9 <= res.pair_correlation <= kappa + 1e-9


def test_seed_determinism_bitwise():
    cfg = mc.MCConfig(model=M.potts(3), J=2.9, N=60, sweeps=800, burn_in=100, seed=99)
    a, b = mc.run_mc(cfg), mc.run_mc(cfg)
    assert a.mean_scalar_m == b.mean_scalar_m
    assert a.pair_correlation == b.pair_correlation
    assert np.array_equal(a.histogram, b.histogram)
    c = mc.run_mc(mc.MCConfig(model=M.potts(3), J=2.9, N=60, sweeps=800,
                              burn_in=100, seed=100))
    assert c.mean_scalar_m != a.mean_scalar_m


def test_histogram_counts_sum_to_samples():
    cfg = mc.MCConfig(model=M.potts(3), J=2.0, N=50, sweeps=600, burn_in=100, seed=0)
    res = mc.run_mc(cfg)
    assert res.histogram.sum() == res.n_samples == 500


def test_cubic_ordered_phase():
    cfg = mc.MCConfig(model=M.cubic(4), J=5.0, N=150, sweeps=4000, burn_in=600, seed=3)
    res = mc.run_mc(cfg)
    m_mf = S.solve_branches(M.cubic(4), 5.0).max_stable_root().m
    assert abs(abs(res.mean_scalar_m) - m_mf) < 0.05


def test_nematic_ordered_phase_and_step_tuning():
    cfg = mc.MCConfig(model=M.nematic(3), J=8.0, N=100, sweeps=2500, burn_in=600,
                      seed=5)
    res = mc.run_mc(cfg)
    lam_mf = S.solve_branches(M.nematic(3), 8.0, scan_resolution=200).max_stable_root().m
    assert abs(res.mean_scalar_m - lam_mf) < 0.05
    assert 0.2 < res.extras["acceptance_rate"] < 0.65


def _per_site_nematic_sweeps(cfg, extras, record_joint):
    """The nematic chain with each proposal formed at its own site and each
    sample projected on its own, handed over in blocks of one sweep: the
    reference that mc._nematic_sweeps must match bit for bit."""
    Ns, J, N = cfg.model.param, cfg.J, cfg.N
    rng = np.random.default_rng(cfg.seed)
    v = rng.normal(size=(N, Ns))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    T = v.T @ v
    step = 0.5
    accepted = 0
    proposed = 0
    eye = np.eye(Ns)
    for sweep in range(cfg.sweeps):
        noise = rng.normal(size=(N, Ns))
        us = rng.random(N)
        for x in range(N):
            vx = v[x]
            w = vx + step * noise[x]
            w /= np.linalg.norm(w)
            Tw = T @ w
            Tv = T @ vx
            e_new = w @ Tw - (vx @ w) ** 2
            e_old = vx @ Tv - 1.0
            dE = -(J / N) * (e_new - e_old)
            proposed += 1
            if dE <= 0.0 or us[x] < np.exp(-dE):
                accepted += 1
                T += np.outer(w, w) - np.outer(vx, vx)
                v[x] = w
        if sweep < cfg.burn_in and sweep % 25 == 24:
            rate = accepted / proposed
            if rate > 0.5:
                step = min(step * 1.25, 5.0)
            elif rate < 0.3:
                step = max(step * 0.8, 1e-3)
            accepted = proposed = 0
        if sweep >= cfg.burn_in:
            Qbar = T / N - eye / Ns
            yield ([float(np.linalg.eigvalsh(Qbar)[-1])], [float(np.sum(Qbar * Qbar))],
                   Qbar[None])
    extras["acceptance_rate"] = accepted / max(proposed, 1)
    extras["step"] = step


def _recording(sweeps, samples):
    """The chain, recording each measured sweep's (m, |m_N|^2, vector) before
    run_mc folds the block's vectors in place."""
    def run(cfg, extras, record_joint):
        for m, m_sq, vecs in sweeps(cfg, extras, record_joint):
            samples.extend(zip(m, m_sq, np.copy(vecs)))
            yield m, m_sq, vecs
    return run


@pytest.mark.parametrize("Ns", [3, 4, 7])
@pytest.mark.parametrize("J", [0.0, 10.0])
def test_nematic_sweep_matches_the_per_site_loop_bitwise(monkeypatch, Ns, J):
    # burn-in 60 crosses the step-tuning points at sweeps 24 and 49
    chain = mc._CHAINS["nematic"]
    for seed in (3, 11):
        cfg = mc.MCConfig(model=M.nematic(Ns), J=J, N=16, sweeps=90, burn_in=60,
                          seed=seed, histogram_bins=20)
        runs = []
        for sweeps in (chain.sweeps, _per_site_nematic_sweeps):
            samples = []
            monkeypatch.setitem(mc._CHAINS, "nematic",
                                chain._replace(sweeps=_recording(sweeps, samples)))
            runs.append((mc.run_mc(cfg), samples))
        (got, got_samples), (want, want_samples) = runs
        assert len(got_samples) == len(want_samples) == 30
        for (m, m_sq, Q), (m_ref, m_sq_ref, Q_ref) in zip(got_samples, want_samples):
            assert m == m_ref and m_sq == m_sq_ref and np.array_equal(Q, Q_ref)
        assert np.array_equal(got.histogram, want.histogram)
        assert got.mean_scalar_m == want.mean_scalar_m
        assert got.pair_correlation == want.pair_correlation
        assert got.pair_correlation_stderr == want.pair_correlation_stderr
        assert got.mean_vector_norm_sq == want.mean_vector_norm_sq
        assert got.extras == want.extras
        assert set(got.extras) == {"acceptance_rate", "step"}
        if J == 0.0:    # every proposal is taken, so each tuning point raises the step
            assert got.extras["step"] == 0.5 * 1.25 ** 2


def _matches_the_per_site_chain(monkeypatch, cfg):
    """run_mc of the nematic chain against _per_site_nematic_sweeps, sample by
    sample and in every output; returns the chain's result."""
    chain = mc._CHAINS["nematic"]
    runs = []
    for sweeps in (chain.sweeps, _per_site_nematic_sweeps):
        samples = []
        monkeypatch.setitem(mc._CHAINS, "nematic",
                            chain._replace(sweeps=_recording(sweeps, samples)))
        runs.append((mc.run_mc(cfg), samples))
    (got, got_samples), (want, want_samples) = runs
    assert len(got_samples) == len(want_samples) == cfg.sweeps - cfg.burn_in
    for (m, m_sq, Q), (m_ref, m_sq_ref, Q_ref) in zip(got_samples, want_samples):
        assert m == m_ref and m_sq == m_sq_ref and np.array_equal(Q, Q_ref)
    assert got.as_dict() == want.as_dict()
    assert np.array_equal(got.rate_estimates, want.rate_estimates, equal_nan=True)
    return got


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6, 7, 8, None])
@pytest.mark.parametrize("Ns, J", [(3, 0.0), (8, 40.0)])
def test_nematic_windows_match_the_per_site_loop_bitwise(monkeypatch, window, Ns, J):
    # J = 0 accepts every proposal, so each window ends at its first site;
    # Ns = 8 at J = 40 accepts about 6 % of them, so windows run to their
    # end.  None is the window (and the run of rank-two updates) the chain
    # derives from its acceptance
    if window is not None:
        monkeypatch.setattr(mc, "_window", lambda p: window)
    cfg = mc.MCConfig(model=M.nematic(Ns), J=J, N=16, sweeps=90, burn_in=60, seed=3,
                      histogram_bins=20)
    rate = _matches_the_per_site_chain(monkeypatch, cfg).extras["acceptance_rate"]
    assert rate == 1.0 if J == 0.0 else rate < 0.1


@pytest.mark.parametrize("run", [1, 2, 3])
@pytest.mark.parametrize("Ns, J", [(3, 0.0), (8, 40.0)])
def test_nematic_runs_match_the_per_site_loop_bitwise(monkeypatch, run, Ns, J):
    # an accept forms the rank-two updates of a run of sites; runs of 1, 2
    # and 3 sites end mid-sweep, and past the last of N = 16 sites.  J = 0
    # accepts every proposal, so every update of a run is read; at Ns = 8,
    # J = 40 most are not, and the chain itself would form one site's
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 4 * Ns * Ns * run)
    monkeypatch.setattr(mc, "_run", lambda p, Ns, longest: longest)
    _matches_the_per_site_chain(monkeypatch, mc.MCConfig(
        model=M.nematic(Ns), J=J, N=16, sweeps=90, burn_in=60, seed=3, histogram_bins=20))


def test_run_rule_forms_runs_only_where_the_acceptance_repays_them():
    # the workload chain (Ns = 3, acceptance 0.36) forms the longest runs;
    # Ns = 8 at 0.1 and Ns = 20 at 0.5 form one site at a time
    assert mc._run(0.36, 3, 100) == 100
    assert mc._run(1.0, 20, 5) == 5
    assert mc._run(0.1, 8, 32) == 1 and mc._run(0.5, 20, 5) == 1
    assert mc._run(1.0, 40, 1) == 1


@pytest.mark.parametrize("model, N", [(M.potts(3), 30), (M.cubic(4), 30), (M.potts(10), 12),
                                      (M.nematic(3), 16)], ids=str)
def test_samples_do_not_depend_on_the_block_size(monkeypatch, model, N):
    # Potts q = 3 reads the count table, cubic r = 4 and Potts q = 10 run the
    # loop; 151 sweeps with burn-in 23 are no multiple of any block size
    cfg = mc.MCConfig(model=model, J=3.0, N=N, sweeps=151, burn_in=23, seed=5,
                      histogram_bins=20)
    runs = []
    for block in (1, 2, 7, mc._BLOCK):
        monkeypatch.setattr(mc, "_BLOCK", block)
        runs.append(mc.run_mc(cfg))
    want = runs[0]
    for got in runs[1:]:
        assert got.as_dict() == want.as_dict()
        assert np.array_equal(got.histogram, want.histogram)
        assert np.array_equal(got.rate_estimates, want.rate_estimates, equal_nan=True)


def test_a_block_of_uniforms_is_the_stream_of_one_sweep_draws():
    # the heat bath draws B sweeps' uniforms at once
    for B, N in ((1, 5), (7, 30), (64, 200)):
        block = np.random.default_rng(B).random((B, N))
        rng = np.random.default_rng(B)
        assert np.array_equal(block, [rng.random(N) for _ in range(B)])


@pytest.mark.parametrize("Ns", [3, 4, 8, 20])
def test_stacked_projection_rounds_like_the_one_matrix_calls(Ns):
    # run_mc projects a block of order-parameter matrices with one eigvalsh
    # and one sum over the last two axes
    rng = np.random.default_rng(Ns)
    V = rng.normal(size=(3000, 4 * Ns, Ns))
    V /= np.linalg.norm(V, axis=2, keepdims=True)
    Q = (V.transpose(0, 2, 1) @ V) / (4 * Ns) - np.eye(Ns) / Ns
    assert np.array_equal(np.linalg.eigvalsh(Q)[:, -1],
                          [np.linalg.eigvalsh(q)[-1] for q in Q])
    assert np.array_equal(np.sum(Q * Q, axis=(1, 2)), [np.sum(q * q) for q in Q])


def test_heat_bath_projections_round_like_the_sweep_by_sweep_forms():
    # the block projections against the per-sweep Python forms they replace:
    # fractions (f - N) / N, max (first of equal magnitudes for cubic) and a
    # left-to-right sum of squares
    rng = np.random.default_rng(1)
    for N in (7, 200, 10 ** 6 + 3):
        for n in (2, 3, 8, 10):
            fields = N + rng.integers(-N, N + 1, size=(300, n))
            fields[:20] = N        # ties at zero magnetization
            m, m_sq, fr = mc._potts_project(fields, n, N)
            for i, f in enumerate(fields.tolist()):
                want = [(x - N) / N for x in f]
                assert fr[i].tolist() == want
                assert m[i] == max(want) - 1.0 / n
                assert m_sq[i] == sum(x * x for x in want) - 1.0 / n
            if n % 2 == 0:
                m, m_sq, mhat = mc._cubic_project(fields, n // 2, N)
                for i, f in enumerate(fields.tolist()):
                    want = [(x - N) / N for x in f[0:n:2]]
                    assert mhat[i].tolist() == want
                    assert m[i] == max(want, key=abs)
                    assert m_sq[i] == sum(x * x for x in want)


def test_carried_cumsum_is_the_running_sum():
    # run_mc folds each block's vectors with cumsum after adding the sum so
    # far to its first row: the left fold vec_sum = vec_sum + vec
    vecs = np.random.default_rng(2).normal(size=(1000, 5)) * 10.0 ** np.arange(-8, 17, 5)
    want = 0.0
    for vec in vecs:
        want = want + vec
    got = 0.0
    for start in range(0, len(vecs), 7):
        block = vecs[start:start + 7].copy()
        block[0] += got
        got = np.cumsum(block, axis=0, out=block)[-1].copy()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("Ns", [3, 4, 7, 20])
def test_stacked_matmuls_round_like_the_one_vector_calls(Ns):
    # the terms that only enter dE (T w, w^T T w, v.w) would move the chain
    # only through a rare flipped decision, so the bitwise chain test cannot
    # see them; check here the rounding _nematic_sweeps relies on
    rng = np.random.default_rng(Ns)
    V, W = rng.normal(size=(2, 500, Ns))
    T = V.T @ V
    pairs = np.stack([W, V], axis=1)
    norms = np.sqrt(W[:, None, :] @ W[:, :, None])[:, 0, 0]
    overlaps = (V[:, None, :] @ W[:, :, None]).ravel()
    Tu = T @ pairs[:, :, :, None]
    forms = (pairs[:, :, None, :] @ Tu).ravel()
    assert np.array_equal(norms, [np.linalg.norm(w) for w in W])
    assert np.array_equal(overlaps, [v @ w for v, w in zip(V, W)])
    assert np.array_equal(Tu[..., 0], [[T @ w, T @ v] for v, w in zip(V, W)])
    assert np.array_equal(forms, [u @ (T @ u) for v, w in zip(V, W) for u in (w, v)])


def test_nematic_sweep_memory_is_linear_in_N_Ns():
    # the sweep keeps O(N Ns) floats; a per-sweep array of the sites' outer
    # products would add N Ns^2 floats, 20 times the unit below
    N, Ns = 400, 20
    cfg = mc.MCConfig(model=M.nematic(Ns), J=10.0, N=N, sweeps=4, burn_in=1, seed=1)
    # a small run first, so that numpy's lazy set-up is not counted
    mc.run_mc(mc.MCConfig(model=M.nematic(Ns), J=10.0, N=10, sweeps=4, burn_in=1))
    tracemalloc.start()
    try:
        mc.run_mc(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * Ns * 8


HEAT_BATH_MODELS = [M.potts(2), M.potts(3), M.cubic(1), M.cubic(2)]


@pytest.mark.parametrize("model", HEAT_BATH_MODELS, ids=str)
@pytest.mark.parametrize("N", [2, 3, 7, 30])
def test_count_table_matches_the_per_site_loop_bitwise(monkeypatch, model, N):
    # _TABLE_ENTRIES = 0 sends every chain through the per-site loop; at its
    # real value every chain here reads the count-keyed table, however short
    # the run (_use_table's cap alone, as if the run were endless)
    cap = mc._TABLE_ENTRIES
    use_table = mc._use_table
    monkeypatch.setattr(mc, "_use_table", lambda n, N, sweeps: use_table(n, N, math.inf))
    calls = []
    table_sweeps = mc._table_sweeps
    monkeypatch.setattr(mc, "_table_sweeps",
                        lambda *a: calls.append(1) or table_sweeps(*a))
    for J in (0.0, 1.0, 3.2, 50.0):
        for seed in (3, 11):
            cfg = mc.MCConfig(model=model, J=J, N=N, sweeps=150, burn_in=30,
                              seed=seed, histogram_bins=20)
            runs = []
            for entries in (cap, 0):
                monkeypatch.setattr(mc, "_TABLE_ENTRIES", entries)
                runs.append(mc.run_mc(cfg, record_joint_states=N <= 3))
            got, want = runs
            assert got.as_dict() == want.as_dict()
            assert np.array_equal(got.histogram, want.histogram)
            assert np.array_equal(got.rate_estimates, want.rate_estimates,
                                  equal_nan=True)
            assert ("joint_counts" in got.extras) == (N <= 3)
    assert len(calls) == 8


@pytest.mark.parametrize("model", HEAT_BATH_MODELS, ids=str)
@pytest.mark.parametrize("N", [2, 3, 7, 30])
def test_count_table_matches_the_summing_loop_at_tied_weights(monkeypatch, model, N):
    # at J = 700 a weight can fall below half an ulp of the running sum (as
    # at counts (N-1, 0, 0)), so rows hold tied cumulative weights; the
    # table's scan must take the first of them, as the loop's search does
    spins = {"potts": mc._POTTS, "cubic": mc._CUBIC}[model.kind]
    J = 700.0
    weights = np.exp((J / N) * np.arange(-N, N + 1, dtype=np.float64))
    cums = mc._cumulative_weights(spins.pair(model.param), weights, N)
    assert (np.diff(cums, axis=1) == 0.0).any()
    use_table = mc._use_table
    monkeypatch.setattr(mc, "_use_table", lambda n, N, sweeps: use_table(n, N, math.inf))
    monkeypatch.setattr(mc, "_loop_sweeps", _summing_loop_sweeps)
    cap = mc._TABLE_ENTRIES
    for seed in (3, 11):
        cfg = mc.MCConfig(model=model, J=J, N=N, sweeps=150, burn_in=30, seed=seed,
                          histogram_bins=20)
        runs = []
        for entries in (cap, 0):
            monkeypatch.setattr(mc, "_TABLE_ENTRIES", entries)
            runs.append(mc.run_mc(cfg, record_joint_states=N <= 3))
        got, want = runs
        assert got.as_dict() == want.as_dict()
        assert np.array_equal(got.histogram, want.histogram)
        assert np.array_equal(got.rate_estimates, want.rate_estimates, equal_nan=True)


def test_the_largest_uniform_times_a_total_stays_within_it():
    # the table's scan has no bound check: a uniform U < 1 gives u = fl(U W)
    # <= W, so the scan stops at the row's last entry W at the latest.  The
    # largest uniform numpy draws is 1 - 2^-53; rounding is monotone, so
    # checking it checks every U
    u = 1.0 - 2.0 ** -53
    assert u < 1.0 and np.nextafter(u, 2.0) == 1.0
    rng = np.random.default_rng(7)
    big, tiny = sys.float_info.max, 5e-324
    totals = (rng.random(10 ** 5) * 2.0 ** rng.integers(-1074, 1024, 10 ** 5)).tolist()
    totals += [tiny, 2 * tiny, 3 * tiny, sys.float_info.min, sys.float_info.min - tiny,
               1.0, 1.5, 2.0, 3.0, big, float(np.nextafter(big, 0.0)), big / 2]
    assert all(u * w <= w for w in totals)


_LARGEST_U = 1.0 - 2.0 ** -53       # the largest uniform numpy draws


def _assert_least_uniforms(cums: np.ndarray, thr: np.ndarray):
    """Each threshold t is the least double U with fl(U W) > c, for its
    entry c and its row's total W, and +inf where no U < 1 has it; checked
    with Python floats, whose products the chain's decisions were."""
    assert thr.shape == cums.shape
    for crow, trow in zip(cums.tolist(), thr.tolist()):
        W = crow[-1]
        assert trow[-1] == math.inf
        for c, t in zip(crow, trow):
            if t == math.inf:
                assert not _LARGEST_U * W > c
            else:
                assert 0.0 < t < 1.0 and t * W > c
                assert not math.nextafter(t, 0.0) * W > c


def _scans_agree(cums: np.ndarray, thr: np.ndarray):
    """The scan of a threshold row and the scan of its cumulative weights
    stop at the same entry, at U = t and its predecessor for each entry, at
    U = 0 and at the largest U."""
    for crow, trow in zip(cums.tolist(), thr.tolist()):
        W = crow[-1]
        us = {0.0, _LARGEST_U}
        us.update(t for t in trow if t < 1.0)
        us.update(math.nextafter(t, 0.0) for t in trow if 0.0 < t < 1.0)
        for U in us:
            u, s = U * W, 0
            while crow[s] < u:
                s += 1
            t = 0
            while trow[t] <= U:
                t += 1
            assert s == t, (crow, U)


def _workload_table(N: int, J: float, spins=mc._POTTS, param=3) -> np.ndarray:
    weights = np.exp((J / N) * np.arange(-N, N + 1, dtype=np.float64))
    return mc._cumulative_weights(spins.pair(param), weights, N)


@pytest.mark.parametrize("J", [2.5, 3.2])
@pytest.mark.parametrize("N", [50, 100, 200])
def test_thresholds_are_the_least_uniforms_past_each_weight(N, J):
    # the Potts q = 3 tables of the mc workload's chains (mc at N = 200,
    # rate at N = 50, 100, 200)
    cums = _workload_table(N, J)
    thr = mc._thresholds(cums)
    _assert_least_uniforms(cums, thr)
    if N == 50:
        _scans_agree(cums, thr)


@pytest.mark.parametrize("model", HEAT_BATH_MODELS, ids=str)
def test_thresholds_hold_at_tied_weights(model):
    # at J = 700 rows hold entries tied with each other and with the total;
    # those before the last get +inf too, and the scan takes the first
    spins = {"potts": mc._POTTS, "cubic": mc._CUBIC}[model.kind]
    for N in (2, 3, 7, 30):
        cums = _workload_table(N, 700.0, spins, model.param)
        thr = mc._thresholds(cums)
        _assert_least_uniforms(cums, thr)
        _scans_agree(cums, thr)
        if N >= 7:
            assert (np.diff(cums, axis=1) == 0.0).any()
            assert np.isinf(thr[:, :-1]).any()


def test_thresholds_hold_at_the_ends_of_the_doubles():
    # rows no chain builds: subnormal totals (where fl(U W) is coarse and a
    # threshold sits far from c/W), totals near DBL_MAX, infinite totals
    # (a finite entry's threshold is then the least positive double) and a
    # NaN row, whose every threshold is +inf as no U passes
    rng = np.random.default_rng(5)
    tiny, big = 5e-324, sys.float_info.max
    rows = [rng.integers(1, 9, (200, 3)) * tiny,
            rng.integers(1, 2 ** 20, (200, 3)) * tiny,
            rng.random((200, 3)) * 2.0 ** 1023,
            rng.random((200, 4)) * 2.0 ** rng.integers(-1074, 1024, (200, 1))]
    with np.errstate(over="ignore"):
        cums = [np.cumsum(w, axis=1) for w in rows]
    cums.append(np.array([[tiny, tiny, 2 * tiny], [1.0, 1.0, 2.0],
                          [1.0, float(np.nextafter(2.0, 0.0)), 2.0],
                          [float(np.nextafter(big, 0.0)), big, big],
                          [big, math.inf, math.inf], [1.0, math.inf, math.inf],
                          [tiny, 1.0, math.inf], [math.inf] * 3, [math.nan] * 3]))
    assert any(np.isinf(c[:, -1]).any() for c in cums)
    for c in cums:
        thr = mc._thresholds(c)
        _assert_least_uniforms(c, thr)
        _scans_agree(c, thr)
    last = mc._thresholds(cums[-1])
    assert last[5, 0] == tiny and np.isinf(last[-1]).all()


def test_short_runs_skip_the_count_table(monkeypatch):
    # cubic r = 2 at N = 60 has 4 * 61^3 = 907 924 table entries, under the
    # cap, but 300 sweeps update only 18 000 sites: the run takes the loop.
    # The mc workload's Potts q = 3 chain at N = 200 (121 203 entries, 4e6
    # updates in 20 000 sweeps) and its rate chains keep the table
    paths = []
    for name in ("_table_sweeps", "_loop_sweeps"):
        real = getattr(mc, name)
        monkeypatch.setattr(mc, name, lambda *a, real=real, name=name:
                            paths.append(name) or real(*a))
    mc.run_mc(mc.MCConfig(model=M.cubic(2), J=3.0, N=60, sweeps=300, burn_in=30, seed=1))
    assert paths == ["_loop_sweeps"]
    assert mc._use_table(3, 200, 20000)
    assert all(mc._use_table(3, N, 10000) for N in (50, 100, 200))
    assert not mc._use_table(4, 60, 300)
    # three and four states repay a table from half an update per entry
    # (907 924 entries for cubic r = 2 at N = 60), five or more from one
    # (972 405 entries for Potts q = 5 at N = 20)
    assert mc._use_table(4, 60, 7600) and not mc._use_table(4, 60, 7500)
    assert mc._use_table(5, 20, 48700) and not mc._use_table(5, 20, 36000)


@pytest.mark.parametrize("model", HEAT_BATH_MODELS, ids=str)
def test_count_table_rows_are_the_loops_left_fold(model):
    # a last-bit change in a row's total moves the chain only through a rare
    # flipped decision, which the chain test cannot see; check every row a
    # site can read against the loop's sum, bit for bit
    spins = {"potts": mc._POTTS, "cubic": mc._CUBIC}[model.kind]
    pair = spins.pair(model.param)
    n = len(pair)
    for N, J in ((2, 50.0), (7, 3.2), (30, 3.2)):
        weights = np.exp((J / N) * np.arange(-N, N + 1, dtype=np.float64))
        table = weights.tolist()
        cums = mc._cumulative_weights(pair, weights, N)
        for counts in itertools.product(range(N), repeat=n - 1):
            if sum(counts) > N - 1:
                continue
            field = mc._field(pair, list(counts) + [N - 1 - sum(counts)], N)
            tot, want = 0.0, []
            for s in range(n):
                tot += table[field[s]]
                want.append(tot)
            key = sum(c * (N + 1) ** s for s, c in enumerate(counts))
            assert cums[key].tolist() == want


def test_count_table_memory_is_bounded_by_its_cap(monkeypatch):
    # each table entry costs at most 40 bytes (numpy's float and the list's);
    # one N past the cap, Potts q = 3 takes the per-site loop in O(N) memory.
    # The runs are short, so _use_table's cap is applied as if they were endless
    use_table = mc._use_table
    monkeypatch.setattr(mc, "_use_table", lambda n, N, sweeps: use_table(n, N, math.inf))
    cap = mc._TABLE_ENTRIES
    N = math.isqrt(cap // 3) - 1       # the largest N whose q = 3 table fits
    assert 3 * (N + 1) ** 2 <= cap < 3 * (N + 2) ** 2
    # a small run first, so that numpy's lazy set-up is not counted
    mc.run_mc(mc.MCConfig(model=M.potts(3), J=1.0, N=10, sweeps=2))
    peaks = []
    for n_sites in (N, N + 1):
        cfg = mc.MCConfig(model=M.potts(3), J=1.0, N=n_sites, sweeps=2, seed=1)
        tracemalloc.start()
        try:
            mc.run_mc(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 48 * cap
    assert peaks[1] < 400 * (N + 1)


def _summing_loop_sweeps(pair, weights, sigma, uniforms, joint):
    """The per-site loop without row reuse: every site sums its row and takes
    the first state whose cumulative weight reaches u by a linear search;
    hands over its fields in blocks of one sweep."""
    n, N = len(pair), len(sigma)
    field = mc._field(pair, np.bincount(sigma, minlength=n).tolist(), N)
    table = weights.tolist()
    cum = [0.0] * n
    for us in (us for block in uniforms for us in block):
        for x in range(N):
            s = sigma[x]
            field[s] -= 1
            field[pair[s]] += 1
            tot = 0.0
            for k in range(n):
                tot += table[field[k]]
                cum[k] = tot
            u = us[x] * tot
            s = 0
            while cum[s] < u:
                s += 1
            field[s] += 1
            field[pair[s]] -= 1
            sigma[x] = s
            if joint is not None:
                code = 0
                for t in sigma:
                    code = code * n + t
                joint[code] = joint.get(code, 0) + 1
        yield np.array([field[:n]])


LOOP_MODELS = [M.potts(2), M.potts(3), M.potts(10), M.cubic(1), M.cubic(3), M.cubic(4)]


@pytest.mark.parametrize("model", LOOP_MODELS, ids=str)
@pytest.mark.parametrize("N", [2, 3, 7, 30, 100])
def test_row_reuse_matches_the_summing_loop_bitwise(monkeypatch, model, N):
    # _TABLE_ENTRIES = 0 sends every chain through the per-site loop.  J = 0
    # and 1 lie at or below every model's transition here, 6 and 50 above it;
    # at J = 50 a chain stands still for whole sweeps, so one row serves many
    # sites
    monkeypatch.setattr(mc, "_TABLE_ENTRIES", 0)
    calls = []
    loop_sweeps = mc._loop_sweeps
    for J in (0.0, 1.0, 3.2, 6.0, 50.0):
        for seed in (3, 11):
            cfg = mc.MCConfig(model=model, J=J, N=N, sweeps=150, burn_in=30,
                              seed=seed, histogram_bins=20)
            runs = []
            for sweeps in (lambda *a: calls.append(1) or loop_sweeps(*a),
                           _summing_loop_sweeps):
                monkeypatch.setattr(mc, "_loop_sweeps", sweeps)
                runs.append(mc.run_mc(cfg, record_joint_states=N <= 3))
            got, want = runs
            assert got.as_dict() == want.as_dict()
            assert np.array_equal(got.histogram, want.histogram)
            assert np.array_equal(got.rate_estimates, want.rate_estimates,
                                  equal_nan=True)
            assert ("joint_counts" in got.extras) == (N <= 3)
    assert len(calls) == 10


def test_row_reuse_memory_is_bounded_by_the_occupied_states():
    # at most min(n, N) rows of n cumulative weights are live, each weight at
    # most 40 bytes as a list float.  At J = 0 nearly every decision moves a
    # spin to a state no spin holds, so rows kept per state ever visited, or
    # left with the states that spins leave empty, pass the bound several
    # times over.  Tracing every float a row holds is slow, so q and N are
    # kept small; q > N is the regime where the bound binds.
    q, N = 200, 20
    cfg = mc.MCConfig(model=M.potts(q), J=0.0, N=N, sweeps=200, seed=1)
    # a small run first, so that numpy's lazy set-up is not counted
    mc.run_mc(mc.MCConfig(model=M.potts(q), J=0.0, N=10, sweeps=2))
    tracemalloc.start()
    try:
        mc.run_mc(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * q * (min(q, N) + 1) + 400 * N


@pytest.mark.parametrize("J", [math.nan, math.inf, -1.0])
def test_a_coupling_must_be_finite_and_non_negative(J):
    # J = NaN passes J < 0: the heat baths then raised a misleading
    # CouplingOverflow, and the nematic chain returned numbers
    for model in (M.potts(3), M.cubic(2), M.nematic(3)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            mc.run_mc(mc.MCConfig(model=model, J=J, N=5, sweeps=5))
    with pytest.raises(ValueError, match="finite and non-negative"):
        mc.estimate_rate_function(M.potts(3), J, [5, 10, 20], sweeps=5, burn_in=1)


def test_overflowing_coupling_is_a_typed_error():
    # exp(J) overflows a double beyond J = ln(DBL_MAX) = 709.78; the Potts
    # chain reads the table (108 entries against 150 updates), cubic r = 4
    # the per-site loop
    assert mc._use_table(3, 5, 30) and not mc._use_table(8, 30, 4)
    for model, N, sweeps in ((M.potts(3), 5, 30), (M.cubic(4), 30, 4)):
        with pytest.raises(CouplingOverflow):
            mc.run_mc(mc.MCConfig(model=model, J=710.0, N=N, sweeps=sweeps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc.run_mc(mc.MCConfig(model=model, J=709.0, N=N, sweeps=sweeps))


def _sweep_cost_ratio(model, J):
    """Wall time at N = 200 over N = 100, best of three each."""
    def wall(N):
        cfg = mc.MCConfig(model=model, J=J, N=N, sweeps=400, burn_in=0, seed=1)
        t0 = time.perf_counter()
        mc.run_mc(cfg)
        return time.perf_counter() - t0
    wall(100)  # warm-up
    t1 = min(wall(100) for _ in range(3))
    t2 = min(wall(200) for _ in range(3))
    return t2 / t1


def test_sweep_cost_scales_linearly(monkeypatch):
    # complexity guard: doubling N costs no more than ~2.5x (generous cap 3x),
    # on the count-keyed table at both N (400 sweeps at N = 200 would not
    # repay its 121 203 entries, so _use_table's cap is applied alone)
    use_table = mc._use_table
    monkeypatch.setattr(mc, "_use_table", lambda n, N, sweeps: use_table(n, N, math.inf))
    assert _sweep_cost_ratio(M.potts(3), 2.0) < 3.0


def test_loop_sweep_cost_scales_linearly():
    # the same guard on the per-site loop: cubic r = 4 in its ordered phase,
    # where one row serves many sites
    assert _sweep_cost_ratio(M.cubic(4), 4.0) < 3.0


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

def test_rate_function_needs_three_sizes():
    with pytest.raises(ValueError):
        mc.estimate_rate_function(M.potts(3), 1.0, [50, 100], 500, 50)


def test_rate_function_at_zero_coupling_matches_entropy():
    """At J=0 the rate is the pure (full-scale) entropy -|omega|^2 s(m)."""
    model = M.potts(3)
    est = mc.estimate_rate_function(model, 0.0, [50, 100, 200], sweeps=12000,
                                    burn_in=1000, seed=17)
    assert est.adequate.any()
    shifted = est.shifted_rate()
    phis = np.array([M.phi_full_scale(model, 0.0, float(m))
                     for m in est.bin_centers[est.adequate]])
    phis -= phis.min()
    diff = np.abs(shifted[est.adequate] - phis)
    assert np.nanmax(diff) < 0.1


def test_rate_function_flags_unvisited_bins():
    model = M.potts(3)
    est = mc.estimate_rate_function(model, 0.0, [50, 100, 200], sweeps=4000,
                                    burn_in=400, seed=23)
    # bins far in the tail are never visited: flagged, excluded, not filled in
    assert (~est.adequate).any()
    assert np.all(np.isnan(est.rate[~est.adequate]))
    # negative-m bins can never be visited under the max-state projection
    neg = est.bin_centers < -0.01
    assert not est.adequate[neg].any()
