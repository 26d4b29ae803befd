"""mfspin.neldermead.minimize against scipy's Nelder-Mead: the same iterates,
so the same x, fun, nit, nfev and success, bit for bit."""

import numpy as np
import pytest
from scipy import optimize

from mfspin import neldermead
from mfspin import oracle as O

PORT = neldermead.minimize          # some tests below patch it where the oracle finds it


def assert_same_run(fun, x0, maxiter, xatol, fatol):
    got = PORT(fun, x0, maxiter, xatol=xatol, fatol=fatol)
    want = optimize.minimize(fun, x0, method="Nelder-Mead",
                             options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun
    assert (got.nit, got.nfev, got.success) == (want.nit, want.nfev, want.success)
    return got


def polish_runs(monkeypatch, search, param, J, resolution, **options):
    """Run an oracle search at J, checking each polish run it asks for against
    scipy; its result, and the polish results."""
    runs = []

    def checked(fun, x0, maxiter, xatol, fatol):
        kw = dict(maxiter=maxiter, xatol=xatol, fatol=fatol)
        kw.update(options)
        runs.append(assert_same_run(fun, x0, **kw))
        return runs[-1]
    monkeypatch.setattr(neldermead, "minimize", checked)
    return search(param, J, resolution=resolution), runs


@pytest.mark.parametrize("J,resolution", [(6.8122, 200), (10.0, 60)])
def test_nematic_polish_matches_scipy(monkeypatch, J, resolution):
    # at J_MF (minimizer at h = 0) and in the ordered phase; a converged run
    # is restarted once from its result
    res, runs = polish_runs(monkeypatch, O.nematic_dual_min, 3, J, resolution)
    assert len(runs) == 2 and all(run.success for run in runs) and runs[0].nit > 10
    if J > 7.0:
        assert np.max(np.abs(res.minimizer)) > 1.0


@pytest.mark.parametrize("search,param,J", [
    (O.potts_fullspace_min, 3, 2.7725887), (O.potts_fullspace_min, 3, 5.2),
    (O.cubic_fullspace_min, 4, 3.7852), (O.cubic_fullspace_min, 4, 7.5)])
def test_simplex_polish_matches_scipy(monkeypatch, search, param, J):
    # the Potts simplex and the cubic (occupation, bias) domain, whose
    # objectives are inf outside the domain, at J_MF and in the ordered phase
    res, runs = polish_runs(monkeypatch, search, param, J, 200)
    assert len(runs) == 2 and all(run.success for run in runs) and runs[0].nit > 10
    free = np.ravel(res.minimizer)[:param - 1]    # the free occupations
    assert np.array_equal(free, runs[1].x[:param - 1]) and res.value == runs[1].fun


def test_nematic_polish_capped_by_maxiter(monkeypatch):
    res, runs = polish_runs(monkeypatch, O.nematic_dual_min, 3, 10.0, 60, maxiter=20)
    assert len(runs) == 1                     # a capped run is not restarted
    assert runs[0].nit == 20 and not runs[0].success
    assert res.value == res.grid_value        # a failed polish keeps the grid point


def test_nematic_oracle_keeps_scipys_answer(monkeypatch):
    # the oracle's whole result, through the port and through scipy
    port = O.nematic_dual_min(3, 6.8122, resolution=200).as_dict()

    def scipy_minimize(fun, x0, maxiter, xatol, fatol):
        return optimize.minimize(fun, x0, method="Nelder-Mead",
                                 options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    monkeypatch.setattr(neldermead, "minimize", scipy_minimize)
    assert O.nematic_dual_min(3, 6.8122, resolution=200).as_dict() == port


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def kinks(x):
    # not smooth: contractions fail and the simplex shrinks
    return float(np.sum(np.abs(x - np.arange(len(x)))) + 0.1 * np.sum(x) ** 2)


@pytest.mark.parametrize("fun,x0", [
    (rosenbrock, [-1.2, 1.0]),
    (rosenbrock, [0.0, 0.0, 0.0]),                # zero coordinates: the 0.00025 step
    (rosenbrock, [2.0, -1.5, 0.5, 1.0]),
    (kinks, [3.0, -2.0, 0.0]),
    (kinks, [1, 2]),                               # integer x0 is taken as float
])
def test_port_matches_scipy_on_test_functions(fun, x0):
    for maxiter, xatol, fatol in ((4000, 1e-10, 1e-13), (50, 1e-4, 1e-4), (400, 1e-8, 1e-8)):
        assert_same_run(fun, x0, maxiter, xatol, fatol)
