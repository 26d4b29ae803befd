"""Shared fixtures and helpers, and the acceptance-criteria summary reporter."""

import os
import subprocess
import sys

import numpy as np
import pytest

import mfspin
from mfspin.solver import solve_branches

# populated by tests/test_acceptance.py: (number, name, passed, detail)
ACCEPTANCE_RESULTS = []


def record_acceptance(number, name, passed, detail=""):
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{status}] {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        tr.write_line(f"criterion {number:>2} [{status}] {name}" +
                      (f" -- {detail}" if detail else ""))


@pytest.fixture(scope="session")
def tmp_outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_out")


def python_process(*args):
    """Run the interpreter on args in a fresh process that imports this
    package; the finished process, whatever its exit code."""
    src = os.path.dirname(os.path.dirname(mfspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def run_python(probe):
    """Run probe in a fresh interpreter that imports this package; its stdout."""
    proc = python_process("-c", probe)
    proc.check_returncode()
    return proc.stdout


def branch_ms(model, Js, pick):
    """m of pick(solve_branches(model, J)) at each J; 0 where pick finds no root."""
    picks = [pick(bs) for bs in solve_branches(model, np.asarray(Js, dtype=float))]
    return [0.0 if bp is None else bp.m for bp in picks]


def reference_roots(model, J, cells):
    """The roots of m = g'(J m), sorted, from a walk of scipy's brentq over
    `cells` equal cells on each side of the node m = 0, the cell next to 0
    cut further by 400 geometric ones down to |m| = 1e-8, the solver's cut:
    0 and every root with |m| >= 1e-8, with none of the solver's code."""
    from scipy import optimize
    f = lambda m: model.g_prime(J * m) - m
    roots = [0.0]
    for end in model.m_bounds():
        grid = np.union1d(np.linspace(0.0, end, cells + 1),
                          np.copysign(np.geomspace(1e-8, abs(end) / cells, 400), end))
        fv = f(grid)
        roots += grid[fv == 0.0].tolist()
        for i in np.flatnonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0.0):
            roots.append(optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    return sorted({r for r in roots if abs(r) >= 1e-8} | {0.0})
