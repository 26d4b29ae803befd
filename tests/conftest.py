"""Shared fixtures and helpers, and the acceptance-criteria summary reporter."""

import os
import subprocess
import sys

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


def run_python(probe):
    """Run probe in a fresh interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(mfspin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout


def branch_ms(model, Js, pick, scan_resolution=400):
    """m of pick(solve_branches(model, J)) at each J; 0 where pick finds no root."""
    picks = [pick(solve_branches(model, float(J), scan_resolution)) for J in Js]
    return [0.0 if bp is None else bp.m for bp in picks]
