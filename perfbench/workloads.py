"""The four workloads: fixed lists of mfspin commands, each with its gate.

A gate receives the command's standard output and its working directory
and raises GateFailure when the output is wrong.  Gates use an independent
reference (module ``reference``) where one exists; otherwise they pin this
code's value at a stated tolerance, never byte-identical floats.

The workload seed reaches only the Monte Carlo commands (``--seed``); every
other command is deterministic.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import reference as R


class GateFailure(Exception):
    """A command ran but its output failed a correctness gate."""


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    check: Callable[[str, str], None]      # (stdout, workdir) -> None or GateFailure

    def label(self) -> str:
        return " ".join(self.argv)


def _require(cond: bool, msg: str):
    if not cond:
        raise GateFailure(msg)


def _near(name: str, got: float, want: float, tol: float):
    _require(abs(got - want) <= tol, f"{name}={got!r}, expected {want!r} +- {tol:g}")


def _rel(name: str, got: float, want: float, rtol: float):
    _near(name, got, want, rtol * abs(want))


def _rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# references computed once per process
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _j_mf(model: str) -> float:
    if model == "cubic4":
        return R.transition_coupling(R.Cubic(4), 3.78, 3.79)
    return R.transition_coupling(R.Nematic3(), 6.80, 6.82)


@functools.lru_cache(maxsize=None)
def _m_mf(model: str, J: float) -> float:
    ref = {"potts3": R.Potts(3), "cubic4": R.Cubic(4), "nematic3": R.Nematic3()}[model]
    return R.largest_stable_root(ref, J)


# Values of this code, used where no independent reference exists.
# Barrier minima of the three certificate windows (full-Phi scale).
BARRIER_MIN = {("potts", 3): 0.0010618800897357512,
               ("cubic", 4): 0.005217893722738842,
               ("nematic", 3): 0.0019525669447187574}
# I_4 from the Bessel route at tol 1e-12 (reported error 1.4e-14); agrees
# with Montroll's W_4 = 1.2394671...
I4_BESSEL = 0.23946712184848173
# I_1024 from the Bessel route at tol 1e-12.
I1024_BESSEL = 0.0004889979061416606
# Large-N nematic limit of J_MF / N quoted by the acceptance suite.
NEMATIC_JMF_OVER_N = 2.4554


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _certificate(model: str, param: int, j_mf: Callable[[], float], passed: bool):
    def check(out, _):
        c = json.loads(out)
        _near("J_MF", c["J_MF"], j_mf(), 1e-8)
        _require(c["passed"] is passed, f"passed={c['passed']}, expected {passed}")
        _rel("barrier_min", c["barrier_min"], BARRIER_MIN[(model, param)], 1e-6)
    return check


def _potts_transition(q: int):
    def check(out, _):
        t = json.loads(out)
        _near("J_MF", t["J_MF"], R.potts_j_mf(q), 1e-8)
        _near("m_c", t["m_c"], R.potts_m_c(q), 1e-6)
    return check


def _figures(grid: int):
    def check(out, workdir):
        written = json.loads(out)["written"]
        _require(written == ["fig1_q3.csv", "fig2_q10_bands.csv",
                             "fig2_q10_branches.csv", "manifest.json"],
                 f"written={written}")
        with open(os.path.join(workdir, "figs", "fig1_q3.csv"), encoding="utf-8") as fh:
            fig1 = np.array([[float(r["J"]), float(r["m"]), float(r["phi"]),
                              float(r["phi_full_scale"])] for r in csv.DictReader(fh)])
        _require(len(fig1) == 4 * grid, f"fig1 has {len(fig1)} rows")
        J, m, phi, full = fig1.T
        err = np.max(np.abs(phi - R.potts_phi(3, J, m)))
        _require(err < 1e-9, f"fig1 phi off the simplex closed form by {err:.2e}")
        for j in np.unique(J):      # full scale differs by an m-independent constant
            d = (full - phi)[J == j]
            _require(np.ptp(d) < 1e-9, f"fig1 phi_full_scale - phi varies by {np.ptp(d):.2e}")
        with open(os.path.join(workdir, "figs", "fig2_q10_branches.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        q10 = R.Potts(10)
        res = max(abs(R.stationary_residual(q10, float(r["J"]), float(r["m"]))) for r in rows)
        _require(len({r["J"] for r in rows}) == 121 and res < 1e-8,
                 f"fig2 branches: {len(rows)} rows, residual {res:.2e}")
    return check


def _mc_gate(model: str, J: float, use_abs: bool):
    def check(out, _):
        r = json.loads(out)
        _require(r["n_samples"] == r["sweeps"] - r["burn_in"], "sample count")
        if use_abs:   # cubic: the ordered chain may settle on either sign
            edges = np.asarray(r["bin_edges"])
            centers = 0.5 * (edges[1:] + edges[:-1])
            m = float(np.dot(np.abs(centers), r["histogram"]) / r["n_samples"])
        else:
            m = r["mean_scalar_m"]
        _near("|m - m_MF|", m, _m_mf(model, J), 0.05)
        _require(r["pair_correlation"] >= r["mean_vector_norm_sq"]
                 - 3.0 * r["pair_correlation_stderr"],
                 "pair correlation below |<S>|^2 - 3 stderr")
    return check


def _rate_gate(J: float):
    def check(out, _):
        rows = _rows(out)
        _require(len(rows) >= 5, f"only {len(rows)} adequately sampled bins")
        m = np.array([float(r["bin_center"]) for r in rows])
        rate = np.array([float(r["rate"]) for r in rows])
        phi = R.potts_phi(3, J, m)
        err = float(np.max(np.abs(rate - (phi - phi.min()))))
        _require(err < 0.1, f"max |rate - phi| = {err:.3f} on {len(rows)} bins")
    return check


def _nematic_transition(out, _):
    t = json.loads(out)
    _near("J_MF", t["J_MF"], _j_mf("nematic3"), 1e-8)
    _near("m_c", t["m_c"], _m_mf("nematic3", _j_mf("nematic3")), 1e-6)


def _nematic_branches(steps: int):
    def check(out, _):
        ref = R.Nematic3()
        rows = _rows(out)
        _require(len({r["J"] for r in rows}) == steps, "branch grid")
        stable_J = set()
        for r in rows:
            J, m = float(r["J"]), float(r["m"])
            _near(f"m - g'(Jm) at J={J}", R.stationary_residual(ref, J, m), 0.0, 1e-8)
            h, dh = J * m, 1e-5
            slope = J * (ref.g_prime(h + dh) - ref.g_prime(h - dh)) / (2 * dh)
            if abs(slope - 1.0) > 1e-4:
                want = "stable" if slope < 1.0 else "unstable"
                _require(r["stability"] == want, f"J={J} m={m}: {r['stability']} != {want}")
            if r["stability"] == "stable":
                stable_J.add(r["J"])
        _require(len(stable_J) == steps, "a coupling without a stable root")
    return check


def _large_n(out, _):
    t = json.loads(out)
    _near("J_MF/N", t["J_MF"] / 200.0, NEMATIC_JMF_OVER_N, 1e-3)


def _oracle(out, _):
    _require(json.loads(out)["matched_scalar"] is True, "matched_scalar is not true")


def _id_gate(d: int, ref_id: float, ref_err: float = 1e-12):
    def check(out, _):
        e = json.loads(out)
        _require(e["d"] == d, "dimension")
        _near(f"I_{d}", e["id"], ref_id, e["err"] + ref_err)
        _near(f"W_{d} - 1 - I_{d}", e["wd"] - 1.0 - e["id"], 0.0, 2.0 * e["err"] + ref_err)
        if d > 16:
            _near(f"2d I_{d}", 2 * d * e["id"], 1.0, 0.01)
    return check


# ---------------------------------------------------------------------------
# command lists
# ---------------------------------------------------------------------------

def _args(text: str, *extra: str) -> Tuple[str, ...]:
    return tuple(text.split()) + extra


def certify_potts3(d: int, passed: bool, *extra: str) -> Command:
    return Command(_args(f"certify --model potts --param 3 --dim {d} "
                         "--Jlo 2.7715 --Jhi 2.7735", *extra),
                   _certificate("potts", 3, lambda: R.potts_j_mf(3), passed))


def mc_commands(seed: int, scale: float = 1.0) -> List[Command]:
    def sweeps(n: int, b: int) -> str:
        return f"--sweeps {int(n * scale)} --burn-in {int(b * scale)} --seed {seed}"
    return [
        Command(_args(f"mc --model potts --param 3 --J 3.2 --N 200 {sweeps(20000, 2000)}"),
                _mc_gate("potts3", 3.2, use_abs=False)),
        Command(_args(f"mc --model cubic --param 4 --J 4.0 --N 200 {sweeps(10000, 1000)}"),
                _mc_gate("cubic4", 4.0, use_abs=True)),
        Command(_args(f"mc --model nematic --param 3 --J 10 --N 100 {sweeps(2000, 500)}"),
                _mc_gate("nematic3", 10.0, use_abs=False)),
        Command(_args(f"rate --model potts --param 3 --J 2.5 --Ns 50,100,200 "
                      f"{sweeps(10000, 1000)}"),
                _rate_gate(2.5)),
    ]


ORACLES = [
    Command(_args("oracle --model nematic --param 3 --J 6.8122 --resolution 200"), _oracle),
    Command(_args("oracle --model potts --param 3 --J 2.7725887"), _oracle),
    Command(_args("oracle --model cubic --param 4 --J 3.7852"), _oracle),
]


def commands(workload: str, seed: int) -> List[Command]:
    """The full command list of one workload."""
    if workload == "certify":
        return [
            certify_potts3(256, False),
            certify_potts3(1024, True),
            Command(_args("certify --model cubic --param 4 --dim 512 --Jlo 3.78 --Jhi 3.79"),
                    _certificate("cubic", 4, lambda: _j_mf("cubic4"), False)),
            Command(_args("transition --model potts --param 3"), _potts_transition(3)),
            Command(_args("transition --model potts --param 10"), _potts_transition(10)),
            Command(_args("reproduce-figures --outdir figs"), _figures(400)),
        ]
    if workload == "mc":
        return mc_commands(seed)
    if workload == "nematic":
        return [
            Command(_args("transition --model nematic --param 3"), _nematic_transition),
            Command(_args("branches --model nematic --param 3 --Jmin 6 --Jmax 7.5 --steps 31"),
                    _nematic_branches(31)),
            Command(_args("transition --model nematic --param 200 --Jlo 460 --Jhi 520"),
                    _large_n),
            *ORACLES,
            Command(_args("certify --model nematic --param 3 --dim 512 --Jlo 6.80 --Jhi 6.82"),
                    _certificate("nematic", 3, lambda: _j_mf("nematic3"), False)),
        ]
    if workload == "infrared":
        i3 = R.W3 - 1.0
        return [
            Command(_args("id --dim 4 --method quad --tol 1e-6"), _id_gate(4, I4_BESSEL)),
            Command(_args("id --dim 3 --method quad --tol 1e-8"), _id_gate(3, i3)),
            Command(_args("id --dim 3 --method bessel --tol 1e-12"), _id_gate(3, i3)),
            Command(_args("id --dim 1024 --method bessel --tol 1e-12"),
                    _id_gate(1024, I1024_BESSEL, 1e-9 * I1024_BESSEL)),
        ]
    raise KeyError(workload)


def smoke_commands(workload: str, seed: int) -> List[Command]:
    """A reduced list per workload, a few seconds each, for the self-test."""
    if workload == "certify":
        return [certify_potts3(1024, True, "--J-grid", "3", "--m-grid", "400"),
                Command(_args("transition --model potts --param 10"), _potts_transition(10))]
    if workload == "mc":
        return mc_commands(seed, scale=0.1)[::2]
    if workload == "nematic":
        return [Command(_args("branches --model nematic --param 3 --Jmin 6.5 --Jmax 7 --steps 3"),
                        _nematic_branches(3)),
                ORACLES[1]]
    if workload == "infrared":
        return [Command(_args("id --dim 3 --method bessel --tol 1e-12"), _id_gate(3, R.W3 - 1.0))]
    raise KeyError(workload)


WORKLOADS = ("certify", "mc", "nematic", "infrared")
