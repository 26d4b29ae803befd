"""Command-line interface: one entry point for every subcommand.

Subcommands: id, profile, branches, transition, barrier, bands, certify,
oracle, mc, rate, reproduce-figures.  JSON outputs carry a schema_version
field; CSV uses header rows, '.' decimal separator and 12 significant
digits.  Identical invocations (including seeds) produce byte-identical
primary outputs.  Exit codes: 0 success, 2 usage error, 1 computational
failure (machine-readable JSON on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

# lazy modules (mfspin/__init__.py): each runs when a command first reads it
from . import certification, lattice, mc, models, oracle, solver
from .errors import MFSpinError

SCHEMA_VERSION = 1

_FIG1_JS = (2.73, 2.76, 2.77, 2.8)
_FIG2_Q = 10
_FIG2_JRANGE = (4.4, 5.6)
_FIG2_STEPS = 121
_FIG2_ID = 0.002


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Optional[str], text: str):
    """Write text to path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_from_args(args) -> models.ModelSpec:
    return models.ModelSpec(args.model, int(args.param))


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the parsed arguments and returns the
# text of its primary output
# ---------------------------------------------------------------------------

def _cmd_id(a) -> str:
    return _json(lattice.compute_id(a.dim, a.method, a.tol).as_dict())


def _cmd_profile(a) -> str:
    model = _model_from_args(a)
    lo, hi = model.m_bounds()
    eps = 1e-9 * (hi - lo)
    ms = np.linspace(max(lo, 0.0) + eps if a.nonnegative else lo + eps,
                     hi - eps, a.grid)
    phi1d = models.scalar_phi(model, a.J, ms)
    # Potts prints the raw simplex free energy
    phi = models.potts_phi(model.param, a.J, ms) if model.kind == "potts" else phi1d
    full = model.omega_norm_sq * phi1d
    return _csv(("m", "phi", "phi_full_scale"),
                zip(ms.tolist(), phi.tolist(), full.tolist()))


def _branches_csv(model, Js) -> str:
    sets = solver.solve_branches(model, np.asarray(Js, dtype=float))
    return _csv(("J", "m", "stability", "phi"),
                [(p.J, p.m, p.stability, p.phi) for bs in sets for p in bs.points])


def _cmd_branches(a) -> str:
    return _branches_csv(_model_from_args(a), np.linspace(a.Jmin, a.Jmax, a.steps))


def _cmd_transition(a) -> str:
    model = _model_from_args(a)
    tp = solver.find_transition(model, None if a.Jlo is None else (a.Jlo, a.Jhi))
    return _json({"model": str(model), **tp.as_dict()})


def _cmd_barrier(a) -> str:
    model = _model_from_args(a)
    delta = solver.barrier_height(model, a.J)
    return _json({"model": str(model), "J": a.J, "barrier": delta})


_BANDS_HEADER = ("J", "band_index", "m_lo", "m_hi")


def _bands_rows(model, J, slack, grid):
    bands = certification.allowed_bands(model, J, slack, grid)
    return [(J, i, b[0], b[1]) for i, b in enumerate(bands)]


def _cmd_bands(a) -> str:
    model = _model_from_args(a)
    slack = a.slack if a.slack is not None else a.J * model.delta_factor * a.id_value
    return _csv(_BANDS_HEADER, _bands_rows(model, a.J, slack, a.grid))


def _cmd_certify(a) -> str:
    model = _model_from_args(a)
    cert = certification.certify(model, a.dim, (a.Jlo, a.Jhi),
                                 J_grid=a.J_grid, m_grid=a.m_grid)
    return _json(cert.as_dict())


def _cmd_oracle(a) -> str:
    model = _model_from_args(a)
    res, scal = oracle.check_reduction(model, a.J, a.resolution)
    # the grid's own bound, plus a rounding floor of a few ulps of the values
    match = abs(res.value - scal) < 2.0 / a.resolution + 4.0 * math.ulp(scal)
    return _json({"model": str(model), "J": a.J, **res.as_dict(), "scalar_min": scal,
                  "matched_scalar": match})


def _cmd_mc(a) -> str:
    model = _model_from_args(a)
    conf = mc.MCConfig(model=model, J=a.J, N=a.N, sweeps=a.sweeps,
                       burn_in=a.burn_in, seed=a.seed,
                       histogram_bins=a.bins)
    res = mc.run_mc(conf)
    if a.hist_out:
        centers = 0.5 * (res.bin_edges[:-1] + res.bin_edges[1:])
        _write(a.hist_out, _csv(("bin_center", "count"),
                                zip(centers.tolist(), res.histogram.tolist())))
    return _json(res.as_dict())


def _cmd_rate(a) -> str:
    model = _model_from_args(a)
    est = mc.estimate_rate_function(model, a.J, a.Ns, a.sweeps, a.burn_in,
                                    seed=a.seed, histogram_bins=a.bins)
    largest = est.results[-1]
    n_tot = largest.n_samples
    shifted = est.shifted_rate()
    lo, hi = model.m_bounds()
    centers = est.bin_centers
    inside = (lo < centers) & (centers < hi)
    phis = np.full(len(centers), np.nan)
    phis[inside] = models.phi_full_scale(model, a.J, centers[inside])
    phis_shift = phis - np.nanmin(phis[est.adequate])
    rows = []
    for b in range(len(centers)):
        if not est.adequate[b]:
            continue
        f = largest.histogram[b] / n_tot
        stderr = np.sqrt(max(1.0 - f, 0.0) / (n_tot * f)) / largest.config.N
        rows.append((float(centers[b]), float(shifted[b]),
                     float(stderr), float(phis_shift[b])))
    return _csv(("bin_center", "rate", "stderr", "phi_shifted"), rows)


def _cmd_reproduce_figures(a) -> str:
    outdir = a.outdir
    os.makedirs(outdir, exist_ok=True)
    files = {}

    # free-energy profiles of the 3-state model around its transition
    q3 = models.potts(3)
    lo, hi = q3.m_bounds()
    ms = np.linspace(0.0, hi - 1e-9, a.grid)
    rows = []
    for J in _FIG1_JS:
        phis = models.potts_phi(3, J, ms).tolist()
        fulls = q3.omega_norm_sq * models.scalar_phi(q3, J, ms)
        rows.extend((J, m, phi, full)
                    for m, phi, full in zip(ms.tolist(), phis, fulls.tolist()))
    _write(os.path.join(outdir, "fig1_q3.csv"),
           _csv(("J", "m", "phi", "phi_full_scale"), rows))
    files["fig1_q3.csv"] = {"model": "potts(q=3)", "J": list(_FIG1_JS),
                            "grid": a.grid, "m_range": [0.0, hi]}

    # branch structure and allowed bands of the 10-state model
    q10 = models.potts(_FIG2_Q)
    Js = [float(J) for J in np.linspace(*_FIG2_JRANGE, _FIG2_STEPS)]
    _write(os.path.join(outdir, "fig2_q10_branches.csv"), _branches_csv(q10, Js))
    band_rows = []
    for J in Js:
        band_rows.extend(_bands_rows(q10, J, J * q10.delta_factor * _FIG2_ID, 2000))
    _write(os.path.join(outdir, "fig2_q10_bands.csv"), _csv(_BANDS_HEADER, band_rows))
    files["fig2_q10_branches.csv"] = {
        "model": f"potts(q={_FIG2_Q})", "J_range": list(_FIG2_JRANGE),
        "steps": _FIG2_STEPS}
    files["fig2_q10_bands.csv"] = {
        "model": f"potts(q={_FIG2_Q})", "J_range": list(_FIG2_JRANGE),
        "steps": _FIG2_STEPS, "I_d": _FIG2_ID, "m_grid": 2000}
    _write(os.path.join(outdir, "manifest.json"), _json({"files": files}))
    return _json({"outdir": outdir, "written": sorted(files) + ["manifest.json"]})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", required=True, choices=("potts", "cubic", "nematic"))
    p.add_argument("--param", required=True, type=_size(1),
                   help="q (potts), r (cubic) or N (nematic)")


def _bounded(convert, lo, strict: bool = False, hi=np.inf):
    """argparse type: a finite number no smaller than lo, or above lo when
    strict, and no larger than hi (usage error otherwise, NaN and +-inf
    included)."""
    bound = "finite"
    if lo > -np.inf:
        bound += f" and {'above' if strict else 'at least'} {lo}"
    if hi < np.inf:
        bound += f" and at most {hi}"

    def parse(text: str):
        value = convert(text)
        if not ((lo < value if strict else lo <= value) and value <= hi
                and value < np.inf):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = convert.__name__
    return parse


_finite = _bounded(float, -np.inf, strict=True)
_nonnegative = _bounded(float, 0.0)
_positive = _bounded(float, 0.0, strict=True)

# the largest integer accepted by an option that sets an array size: far above
# any run this package is meant for, far below what numpy can allocate
_MAX_SIZE = 10 ** 7


def _size(lo: int):
    """argparse type: an array size from lo to _MAX_SIZE."""
    return _bounded(int, lo, hi=_MAX_SIZE)


# d < 3 is left to lattice's typed DimensionTooSmall; the top is the cap that
# every size-like option shares, up to which I_d is tested
_dimension = _bounded(int, -np.inf, hi=_MAX_SIZE)


def _vertex_counts(text: str) -> List[int]:
    """argparse type for --Ns: three or more distinct vertex counts."""
    Ns = [_size(2)(s) for s in text.split(",")]
    if len(Ns) < 3 or len(set(Ns)) < len(Ns):
        raise argparse.ArgumentTypeError(
            f"need at least three distinct comma-separated values, got {text!r}")
    return Ns


_vertex_counts.__name__ = "int list"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfspin", description=__doc__)
    ap.add_argument("--out", dest="out", default=None,
                    help="write primary output to this path instead of stdout")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("id", help="infrared integrals W_d and I_d")
    p.add_argument("--dim", type=_dimension, required=True)
    # lattice.METHODS, written out so that building the parser loads no lattice
    p.add_argument("--method", choices=("bessel", "quad"), default="bessel")
    p.add_argument("--tol", type=_positive, default=1e-8)

    p = sub.add_parser("profile", help="scalar free-energy profile at fixed J")
    _add_model_flags(p)
    p.add_argument("--J", type=_finite, required=True)
    p.add_argument("--grid", type=_size(1), default=400)
    p.add_argument("--nonnegative", action="store_true",
                   help="restrict the grid to m >= 0")

    p = sub.add_parser("branches", help="mean-field-equation roots over a J grid")
    _add_model_flags(p)
    p.add_argument("--Jmin", type=_nonnegative, required=True)
    p.add_argument("--Jmax", type=_nonnegative, required=True)
    p.add_argument("--steps", type=_size(1), default=101)

    p = sub.add_parser("transition", help="locate J_MF and m_c")
    _add_model_flags(p)
    p.add_argument("--Jlo", type=_finite, default=None)
    p.add_argument("--Jhi", type=_finite, default=None)

    p = sub.add_parser("barrier", help="barrier height Delta(J) (full-Phi scale)")
    _add_model_flags(p)
    p.add_argument("--J", type=_nonnegative, required=True)

    p = sub.add_parser("bands", help="allowed magnetization bands at fixed J")
    _add_model_flags(p)
    p.add_argument("--J", type=_nonnegative, required=True)
    p.add_argument("--id-value", dest="id_value", type=_nonnegative, default=None,
                   help="I_d to convert into slack J*n*(kappa/2)*I_d")
    p.add_argument("--slack", type=_nonnegative, default=None,
                   help="explicit slack (overrides --id-value)")
    p.add_argument("--grid", type=_size(2), default=2000)

    p = sub.add_parser("certify", help="first-order certificate on a J window")
    _add_model_flags(p)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--Jlo", type=_finite, required=True)
    p.add_argument("--Jhi", type=_finite, required=True)
    p.add_argument("--J-grid", dest="J_grid", type=_size(1), default=21)
    p.add_argument("--m-grid", dest="m_grid", type=_size(4), default=2000)

    p = sub.add_parser("oracle", help="full-space brute-force minimization")
    _add_model_flags(p)
    p.add_argument("--J", type=_positive, required=True)
    p.add_argument("--resolution", type=_bounded(int, 20), default=200)

    p = sub.add_parser("mc", help="complete-graph Monte Carlo")
    _add_model_flags(p)
    p.add_argument("--J", type=_nonnegative, required=True)
    p.add_argument("--N", type=_size(2), required=True)
    p.add_argument("--sweeps", type=_size(1), required=True)
    p.add_argument("--burn-in", dest="burn_in", type=_bounded(int, 0), default=0)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--bins", type=_size(1), default=100)
    p.add_argument("--hist-out", dest="hist_out", default=None)

    p = sub.add_parser("rate", help="rate-function estimate over several N")
    _add_model_flags(p)
    p.add_argument("--J", type=_nonnegative, required=True)
    p.add_argument("--Ns", type=_vertex_counts, required=True,
                   help="comma-separated, e.g. 50,100,200")
    p.add_argument("--sweeps", type=_size(1), default=30000)
    p.add_argument("--burn-in", dest="burn_in", type=_bounded(int, 0), default=2000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--bins", type=_size(1), default=100)

    p = sub.add_parser("reproduce-figures", help="emit figure-reproduction data")
    p.add_argument("--outdir", required=True)
    p.add_argument("--grid", type=_size(1), default=400)

    return ap


_DISPATCH = {
    "id": _cmd_id,
    "profile": _cmd_profile,
    "branches": _cmd_branches,
    "transition": _cmd_transition,
    "barrier": _cmd_barrier,
    "bands": _cmd_bands,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "mc": _cmd_mc,
    "rate": _cmd_rate,
    "reproduce-figures": _cmd_reproduce_figures,
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "model", None) is not None:
        try:
            models.ModelSpec(args.model, args.param)
        except ValueError as exc:       # --param below the model's least value
            ap.error(f"argument --param: {exc}")
    if args.subcommand == "bands" and args.id_value is None and args.slack is None:
        ap.error("bands requires --id-value or --slack")
    if args.subcommand in ("mc", "rate") and args.sweeps < args.burn_in + 2:
        ap.error(f"{args.subcommand} requires --sweeps >= --burn-in + 2")
    if args.subcommand == "certify" and not 0 < args.Jlo < args.Jhi:
        ap.error("certify requires 0 < --Jlo < --Jhi")
    if args.subcommand == "transition" and (args.Jlo is None) != (args.Jhi is None):
        ap.error("transition takes both --Jlo and --Jhi, or neither")
    try:
        text = _DISPATCH[args.subcommand](args)
    except MFSpinError as exc:
        sys.stderr.write(json.dumps(
            {"schema_version": SCHEMA_VERSION,
             "error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    _write(args.out, text)
    return 0


def main() -> None:
    try:
        code = dispatch()
    finally:
        # the output and exit code are final: move every tracked object to the
        # permanent generation, which interpreter shutdown's collections skip
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
