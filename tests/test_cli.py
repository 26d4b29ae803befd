"""CLI dispatch: output formats, exit codes, figure-data reproduction."""

import gc
import importlib
import json
import os
import warnings

import numpy as np
import pytest

from conftest import python_process, reference_roots, run_python
from mfspin import models
from mfspin.cli import dispatch

J_MF_Q3 = 4 * np.log(2)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_id_json_contract(capsys):
    code, out, _ = run_cli(capsys, "id", "--dim", "3", "--method", "bessel",
                           "--tol", "1e-7")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["d"] == 3
    assert payload["id"] == pytest.approx(0.5163861, abs=1e-6)
    assert payload["wd"] == pytest.approx(1.5163861, abs=1e-6)
    assert payload["err"] <= 1e-7


def test_id_quad_method(capsys):
    code, out, _ = run_cli(capsys, "id", "--dim", "3", "--method", "quad",
                           "--tol", "1e-7")
    assert code == 0
    assert json.loads(out)["id"] == pytest.approx(0.5163861, abs=1e-5)


def test_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "--model", "potts", "--param",
                           "3", "--J", "2.76", "--grid", "50")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "phi", "phi_full_scale"]
    assert len(rows) == 50
    # full-scale column differs from the raw simplex column by a constant
    diffs = {round(float(r[2]) - float(r[1]), 9) for r in rows}
    assert len(diffs) == 1


def test_transition_json(capsys):
    code, out, _ = run_cli(capsys, "transition", "--model", "potts",
                           "--param", "3", "--Jlo", "2.75", "--Jhi", "2.95")
    assert code == 0
    payload = json.loads(out)
    assert payload["J_MF"] == pytest.approx(J_MF_Q3, abs=1e-6)
    assert payload["m_c"] == pytest.approx(1 / 3, abs=1e-6)


def test_transition_auto_bracket(capsys):
    code, out, _ = run_cli(capsys, "transition", "--model", "cubic", "--param", "4")
    assert code == 0
    assert json.loads(out)["J_MF"] == pytest.approx(3.7851981, abs=1e-5)


@pytest.mark.parametrize("model", [("potts", "10"), ("nematic", "3")], ids="-".join)
def test_transition_is_silent(capsys, model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "transition", "--model", model[0],
                                 "--param", model[1])
    assert code == 0 and err == ""


def test_transition_nematic_large_N(capsys):
    code, out, _ = run_cli(capsys, "transition", "--model", "nematic", "--param", "1000")
    assert code == 0
    assert abs(json.loads(out)["J_MF"] / 1000 - 2.455352) < 1e-5


@pytest.mark.parametrize("window", [("2.80", "2.95"), ("2.0", "2.77")], ids="-".join)
def test_certify_window_without_transition_is_typed_error(capsys, window):
    code, out, err = run_cli(capsys, "certify", "--model", "potts", "--param", "3",
                             "--dim", "1024", "--Jlo", window[0], "--Jhi", window[1])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "WindowExcludesTransition"


def test_barrier_json(capsys):
    code, out, _ = run_cli(capsys, "barrier", "--model", "potts", "--param",
                           "10", "--J", f"{2.25 * np.log(9)}")
    assert code == 0
    assert json.loads(out)["barrier"] == pytest.approx(0.0713807, abs=1e-6)


def test_bands_csv(capsys):
    code, out, _ = run_cli(capsys, "bands", "--model", "potts", "--param", "10",
                           "--J", f"{2.25 * np.log(9)}", "--id-value", "0.002")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["J", "band_index", "m_lo", "m_hi"]
    assert len(rows) == 2
    gap = float(rows[1][2]) - float(rows[0][3])
    assert gap > 0.3


def test_branches_csv_unstable_between_stable(capsys):
    code, out, _ = run_cli(capsys, "branches", "--model", "potts", "--param",
                           "10", "--Jmin", "4.7", "--Jmax", "5.1", "--steps",
                           "9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["J", "m", "stability", "phi"]
    byJ = {}
    for r in rows:
        byJ.setdefault(r[0], []).append((float(r[1]), r[2]))
    for J, pts in byJ.items():
        stable = sorted(m for m, s in pts if s == "stable" and m > -1e-9)
        unstable = [m for m, s in pts if s == "unstable" and m > 1e-6]
        if len(stable) >= 2 and unstable:
            assert all(stable[0] < u < stable[-1] for u in unstable)


def _reference_rows(model, J):
    """(m, stability, phi) at every root of a 2e5-cell reference walk."""
    return [(m, "stable" if J * model.g_second(J * m) < 1.0 else "unstable",
             J * m * m / 2.0 - model.g(J * m)) for m in reference_roots(model, J, 10 ** 5)]


def test_barrier_finds_the_ridge_next_to_zero(capsys):
    # the ridge at m = 1.2e-3 and m = 0 shared a cell of the 400-point m scan,
    # which found no ridge and printed a barrier of 0
    model, J = models.potts(1000), 900.0
    code, out, err = run_cli(capsys, "barrier", "--model", "potts", "--param", "1000",
                             "--J", "900")
    assert (code, err) == (0, "")
    rows = _reference_rows(model, J)
    mins = [r for r in rows if r[1] == "stable" and r[0] >= 0.0]
    ridge = max(r[2] for r in rows if r[1] == "unstable" and mins[0][0] < r[0] < mins[-1][0])
    expect = model.omega_norm_sq * (ridge - max(mins[0][2], mins[-1][2]))
    assert expect == pytest.approx(8.25086e-07, rel=1e-5)
    assert abs(json.loads(out)["barrier"] - expect) <= 1e-15


@pytest.mark.parametrize("q, J, m, stability", [
    (1000, "650.7833", 0.0012397, "unstable"),    # the ridge next to m = 0
    (3, "3.005", -0.0022075, "stable"),           # the stable root below m = 0
], ids=["potts1000-ridge", "potts3-negative"])
def test_branches_find_the_roots_next_to_zero(capsys, q, J, m, stability):
    # each root shared a cell of the 400-point m scan with m = 0
    code, out, _ = run_cli(capsys, "branches", "--model", "potts", "--param", str(q),
                           "--Jmin", J, "--Jmax", J, "--steps", "1")
    assert code == 0
    _, rows = parse_csv(out)
    ref = _reference_rows(models.potts(q), float(J))
    assert [r[2] for r in rows] == [r[1] for r in ref]
    assert np.allclose([float(r[1]) for r in rows], [r[0] for r in ref], rtol=0.0, atol=1e-10)
    assert [r[2] for r in rows if abs(float(r[1]) - m) < 1e-7] == [stability]


def test_branches_report_the_root_through_zero_as_zero_at_huge_couplings(capsys):
    # Brent leaves the root through 0 within 1e-12 of it, where J m is -6627
    # at J = 1e16 and the dual form of phi gave -1653.5
    code, out, _ = run_cli(capsys, "branches", "--model", "nematic", "--param", "4",
                           "--Jmin", "1e16", "--Jmax", "1e16", "--steps", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1:] for r in rows if abs(float(r[1])) < 0.1] == [["0", "unstable", "0"]]


def test_mc_json_and_histogram(capsys, tmp_path):
    hist = tmp_path / "h.csv"
    code, out, _ = run_cli(capsys, "mc", "--model", "potts", "--param", "3",
                           "--J", "2.0", "--N", "50", "--sweeps", "400",
                           "--burn-in", "100", "--seed", "5",
                           "--hist-out", str(hist))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_samples"] == 300
    assert sum(payload["histogram"]) == 300
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_center,count"
    assert len(lines) == 101


def test_mc_histogram_keeps_fully_ordered_samples(capsys):
    # deep in the ordered phase most q = 3 samples have every spin in one
    # state, m = 1 - 1/q, which rounds one ulp above the interval's top
    code, out, _ = run_cli(capsys, "mc", "--model", "potts", "--param", "3",
                           "--J", "8", "--N", "10", "--sweeps", "2000",
                           "--burn-in", "100", "--bins", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_samples"] == 1900
    assert sum(payload["histogram"]) == payload["n_samples"]


def test_rate_csv(capsys):
    code, out, _ = run_cli(capsys, "rate", "--model", "potts", "--param", "3",
                           "--J", "0.0", "--Ns", "40,80,160", "--sweeps",
                           "3000", "--burn-in", "300", "--seed", "9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["bin_center", "rate", "stderr", "phi_shifted"]
    assert rows, "expected adequately sampled bins"
    for r in rows:
        assert abs(float(r[1]) - float(r[3])) < 0.25


def test_rate_without_an_adequate_bin_is_typed_error(capsys):
    # three sweeps leave every bin with fewer than ten samples at N = 40
    code, out, err = run_cli(capsys, "rate", "--model", "potts", "--param", "3",
                             "--J", "2", "--Ns", "10,20,40", "--sweeps", "3",
                             "--burn-in", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InsufficientSamples"


def test_rate_at_an_overflowing_coupling_is_typed_error(capsys):
    # the heat-bath weights exp((J/N) k) overflow beyond J = ln(DBL_MAX) = 709.78
    argv = ("rate", "--model", "potts", "--param", "3", "--Ns", "5,6,7",
            "--sweeps", "200", "--burn-in", "10")
    code, out, err = run_cli(capsys, *argv, "--J", "710")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "CouplingOverflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--J", "709")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("model", [("potts", "2"), ("cubic", "2"), ("cubic", "3")],
                         ids="-".join)
def test_transition_without_first_order_jump_is_typed_error(capsys, model):
    for bracket in ((), ("--Jlo", "1", "--Jhi", "3")):
        code, out, err = run_cli(capsys, "transition", "--model", model[0],
                                 "--param", model[1], *bracket)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "BracketInvalid"
        assert "no first-order jump" in payload["message"]


def test_usage_error_exit_code_two(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["bands", "--model", "potts", "--param", "10", "--J", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2


def test_computational_error_exit_code_one(capsys):
    code, out, err = run_cli(capsys, "id", "--dim", "2")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "DimensionTooSmall"


def test_id_at_the_largest_dimension(capsys):
    # d = 10**7 at tol 1e-12: the log-space Bessel powers keep I_d ~ 1/(2d)
    # to a few ulps, so the command computes it, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "id", "--dim", "10000000", "--tol", "1e-12")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert abs(2 * payload["d"] * payload["id"] - 1.0) < 1e-6
    assert payload["err"] <= 1e-12


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "id.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "id", "--dim", "4")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["d"] == 4


# ---------------------------------------------------------------------------
# figure-data reproduction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    code = dispatch(["reproduce-figures", "--outdir", str(outdir),
                     "--grid", "300"])
    assert code == 0
    return outdir


def test_reproduce_figures_file_contract(figures_dir):
    names = sorted(os.listdir(figures_dir))
    assert names == ["fig1_q3.csv", "fig2_q10_branches.csv",
                     "fig2_q10_bands.csv", "manifest.json"] or set(names) == {
        "fig1_q3.csv", "fig2_q10_branches.csv", "fig2_q10_bands.csv",
        "manifest.json"}
    manifest = json.loads((figures_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"fig1_q3.csv", "fig2_q10_branches.csv",
                                      "fig2_q10_bands.csv"}
    assert manifest["files"]["fig2_q10_bands.csv"]["I_d"] == 0.002


def test_fig1_minima_order_switch_brackets_transition(figures_dir):
    """The two-minima order switch happens between J=2.77 and J=2.8.

    J_MF = 4 log 2 = 2.77259 lies between those two curve couplings; at 2.76
    and 2.77 the asymmetric minimum is metastable (higher), at 2.8 it is the
    global one.
    """
    text = (figures_dir / "fig1_q3.csv").read_text().strip().splitlines()
    data = {}
    for line in text[1:]:
        J, m, phi, full = (float(v) for v in line.split(","))
        data.setdefault(J, []).append((m, phi))
    sign = {}
    for J, pts in data.items():
        pts.sort()
        ms = np.array([p[0] for p in pts])
        ph = np.array([p[1] for p in pts])
        inner = np.flatnonzero((ph[1:-1] < ph[:-2]) & (ph[1:-1] < ph[2:]))
        asym = [i + 1 for i in inner if ms[i + 1] > 0.05]
        if asym:
            i = asym[0]
            sign[J] = np.sign(ph[i] - ph[0])
    assert 2.73 not in sign          # below the spinodal J1 = 2.74564
    assert sign[2.76] > 0 and sign[2.77] > 0
    assert sign[2.8] < 0


def test_fig2_bands_split_near_transition(figures_dir):
    text = (figures_dir / "fig2_q10_bands.csv").read_text().strip().splitlines()
    per_J = {}
    for line in text[1:]:
        J, idx, lo, hi = line.split(",")
        per_J.setdefault(float(J), []).append((float(lo), float(hi)))
    J_mf = 2.25 * np.log(9)
    J_near = min(per_J, key=lambda J: abs(J - J_mf))
    assert len(per_J[J_near]) == 2


def test_reproduce_figures_deterministic(figures_dir):
    golden = os.path.join(DATA, "figures")
    for name in ("fig1_q3.csv", "fig2_q10_branches.csv", "fig2_q10_bands.csv",
                 "manifest.json"):
        with open(os.path.join(golden, name), "rb") as fh:
            assert (figures_dir / name).read_bytes() == fh.read()


# Outputs pinned byte for byte; regenerate a fixture only when an output is
# meant to change, and say so in CHANGES.md.  An argument "FILE" is replaced
# by a temporary path, and the file written there is compared, not stdout.
GOLDEN = [
    ("certify_potts3_d1024.json",
     ("certify", "--model", "potts", "--param", "3", "--dim", "1024",
      "--Jlo", "2.7715", "--Jhi", "2.7735", "--J-grid", "3")),
    ("bands_potts10.csv",
     ("bands", "--model", "potts", "--param", "10", "--J", "4.94",
      "--id-value", "0.002")),
    ("profile_potts3.csv",
     ("profile", "--model", "potts", "--param", "3", "--J", "2.76", "--grid", "50")),
    ("profile_cubic4.csv",
     ("profile", "--model", "cubic", "--param", "4", "--J", "3.785", "--grid", "50")),
    ("branches_nematic3.csv",
     ("branches", "--model", "nematic", "--param", "3", "--Jmin", "6", "--Jmax", "7.5",
      "--steps", "4")),
    ("transition_potts10.json",
     ("transition", "--model", "potts", "--param", "10")),
    ("transition_nematic3.json",
     ("transition", "--model", "nematic", "--param", "3")),
    ("barrier_nematic4.json",
     ("barrier", "--model", "nematic", "--param", "4", "--J", "5.2")),
    ("oracle_potts3.json",
     ("oracle", "--model", "potts", "--param", "3", "--J", "2.7725887")),
    ("oracle_cubic4.json",
     ("oracle", "--model", "cubic", "--param", "4", "--J", "3.7852")),
    ("oracle_nematic3.json",
     ("oracle", "--model", "nematic", "--param", "3", "--J", "6.8122",
      "--resolution", "200")),
    # a grid row of 2 500 fields, longer than the search's chunk
    ("oracle_nematic4_r50.json",
     ("oracle", "--model", "nematic", "--param", "4", "--J", "9.5",
      "--resolution", "50")),
    ("mc_potts3.json",
     ("mc", "--model", "potts", "--param", "3", "--J", "3.2", "--N", "30",
      "--sweeps", "200", "--burn-in", "50", "--seed", "3", "--bins", "20")),
    ("mc_potts3_n200.json",
     ("mc", "--model", "potts", "--param", "3", "--J", "3.2", "--N", "200",
      "--sweeps", "300", "--burn-in", "30", "--seed", "4", "--bins", "20")),
    ("mc_cubic4.json",
     ("mc", "--model", "cubic", "--param", "4", "--J", "4.0", "--N", "30",
      "--sweeps", "200", "--burn-in", "50", "--seed", "3", "--bins", "20")),
    # the per-site loop at workload scale, where the counts stand for long
    # stretches and a state's row is reused across many sites
    ("mc_cubic4_n200.json",
     ("mc", "--model", "cubic", "--param", "4", "--J", "4.0", "--N", "200",
      "--sweeps", "300", "--burn-in", "30", "--seed", "4", "--bins", "20")),
    ("mc_potts10_n100.json",
     ("mc", "--model", "potts", "--param", "10", "--J", "6", "--N", "100",
      "--sweeps", "300", "--burn-in", "30", "--seed", "4", "--bins", "20")),
    ("mc_potts2.json",
     ("mc", "--model", "potts", "--param", "2", "--J", "2.5", "--N", "30",
      "--sweeps", "200", "--burn-in", "50", "--seed", "3", "--bins", "20")),
    ("mc_cubic1.json",
     ("mc", "--model", "cubic", "--param", "1", "--J", "1.2", "--N", "30",
      "--sweeps", "200", "--burn-in", "50", "--seed", "3", "--bins", "20")),
    ("mc_nematic3.json",
     ("mc", "--model", "nematic", "--param", "3", "--J", "10", "--N", "20",
      "--sweeps", "100", "--burn-in", "20", "--seed", "3", "--bins", "20")),
    ("mc_nematic4.json",
     ("mc", "--model", "nematic", "--param", "4", "--J", "6", "--N", "20",
      "--sweeps", "100", "--burn-in", "20", "--seed", "3", "--bins", "20")),
    # burn-in 60 crosses the step-tuning points at sweeps 24 and 49
    ("mc_nematic3_tuned.json",
     ("mc", "--model", "nematic", "--param", "3", "--J", "10", "--N", "20",
      "--sweeps", "120", "--burn-in", "60", "--seed", "3", "--bins", "20")),
    ("mc_cubic3_hist.csv",
     ("mc", "--model", "cubic", "--param", "3", "--J", "3.5", "--N", "30",
      "--sweeps", "200", "--burn-in", "50", "--seed", "4", "--bins", "20",
      "--hist-out", "FILE")),
    ("rate_potts3.csv",
     ("rate", "--model", "potts", "--param", "3", "--J", "2.5", "--Ns", "20,40,80",
      "--sweeps", "400", "--burn-in", "50", "--seed", "2", "--bins", "30")),
    ("id_quad_d3.json",
     ("id", "--dim", "3", "--method", "quad", "--tol", "1e-8")),
    ("id_bessel_d1024.json",
     ("id", "--dim", "1024", "--method", "bessel", "--tol", "1e-12")),
    ("certify_cubic4_d512.json",
     ("certify", "--model", "cubic", "--param", "4", "--dim", "512",
      "--Jlo", "3.78", "--Jhi", "3.79", "--J-grid", "3")),
    ("certify_nematic3_d512.json",
     ("certify", "--model", "nematic", "--param", "3", "--dim", "512",
      "--Jlo", "6.80", "--Jhi", "6.82", "--J-grid", "3")),
    ("transition_potts3.json",
     ("transition", "--model", "potts", "--param", "3")),
]
DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("fixture,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_match_golden_bytes(capsys, tmp_path, fixture, argv):
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, *(str(target) if a == "FILE" else a for a in argv))
    assert code == 0
    if "FILE" in argv:
        out = target.read_text(encoding="utf-8")
    with open(os.path.join(DATA, fixture), "rb") as fh:
        assert out.encode("utf-8") == fh.read()


def strict_json(text):
    """text parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("fixture", sorted(
    os.path.relpath(os.path.join(root, name), DATA)
    for root, _, names in os.walk(DATA) for name in names if name.endswith(".json")))
def test_json_fixtures_are_strict_json(fixture):
    with open(os.path.join(DATA, fixture), encoding="utf-8") as fh:
        assert strict_json(fh.read())["schema_version"] == 1


@pytest.mark.parametrize("argv", [
    *(argv for _, argv in GOLDEN if argv[0] == "certify"),
    ("certify", "--model", "potts", "--param", "3", "--dim", "64",
     "--Jlo", "2.7", "--Jhi", "2.8"),
    ("certify", "--model", "potts", "--param", "4", "--dim", "256",
     "--Jlo", "3.2", "--Jhi", "3.4", "--J-grid", "3")])
def test_certify_outputs_are_strict_json_with_null_for_no_finite_value(capsys, argv):
    # cubic r = 4 on [3.78, 3.79] and Potts q = 3 on [2.7, 2.8] hold no
    # ordered minimum, varkappa = 0, so epsilon2 has no finite value: null,
    # where Python's json writes Infinity
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cert = strict_json(out)
    assert (cert["epsilon2"] is None) == ("3.78" in argv or "2.7" in argv)


def test_nematic_profile_reaches_the_bottom_of_the_interval(capsys):
    # the first grid point, -1/3 + 1e-9, needs a dual field of about -3e8
    code, out, err = run_cli(capsys, "profile", "--model", "nematic", "--param", "3",
                             "--J", "6.8", "--grid", "5")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["m", "phi", "phi_full_scale"] and len(rows) == 5
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


# The exit path as a shell runs it: `python -m mfspin.cli` in a fresh
# interpreter, through main() and its heap freeze to interpreter shutdown.
EXITS_1 = ("certify", "--model", "potts", "--param", "3", "--dim", "64",
           "--Jlo", "1", "--Jhi", "2")
EXITS_2 = ("certify", "--model", "potts", "--param", "3", "--dim", "64",
           "--Jlo", "2", "--Jhi", "1")


@pytest.mark.parametrize("fixture", ["transition_potts3.json", "id_bessel_d1024.json",
                                     "certify_cubic4_d512.json"])
def test_module_entry_prints_the_golden_bytes_and_exits_0(fixture):
    proc = python_process("-m", "mfspin.cli", *dict(GOLDEN)[fixture])
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(os.path.join(DATA, fixture), "rb") as fh:
        assert proc.stdout.encode("utf-8") == fh.read()


def test_module_entry_exits_1_with_typed_json_on_stderr():
    proc = python_process("-m", "mfspin.cli", *EXITS_1)
    assert (proc.returncode, proc.stdout) == (1, "")
    err = json.loads(proc.stderr)
    assert err["schema_version"] == 1 and err["error"] == "WindowExcludesTransition"


def test_module_entry_exits_2_on_a_usage_error():
    proc = python_process("-m", "mfspin.cli", *EXITS_2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: mfspin ")
    assert proc.stderr.endswith("mfspin: error: certify requires 0 < --Jlo < --Jhi\n")


@pytest.mark.parametrize("code,argv", [(0, ("id", "--dim", "3", "--method", "bessel")),
                                       (1, EXITS_1), (2, EXITS_2)])
def test_main_freezes_the_heap_before_every_exit(code, argv):
    # the shutdown collections skip the permanent generation; once numpy is
    # imported about 22 000 tracked objects are left for them to sweep
    probe = ("import gc, sys, mfspin.cli\n"
             f"sys.argv = ['mfspin', *{argv!r}]\n"
             "try:\n"
             "    mfspin.cli.main()\n"
             "except SystemExit as exc:\n"
             "    print(exc.code, gc.get_freeze_count(), len(gc.get_objects()))\n")
    got, frozen, unfrozen = map(int, run_python(probe).splitlines()[-1].split())
    assert got == code
    assert frozen > 10_000
    assert unfrozen < 100


def test_dispatch_leaves_the_collector_alone(capsys):
    # tests and library callers run dispatch() in-process and keep normal GC
    before = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, "id", "--dim", "3", "--method", "bessel")
    assert code == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_main():
    # main() is where the freeze sits; an entry point past it would skip it
    tomllib = pytest.importorskip("tomllib")          # Python 3.11+
    with open(os.path.join(os.path.dirname(DATA), os.pardir, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"mfspin": "mfspin.cli:main"}


def test_cli_import_leaves_scipy_stats_unloaded():
    # every scipy module is imported where it is first used, so importing the
    # CLI loads numpy and no scipy at all
    probe = ("import sys, mfspin.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(probe).strip() == "[]"


@pytest.mark.parametrize("module", ["mfspin", "mfspin.models", "mfspin.lattice",
                                    "mfspin.solver", "mfspin.certification",
                                    "mfspin.oracle", "mfspin.mc", "mfspin.roots",
                                    "mfspin.watson"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


# a command of every kind that computes, for the probes of what they load
_COMPUTING = """
window = ['--J-grid', '3']
commands = (
    ['mc', '--model', 'potts', '--param', '3', '--J', '2', '--N', '10', '--sweeps', '20'],
    ['mc', '--model', 'nematic', '--param', '3', '--J', '2', '--N', '10', '--sweeps', '20'],
    ['id', '--dim', '1024', '--method', 'bessel'],
    ['id', '--dim', '4', '--method', 'quad', '--tol', '1e-6'],
    ['certify', '--model', 'potts', '--param', '3', '--dim', '256',
     '--Jlo', '2.7715', '--Jhi', '2.7735', *window],
    ['certify', '--model', 'cubic', '--param', '4', '--dim', '512',
     '--Jlo', '3.78', '--Jhi', '3.79', *window],
    ['transition', '--model', 'potts', '--param', '3'],
    ['transition', '--model', 'nematic', '--param', '3'],
    ['transition', '--model', 'nematic', '--param', '200', '--Jlo', '460', '--Jhi', '520'],
    ['branches', '--model', 'nematic', '--param', '3', '--Jmin', '6.5', '--Jmax', '7',
     '--steps', '3'],
    ['certify', '--model', 'nematic', '--param', '3', '--dim', '512',
     '--Jlo', '6.80', '--Jhi', '6.82', *window],
    ['oracle', '--model', 'nematic', '--param', '3', '--J', '6.8122',
     '--resolution', '40'],
    ['oracle', '--model', 'potts', '--param', '3', '--J', '2.7725887',
     '--resolution', '40'],
    ['oracle', '--model', 'cubic', '--param', '4', '--J', '3.7852',
     '--resolution', '40'])
"""


def test_commands_load_only_the_scipy_they_compute_with():
    # Monte Carlo needs no scipy; roots come from mfspin.roots, the lattice
    # integrals from in-package Bessel series and numpy's Gauss-Legendre
    # nodes, the nematic moments from an in-package Kummer series, the
    # nematic oracle's G from a fixed contour rule and every oracle's polish
    # from numpy's linear algebra, so none of these commands
    # imports scipy: with scipy blocked, any import of it would raise
    probe = _COMPUTING + """
import contextlib, io, sys
sys.modules['scipy'] = None
from mfspin.cli import dispatch
commands += (['oracle', '--model', 'nematic', '--param', '4', '--J', '9.5',
              '--resolution', '24'],)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
print(len(commands))
"""
    assert run_python(probe).strip() == "15"


def test_no_command_loads_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma on its first call, 11-14 ms of
    # start-up; the nematic moments group their points by a sorted set
    probe = _COMPUTING + """
import contextlib, io, sys
from mfspin.cli import dispatch
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    print(' '.join(argv[:3]), 'numpy.ma' in sys.modules)
"""
    lines = run_python(probe).splitlines()
    assert len(lines) == 14 and all(line.endswith(" False") for line in lines), lines


# the mfspin modules whose code has run: a lazy module becomes a plain module
# when it is first read
_RUN_MODULES = ("sorted(n[7:] for n, m in list(sys.modules.items()) "
                "if n.startswith('mfspin.') and type(m) is types.ModuleType)")
_WINDOW = ["--J-grid", "3"]
_TRANSITION = {"cli", "errors", "models", "roots", "solver"}


@pytest.mark.parametrize("modules, commands", [
    ({"cli", "errors", "lattice"},
     [["id", "--dim", "1024", "--method", "bessel"],
      ["id", "--dim", "4", "--method", "quad", "--tol", "1e-6"]]),
    ({"cli", "errors", "models"},
     [["profile", "--model", "potts", "--param", "3", "--J", "2.76", "--grid", "50"],
      ["profile", "--model", "cubic", "--param", "4", "--J", "3.785", "--grid", "50"]]),
    ({"cli", "errors", "models", "roots", "watson"},
     [["profile", "--model", "nematic", "--param", "3", "--J", "6.8", "--grid", "50"]]),
    ({"cli", "errors", "models", "mc"},
     [["mc", "--model", "potts", "--param", "3", "--J", "2", "--N", "10", "--sweeps", "20"],
      ["mc", "--model", "nematic", "--param", "3", "--J", "2", "--N", "10", "--sweeps", "20"],
      ["rate", "--model", "potts", "--param", "3", "--J", "2.5", "--Ns", "10,20,40",
       "--sweeps", "400", "--burn-in", "10"]]),
    (_TRANSITION,
     [["transition", "--model", "potts", "--param", "3"],
      ["branches", "--model", "cubic", "--param", "4", "--Jmin", "3.7", "--Jmax", "3.8",
       "--steps", "3"]]),
    (_TRANSITION | {"watson"},
     [["transition", "--model", "nematic", "--param", "3"],
      ["branches", "--model", "nematic", "--param", "3", "--Jmin", "6.5", "--Jmax", "7",
       "--steps", "3"]]),
    (_TRANSITION | {"certification"},
     [["bands", "--model", "potts", "--param", "3", "--J", "2.77", "--slack", "0.001"],
      ["reproduce-figures", "--grid", "20", "--outdir", "figs"]]),
    (_TRANSITION | {"certification", "lattice"},
     [["certify", "--model", "potts", "--param", "3", "--dim", "256",
       "--Jlo", "2.7715", "--Jhi", "2.7735", *_WINDOW]]),
    (_TRANSITION | {"oracle"},
     [["oracle", "--model", "potts", "--param", "3", "--J", "2.7725887",
       "--resolution", "40"]]),
    (_TRANSITION | {"watson", "oracle"},
     [["oracle", "--model", "nematic", "--param", "3", "--J", "6.8122",
       "--resolution", "40"]]),
], ids=["id", "profile", "profile-nematic", "mc-rate", "transition", "nematic",
        "bands-figures", "certify", "oracle", "oracle-nematic"])
def test_commands_load_only_the_mfspin_modules_they_run(modules, commands, tmp_path):
    # each command compiles the modules it computes with and no other, so
    # its start-up pays for no module it never runs
    probe = f"""
import contextlib, io, os, sys, types
os.chdir({str(tmp_path)!r})
import mfspin
print({_RUN_MODULES})
from mfspin.cli import dispatch
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    print({_RUN_MODULES})
"""
    lines = run_python(probe).splitlines()
    assert lines[0] == "[]"
    assert lines[1:] == [str(sorted(modules))] * len(commands)


def test_lazy_namespace_serves_the_home_modules_objects():
    import sys
    import types

    import mfspin
    for name in mfspin.__all__:
        obj = getattr(mfspin, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(mfspin.__all__) <= set(dir(mfspin))
    with pytest.raises(AttributeError, match="nope"):
        mfspin.nope
    assert not hasattr(mfspin, "nope")
    from mfspin import solver, watson
    assert solver is sys.modules["mfspin.solver"] and type(solver) is types.ModuleType
    assert watson is sys.modules["mfspin.watson"]


def test_method_choices_are_the_lattice_methods():
    import argparse

    from mfspin import lattice
    from mfspin.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["id"]._actions if a.dest == "method")
    assert tuple(method.choices) == lattice.METHODS


def test_cubic_oracle_peak_memory():
    # r = 4 at resolution 200 searches C(203, 3) = 1 373 701 compositions.
    # Linux keeps ru_maxrss across fork and exec, so a child of a large test
    # process reports its parent's peak; VmHWM is the child's own
    probe = """
import resource, sys
from mfspin.cli import dispatch
dispatch(['oracle', '--model', 'cubic', '--param', '4', '--J', '3.7852'])
try:
    with open('/proc/self/status') as fh:
        kib = int(next(line for line in fh if line.startswith('VmHWM:')).split()[1])
except (OSError, StopIteration):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib = rss / 1024 if sys.platform == 'darwin' else rss
print(kib / 1024)
"""
    peak_mib = float(run_python(probe).splitlines()[-1])
    assert peak_mib < 200.0


def test_nematic_oracle_sums_g_by_one_fixed_rule(capsys):
    # one contour rule sums G at every J, so meta reports no order; the
    # 48 x 48 product rule on the sphere gave grid_value 1.0751748529236023e-06
    code, out, _ = run_cli(capsys, "oracle", "--model", "nematic", "--param", "3",
                           "--J", "6.8122", "--resolution", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["matched_scalar"] is True
    assert "quadrature_order" not in payload["meta"]
    assert payload["grid_value"] == pytest.approx(1.0751748529236023e-06, rel=0, abs=1e-12)


def test_nematic_oracle_matches_the_scalar_minimum_at_large_coupling(capsys):
    # a fixed 288-node sphere rule could not resolve exp(h x^2) at |h| ~ 1000:
    # it reported -325.1222 against the scalar minimum -325.7337; a
    # Gauss-Legendre rule whose order was searched per call failed from
    # J ~ 1.5e4 with QuadratureFailure.  A simplex polish whose value
    # tolerance was below one ulp of |Psi| >= 512 kept the grid value at
    # J = 1e4 (5.4e-4 above) and at N = 4, J = 3000, resolution 16 (6.8 above)
    for J, resolution in (("1000", "200"), ("1e5", "20"), ("1e4", "200")):
        code, out, _ = run_cli(capsys, "oracle", "--model", "nematic", "--param", "3",
                               "--J", J, "--resolution", resolution)
        assert code == 0
        payload = json.loads(out)
        assert payload["matched_scalar"] is True
        assert abs(payload["value"] - payload["scalar_min"]) <= 1e-9
    # the command takes resolution >= 20, so resolution 16 goes by the API
    from mfspin import models, oracle
    res, scalar = oracle.check_reduction(models.nematic(4), 3000.0, 16)
    assert abs(res.value - scalar) <= 1e-9


def test_nematic_oracle_at_a_root_next_to_the_end(capsys):
    # at J = 1e13 the ordered root is 3/4 - 1.5e-13 (N = 4) and 2/3 - 1e-13
    # (N = 3); a scan in m rounded it to 3/4, where the entropy is -inf
    # (BoundaryMagnetization), and to 2/3 - 1 ulp, 6.9 too high in scalar_min
    for N in ("4", "3"):
        code, out, err = run_cli(capsys, "oracle", "--model", "nematic", "--param", N,
                                 "--J", "1e13", "--resolution", "20")
        assert (code, err) == (0, "")
        assert json.loads(out)["matched_scalar"] is True


def test_oracle_match_allows_rounding_at_large_values(capsys):
    # value -3749999999999943.5 and scalar_min -3749999999999944.0 are one
    # ulp apart, more than 2/resolution = 0.1
    code, out, _ = run_cli(capsys, "oracle", "--model", "nematic", "--param", "4",
                           "--J", "1e16", "--resolution", "20")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - payload["scalar_min"]) > 2.0 / 20
    assert payload["matched_scalar"] is True


def test_nematic_n5_oracle_matches_the_scalar_minimum(capsys):
    # N = 5 was refused up front; the grid budget alone bounds N now
    code, out, _ = run_cli(capsys, "oracle", "--model", "nematic", "--param", "5",
                           "--J", "12.2312", "--resolution", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["matched_scalar"] is True
    assert abs(payload["value"] - payload["scalar_min"]) <= 1e-12


def test_nematic_n4_oracle_is_not_below_the_scalar_minimum(capsys):
    # with G exact the full-space minimum cannot undercut the reduction's;
    # a 4096-point Sobol rule's bias put it 2.3e-3 below
    code, out, _ = run_cli(capsys, "oracle", "--model", "nematic", "--param", "4",
                           "--J", "9.5", "--resolution", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] >= payload["scalar_min"] - 1e-12


def test_nematic_oracle_at_a_tiny_coupling_is_silent(capsys):
    # the dual box shrinks to |h| ~ 1e-300, far too small for the moments'
    # large-|a| series, which must not divide by |a| there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "oracle", "--model", "nematic", "--param", "3",
                                 "--J", "1e-300", "--resolution", "20")
    assert code == 0 and err == ""
    assert np.isfinite(json.loads(out)["grid_value"])


def test_oracle_without_stable_root_is_typed_error(capsys):
    # J = 3 is the m = 0 spinodal of cubic r = 3, where no root is stable
    code, out, err = run_cli(capsys, "oracle", "--model", "cubic", "--param", "3",
                             "--J", "3.0")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NoStableRoot"


def test_oracle_finds_the_ordered_root_next_to_the_end(capsys):
    # at J = 25 the cubic r = 4 ordered roots lie within 1e-9 of m = +-1
    code, out, _ = run_cli(capsys, "oracle", "--model", "cubic", "--param", "4",
                           "--J", "25", "--resolution", "40")
    assert code == 0
    assert json.loads(out)["matched_scalar"] is True


def test_oracle_takes_the_ordered_root_at_the_end(capsys):
    # above J ~ 38 g'(J) rounds to 1 and the solver's ordered root is m = 1
    # itself, where the cubic entropy is its limit -log(4r)
    code, out, _ = run_cli(capsys, "oracle", "--model", "cubic", "--param", "4",
                           "--J", "40")
    assert code == 0
    assert json.loads(out)["matched_scalar"] is True


def test_oracle_at_the_largest_couplings(capsys):
    # cubic: 2J = inf would put nan in Theta_{2Jy}(0), so it is a typed error;
    # Potts: g' saturates without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "oracle", "--model", "cubic", "--param", "4",
                                 "--J", "1e308", "--resolution", "20")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "CouplingOverflow"
        code, out, err = run_cli(capsys, "oracle", "--model", "potts", "--param", "3",
                                 "--J", "1e308", "--resolution", "20")
    assert (code, err) == (0, "")
    assert json.loads(out)["matched_scalar"] is True


def test_nematic_oracle_coupling_overflow_is_typed(capsys):
    # above J ~ 3.5e153 the square of the box's trace-closing entry (2.2 J)
    # overflows, and |h|^2/(2J) would put inf in the grid and the value;
    # below it, at J = 1e150, the value is finite and not below the scalar
    # minimum
    argv = ("oracle", "--model", "nematic", "--param", "3", "--resolution", "20")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for J in ("1e300", "1e160", "5.5e153"):
            code, out, err = run_cli(capsys, *argv, "--J", J)
            assert (code, out) == (1, "")
            assert json.loads(err) == {
                "schema_version": 1, "error": "CouplingOverflow",
                "message": f"J = {float(J)}: |h|^2 overflows on the dual grid's box"}
        code, out, err = run_cli(capsys, *argv, "--J", "1e150")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert np.isfinite(payload["value"])
    assert payload["value"] >= payload["scalar_min"]


@pytest.mark.parametrize("argv, solves", [
    (("certify", "--model", "nematic", "--param", "3", "--dim", "512",
      "--Jlo", "6.80", "--Jhi", "6.82", "--J-grid", "3"), 1),
    (("branches", "--model", "potts", "--param", "10", "--Jmin", "4.4",
      "--Jmax", "5.2", "--steps", "81"), 1),
    (("reproduce-figures", "--grid", "50", "--outdir", "DIR"), 1),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_each_command_solves_its_couplings_at_once(argv, solves, monkeypatch, tmp_path,
                                                    capsys):
    from mfspin import certification, solver
    calls = []
    real = solver.solve_branches

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    for mod in (solver, certification):
        monkeypatch.setattr(mod, "solve_branches", counted)
    code, _, _ = run_cli(capsys, *[str(tmp_path) if a == "DIR" else a for a in argv])
    assert code == 0
    assert len(calls) == solves
    assert all(np.ndim(J) == 1 for J in calls)


@pytest.mark.parametrize("argv", [
    # certify has no --m-grid and bands no --grid since the band edges are
    # exact: any value is a usage error
    ("certify", "--m-grid", "1"), ("certify", "--m-grid", "3"),
    ("certify", "--J-grid", "0"), ("bands", "--grid", "1"),
    ("profile", "--grid", "-1"), ("profile", "--grid", "0"),
    ("reproduce-figures", "--grid", "0"), ("oracle", "--resolution", "5"),
    ("mc", "--N", "1"), ("mc", "--bins", "0"), ("mc", "--burn-in", "-1"),
    ("mc", "--burn-in", "300"), ("mc", "--sweeps", "2", "--burn-in", "1"),
    ("rate", "--sweeps", "2", "--burn-in", "1"), ("rate", "--Ns", "10,20"), ("rate", "--bins", "0"),
    ("rate", "--sweeps", "2000"), ("rate", "--Ns", "1,2,3"), ("rate", "--Ns", "a,b,c"),
    ("rate", "--Ns", "20,20,40"), ("mc", "--J", "-1"), ("rate", "--J", "-1"),
    ("barrier", "--J", "-1"), ("oracle", "--J", "-1"), ("bands", "--J", "-1"),
    ("branches", "--Jmin", "-1"), ("branches", "--Jmax", "-1"),
    ("bands", "--slack", "-1"), ("bands", "--id-value", "-1"),
    ("certify", "--Jlo", "2.8", "--Jhi", "2.7"), ("certify", "--Jlo", "0"),
    ("id", "--tol", "0"), ("branches", "--steps", "-1"), ("branches", "--steps", "0"),
    # branches has no --scan-resolution option since its m scan went: any value
    # is a usage error
    ("branches", "--scan-resolution", "0"), ("transition", "--Jlo", "2.7"),
    ("transition", "--Jhi", "2.9"), ("profile", "--J", "nan"), ("profile", "--J", "inf"),
    ("branches", "--Jmax", "inf"), ("barrier", "--J", "inf"), ("mc", "--J", "inf"),
    ("rate", "--J", "inf"), ("oracle", "--J", "inf"), ("bands", "--J", "inf"),
    ("transition", "--Jlo", "nan", "--Jhi", "2.9"), ("certify", "--Jhi", "inf"),
    ("id", "--tol", "inf"), ("mc", "--seed", "-1"), ("rate", "--seed", "-2"),
    # oracle has no --sphere-samples option: any value is a usage error
    ("oracle", "--sphere-samples", "-5"), ("oracle", "--sphere-samples", "0"),
    ("oracle", "--sphere-samples", str(10 ** 30)),
    # (bands --grid, branches --scan-resolution and certify --m-grid are gone:
    # unknown options)
    *((cmd, opt, str(10 ** 30)) for cmd, opt in (
        ("profile", "--grid"), ("bands", "--grid"), ("reproduce-figures", "--grid"),
        ("branches", "--steps"), ("branches", "--scan-resolution"),
        ("certify", "--m-grid"), ("certify", "--J-grid"),
        ("mc", "--N"), ("mc", "--sweeps"), ("mc", "--bins"), ("rate", "--sweeps"),
        ("rate", "--bins"))),
    ("rate", "--Ns", f"10,20,{10 ** 30}"),
    ("id", "--dim", str(10 ** 30)), ("id", "--dim", str(10 ** 7 + 1)),
    ("certify", "--dim", str(10 ** 30)), ("mc", "--param", "1"),
    ("barrier", "--model", "cubic", "--param", "0"),
    ("oracle", "--model", "nematic", "--param", "2"),
    ("profile", "--param", str(10 ** 21)),
    # at J = 0 the nematic dual box collapses to h = 0, where Psi is 0/0
    ("oracle", "--J", "0"), ("oracle", "--model", "nematic", "--param", "3", "--J", "0"),
], ids=" ".join)
def test_tiny_grids_are_usage_errors(capsys, argv):
    model = ["--model", "potts", "--param", "3"]
    base = {"certify": ["certify", *model, "--dim", "1024",
                        "--Jlo", "2.7715", "--Jhi", "2.7735"],
            "id": ["id", "--dim", "3"],
            "branches": ["branches", *model, "--Jmin", "2", "--Jmax", "3"],
            "transition": ["transition", *model],
            "barrier": ["barrier", *model, "--J", "2.77"],
            "bands": ["bands", *model, "--J", "2.77", "--slack", "0.001"],
            "profile": ["profile", *model, "--J", "2.77"],
            "reproduce-figures": ["reproduce-figures", "--outdir", "unused"],
            "oracle": ["oracle", *model, "--J", "2.77"],
            "mc": ["mc", *model, "--J", "2.0", "--N", "10", "--sweeps", "300"],
            "rate": ["rate", *model, "--J", "2.0", "--Ns", "10,20,40"]}[argv[0]]
    with pytest.raises(SystemExit) as exc:
        dispatch(base + list(argv[1:]))
    assert exc.value.code == 2
