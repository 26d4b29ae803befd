"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the reduced command list of every workload, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted with its unit and
that the gates pass.  Then it swaps in deliberately wrong references and
checks that each workload's error_rate becomes non-zero, so no gate is
vacuous.  Last, it checks that the harness refuses to run, with a non-zero
exit and no result, in a directory holding only the benchmark files.
Exits 0 when every check holds; takes about a minute.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from unittest import mock

import reference
import run
import workloads


def _smoke(workload: str, trace: bool) -> dict:
    with redirect_stdout(io.StringIO()):
        return run.run_workload(workload, seed=1, seconds=1, trace=trace, smoke=True)


def _check_metrics(tag: str, result: dict, spec: list, problems: list):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"{tag}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{tag}: {name} has unit {got[name]['unit']}, expected {unit}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{tag}: metric {name} is not in BENCHMARK.json")


def _wrong_references() -> dict:
    potts_j_mf, root = reference.potts_j_mf, reference.largest_stable_root
    residual = reference.stationary_residual
    return {"W3": reference.W3 + 1e-6,
            "potts_j_mf": lambda q: potts_j_mf(q) + 1e-3,
            "largest_stable_root": lambda model, J, grid=4000: root(model, J, grid) + 0.2,
            "stationary_residual": lambda model, J, m: residual(model, J, m) + 1e-3}


def _clear_reference_caches():
    workloads._j_mf.cache_clear()
    workloads._m_mf.cache_clear()


def _refuses_without_sources(problems: list):
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
                           "--workload", "infrared", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    names = tuple(w["name"] for w in bench["workloads"])
    if names != workloads.WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")

    for wl in names:
        for trace, spec in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            tag = f"{wl} trace={int(trace)}"
            res = _smoke(wl, trace)
            _check_metrics(tag, res, spec, problems)
            if res["failed"] or not res["correct"]:
                problems.append(f"{tag}: {res['failed']} of {res['attempted']} commands failed")
            if not trace and not all(m["value"] > 0 for m in res["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric reads 0")
            print(f"{tag}: {res['attempted']} commands, {res['failed']} failed", flush=True)

    with mock.patch.multiple(reference, **_wrong_references()):
        _clear_reference_caches()
        for wl in names:
            res = _smoke(wl, trace=True)
            rate = res["metrics"]["error_rate"]["value"]
            if not (rate > 0 and res["failed"] > 0 and res["correct"] is False):
                problems.append(f"{wl}: wrong references left error_rate at {rate}")
            print(f"{wl} with wrong references: error_rate {rate:.3g}", flush=True)
    _clear_reference_caches()

    _refuses_without_sources(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
