"""Run one mfspin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is always imported
from the checkout's ``src`` directory.  A workload is a fixed list of mfspin
commands (see ``workloads.py``).  They run one after another, each as a fresh
CLI process started from this one: a closed loop with a single client, so at
most one command computes at a time and every command pays a cold import and
cold caches, as a user's shell would.  BLAS pools are pinned to one thread.

A pass runs the whole list once.  Passes repeat while another one still fits
in --seconds; there is always at least one.  End-to-end metrics come from
untraced passes:

  wall_s        median over passes of the time to finish the command list
  setup_s       median over all launches of the time from spawning a command
                until its fresh interpreter has finished ``import mfspin.cli``
  peak_rss_mib  largest resident set of any command process

Times are in reference-speed seconds.  The host's CPU speed drifts by tens
of percent over seconds and minutes (other tenants share the cores), far
more than the changes the benchmark must resolve.  So the commands run
pinned to one CPU, and a probe thread pinned to the same CPU times a fixed
pure-Python loop about every 10 ms while they run.  Each command's wall time
(and its start-up time) is multiplied by PROBE_REF_S over the median probe
time inside that command's window: on a host running the probe at the
reference speed the numbers are plain wall seconds.  The raw wall times and
the speed factors are kept in the report and in ``result.json``.

Every command's output goes through a correctness gate; a command that exits
non-zero or fails its gate counts as failed, so error_rate = failed/attempted.
With --trace 1 one more pass runs under the outside-in tracer (``tracer.py``)
and the per-layer metrics come from it, plus the tracing overhead: traced
wall time minus the untraced wall_s.

The last line of standard output is the JSON result; the lines before it are
a readable report and the environment stamp.  Files of the last run are left
in ``.perfbench_work/<workload>/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy
import scipy

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC, **{v: "1" for v in THREAD_VARS}}

# The probe: PROBE_LOOPS iterations of an integer loop every PROBE_PERIOD_S.
# PROBE_REF_S is the loop's time on the fast state of the reference machine,
# a 2-vCPU Intel Xeon VM (its 5th percentile there was 0.301 ms); the probe
# takes about 3 % of one CPU.  These constants define the benchmark's unit of
# time; never retune them.
PROBE_LOOPS = 5000
PROBE_PERIOD_S = 0.01
PROBE_REF_S = 3.0e-4

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _per_layer():
    out = [("cli.import_s", "s"), ("cli.import_scipy_stats_s", "s"), ("cli.self_s", "s"),
           ("lattice.compute_id.calls", "count"), ("lattice.compute_id.self_s", "s"),
           ("lattice.quad_calls", "count")]
    for fn in ("entropy", "scalar_phi", "phi_full_scale", "g", "g_prime", "g_second"):
        out += [(f"models.{fn}.calls", "count"), (f"models.{fn}.self_s", "s")]
    out += [("models.quad_calls", "count"), ("models.brentq_calls", "count"),
            ("models.nematic_cache.hits", "count"), ("models.nematic_cache.misses", "count"),
            ("models.nematic_cache.hit_ratio", "ratio")]
    for fn in ("solve_branches", "max_stable_root", "find_transition", "barrier_height"):
        out += [(f"solver.{fn}.calls", "count"), (f"solver.{fn}.self_s", "s")]
    out += [("solver.brentq_calls", "count"), ("solver.scan_too_coarse_warnings", "count")]
    for fn in ("certify", "allowed_bands", "compute_DJ"):
        out += [(f"certification.{fn}.calls", "count"), (f"certification.{fn}.self_s", "s")]
    for fn in ("potts_fullspace_min", "cubic_fullspace_min", "nematic_dual_min"):
        out += [(f"oracle.{fn}.self_s", "s")]
    out += [("oracle.grid_points", "count"), ("oracle.grid_points_per_s", "1/s"),
            ("mc.run_mc.calls", "count"), ("mc.run_mc.self_s", "s"),
            ("mc.estimate_rate_function.self_s", "s"), ("mc.site_updates", "count")]
    out += [(f"mc.site_updates_per_s.{kind}", "1/s") for kind in ("potts", "cubic", "nematic")]
    out += [("mc.nematic_acceptance_rate", "ratio"), ("trace.wall_s", "s"),
            ("trace.overhead_s", "s"), ("error_rate", "ratio")]
    return tuple(out)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Times a fixed loop on one CPU in a background thread."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples = []                 # (monotonic start, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.monotonic()
            s = 0
            for i in range(PROBE_LOOPS):
                s += i * i
            self.samples.append((t0, time.monotonic() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the median loop time in [t0, t1] (all samples if none)."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        inside = inside or [dt for _, dt in self.samples]
        return PROBE_REF_S / statistics.median(inside) if inside else 1.0


@dataclass
class CommandRun:
    label: str
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    speed: float = 1.0
    setup_s: Optional[float] = None
    import_s: Optional[float] = None
    rss_mib: float = 0.0
    error: Optional[str] = None
    output: str = ""
    trace: Optional[dict] = None
    scipy_stats_import_s: float = 0.0
    timed_out: bool = False


@dataclass
class Pass:
    runs: List[CommandRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def raw_wall_s(self) -> float:
        return sum(r.raw_wall_s for r in self.runs)

    @property
    def complete(self) -> bool:
        return not any(r.timed_out for r in self.runs)


def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for proc, killing it at the deadline; returns its resource usage."""
    old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 1e-3))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:          # interrupted: leave no command running
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _scipy_stats_import_s(stderr: str) -> float:
    """Cumulative `-X importtime` time of the first import of scipy.stats."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "scipy.stats":
            return int(line.split("|")[1]) * 1e-6
    return 0.0


def run_command(cmd: W.Command, directory: str, index: int, deadline: float,
                traced: bool, probe: SpeedProbe) -> CommandRun:
    run = CommandRun(cmd.label())
    if time.monotonic() >= deadline:
        run.error, run.timed_out = "not started: run time limit reached", True
        return run
    base = os.path.join(directory, f"{index:02d}")
    argv = [sys.executable, *(("-X", "importtime") if traced else ()), LAUNCH,
            base + ".stamp", base + ".trace" if traced else "-", *cmd.argv]
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=directory, env=CHILD_ENV, stdout=out, stderr=err)
        usage = _wait(proc, deadline)
        t1 = time.monotonic()
    run.raw_wall_s, run.speed = t1 - t0, probe.speed(t0, t1)
    run.wall_s = run.raw_wall_s * run.speed
    run.rss_mib = usage.ru_maxrss / 1024.0
    with open(base + ".out", encoding="utf-8", errors="replace") as fh:
        run.output = fh.read()
    with open(base + ".err", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if os.path.exists(base + ".stamp"):
        with open(base + ".stamp", encoding="utf-8") as fh:
            ready, import_s, path = fh.read().split(maxsplit=2)
        ready = float(ready)
        run.setup_s = (ready - t0) * probe.speed(t0, ready)
        run.import_s = float(import_s)
        if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
            run.error = f"mfspin imported from {path.strip()}, not from {SRC}"
            return run
    if proc.returncode < 0 and time.monotonic() >= deadline:
        run.error, run.timed_out = "killed: run time limit reached", True
    elif proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        run.error = f"exit code {proc.returncode}: {tail[0][:300]}"
    else:
        try:
            cmd.check(run.output, directory)
        except W.GateFailure as exc:
            run.error = f"gate: {exc}"
        except Exception as exc:       # malformed output is a failure, not a crash
            run.error = f"gate: unreadable output ({type(exc).__name__}: {exc})"
    if traced:
        run.scipy_stats_import_s = _scipy_stats_import_s(stderr)
        if os.path.exists(base + ".trace"):
            with open(base + ".trace", encoding="utf-8") as fh:
                run.trace = json.load(fh)
    return run


def run_pass(cmds: List[W.Command], directory: str, deadline: float, traced: bool,
             probe: SpeedProbe) -> Pass:
    os.makedirs(directory)
    return Pass([run_command(c, directory, i, deadline, traced, probe)
                 for i, c in enumerate(cmds)])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(untraced: List[Pass]) -> Dict[str, float]:
    runs = [r for p in untraced for r in p.runs]
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    return {"wall_s": statistics.median(p.wall_s for p in untraced),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mib": max(r.rss_mib for r in runs)}


def per_layer(traced: Pass, untraced: List[Pass], failed: int, attempted: int) -> Dict[str, float]:
    stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
    counts, seconds = collections.Counter(), collections.Counter()
    hits = misses = 0
    for run in traced.runs:
        if run.trace is None:
            continue
        for key, (calls, total, self_s) in run.trace["stats"].items():
            s = stats[key]
            s[0], s[1], s[2] = s[0] + calls, s[1] + total, s[2] + self_s
        counts.update(run.trace["counts"])
        seconds.update(run.trace["seconds"])
        if run.trace["cache"]:
            hits, misses = hits + run.trace["cache"][0], misses + run.trace["cache"][1]

    def ratio(a, b):
        return a / b if b else 0.0

    imports = [r.import_s for p in untraced for r in p.runs if r.import_s is not None]
    acceptance = [json.loads(r.output)["acceptance_rate"] for r in traced.runs
                  if r.error is None and '"acceptance_rate"' in r.output]
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    special = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.import_scipy_stats_s": statistics.median(r.scipy_stats_import_s for r in traced.runs),
        "cli.self_s": stats["cli.dispatch"][2],
        "models.nematic_cache.hits": hits,
        "models.nematic_cache.misses": misses,
        "models.nematic_cache.hit_ratio": ratio(hits, hits + misses),
        "solver.scan_too_coarse_warnings": sum(v for k, v in counts.items()
                                               if k.endswith(".warn.ScanTooCoarse")),
        "oracle.grid_points_per_s": ratio(counts["oracle.grid_points"], seconds["oracle.grid"]),
        "mc.site_updates": sum(v for k, v in counts.items() if k.startswith("mc.site_updates.")),
        "mc.nematic_acceptance_rate": statistics.mean(acceptance) if acceptance else 0.0,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "error_rate": ratio(failed, attempted),
    }
    for kind in ("potts", "cubic", "nematic"):
        special[f"mc.site_updates_per_s.{kind}"] = ratio(counts[f"mc.site_updates.{kind}"],
                                                         seconds[f"mc.run_mc.{kind}"])
    values = {}
    for name, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = stats[name[:-len(".calls")]][0]
        elif name.endswith(".self_s"):
            values[name] = stats[name[:-len(".self_s")]][2]
        else:
            values[name] = counts[name]
    return values


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> Optional[str]:
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> Optional[str]:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _loadavg() -> Optional[str]:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def environment(seed: int) -> dict:
    return {"git_commit": _git_commit(), "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: CHILD_ENV[v] for v in THREAD_VARS},
            "seed": seed}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run a workload and return the result object printed as the last line.

    ``smoke`` swaps in the reduced command lists of the harness self-test.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cmds = (W.smoke_commands if smoke else W.commands)(workload, seed)
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    mask = os.sched_getaffinity(0)
    cpu = max(mask)
    env = {**environment(seed), "bench_cpu": cpu, "loadavg_before": _loadavg()}

    untraced, traced = [], None
    os.sched_setaffinity(0, {cpu})         # inherited by every command
    try:
        with SpeedProbe(cpu) as probe:
            while True:
                p = run_pass(cmds, os.path.join(work, f"pass{len(untraced)}"), deadline,
                             False, probe)
                untraced.append(p)
                if not p.complete or time.monotonic() - start + p.raw_wall_s > seconds:
                    break
            if trace:
                traced = run_pass(cmds, os.path.join(work, "traced"), deadline, True, probe)
    finally:
        os.sched_setaffinity(0, mask)
    env["loadavg_after"] = _loadavg()

    passes = untraced + ([traced] if traced else [])
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p.runs)
    e2e = end_to_end(untraced)
    layers = per_layer(traced, untraced, failed, attempted) if traced else None
    units = dict(PER_LAYER if trace else END_TO_END)
    values = layers if trace else e2e
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}

    for i, p in enumerate(passes):
        name = "traced pass" if p is traced else f"pass {i}"
        print(f"{workload} {name}: {p.wall_s:.3f} s ({p.raw_wall_s:.3f} s raw)")
        for r in p.runs:
            setup = f"{r.setup_s:6.3f}" if r.setup_s is not None else "   n/a"
            print(f"  {r.wall_s:8.3f} s  raw {r.raw_wall_s:8.3f} s  speed {r.speed:5.3f}  "
                  f"setup {setup} s  rss {r.rss_mib:7.1f} MiB  "
                  f"{'ok  ' if r.error is None else 'FAIL'}  {r.label}"
                  + (f"\n      {r.error}" if r.error else ""))
    for name, unit in END_TO_END:
        print(f"{name:16s} {e2e[name]:.6g} {unit}")
    print(f"{'error_rate':16s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, unit in (PER_LAYER if layers else ()):
        print(f"  {name:40s} {layers[name]:.6g} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))

    detail = {**result, "workload": workload, "environment": env, "end_to_end": e2e,
              "per_layer": layers,
              "passes": [{"traced": p is traced, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
                          "commands": [{"argv": r.label, "wall_s": r.wall_s,
                                        "raw_wall_s": r.raw_wall_s, "speed": r.speed,
                                        "setup_s": r.setup_s, "rss_mib": r.rss_mib,
                                        "error": r.error} for r in p.runs]}
                         for p in passes]}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mfspin", "cli.py")):
        print(f"perfbench: no mfspin sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
