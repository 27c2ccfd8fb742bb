#!/usr/bin/env python3
"""Benchmark of the pme package: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``workloads.py``; BENCHMARK.json says why each was chosen):
``blowup-j250`` and ``barenblatt-oracle``.  ``solve-readme`` (``pme
solve`` on the README config, where the trajectory CSV writer dominates)
is defined too but not listed in BENCHMARK.json: under numpy 2,
``pme.cli._fmt`` writes numpy floats as ``np.float64(...)``, so its CSV
check fails on every run until the program is fixed.  Load is a
closed loop in one process with one compute thread: each run of the
workload starts when the previous one has ended and been checked.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: in-process wall time of one workload run, median over the
  runs made in ``--seconds`` after one warm-up run.
- ``setup_s``: time for a fresh interpreter to run ``import pme.cli``,
  which every ``pme`` command pays first; median of several spawns spread
  over the run.
- ``peak_rss_mb``: peak resident memory of a fresh process that imports
  pme and runs the workload once.

The two times are reported at a fixed reference speed.  On a shared
2-vCPU machine the processor's speed drifts by up to 50% within minutes,
and CPU time drifts with it, so raw seconds of the same code move between
runs.  Each timed run is therefore bracketed by ``reference_s``: fixed
work that never touches pme, of the same kind as the workload's
(``workloads.Reference``), timed before and after it.  The run's time is
scaled by the reference's quiet-machine time over the mean of the two
brackets.  A change to pme moves the scaled time by the same share as the
raw time; a change in machine speed cancels.  Raw quartiles are printed
on the lines before the result.

``--trace 1`` alternates untraced runs with runs traced by ``tracing.py``
and reports per-layer metrics: call counts, work counts, self times, the
tracing overhead and the time no span accounts for, plus import times
from ``python -X importtime``.  A table of every span is printed first.

Every run of the workload is checked (``workloads.py``); runs whose check
fails are counted.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it hold run metadata, raw timings, checksums and failures.
"""

import os

# One compute thread, set before numpy loads its BLAS; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import ROOT_SPAN, Tracer, summarize
from workloads import MIXED_REFERENCE, ROOT, SRC, WORKLOADS, load_pme

DEFAULT_SEED = 0
MIN_RUNS = 5
SETUP_SPAWNS = 9
REFERENCE_SLICES = 10
IMPORTTIME_SPAWNS = 3
CHILD_TIMEOUT_S = 120

# Per-layer metrics that are exact counts: name -> (unit, span, field).
COUNT_METRICS = {
    "solver.step.calls": ("count", "solver.step", "calls"),
    "solver.step.cell_updates": ("count", "solver.step", "work"),
    "solver.Trajectory.record.calls": ("count", "solver.Trajectory.record", "calls"),
    "solver.solve_ball.calls": ("count", "solver.solve_ball", "calls"),
    "solver.trajectory_bytes": ("bytes", "solver.solve_ball", "work"),
    "cli.write_json.bytes": ("bytes", "cli.write_json", "work"),
    "blowup.stage_delta.calls": ("count", "blowup.stage_delta", "calls"),
    "barriers.shifted_subsolution.calls": ("count", "barriers.shifted_subsolution", "calls"),
    "geometry.fit_comparison_constants.calls": ("count", "geometry.fit_comparison_constants", "calls"),
    "grid.RadialGrid.uniform.calls": ("count", "grid.RadialGrid.uniform", "calls"),
}
# Self times of the spans every workload enters; the other spans' self
# times would read 0 on some workloads and are printed in the table only.
SELF_TIME_SPANS = (
    "solver.step",
    "solver.Trajectory.record",
    "solver.solve_ball",
    "grid.RadialGrid.uniform",
)
IMPORT_GROUPS = ("numpy", "scipy", "pme")


def reference_s(reference) -> float:
    """Mean time of a few runs of the reference work: the machine's current speed.

    When the machine is busy, its speed varies from one millisecond to the
    next.  A workload run feels the mean speed over its duration; the
    fastest slice would pick a lucky moment and under-correct busy stretches.
    """
    return statistics.fmean(timed(reference.work)[0] for _ in range(REFERENCE_SLICES))


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


# -- run metadata (read-only) ---------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def steal_jiffies() -> int:
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else -1


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        packed = [ln.split()[0] for ln in _read(git / "packed-refs").splitlines() if ln.endswith(" " + ref)]
        head = _read(git / ref).strip() or (packed[0] if packed else "")
    return head or "unknown"


def machine() -> dict:
    import scipy

    cpu = _read("/proc/cpuinfo")
    model = next((ln.split(":", 1)[1].strip() for ln in cpu.splitlines() if ln.startswith("model name")), "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_commit": git_commit(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- fresh-process measurements --------------------------------------------------


def spawn(args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the checkout, with pme importable from src."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def import_times() -> dict:
    """Median self time per package group from ``python -X importtime``."""
    samples = {group: [] for group in IMPORT_GROUPS}
    for _ in range(IMPORTTIME_SPAWNS):
        err = spawn(["-X", "importtime", "-c", "import pme.cli"]).stderr
        sums = dict.fromkeys(IMPORT_GROUPS, 0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = (part.strip() for part in line[12:].split("|"))
            if self_us.isdigit() and module.split(".")[0] in sums:
                sums[module.split(".")[0]] += int(self_us)
        for group in IMPORT_GROUPS:
            samples[group].append(sums[group] * 1e-6)
    return {group: statistics.median(v) for group, v in samples.items()}


def peak_rss(name: str, seed: int, workdir: Path) -> dict:
    out = spawn(["bench/child.py", name, str(seed), str(workdir)]).stdout
    return json.loads(out.strip().splitlines()[-1])


# -- the two modes ---------------------------------------------------------------


class Tally:
    """Checks of every workload run: attempted, failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = Counter()
        self.info = {}

    def record(self, workload, inputs, result):
        outcome = workload.check(inputs, result)
        self.info = outcome.info
        self.count(outcome.failures)

    def count(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.update(failures)


def end_to_end(pme, workload, inputs, args, workdir, tally) -> dict:
    run = workload.run
    spawn(["-c", "import pme.cli"])  # untimed: fills the page cache and .pyc files
    warm_s, result = timed(run, pme, inputs)
    tally.record(workload, inputs, result)
    samples = {"wall_s": [], "setup_s": []}

    def sample(metric, reference, fn, *args):
        before = reference_s(reference)
        seconds, result = timed(fn, *args)
        scale = reference.nominal_s / (0.5 * (before + reference_s(reference)))
        samples[metric].append((seconds, seconds * scale))
        return result

    # Spread the setup spawns over the timed runs, so both sample the same
    # stretch of machine speed.
    stride = max(1, int(args.seconds / warm_s) // SETUP_SPAWNS)
    deadline = perf_counter() + args.seconds
    while len(samples["wall_s"]) < MIN_RUNS or perf_counter() < deadline:
        tally.record(workload, inputs, sample("wall_s", workload.reference, run, pme, inputs))
        if len(samples["setup_s"]) < SETUP_SPAWNS and len(samples["wall_s"]) % stride == 0:
            sample("setup_s", MIXED_REFERENCE, spawn, ["-c", "import pme.cli"])
    while len(samples["setup_s"]) < SETUP_SPAWNS:
        sample("setup_s", MIXED_REFERENCE, spawn, ["-c", "import pme.cli"])
    child = peak_rss(workload.name, args.seed, workdir / "child")
    tally.count([f"fresh process: {f}" for f in child["failures"]])

    metrics = {}
    for metric, pairs in samples.items():
        raw, scaled = zip(*pairs)
        print(metric, "measured", json.dumps(quartiles(raw)))
        print(metric, "at reference speed", json.dumps(quartiles(scaled)))
        metrics[metric] = {"value": statistics.median(scaled), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": child["maxrss_kb"] / 1024.0, "unit": "MB"}
    return metrics


def per_layer(pme, workload, inputs, args, tally) -> dict:
    imports = import_times()
    run = workload.run
    tally.record(workload, inputs, run(pme, inputs))  # warm-up
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 3 or perf_counter() < deadline:
        wall, result = timed(run, pme, inputs)
        untraced.append(wall)
        tally.record(workload, inputs, result)
        tracer = Tracer()
        tracer.install()
        try:
            result = tracer.run(run, pme, inputs)
        finally:
            tracer.uninstall()
        traced.append(summarize(tracer.spans))
        tally.record(workload, inputs, result)

    def span(summary, name, field):
        return summary.get(name, {}).get(field, 0)

    counts = {}
    for metric, (unit, name, field) in COUNT_METRICS.items():
        seen = {span(s, name, field) for s in traced}
        if len(seen) > 1:
            tally.count([f"{metric} differs across traced runs: {sorted(seen)}"])
        counts[metric] = {"value": span(traced[0], name, field), "unit": unit}
    counts["blowup.stages"] = {"value": tally.info.get("stages", 0), "unit": "count"}

    def median(fn):
        return statistics.median(fn(s) for s in traced)

    wall = median(lambda s: s[ROOT_SPAN]["total_s"])
    untraced_wall = statistics.median(untraced)
    metrics = dict(counts)
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = {"value": median(lambda s: span(s, name, "self_s")), "unit": "s"}
    metrics["solver.step.us_per_cell_update"] = {
        "value": median(lambda s: 1e6 * s["solver.step"]["self_s"] / s["solver.step"]["work"]),
        "unit": "us",
    }
    for group in IMPORT_GROUPS:
        metrics[f"cli.import.{group}_s"] = {"value": imports[group], "unit": "s"}
    metrics["solver.l1_rel_error"] = {"value": tally.info.get("l1_rel_error", 0.0), "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": median(lambda s: s[ROOT_SPAN]["self_s"]), "unit": "s"}

    print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'work':>12s}   (median over {len(traced)} traced runs)")
    names = sorted({n for s in traced for n in s}, key=lambda n: -median(lambda s: span(s, n, "self_s")))
    for name in names:
        print(
            f"{name:40s} {span(traced[0], name, 'calls'):8d} {median(lambda s: span(s, name, 'total_s')):10.4f}"
            f" {median(lambda s: span(s, name, 'self_s')):10.4f} {span(traced[0], name, 'work'):12d}"
        )
    self_sum = median(lambda s: sum(v["self_s"] for v in s.values()))
    print(f"sum of self times {self_sum:.4f} s = traced wall {wall:.4f} s; not in any pme span: "
          f"{metrics['trace.unattributed_s']['value']:.4f} s; untraced wall {untraced_wall:.4f} s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pme = load_pme()
    workload = WORKLOADS[args.workload]
    steal0, load0 = steal_jiffies(), os.getloadavg()
    meta = machine()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "child").mkdir(parents=True)
    tally = Tally()
    try:
        inputs = workload.prepare(args.seed, workdir)
        if args.trace:
            metrics = per_layer(pme, workload, inputs, args, tally)
        else:
            metrics = end_to_end(pme, workload, inputs, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        loadavg_start=load0,
        loadavg_end=os.getloadavg(),
        steal_jiffies=steal_jiffies() - steal0,
    )
    print("meta", json.dumps(meta))
    print("info", json.dumps(tally.info))
    for message, times in tally.messages.items():
        print(f"FAILED ({times}x)", message)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
