"""The benchmark's workloads: seeded inputs, one run, one correctness check.

Every workload goes through the public ``pme`` API.  ``prepare`` turns a
seed into the program's inputs (a config file, or plain parameters) and
writes them once; ``run`` executes the workload and returns what a check
needs; ``check`` returns a list of failure messages (empty when correct)
plus informational values such as output checksums.

The seed picks a parameter from a band where the step, stage and snapshot
counts do not depend on it (``test_bench.py`` pins those counts):

- log-growth amplitude b in [0.8, 1.2]: the certified horizon of the
  README run is 0.1/b >= 0.083, so the step cap 0.01 (T - t) stays above
  dt_max = 5e-4 up to t_end = 0.03 and never shortens a step;
- Barenblatt constant C in [0.245, 0.255]: the support radius stays below 3
  at t = 2, far inside R = 6, and dt = 0.5 h fixes the step count.  The
  Newton work grows with C (by 12% from C = 0.2 to 0.3), so the band is
  narrow enough that it varies by under 1% from seed to seed.

In blow-up runs the Newton work is the same for every b in the band.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

B_BAND = (0.8, 1.2)
C_BAND = (0.245, 0.255)

SOLVE_CFG = """\
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth({b!r})
R = 50
cells = 1000
t_end = 0.03
boundary = homogeneous-dirichlet
dt0 = 1e-4
dt_growth = 1.25
dt_max = 5e-4
"""

BLOWUP_CFG = """\
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth({b!r})
R = 25
cells = 250
steps_per_stage = 30
"""


def load_pme():
    """Import ``pme.cli`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "pme" / "__init__.py").is_file():
        sys.exit(f"bench: no pme package under {SRC}")
    sys.path.insert(0, str(SRC))
    pme = importlib.import_module("pme")
    importlib.import_module("pme.cli")
    if not Path(pme.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported pme from {pme.__file__}, not from {SRC}")
    return pme


def implicit_steps(n: int, steps: int) -> float:
    """Numpy work shaped like one implicit step per iteration, at size n."""
    u = np.linspace(1.0, 2.0, n)
    coeff = np.full(n, 0.3)
    for _ in range(steps):
        v = np.sign(u) * np.abs(u) ** 2.0
        right = np.empty(n)
        right[:-1], right[-1] = v[1:], 0.0
        left = np.empty(n)
        left[0], left[1:] = 0.0, v[:-1]
        g = 1e-3 * coeff * (right - 2.0 * v + left)
        dv = 2.0 * (np.abs(u) + 1e-12)
        ab = np.zeros((3, n))
        ab[1] = 1.0 + 2.0 * coeff * dv
        ab[0, 1:] = -coeff[:-1] * dv[1:]
        ab[2, :-1] = -coeff[1:] * dv[:-1]
        u = u + 0.01 * solve_banded((1, 1), ab, -g)
    return float(np.max(np.abs(u)))


def mixed_work() -> float:
    """Short implicit steps at n=250, long ones at n=4000, CSV float repr."""
    rho = np.linspace(1e-3, 50.0, 500)
    text = "\n".join(",".join(repr(v) for v in (0.5, r, 1.1 * r)) for r in rho.tolist())
    return implicit_steps(250, 20) + implicit_steps(4000, 10) + len(text)


def long_vector_work() -> float:
    return implicit_steps(4000, 15)


@dataclass(frozen=True)
class Reference:
    """Fixed work that never touches pme, timed next to each workload run.

    Different kinds of work slow down by different shares when the shared
    machine is busy, so each workload is scaled by work of its own kind:
    the mixed work tracks the CSV writer and the short solves (and the
    import behind ``setup_s``), while only long-vector work tracks the
    Barenblatt steps at J=2000-4000.  ``nominal_s`` is the time of one run
    of ``work`` in a quiet stretch on the machine the bounds were set
    on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
    """

    work: Callable[[], float]
    nominal_s: float


MIXED_REFERENCE = Reference(mixed_work, 0.0045)
LONG_VECTOR_REFERENCE = Reference(long_vector_work, 0.003)


def seeded(seed: int, band: tuple) -> float:
    return random.Random(seed).uniform(*band)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What one run left behind, for the check and the report."""

    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


class SolveReadme:
    """``pme solve`` on the README config; trajectory CSV plus summary JSON."""

    name = "solve-readme"
    reference = MIXED_REFERENCE

    def prepare(self, seed: int, workdir: Path) -> dict:
        cfg = workdir / "solve.cfg"
        cfg.write_text(SOLVE_CFG.format(b=seeded(seed, B_BAND)))
        return {
            "argv": [
                "solve",
                "--config", str(cfg),
                "--out", str(workdir / "traj.csv"),
                "--summary", str(workdir / "summary.json"),
            ],
            "cells": 1000,
            "csv": workdir / "traj.csv",
            "summary": workdir / "summary.json",
        }

    def run(self, pme, inputs: dict):
        return pme.cli.main(inputs["argv"])

    def check(self, inputs: dict, code) -> Outcome:
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit code {code}")
            return out
        times = json.loads(inputs["summary"].read_text())["times"]
        header, *rows = inputs["csv"].read_text().splitlines()
        if header != "t,rho,u":
            out.failures.append(f"CSV header {header!r}")
        expected = inputs["cells"] * len(times)
        if len(rows) != expected:
            out.failures.append(f"CSV has {len(rows)} rows, expected {expected}")
        values, bad = [], []
        for row in rows:
            for token in row.split(","):
                try:
                    values.append(float(token))
                except ValueError:
                    bad.append(token)
        if bad:
            out.failures.append(
                f"{len(bad)} CSV values do not parse as floats (first: {bad[0]!r})"
            )
        elif len(values) != 3 * len(rows) or not np.all(np.isfinite(values)):
            out.failures.append("CSV rows are not three finite floats each")
        elif not np.array_equal(
            np.reshape(values, (-1, 3))[:, 0], np.repeat(times, inputs["cells"])
        ):
            out.failures.append("CSV t column does not match the summary times")
        out.info = {
            "snapshots": len(times),
            "sha256": {"traj.csv": sha256(inputs["csv"]), "summary.json": sha256(inputs["summary"])},
        }
        return out


class BlowupJ250:
    """``pme blowup`` at acceptance criterion 6's setting (R=25, J=250)."""

    name = "blowup-j250"
    reference = MIXED_REFERENCE

    def prepare(self, seed: int, workdir: Path) -> dict:
        cfg = workdir / "blowup.cfg"
        cfg.write_text(BLOWUP_CFG.format(b=seeded(seed, B_BAND)))
        ledger = workdir / "ledger.json"
        return {"argv": ["blowup", "--config", str(cfg), "--ledger", str(ledger)], "ledger": ledger}

    def run(self, pme, inputs: dict):
        return pme.cli.main(inputs["argv"])

    def check(self, inputs: dict, code) -> Outcome:
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit code {code}")
            return out
        ledger = json.loads(inputs["ledger"].read_text())
        if ledger["status"] != "blown-up":
            out.failures.append(f"status {ledger['status']!r}")
        if not ledger["tau"] <= 2.0 * ledger["T1"]:
            out.failures.append(f"tau {ledger['tau']!r} exceeds 2 T1 = {2.0 * ledger['T1']!r}")
        norms = [s["lognorm"] for s in ledger["stages"]][ledger["growth_onset"]:]
        if any(b <= a for a, b in zip(norms, norms[1:])):
            out.failures.append("norm not strictly increasing past growth_onset")
        out.info = {"stages": len(ledger["stages"]), "sha256": {"ledger.json": sha256(inputs["ledger"])}}
        return out


class BarenblattOracle:
    """Acceptance criterion 1: Euclidean dim-2 source solution at J=2000, 4000."""

    name = "barenblatt-oracle"
    reference = LONG_VECTOR_REFERENCE
    cells = (2000, 4000)

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"mass_const": seeded(seed, C_BAND)}

    def run(self, pme, inputs: dict):
        solver = pme.solver
        c = inputs["mass_const"]
        manifold = pme.geometry.euclidean(2)
        errors = []
        for cells in self.cells:
            g = pme.grid.RadialGrid.uniform(manifold, 6.0, cells)
            cfg = solver.SolverConfig(
                m=2.0,
                dt=solver.DtPolicy(dt0=0.5 * g.h, growth=1.0),
                t_end=1.0,
                snapshot_stride=10**9,
            )
            # The source solution is started at t=1, so solver time s is t-1.
            traj = solver.solve_ball(solver.barenblatt(g.centers, 1.0, 2, 2.0, c), cfg, g)
            exact = solver.barenblatt(g.centers, 2.0, 2, 2.0, c)
            err = np.dot(g.weights_scaled, np.abs(traj.final - exact))
            errors.append(float(err / np.dot(g.weights_scaled, exact)))
        return errors

    def check(self, inputs: dict, errors) -> Outcome:
        out = Outcome()
        e2000, e4000 = errors
        if not e2000 < 0.02:
            out.failures.append(f"L1 error {e2000!r} at J=2000 is not below 2%")
        if not e2000 / e4000 >= 1.8:
            out.failures.append(f"error ratio {e2000 / e4000!r} is below 1.8")
        out.info = {"l1_rel_error": e4000, "l1_rel_error_j2000": e2000}
        return out


WORKLOADS = {w.name: w for w in (SolveReadme(), BlowupJ250(), BarenblattOracle())}
