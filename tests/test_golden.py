"""Golden outputs: fixed CLI runs whose output files are committed.

``tests/golden`` holds the inputs of the runs (``solve.cfg``,
``exhaust.cfg``, ``blowup.cfg``), every file they write and
``MANIFEST.json``: the sha256 of each output, the bound its values are
compared with, and the fingerprint of the numpy/scipy build that wrote
them.

Values are compared on any machine: a number ``a`` matches the golden ``b``
when |a - b| <= bound * max(1, |b|), so values below 1 in magnitude (the
scaled certificate residuals, which sit at rounding level) are compared
absolutely; text, booleans, nulls, keys, CSV headers and row counts match
exactly.  Each output has one of three bounds:

- closed-form outputs (``geometry``, ``barrier-check``, ``uniq-check``):
  1e-12;
- outputs of solves (``solve``, ``exhaust``): the Newton-tolerance bound
  1e-7.  Each accepted Newton solve of these runs meets the residual
  target 1e-10 * max(1, |u|) with |u| <= 10, and the implicit step's
  Jacobian is an M-matrix whose diagonal dominates by at least one, so a
  solve moves its field by at most its residual: over at most 100 steps a
  field value, or a norm, mass or gap built from the fields, moves by at
  most 100 * 1e-10 * 10 = 1e-7 relative to max(1, |value|);
- outputs of staged runs (``blowup``, ``sweep --param b``): 2e-5.  The
  stage schedule (T_n, S_n, eps_n, t_n, the growth ratio, tau, T_1) has
  no solve, so only delta_n and the norms and gaps built from the fields
  move with the solves.  Each run of ``blowup.cfg`` takes 160 stages of
  12 accepted steps, 1,920 solves, and every field and boundary value of
  the b = 2 sweep row, the largest, stays below 81, so a solve's target
  is at most 1e-10 * 81 and the argument above gives
  1920 * 1e-10 * 81 = 1.6e-5.  The weight of the recorded norm is at
  least log 4 > 1, so a norm moves by no more than the fields.  The
  shift delta_n = max(W^m - (u + 1e-14)^m) of ``blowup.stage_delta``,
  raised by a few ulps of max W^m to pass its test in floats, is a
  continuous function of the field: a small move of the field moves
  delta_n, and the boundary datum (W^m - delta_n)_+^(1/m) with it, by a
  small amount, with no jump of a whole search step.  Runs with
  ``newton_tol`` 1e-9 and 1e-11 moved no value by more than 2.2e-10 and
  2.7e-11.

Every JSON output, written or printed, is canonical JSON on any machine:
its text is ``json.dumps(json.loads(text), indent=2, sort_keys=True,
allow_nan=False)`` plus a newline, which holds exactly when pme's one-pass
writer writes what ``json.dumps`` writes, since a float's repr reads back
as the same float.

The sha256 of each file is asserted only where the fingerprint (numpy
version, scipy version, ``__cpu_features__`` of numpy's core extension)
equals the recorded one.  A change that moves output on purpose
regenerates every file and the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names the moved files in ``CHANGES.md``.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pme import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CLOSED_FORM = 1e-12
NEWTON = 1e-7
STAGED = 2e-5
QUAD = ["--manifold", "quad-critical", "--dim", "3", "--c", "0.5"]
UNIQ = ["uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2"]

# run name -> (argv, output files, bound); "{in}" is the golden directory
# and "{out}" the run's output directory, and the output "<run>.stdout" is
# what the run prints
RUNS = {
    "solve": (
        ["solve", "--config", "{in}/solve.cfg", "--out", "{out}/solve.csv",
         "--summary", "{out}/solve_summary.json"],
        ["solve.csv", "solve_summary.json"],
        NEWTON,
    ),
    "exhaust": (
        ["exhaust", "--config", "{in}/exhaust.cfg", "--radii", "5,10,20", "--out", "{out}/exhaust.json"],
        ["exhaust.json"],
        NEWTON,
    ),
    **{
        f"barrier-{which}": (
            ["barrier-check", *QUAD, *([] if which == "eta" else ["--m", "2"]), "--which", which,
             "--out", f"{{out}}/barrier_{which}.json"],
            [f"barrier_{which}.json"],
            CLOSED_FORM,
        )
        for which in ("super", "sub", "eta")
    },
    "uniq-check": (UNIQ, ["uniq-check.stdout"], CLOSED_FORM),
    "uniq-check-out": ([*UNIQ, "--out", "{out}/uniq.json"], ["uniq.json", "uniq.csv"], CLOSED_FORM),
    **{
        f"geometry-{kind}": (
            ["geometry", "--manifold", kind, "--dim", "3",
             *(["--c", "0.5"] if kind.endswith("-critical") else []),
             "--report", f"{{out}}/geometry_{kind}.json"],
            [f"geometry_{kind}.json"],
            CLOSED_FORM,
        )
        for kind in ("euclidean", "hyperbolic", "quad-critical", "log-critical")
    },
    "blowup": (
        ["blowup", "--config", "{in}/blowup.cfg", "--ledger", "{out}/blowup.json"],
        ["blowup.json"],
        STAGED,
    ),
    "sweep": (
        ["sweep", "--config", "{in}/blowup.cfg", "--param", "b", "--values", "0.5,1,2",
         "--workers", "1", "--out", "{out}/sweep.csv"],
        ["sweep.csv"],
        STAGED,
    ),
}


def fingerprint() -> dict:
    """The build whose bits the golden sha256 values are."""
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_features": {name: bool(on) for name, on in sorted(__cpu_features__.items())},
    }


def run(name: str, out: Path) -> dict:
    """Run ``name`` with its outputs in ``out``: {output name: bytes}."""
    argv, names, _ = RUNS[name]
    argv = [arg.format(**{"in": GOLDEN, "out": out}) for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    assert rc == 0, name
    return {
        n: stdout.getvalue().encode() if n == f"{name}.stdout" else (out / n).read_bytes()
        for n in names
    }


def cell(text: str):
    """A CSV cell: its float, or its text where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def parsed(name: str, data: bytes):
    """A CSV file's header and rows of cells, or a JSON output's value."""
    if not name.endswith(".csv"):
        return json.loads(data)
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {"header": header, "rows": [[cell(x) for x in row] for row in rows]}


def assert_close(got, want, bound, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], bound, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, bound, f"{where}[{i}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert type(got) is type(want), where
        tol = bound * max(1.0, abs(want))
        assert abs(got - want) <= tol, f"{where}: {got!r} != {want!r} (bound {tol:.3e})"
    else:
        assert got == want, where


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_outputs(tmp_path, name):
    manifest = json.loads((GOLDEN / "MANIFEST.json").read_text())
    same_build = manifest["fingerprint"] == fingerprint()
    for out_name, data in run(name, tmp_path).items():
        entry = manifest["files"][out_name]
        assert entry["run"] == name and entry["bound"] == RUNS[name][2]
        golden = (GOLDEN / out_name).read_bytes()
        assert hashlib.sha256(golden).hexdigest() == entry["sha256"], out_name
        assert_close(parsed(out_name, data), parsed(out_name, golden), entry["bound"], out_name)
        if not out_name.endswith(".csv"):  # a JSON report, written or printed, is canonical JSON
            text = data.decode()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=False) + "\n", out_name
        if same_build:
            assert hashlib.sha256(data).hexdigest() == entry["sha256"], out_name


def regenerate():
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, _, bound) in RUNS.items():
            for out_name, data in run(name, Path(tmp)).items():
                (GOLDEN / out_name).write_bytes(data)
                files[out_name] = {"run": name, "sha256": hashlib.sha256(data).hexdigest(), "bound": bound}
    manifest = {"fingerprint": fingerprint(), "files": files}
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
