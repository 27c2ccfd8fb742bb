"""CLI contract: exit codes, output formats, determinism."""

import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pme import blowup, cli, errors, geometry, solver


def run_cli(*argv):
    return cli.main(list(argv))


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE_CFG = """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 20
cells = 200
t_end = 0.02
dt0 = 2e-4
dt_max = 1e-3
"""


# -- geometry ---------------------------------------------------------------------


def test_geometry_report(tmp_path):
    out = tmp_path / "constants.json"
    rc = run_cli(
        "geometry", "--manifold", "euclidean", "--dim", "3", "--report", str(out)
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["c_prime"] == pytest.approx(2.0 * 1.001, rel=1e-12)
    assert data["c_double_prime"] is None
    assert set(data) >= {"c_prime", "c_double_prime", "c_o", "c_m", "attained_at"}


def test_geometry_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            run_cli(
                "geometry",
                "--manifold",
                "log-critical",
                "--dim",
                "2",
                "--c",
                "1.0",
                "--report",
                str(out),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_geometry_accepts_a_large_curvature_parameter(tmp_path):
    out = tmp_path / "constants.json"
    rc = run_cli("geometry", "--manifold", "quad-critical", "--dim", "3", "--c", "1e5", "--report", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["c_prime"] == pytest.approx(2 * 1e5 * 2 * (1 + geometry.FIT_MARGIN), rel=1e-12)


# -- barrier-check -------------------------------------------------------------------


@pytest.mark.parametrize("which", ["super", "sub"])
def test_barrier_check_passes_at_a_large_curvature_parameter(tmp_path, which):
    out = tmp_path / "cert.json"
    rc = run_cli(
        "barrier-check", "--manifold", "quad-critical", "--dim", "3", "--c", "1e5",
        "--m", "2", "--which", which, "--out", str(out),
    )
    assert rc == 0
    assert json.loads(out.read_text())["pass"] is True


def test_barrier_check_super_euclidean(tmp_path):
    out = tmp_path / "cert.json"
    rc = run_cli(
        "barrier-check", "--manifold", "euclidean", "--dim", "2",
        "--m", "2", "--which", "super", "--out", str(out),
    )
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["pass"] is True
    assert cert["min_residual"] >= -1e-10
    assert cert["params"]["a"] > 0


def test_barrier_check_sub_requires_lower_bound(tmp_path):
    out = tmp_path / "cert.json"
    rc = run_cli(
        "barrier-check", "--manifold", "hyperbolic", "--dim", "2",
        "--m", "2", "--which", "sub", "--out", str(out),
    )
    assert rc == 3


def test_barrier_check_sub_quad_passes(tmp_path):
    out = tmp_path / "cert.json"
    rc = run_cli(
        "barrier-check", "--manifold", "quad-critical", "--dim", "3", "--c", "0.5",
        "--m", "2", "--which", "sub", "--out", str(out),
    )
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["pass"] is True
    assert cert["params"]["r"] == 2.0


def test_barrier_check_eta(tmp_path):
    out = tmp_path / "cert.json"
    rc = run_cli(
        "barrier-check", "--manifold", "euclidean", "--dim", "2",
        "--which", "eta", "--out", str(out),
    )
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["params"]["K"] == pytest.approx(1 / 4.4, rel=1e-12)



@pytest.mark.parametrize("nodes", ["0", "-1"])
def test_barrier_check_rejects_empty_grid(tmp_path, nodes):
    rc = run_cli(
        "barrier-check", "--manifold", "euclidean", "--dim", "2", "--m", "2",
        "--which", "super", "--nodes", nodes, "--out", str(tmp_path / "cert.json"),
    )
    assert rc == 2


@pytest.mark.parametrize(
    "which, flag",
    [("eta", "--nodes"), ("eta", "--m"), ("super", "--c2"), ("super", "--r0"), ("sub", "--c2"), ("sub", "--r0")],
)
def test_barrier_check_rejects_flags_its_which_does_not_read(tmp_path, capsys, which, flag):
    m = [] if which == "eta" else ["--m", "2"]
    rc = run_cli(
        "barrier-check", "--manifold", "quad-critical", "--dim", "3", "--c", "0.5", *m,
        "--which", which, flag, "5", "--out", str(tmp_path / "cert.json"),
    )
    err = assert_one_configuration_error(rc, capsys)
    assert f"'{flag}'" in err, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("which", ["super", "sub"])
def test_barrier_check_without_m_names_the_option(tmp_path, capsys, which):
    rc = run_cli(
        "barrier-check", "--manifold", "euclidean", "--dim", "2", "--which", which,
        "--out", str(tmp_path / "cert.json"),
    )
    err = assert_one_configuration_error(rc, capsys)
    assert "missing required option '--m'" in err and "key" not in err, err


@pytest.mark.parametrize("which, flags", [("super", ["--nodes", "10000"]), ("eta", ["--c2", "1", "--r0", "2"])])
def test_barrier_check_flag_defaults(tmp_path, which, flags):
    outs = []
    for extra in ([], flags):
        out = tmp_path / f"cert{len(outs)}.json"
        m = [] if which == "eta" else ["--m", "2"]
        args = ["--manifold", "euclidean", "--dim", "2", *m, "--which", which]
        assert run_cli("barrier-check", *args, *extra, "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_curvature_parameter_rejected_for_families_without_one(tmp_path, kind, capsys):
    rc = run_cli(
        "geometry", "--manifold", kind, "--dim", "3", "--c", "-1",
        "--report", str(tmp_path / "g.json"),
    )
    assert rc == 2
    assert "no curvature parameter" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, BASE_CFG.replace("quad-critical", kind))
    rc = run_cli("solve", "--config", cfg, "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"))
    assert rc == 2
    assert "no curvature parameter" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------------


def test_solve_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
    rc = run_cli("solve", "--config", cfg, "--out", str(out), "--summary", str(summary))
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,rho,u"
    data = json.loads(summary.read_text())
    assert set(data) >= {
        "log_norm_series",
        "tail_ratio_series",
        "mass_series",
        "max_barrier_violation",
        "existence_time",
    }
    assert data["max_barrier_violation"] < 0.5
    assert len(data["tail_ratio_series"]) == len(data["log_norm_series"])
    # the reported tolerance is the one the sandwich gate applies: h = R/cells
    max_u = max(abs(float(row.split(",")[2])) for row in out.read_text().splitlines()[1:])
    assert data["tau_h"] == solver.tau_h(20 / 200, max_u)


def test_solve_rejects_small_exponent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("m = 2", "m = 0.5"))
    rc = run_cli(
        "solve", "--config", cfg, "--out", str(tmp_path / "t.csv"),
        "--summary", str(tmp_path / "s.json"),
    )
    assert rc == 2
    assert "m > 1" in capsys.readouterr().err


def test_solve_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG + "\nwhatever = 3\n")
    rc = run_cli(
        "solve", "--config", cfg, "--out", str(tmp_path / "t.csv"),
        "--summary", str(tmp_path / "s.json"),
    )
    err = capsys.readouterr().err
    assert rc == 2 and "'whatever'" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_solve_table_datum(tmp_path):
    table = tmp_path / "u0.csv"
    rho = np.linspace(0.05, 20.0, 40)
    rows = "\n".join(f"{r},{v}" for r, v in zip(rho, np.exp(-rho)))
    table.write_text("rho,value\n" + rows + "\n")
    cfg = write_cfg(tmp_path, BASE_CFG.replace("u0 = log-growth(1.0)", f"u0 = table({table})"))
    rc = run_cli(
        "solve", "--config", cfg, "--out", str(tmp_path / "t.csv"),
        "--summary", str(tmp_path / "s.json"),
    )
    assert rc == 0
    # a table is held at its last value beyond its last row: bounded data exist
    # globally, so the run has no finite horizon and no barrier sandwich
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["global_existence"] is True
    assert summary["existence_time_limit"] is None
    assert summary["max_barrier_violation"] is None


def test_solve_with_barrier_boundary(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 120
t_end = 0.01
dt0 = 2e-4
boundary = barrier-dirichlet
barrier_a = 1.001
barrier_r = 2.0
barrier_T = 4.0
barrier_delta = 0.12
""",
    )
    out, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
    rc = run_cli("solve", "--config", cfg, "--out", str(out), "--summary", str(summary))
    assert rc == 0
    data = json.loads(summary.read_text())
    # growing boundary datum: last cell of the trajectory stays positive
    assert data["log_norm_series"][-1] > 0


def test_solve_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    outs = []
    for tag in ("x", "y"):
        out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert run_cli("solve", "--config", cfg, "--out", str(out), "--summary", str(summary)) == 0
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]


# -- exhaust -----------------------------------------------------------------------------


EXHAUST_CFG = """
manifold = quad-critical
dim = 3
c = 0.02
m = 2
u0 = bounded(1.0)
cells = 30
t_end = 0.5
dt0 = 5e-3
dt_max = 2e-2
"""


def test_exhaust_cli(tmp_path):
    cfg = write_cfg(tmp_path, EXHAUST_CFG)
    out = tmp_path / "exhaust.json"
    rc = run_cli("exhaust", "--config", cfg, "--radii", "6,12,24", "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["monotonicity_gap"] <= rep["tau_h"]
    assert len(rep["inner_increments"]) == 2


def test_exhaust_cli_with_an_odd_cell_count(tmp_path):
    cfg = write_cfg(tmp_path, EXHAUST_CFG.replace("cells = 30", "cells = 51"))
    out = tmp_path / "exhaust.json"
    assert run_cli("exhaust", "--config", cfg, "--radii", "5,10,20", "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert len(rep["inner_increments"]) == 2
    assert rep["monotonicity_gap"] <= rep["tau_h"]


# -- blowup ------------------------------------------------------------------------------


def test_blowup_cli_and_ledger(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 120
blowup_threshold = 30
steps_per_stage = 20
""",
    )
    ledger = tmp_path / "ledger.json"
    rc = run_cli("blowup", "--config", cfg, "--ledger", str(ledger))
    assert rc == 0
    led = json.loads(ledger.read_text())
    assert led["status"] == "blown-up"
    assert led["tau"] <= led["tau_bound"] + 1e-6
    stage = led["stages"][0]
    assert set(stage) >= {"n", "T_n", "S_n", "eps_n", "delta_n", "t_n", "liminf_est", "lognorm"}


def test_blowup_dump_stages(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 60
blowup_max_stages = 3
steps_per_stage = 10
""",
    )
    dump = tmp_path / "stages"
    rc = run_cli(
        "blowup", "--config", cfg, "--ledger", str(tmp_path / "l.json"),
        "--dump-stages", str(dump),
    )
    assert rc == 0
    files = sorted(p.name for p in dump.glob("stage_*.csv"))
    assert files == ["stage_0000.csv", "stage_0001.csv", "stage_0002.csv"]


def test_blowup_rejects_bounded_datum(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = bounded(1.0)
R = 12
cells = 60
""",
    )
    rc = run_cli("blowup", "--config", cfg, "--ledger", str(tmp_path / "l.json"))
    assert rc == 3


# -- uniq-check ---------------------------------------------------------------------------


def test_uniq_check_decay_regime(tmp_path, capsys):
    rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2")
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert data["regime"] == "decay"
    assert data["F_at_100"] < 1e-30


def test_uniq_check_growth_regime_fails():
    rc = run_cli("uniq-check", "--T", "0.2", "--c_m", "1", "--k", "0.2")
    assert rc == 3


def test_uniq_check_boundary_case_inconclusive(capsys):
    rc = run_cli("uniq-check", "--T", "0.1", "--c_m", "1", "--k", "0.2")
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().err


def test_uniq_check_writes_table(tmp_path):
    out = tmp_path / "uniq.json"
    rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--out", str(out))
    assert rc == 0
    table = (tmp_path / "uniq.csv").read_text().splitlines()
    assert table[0] == "R,F,logF"
    logf = [float(line.split(",")[2]) for line in table[1:]]
    assert all(a > b for a, b in zip(logf, logf[1:]))
    assert len(logf) == 60


def test_uniq_check_table_points_sizes_the_table(tmp_path):
    out = tmp_path / "uniq.json"
    rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--table-points", "7", "--out", str(out))
    assert rc == 0
    assert len((tmp_path / "uniq.csv").read_text().splitlines()) == 1 + 7



@pytest.mark.parametrize("T", ["1e-7", "1e-12"])
def test_uniq_check_certifies_at_the_given_horizon(capsys, T):
    rc = run_cli("uniq-check", "--T", T, "--c_m", "1", "--k", "0.2")
    assert rc == 0  # the eta certificate passed at this horizon
    data = json.loads(capsys.readouterr().out)
    assert data["T"] == data["eta_certificate"]["params"]["T"] == float(T)


@pytest.mark.parametrize("T", ["0", "-1"])
def test_uniq_check_nonpositive_horizon_exits_2(capsys, T):
    rc = run_cli("uniq-check", "--T", T, "--c_m", "1", "--k", "0.2")
    err = assert_one_configuration_error(rc, capsys)
    assert "horizon must be positive" in err, err


@pytest.mark.parametrize(
    "extra", [["--table-points", "-1"], ["--table-points", "0"], ["--dim", "0"], ["--dim", "1"]]
)
def test_uniq_check_rejects_bad_input(extra):
    assert run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2", *extra) == 2


# -- sweep -------------------------------------------------------------------------------


def test_sweep_amplitude_scaling(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 120
blowup_threshold = 30
steps_per_stage = 20
""",
    )
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--config", cfg, "--param", "b", "--values", "0.5,1,2", "--workers", "1", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    taus = {float(r["value"]): float(r["tau"]) for r in rows}
    assert abs(taus[1.0] / taus[0.5] - 0.5) < 0.05
    assert abs(taus[2.0] / taus[1.0] - 0.5) < 0.05
    assert [float(r["value"]) for r in rows] == [0.5, 1.0, 2.0]


def test_sweep_worker_pool(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 60
blowup_threshold = 10
steps_per_stage = 10
""",
    )
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--config", cfg, "--param", "b", "--values", "1,2", "--workers", "2", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_sweep_empty_grid(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    rc = run_cli("sweep", "--config", cfg, "--param", "b", "--values", "", "--out", str(tmp_path / "s.csv"))
    assert rc == 2


def test_single_value_sweep_matches_direct_run(tmp_path):
    text = """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 120
blowup_threshold = 30
steps_per_stage = 20
"""
    cfg = write_cfg(tmp_path, text)
    ledger = tmp_path / "l.json"
    assert run_cli("blowup", "--config", cfg, "--ledger", str(ledger)) == 0
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", cfg, "--param", "b", "--values", "1.0", "--workers", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    direct = json.loads(ledger.read_text())
    assert float(row["tau"]) == pytest.approx(direct["tau"], rel=1e-12)
    assert int(row["stages"]) == len(direct["stages"])


R12_BLOWUP_CFG = """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
R = 12
cells = 120
blowup_threshold = 30
steps_per_stage = 20
"""


def run_sweep(tmp_path, param, values, cfg_text=R12_BLOWUP_CFG):
    cfg = write_cfg(tmp_path, cfg_text, name="sweep.cfg")
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "sweep", "--config", cfg, "--param", param, "--values", values,
        "--workers", "1", "--out", str(out),
    )
    if rc != 0:
        return rc, []
    lines = out.read_text().splitlines()
    return rc, [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]


def run_direct_blowup(tmp_path, extra_line):
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG + extra_line + "\n", name="direct.cfg")
    ledger = tmp_path / "direct.json"
    assert run_cli("blowup", "--config", cfg, "--ledger", str(ledger)) == 0
    return json.loads(ledger.read_text())


@pytest.mark.parametrize(
    "key, value, field",
    [("norm_r", "50", "stages"), ("newton_tol", "1e-2", "final_lognorm")],
)
def test_sweep_row_matches_direct_run(tmp_path, key, value, field):
    """The swept key reaches the blow-up run: the row equals a direct run."""
    rc, rows = run_sweep(tmp_path, key, value)
    assert rc == 0
    (row,) = rows
    direct = run_direct_blowup(tmp_path, f"{key} = {value}")
    assert float(row["tau"]) == direct["tau"]
    assert int(row["stages"]) == len(direct["stages"])
    assert float(row["final_lognorm"]) == direct["stages"][-1]["lognorm"]
    # the value moves the result, so a dropped key would not match
    default = run_direct_blowup(tmp_path, "")
    moved = {"stages": len(default["stages"]), "final_lognorm": default["stages"][-1]["lognorm"]}
    assert float(row[field]) != moved[field]


def test_sweep_integer_key(tmp_path):
    rc, rows = run_sweep(tmp_path, "cells", "60")
    assert rc == 0
    assert [(r["value"], r["status"]) for r in rows] == [("60.0", "blown-up")]


@pytest.mark.parametrize("param", ["bogus_key", "t_end"])
def test_sweep_rejects_keys_the_blowup_run_ignores(tmp_path, param):
    rc, _ = run_sweep(tmp_path, param, "1,2")
    assert rc == 2


def test_sweep_rejects_invalid_row_config(tmp_path):
    rc, _ = run_sweep(tmp_path, "cells", "60,2")
    assert rc == 2


def test_sweep_rejects_non_numeric_values(tmp_path, capsys):
    rc, _ = run_sweep(tmp_path, "b", "1,abc")
    assert rc == 2
    assert "'abc'" in capsys.readouterr().err


def test_exhaust_rejects_non_numeric_radii(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    rc = run_cli("exhaust", "--config", cfg, "--radii", "1,x,3", "--out", str(tmp_path / "e.json"))
    assert rc == 2


def csv_tokens(path):
    header, *rows = path.read_text().splitlines()
    assert header == "t,rho,u"
    return [tok for row in rows for tok in row.split(",")]


def test_trajectory_csvs_hold_plain_floats(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "traj.csv"
    assert run_cli("solve", "--config", cfg, "--out", str(out), "--summary", str(tmp_path / "s.json")) == 0
    dump = tmp_path / "stages"
    blowup_cfg = write_cfg(tmp_path, R12_BLOWUP_CFG + "blowup_max_stages = 2\n", name="b.cfg")
    assert run_cli(
        "blowup", "--config", blowup_cfg, "--ledger", str(tmp_path / "l.json"),
        "--dump-stages", str(dump),
    ) == 0
    paths = [out, *sorted(dump.glob("stage_*.csv"))]
    assert len(paths) == 3
    for path in paths:
        tokens = csv_tokens(path)
        assert tokens
        for tok in tokens:
            float(tok)  # raises on tokens such as np.float64(0.1)


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_json_reports_have_their_dataclass_fields_as_keys(tmp_path):
    ledger = tmp_path / "ledger.json"
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG.replace("cells = 120", "cells = 60") + "blowup_max_stages = 2\n")
    assert run_cli("blowup", "--config", cfg, "--ledger", str(ledger)) == 0
    led = json.loads(ledger.read_text())
    assert set(led) == field_names(blowup.BlowupLedger)
    assert len(led["stages"]) == 2
    assert all(set(stage) == field_names(blowup.StageRecord) for stage in led["stages"])

    report = tmp_path / "constants.json"
    assert run_cli("geometry", "--manifold", "euclidean", "--dim", "3", "--report", str(report)) == 0
    assert set(json.loads(report.read_text())) == field_names(geometry.ComparisonConstants) | {"manifold"}

    exhaust = tmp_path / "exhaust.json"
    cfg = write_cfg(tmp_path, EXHAUST_CFG, name="exhaust.cfg")
    assert run_cli("exhaust", "--config", cfg, "--radii", "6,12,24", "--out", str(exhaust)) == 0
    assert set(json.loads(exhaust.read_text())) == field_names(solver.ExhaustReport)


@pytest.mark.parametrize(
    "command, line",
    [
        ("blowup", "t_end = 99"),
        ("blowup", "dt0 = 5"),
        ("blowup", "snapshot_stride = 3"),
        ("blowup", "boundary = nonsense"),
        ("solve", "barrier_a = 3"),
        ("solve", "barrier_r = 2"),
        ("solve", "barrier_T = 4"),
        ("solve", "barrier_delta = 0.1"),
        ("solve", "steps_per_stage = 7"),
        ("solve", "blowup_max_stages = 2"),
        ("solve", "blowup_threshold = 30"),
        ("exhaust", "steps_per_stage = 7"),
        ("exhaust", "R = 24"),
        ("blowup", "barrier_a = 3"),
        ("solve", "whatever = 3"),
    ],
)
def test_config_keys_the_run_does_not_read_exit_2(tmp_path, capsys, command, line):
    key = line.split()[0]
    if command == "blowup":
        cfg = write_cfg(tmp_path, R12_BLOWUP_CFG + line + "\n")
        argv = ["blowup", "--config", cfg, "--ledger", str(tmp_path / "l.json")]
    elif command == "solve":
        cfg = write_cfg(tmp_path, BASE_CFG + line + "\n")
        argv = solve_args(tmp_path, cfg)
    else:
        cfg = write_cfg(tmp_path, EXHAUST_CFG + line + "\n")
        argv = ["exhaust", "--config", cfg, "--radii", "6,12,24", "--out", str(tmp_path / "e.json")]
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == 2 and f"'{key}'" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_write_json_is_strict(tmp_path):
    path = tmp_path / "out.json"
    obj = {
        "gap": -float("inf"),
        "series": [1.5, float("nan"), np.float64(float("inf")), np.float64(0.25)],
        "nested": {"pair": (float("inf"), 2)},
    }
    cli.write_json(path, obj)
    text = path.read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text, parse_constant=_reject_constant) == {
        "gap": None,
        "series": [1.5, None, None, 0.25],
        "nested": {"pair": [None, 2]},
    }


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o007], ids=oct)
def test_outputs_take_the_mode_a_new_file_gets(tmp_path, umask):
    previous = os.umask(umask)
    try:
        rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2", "--out", str(tmp_path / "u.json"))
        (tmp_path / "touched").touch()
    finally:
        os.umask(previous)
    assert rc == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["u.json", "u.csv", "touched"], 0o666 & ~umask)


def test_cli_import_skips_scipy_special():
    # no scipy package at all: the solver loads scipy's LAPACK extension from
    # its file; nor the numpy submodules scipy.linalg would pull in, nor the
    # process pool that only ``sweep --workers > 1`` uses
    code = (
        "import sys, pme.cli\n"
        "bad = sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')\n"
        "             or k in ('numpy.f2py', 'numpy.testing', 'concurrent.futures.process'))\n"
        "assert not bad, bad\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sweep_with_two_workers_in_a_fresh_process(tmp_path):
    # the process pool is imported inside ``cmd_sweep``; a fresh interpreter
    # has not loaded it before, and the rows equal a one-worker sweep's
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG)
    outs = []
    for workers in ("2", "1"):
        out = tmp_path / f"sweep{workers}.csv"
        argv = ["sweep", "--config", cfg, "--param", "b", "--values", "1,2",
                "--workers", workers, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "pme.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pme.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "barrier-check" in proc.stdout


# -- exit codes ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_exit_codes():
    """({error class name: code}, {code: label}) read from the README "Command line"
    bullets ``- N, `label`: `SomeError`, ...``, which may wrap onto more lines."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    codes, labels = {}, {}
    bullets = re.findall(r"^- (\d), `([^`]+)`:(.*?)(?=^- |^$)", section, re.M | re.S)
    for code, label, body in bullets:
        labels[int(code)] = label
        for name in re.findall(r"`(\w+Error)`", body):
            codes[name] = int(code)
    return codes, labels


# the documented contract; a README that drifts from ``pme.errors`` fails below
EXIT_CODES, _LABELS = documented_exit_codes()
PREFIXES = {code: f"pme: {label}: " for code, label in _LABELS.items()}


def error_classes(cls=errors.PMEError):
    """Every subclass of ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


@pytest.mark.parametrize("cls", list(error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys, cls):
    assert cls.__name__ in EXIT_CODES, f"{cls.__name__} has no documented exit code"

    def stub(args):
        raise cls("stub failure")

    monkeypatch.setattr(cli, "cmd_uniq_check", stub)
    rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1")
    assert rc == EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err == PREFIXES[rc] + "stub failure\n"


def test_documented_exit_codes_name_only_existing_classes():
    assert set(EXIT_CODES) == {cls.__name__ for cls in error_classes()}
    assert set(PREFIXES) == {2, 3, 4}


def assert_one_configuration_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.splitlines()) == 1 and err.startswith(PREFIXES[2]), err
    return err


def quad_args(command, *extra):
    return [command, "--manifold", "quad-critical", "--dim", "3", "--c", "0.5", *extra]


@pytest.mark.parametrize(
    "argv",
    [
        ["uniq-check", "--T", "nan", "--c_m", "1", "--k", "0.2"],
        ["uniq-check", "--T", "0.05", "--c_m", "1", "--k", "nan"],
        ["uniq-check", "--T", "0.05", "--c_m", "1", "--c2", "nan"],
        ["uniq-check", "--T", "0.05", "--c_m", "inf", "--k", "0.2"],
        ["uniq-check", "--T", "0.05", "--c_m", "1", "--r0=-inf"],
        ["uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2", "--m", "nan"],
        quad_args("barrier-check", "--m", "nan", "--which", "super", "--out", "{tmp}/c.json"),
        quad_args("barrier-check", "--which", "eta", "--c2", "nan", "--out", "{tmp}/c.json"),
        quad_args("barrier-check", "--m", "2", "--which", "sub", "--rho-max", "inf", "--out", "{tmp}/c.json"),
        quad_args("geometry", "--rho-max", "nan", "--report", "{tmp}/g.json"),
        ["geometry", "--manifold", "quad-critical", "--dim", "3", "--c", "nan", "--report", "{tmp}/g.json"],
    ],
)
def test_non_finite_float_options_are_configuration_errors(tmp_path, capsys, argv):
    rc = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    err = assert_one_configuration_error(rc, capsys)
    assert not any(tmp_path.iterdir())
    # the message names the flag as typed (--c_m keeps its underscore)
    value = next(arg for arg in argv if arg.endswith(("nan", "inf")))
    flag = value.split("=")[0] if "=" in value else argv[argv.index(value) - 1]
    assert f"option '{flag}' must be finite" in err, err


def solve_args(tmp_path, cfg):
    return ["solve", "--config", cfg, "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]


def undecodable_cfg(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe manifold = euclidean\n")
    return str(path)


def sweep_args(tmp_path, *extra):
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG)
    return ["sweep", "--config", cfg, "--param", "b", "--values", "1", *extra, "--out", str(tmp_path / "s.csv")]


def check_args(tmp_path, *extra):
    return quad_args("barrier-check", *extra, "--out", str(tmp_path / "c.json"))


# exp(drift * h) between neighbouring cells of this ball overflows
OVERFLOW_SOLVE_CFG = """
manifold = quad-critical
dim = 3
c = 1000
m = 2
u0 = log-growth(1.0)
R = 25
cells = 250
t_end = 1e-4
dt0 = 1e-5
"""


@pytest.mark.parametrize(
    "make_argv, needle",
    [
        pytest.param(
            lambda tmp: quad_args("geometry", "--rho-max", "1e200", "--report", str(tmp / "g.json")),
            "psi'/psi is not finite",
            id="geometry-psi-overflow",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "1e200"),
            "psi'/psi is not finite",
            id="barrier-check-psi-overflow",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "super"), "'--m'", id="barrier-check-super-without-m"
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "0"),
            "rho_max",
            id="barrier-check-super-rho-max-zero",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "-1"),
            "rho_max",
            id="barrier-check-super-rho-max-negative",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "1e-5"),
            "rho_max",
            id="barrier-check-super-rho-max-below-first-probe",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--rho-max", "0"),
            "rho_max",
            id="barrier-check-eta-rho-max-zero",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--rho-max", "-1"),
            "rho_max",
            id="barrier-check-eta-rho-max-negative",
        ),
        pytest.param(
            lambda tmp: ["uniq-check", "--T", "0.05", "--c_m", "0", "--k", "0.2", "--out", str(tmp / "u.json")],
            "C_M",
            id="uniq-check-zero-c_m",
        ),
        pytest.param(
            lambda tmp: ["blowup", "--ledger", str(tmp / "l.json"), "--config", write_cfg(
                tmp, R12_BLOWUP_CFG.replace("blowup_threshold = 30", "blowup_threshold = -1"))],
            "threshold factor must be > 1",
            id="blowup-negative-threshold",
        ),
        pytest.param(
            lambda tmp: solve_args(tmp, write_cfg(tmp, OVERFLOW_SOLVE_CFG)),
            "quad-critical (c=1000) ball of radius R=25 with 250 cells",
            id="solve-ball-overflows",
        ),
        pytest.param(  # the c = 300 row's ball overflows: no row runs
            lambda tmp: ["sweep", "--config", write_cfg(tmp, R12_BLOWUP_CFG.replace("cells = 120", "cells = 60")),
                         "--param", "c", "--values", "0.5,300", "--workers", "1", "--out", str(tmp / "s.csv")],
            "quad-critical (c=300) ball of radius R=12 with 60 cells",
            id="sweep-row-ball-overflows",
        ),
        pytest.param(
            lambda tmp: ["uniq-check", "--T", "0.05", "--c_m", "1", "--table-points", "7"],
            "--table-points",
            id="uniq-check-table-points-without-out",
        ),
        pytest.param(lambda tmp: sweep_args(tmp, "--workers", "0"), "--workers", id="sweep-zero-workers"),
        pytest.param(lambda tmp: sweep_args(tmp, "--workers", "-3"), "--workers", id="sweep-negative-workers"),
        pytest.param(lambda tmp: solve_args(tmp, str(tmp / "missing.cfg")), "missing.cfg", id="solve-missing-config"),
        pytest.param(
            lambda tmp: ["sweep", "--config", str(tmp / "missing.cfg"), "--param", "b",
                         "--values", "1", "--workers", "1", "--out", str(tmp / "s.csv")],
            "missing.cfg",
            id="sweep-missing-config",
        ),
        pytest.param(lambda tmp: solve_args(tmp, str(tmp)), "cannot read", id="solve-config-is-a-directory"),
        pytest.param(
            lambda tmp: solve_args(tmp, undecodable_cfg(tmp)), "cannot read", id="solve-undecodable-config"
        ),
        pytest.param(
            lambda tmp: solve_args(
                tmp, write_cfg(tmp, BASE_CFG.replace("log-growth(1.0)", f"table({tmp})"))
            ),
            "cannot read",
            id="solve-table-is-a-directory",
        ),
        pytest.param(
            lambda tmp: solve_args(
                tmp, write_cfg(tmp, BASE_CFG.replace("log-growth(1.0)", f"table({tmp}/no.csv)"))
            ),
            "no.csv",
            id="solve-missing-table",
        ),
        pytest.param(
            lambda tmp: solve_args(tmp, write_cfg(tmp, BASE_CFG.replace("c = 0.5", "c = -1"))),
            "c > 0",
            id="solve-negative-curvature-parameter",
        ),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, make_argv, needle):
    argv = make_argv(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(*argv)
    # outside pytest, each warning would print its own lines on stderr
    assert not caught, [str(w.message) for w in caught]
    err = assert_one_configuration_error(rc, capsys)
    assert needle in err, err
    assert sorted(tmp_path.iterdir()) == inputs  # no output file
