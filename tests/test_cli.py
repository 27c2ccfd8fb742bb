"""CLI contract: exit codes, output formats, determinism."""

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pme import barriers, blowup, cli, errors, geometry, solver
from pme import config as cfgmod
from pme.grid import RadialGrid


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


@pytest.mark.parametrize(
    "dim, flags, c2, r0, rho_max",
    [
        ("2", [], 1.0, 2.0, 1e3),
        ("3", ["--c2", "0.5", "--r0", "3", "--rho-max", "500"], 0.5, 3.0, 500.0),
        ("2", ["--c2", "3", "--r0", "4"], 3.0, 4.0, 1e3),
    ],
)
def test_barrier_check_eta_writes_the_eta_certificate_at_horizon_one(tmp_path, dim, flags, c2, r0, rho_max):
    out = tmp_path / "cert.json"
    args = ["--manifold", "euclidean", "--dim", dim, "--which", "eta", *flags, "--out", str(out)]
    assert run_cli("barrier-check", *args) == 0
    _, rep = barriers.eta_certificate(c2, r0, 1.0, int(dim), rho_max=rho_max)
    assert out.read_text() == previous_json_text(rep)
    # the written params are the certified barrier's: --c2 and --r0 as
    # given, horizon and scale one, and the decay select_K chose for them
    params = json.loads(out.read_text())["params"]
    assert params == {"C2": c2, "R0": r0, "T": 1.0, "lambda": 1.0, "K": barriers.select_K(c2)}


NO_LIVE_NODE = "eta is 0 on every node, so nothing was checked"


def certificate_reports(manifold, consts) -> dict:
    """A passing and a failing report of each certificate, and an eta
    report with no live node, by name."""
    a = barriers.supersolution_amplitude(consts.c_prime, 2.0)
    sup = barriers.BarrierParams(a, 2.0, 1.0, 2.0)
    sub = barriers.subsolution_params(consts, 2.0)
    return {
        "super-pass": barriers.certify_supersolution(sup, manifold, consts),
        "super-fail": barriers.certify_supersolution(dataclasses.replace(sup, amplitude=10 * a), manifold, consts),
        "sub-pass": barriers.certify_subsolution(sub, manifold),
        "sub-fail": barriers.certify_subsolution(dataclasses.replace(sub, amplitude=sub.amplitude / 100), manifold),
        "eta-pass": barriers.eta_certificate(1.0, 2.0, 1.0, 2)[1],
        "eta-fail": barriers.eta_certificate(1.0, 2.0, 1.0, 2, decay=5.0)[1],
        "eta-dead": barriers.eta_certificate(1e-4, 2.0, 1.0, 2)[1],
    }


def test_a_certificate_report_is_written_as_its_previous_dict(tmp_path, quad_manifold, quad_constants):
    reports = certificate_reports(quad_manifold, quad_constants)
    for name, rep in reports.items():
        assert rep.passed == name.endswith("pass"), name
        out = tmp_path / f"{name}.json"
        cli.write_json(out, rep)
        text = out.read_text()
        assert text == previous_json_text(rep), name
        written = json.loads(text)
        assert "kind" not in written and written["pass"] is rep.passed, name
    assert reports["eta-dead"].min_residual == math.inf
    assert json.loads(cli._json_text(reports["eta-dead"]))["min_residual"] is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["barrier-check", "--manifold", "euclidean", "--dim", "2", "--which", "eta", "--c2", "1e-4"],
         f"eta certificate failed: {NO_LIVE_NODE}"),
        (["uniq-check", "--T", "0.05", "--c_m", "1", "--c2", "1e-4"], f"eta certificate failed: {NO_LIVE_NODE}"),
    ],
)
def test_an_eta_grid_with_no_live_node_exits_3(tmp_path, capsys, argv, message):
    # K = 1/(4.4e-4) = 2,272.7: eta underflows to 0 on every node, so the
    # certificate checked nothing and fails instead of passing vacuously
    out = ["--out", str(tmp_path / "eta.json")] if argv[0] == "barrier-check" else []
    assert run_cli(*argv, *out) == 3
    err = capsys.readouterr().err
    assert err == f"{PREFIXES[3]}{message}\n", err


@pytest.mark.parametrize(
    "flags, rc",
    [
        # K = 2.3e5: every node is dead, and the products past the double
        # range there gave overflow and invalid-value warnings
        (["--which", "eta", "--c2", "1e-6"], 3),
        # (m - 1) (r^2 + rho^2) log(r^2 + rho^2) overflowed at rho = 1e150
        (["--which", "super", "--m", "1e6"], 0),
    ],
)
def test_certificates_at_the_largest_radius_give_no_warning(tmp_path, flags, rc):
    argv = ["barrier-check", "--manifold", "euclidean", "--dim", "2", *flags, "--rho-max", "1e150",
            "--out", str(tmp_path / "cert.json")]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pme.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == rc and len(proc.stderr.splitlines()) == (rc != 0), proc.stderr


@pytest.mark.parametrize(
    "which, m, message",
    [
        # a = [2m (C' + (m+1)/(m-1))]^(-1/(m-1)) underflows to 0.0 near m = 1,
        # and BarrierParams refuses it by its amplitude, horizon and m
        pytest.param("super", "1.001", "amplitude 0.0 and horizon 1.0 at m=1.001 must be", id="1.001"),
        pytest.param("super", "1.005", "amplitude 0.0 and horizon 1.0 at m=1.005 must be", id="1.005"),
        # the sub amplitude is 1.07e301 at m = 1.001, so the unit profile
        # overflows, and the certificate refuses it by m instead of
        # reporting a NaN residual
        pytest.param(
            "sub", "1.001", "the unit barrier profile at m=1.001 leaves the float range", id="sub-1.001"
        ),
    ],
)
def test_a_supersolution_amplitude_that_underflows_exits_2_naming_m(tmp_path, which, m, message):
    argv = quad_args("barrier-check", "--which", which, "--m", m, "--out", str(tmp_path / "cert.json"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pme.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2 and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert message in proc.stderr, proc.stderr


def test_a_sub_certificate_near_m_one_still_passes_without_a_warning(tmp_path):
    # at m = 1.005 the sub amplitude is 7.2e59 and its unit profile finite,
    # so the float-range check refuses nothing there
    out = tmp_path / "cert.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*quad_args("barrier-check", "--which", "sub", "--m", "1.005", "--out", str(out))) == 0
    assert json.loads(out.read_text())["pass"] is True


@pytest.mark.parametrize("which", ["super", "sub"])
def test_barrier_check_writes_the_certificate_params(tmp_path, which):
    out = tmp_path / "cert.json"
    assert run_cli(*quad_args("barrier-check", "--m", "3", "--which", which, "--out", str(out))) == 0
    manifold = geometry.quad_critical(0.5, 3)
    consts = geometry.fit_comparison_constants(manifold)
    if which == "super":
        a = barriers.supersolution_amplitude(consts.c_prime, 3.0)
        rep = barriers.certify_supersolution(barriers.BarrierParams(a, 2.0, 1.0, 3.0), manifold, consts)
    else:
        rep = barriers.certify_subsolution(barriers.subsolution_params(consts, 3.0), manifold)
    assert out.read_text() == previous_json_text(rep)
    params = json.loads(out.read_text())["params"]
    assert params == rep.params and params["m"] == 3.0


@pytest.mark.parametrize("kind", sorted(geometry.BUILTIN_FAMILIES))
def test_rho_max_at_its_bound_runs_without_a_warning(tmp_path, kind):
    c = ["--c", "0.5"] if kind.endswith("-critical") else []
    base = ["--manifold", kind, "--dim", "3", *c, "--rho-max", repr(geometry.MAX_RHO_MAX)]
    runs = [["geometry", *base, "--report", str(tmp_path / "g.json")]]
    for which in ["super", "eta"] + (["sub"] if kind == "quad-critical" else []):
        m = [] if which == "eta" else ["--m", "2"]
        runs.append(["barrier-check", *base, *m, "--which", which, "--out", str(tmp_path / f"{which}.json")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the run
        for argv in runs:
            assert run_cli(*argv) == 0, argv


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


def test_exhaust_refuses_a_t_end_past_the_certified_horizon(tmp_path, capsys):
    # log-growth(1) on quad-critical c = 0.5 exists up to T = 0.09996, the
    # horizon ``solve`` certifies; every ball of the exhaustion stops there too
    text = BASE_CFG.replace("R = 20\n", "").replace("cells = 200", "cells = 20")
    cfg = write_cfg(tmp_path, text.replace("t_end = 0.02", "t_end = 5"))
    out = tmp_path / "exhaust.json"
    rc = run_cli("exhaust", "--config", cfg, "--radii", "8,16,32", "--out", str(out))
    err = assert_one_configuration_error(rc, capsys)
    assert "t_end=5 " in err and "T=0.09996" in err
    assert not out.exists()


# the from-above exhaustion config: log-growth(1) on quad-critical c = 0.5,
# its boundary the certified supersolution's trace, under which u_R
# decreases with R
FROM_ABOVE_EXHAUST_CFG = """
manifold = quad-critical
dim = 3
c = 0.5
m = 2
u0 = log-growth(1.0)
cells = 50
t_end = 0.05
dt0 = 1e-3
barrier_a = 0.04998000799680127
barrier_T = 0.09996001599360255
"""


@pytest.mark.parametrize("boundary", ["barrier-dirichlet", "homogeneous-dirichlet"])
def test_exhaust_refuses_a_boundary_key(tmp_path, capsys, boundary):
    # exhaust checks u_R for increase in R, which holds for zero boundary
    # data only: a boundary key, even the default's, exits 2 naming it
    cfg = write_cfg(tmp_path, FROM_ABOVE_EXHAUST_CFG + f"boundary = {boundary}\n")
    out = tmp_path / "exhaust.json"
    rc = run_cli("exhaust", "--config", cfg, "--radii", "20,40,80,160", "--out", str(out))
    err = assert_one_configuration_error(rc, capsys)
    assert "'boundary'" in err
    assert not out.exists()


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
    assert led["tau"] <= led["tau_bound"]
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


def test_blowup_writes_its_ledger_before_validating_it(tmp_path, monkeypatch):
    checked = []

    def fails(ledger):
        checked.append(ledger)
        raise errors.CertificateError("sandwich gap over the tolerance")

    monkeypatch.setattr(blowup.BlowupLedger, "validate", fails)
    ledger = tmp_path / "ledger.json"
    rc = run_cli("blowup", "--config", write_cfg(tmp_path, R12_BLOWUP_CFG), "--ledger", str(ledger))
    assert rc == 3
    (run,) = checked
    led = json.loads(ledger.read_text())
    assert led["status"] == run.status and len(led["stages"]) == len(run.stages) > 0


def test_a_sweep_row_whose_ledger_fails_its_check_reports_failed(tmp_path, monkeypatch):
    def fails(ledger):
        raise errors.CertificateError("sandwich gap over the tolerance")

    monkeypatch.setattr(blowup.BlowupLedger, "validate", fails)
    cfg = R12_BLOWUP_CFG.replace("cells = 120", "cells = 60") + "blowup_max_stages = 2\n"
    rc, _ = run_sweep(tmp_path, "b", "1", cfg)
    assert rc == 4  # every row failed
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "failed" and lines[1].endswith("sandwich gap over the tolerance")


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


def test_uniq_check_whose_decay_product_leaves_the_float_range(tmp_path, capsys):
    # log F(100) = 719.6 lies past log(max double) = 709.78, where math.exp
    # raises OverflowError: F is inf, written as null, and the smallness
    # condition fails as it should
    assert run_cli("uniq-check", "--T", "0.05", "--c_m", "0.33", "--k", "1e-6") == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "smallness condition fails" in captured.err
    data = json.loads(captured.out)
    assert data["F_at_100"] is None and 719.5 < data["logF_at_100"] < 719.7
    # the table row at R = 194.1 has log F = 718.7: F is inf, from its own log F
    out = tmp_path / "u.json"
    assert run_cli("uniq-check", "--T", "0.05", "--c_m", "0.1", "--k", "1e-6", "--out", str(out)) == 3
    assert capsys.readouterr().err.count("\n") == 1 and out.exists()
    rows = [line.split(",") for line in (tmp_path / "u.csv").read_text().splitlines()[1:]]
    assert all(f == str(barriers.decay_product(0.1, 1e-6, 0.05, 2.0, float(r))[0]) for r, f, _ in rows)
    assert ["194.14919457438816", "inf"] in [row[:2] for row in rows]


def test_uniq_check_whose_critical_horizon_overflows_is_in_the_decay_regime(capsys):
    # K/(2 C_M) = 1e309 overflows to inf, which no finite T reaches: the
    # regime is decay, not the knife edge, and critical_T is written as null
    assert run_cli("uniq-check", "--T", "0.05", "--c_m", "1e-310", "--k", "0.2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regime"] == "decay" and data["critical_T"] is None and data["F_at_100"] == 0.0


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



def test_uniq_check_where_the_horizon_squared_underflows(capsys):
    # (2T - t)^2 underflows to 0 below T of about 1e-154; eta's time
    # derivative divides by 2T - t twice instead, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("uniq-check", "--T", "1e-300", "--c_m", "1", "--k", "1e-299") == 0
        capsys.readouterr()
        rc = run_cli("uniq-check", "--T", "1e-300", "--c_m", "1", "--k", "1e-301")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.strip().endswith("smallness condition fails: T=1e-300 >= K/(2 C_M)=5e-302"), err


@pytest.mark.parametrize("T, k", [("1e-7", "1e-6"), ("1e-12", "1e-11")], ids=["1e-7", "1e-12"])
def test_uniq_check_certifies_at_the_given_horizon(capsys, T, k):
    # K/T = 10 leaves eta positive at the first node (exponent about 29);
    # at K = 0.2 it is 0 on every node, and the certificate checks nothing
    rc = run_cli("uniq-check", "--T", T, "--c_m", "1", "--k", k)
    assert rc == 0  # the eta certificate passed at this horizon
    data = json.loads(capsys.readouterr().out)
    assert data["T"] == data["eta_certificate"]["params"]["T"] == float(T)
    assert data["eta_certificate"]["min_residual"] is not None
    assert run_cli("uniq-check", "--T", T, "--c_m", "1", "--k", "0.2") == 3
    assert capsys.readouterr().err == f"{PREFIXES[3]}eta certificate failed: {NO_LIVE_NODE}\n"


@pytest.mark.parametrize("T", ["0", "-1"])
def test_uniq_check_nonpositive_horizon_exits_2(capsys, T):
    rc = run_cli("uniq-check", "--T", T, "--c_m", "1", "--k", "0.2")
    err = assert_one_configuration_error(rc, capsys)
    assert "option '--T' must be > 0" in err, err


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


@pytest.mark.parametrize("values, pools", [("1,2", [2]), ("1", [])])
def test_sweep_starts_at_most_one_worker_per_row(tmp_path, monkeypatch, values, pools):
    # a pool starts all its workers on its first task, so --workers 64 on two
    # rows must ask for two, and one row must run without a pool.  The fake
    # pool records its size and runs the rows here, starting no process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG)
    out = tmp_path / "sweep.csv"
    argv = ["--param", "b", "--values", values, "--workers", "64", "--out", str(out)]
    assert run_cli("sweep", "--config", cfg, *argv) == 0
    assert sizes == pools
    assert len(out.read_text().splitlines()) == 1 + len(values.split(","))


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


def test_exhaust_rejects_non_numeric_radii(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EXHAUST_CFG)
    rc = run_cli("exhaust", "--config", cfg, "--radii", "1,x,3", "--out", str(tmp_path / "e.json"))
    assert rc == 2
    assert "'--radii': not a number ('x')" in capsys.readouterr().err


def test_exhaust_rejects_a_zero_first_radius(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EXHAUST_CFG)
    rc = run_cli("exhaust", "--config", cfg, "--radii", "0,1,2", "--out", str(tmp_path / "e.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "first radius" in err
    assert not (tmp_path / "e.json").exists()


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
        ("exhaust", "norm_r = 2"),
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


@pytest.mark.parametrize("target", ["directory", "cwd", "under-a-file", "unwritable-parent"])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, target):
    out = tmp_path / "u.json"
    if target == "directory":
        out.mkdir()
    elif target == "cwd":  # os.replace onto the working directory itself
        monkeypatch.chdir(tmp_path)
        out = Path(".")
    elif target == "under-a-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "u.json"
    else:
        if os.geteuid() == 0:
            pytest.skip("root writes into a directory without write permission")
        out = tmp_path / "ro" / "u.json"
        out.parent.mkdir(mode=0o500)
    inputs = sorted(tmp_path.iterdir())
    try:
        rc = run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2", "--out", str(out))
    finally:
        if target == "unwritable-parent":
            out.parent.chmod(0o700)
    err = assert_one_configuration_error(rc, capsys)
    assert err.startswith(f"{PREFIXES[2]}cannot write {out}: "), err
    assert sorted(tmp_path.iterdir()) == inputs  # the temporary file is gone too


def verbose_runs(tmp_path):
    """{command: (argv, the INFO line its output implies)}."""
    geometry_out, cert, ledger = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "l.json"
    cfg = write_cfg(tmp_path, R12_BLOWUP_CFG.replace("cells = 120", "cells = 60") + "blowup_max_stages = 2\n")

    def ledger_line():
        led = json.loads(ledger.read_text())
        return f"blow-up run: {led['status']} after {len(led['stages'])} stages, tau={led['tau']:.6g}"

    return {
        "geometry": (
            ["geometry", "--manifold", "euclidean", "--dim", "3", "--report", str(geometry_out)],
            lambda: f"geometry constants written to {geometry_out}",
        ),
        "barrier-check": (
            ["barrier-check", "--manifold", "euclidean", "--dim", "2", "--m", "2", "--which", "super",
             "--out", str(cert)],
            lambda: f"super certificate passed (min residual {json.loads(cert.read_text())['min_residual']:.3e})",
        ),
        "blowup": (["blowup", "--config", cfg, "--ledger", str(ledger)], ledger_line),
    }


@pytest.mark.parametrize("command", ["geometry", "barrier-check", "blowup"])
def test_verbose_prints_one_info_line_after_a_plain_run_in_the_same_process(tmp_path, capsys, command):
    argv, line = verbose_runs(tmp_path)[command]
    assert run_cli(*argv) == 0
    assert capsys.readouterr() == ("", "")
    assert run_cli("--verbose", *argv) == 0
    assert capsys.readouterr() == ("", f"INFO pme: {line()}\n")


def test_solve_and_uniq_check_reports_have_their_dataclass_fields_as_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EUCLIDEAN_BALL_CFG + "u0 = log-growth(1.0)\nt_end = 0.01\ndt0 = 1e-3\n")
    assert run_cli(*solve_args(tmp_path, cfg)) == 0
    assert set(json.loads((tmp_path / "s.json").read_text())) == field_names(solver.SolveReport)
    assert run_cli("uniq-check", "--T", "0.05", "--c_m", "1", "--k", "0.2") == 0
    assert set(json.loads(capsys.readouterr().out)) == field_names(barriers.UniquenessReport)


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


def test_solver_failure_exits_4_naming_the_residual_and_its_target(tmp_path, monkeypatch, capsys):
    # every LAPACK call reports a singular system
    monkeypatch.setattr(solver, "dgtsv", lambda dl, d, du, b, *flags, **kw: (dl, d, du, b, 1))
    cfg = write_cfg(tmp_path, BASE_CFG)
    out, summary = str(tmp_path / "traj.csv"), str(tmp_path / "summary.json")
    rc = run_cli("solve", "--config", cfg, "--out", out, "--summary", summary)
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(PREFIXES[4]), err
    assert re.search(r" \(last failed solve: residual \S+, target \S+\)\n$", err), err


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


def blowup_args(tmp_path, cfg):
    return ["blowup", "--ledger", str(tmp_path / "l.json"), "--config", cfg]


def sweep_cfg_args(tmp_path, cfg):
    return ["sweep", "--config", cfg, "--param", "b", "--values", "1", "--workers", "1",
            "--out", str(tmp_path / "s.csv")]


BARRIER_CFG = BASE_CFG + "boundary = barrier-dirichlet\nbarrier_a = 1.001\nbarrier_T = 4.0\n"


def check_args(tmp_path, *extra):
    return quad_args("barrier-check", *extra, "--out", str(tmp_path / "c.json"))


EUCLIDEAN_BALL_CFG = """
manifold = euclidean
dim = 3
m = 2
R = 5
cells = 20
"""


# its last row lies past geometry.MAX_RHO_MAX: the norm's weight there forms rho^2
FAR_TABLE = "rho,value\n1,1\n1e151,1\n"

# (id, a line of BASE_CFG, its replacement, the error's text)
CONFIG_ERRORS = [
    ("missing-u0", "u0 = log-growth(1.0)\n", "", "missing required key 'u0'"),
    ("missing-manifold", "manifold = quad-critical\n", "", "missing required key 'manifold'"),
    ("duplicate-key", "R = 20\n", "R = 20\nR = 30\n", "run.cfg:8: duplicate key 'R'"),
    ("line-without-equals", "R = 20\n", "R 20\n", "run.cfg:7: expected 'key = value'"),
    ("u0-of-no-form", "log-growth(1.0)", "gaussian(1.0)",
     "u0 must be log-growth(b), bounded(B) or table(path); got 'gaussian(1.0)'"),
    ("u0-amplitude-not-a-number", "log-growth(1.0)", "log-growth(one)", "u0 amplitude is not a number: 'one'"),
]

# (id, the u0 table file, the error's text)
TABLE_ERRORS = [
    ("without-header", "1,1\n2,1\n", "u0.csv: table needs a 'rho,value' header row"),
    ("bad-row", "rho,value\n1,1\n2\n", "u0.csv:3: bad table row ['2']"),
    # the blank line 3 is skipped, and still counted
    ("blank-row-skipped", "rho,value\n1,1\n\n3,x\n", "u0.csv:4: bad table row ['3', 'x']"),
    ("one-row", "rho,value\n1,1\n", "u0.csv: table needs at least two rows"),
    ("radii-not-increasing", "rho,value\n2,1\n1,1\n", "u0.csv: table rho column must be strictly increasing"),
    ("negative-radius", "rho,value\n-1,1\n2,1\n", "u0.csv:2: table rho must be >= 0, got '-1'"),
    ("three-field-row", "rho,value\n1,1,9\n2,1,9\n", "u0.csv:2: bad table row ['1', '1', '9']: 3 fields, not 2"),
]


def table_args(tmp_path, table):
    """Arguments of a ``solve`` run of BASE_CFG from the u0 table file ``table``."""
    u0 = f"table({write_cfg(tmp_path, table, name='u0.csv')})"
    return solve_args(tmp_path, write_cfg(tmp_path, BASE_CFG.replace("log-growth(1.0)", u0)))


def datum_args(tmp_path, command, u0):
    """Arguments of a ``command`` run on a small Euclidean ball from ``u0``;
    ``table(rho,value)`` is a table whose middle row is that one."""
    if u0.startswith("table"):
        table = tmp_path / "u0.csv"
        table.write_text(f"rho,value\n1,1\n{u0[6:-1]}\n3,1\n")
        u0 = f"table({table})"
    cfg = EUCLIDEAN_BALL_CFG + f"u0 = {u0}\n"
    if command == "solve":
        return solve_args(tmp_path, write_cfg(tmp_path, cfg + "t_end = 0.01\ndt0 = 1e-3\n"))
    return ["blowup", "--config", write_cfg(tmp_path, cfg), "--ledger", str(tmp_path / "l.json")]


NON_FINITE_DATA = [
    ("log-growth(nan)", "u0 amplitude must be nonnegative and finite, got 'nan'"),
    ("log-growth(inf)", "u0 amplitude must be nonnegative and finite, got 'inf'"),
    ("bounded(nan)", "u0 amplitude must be nonnegative and finite, got 'nan'"),
    ("bounded(inf)", "u0 amplitude must be nonnegative and finite, got 'inf'"),
    ("table(nan,1)", "u0.csv:3: table entries must be finite"),
    ("table(2,nan)", "u0.csv:3: table entries must be finite"),
]


def number_args(tmp_path, command, flag, text):
    """Valid ``command`` arguments followed by ``flag text``."""
    if command == "sweep":
        return sweep_args(tmp_path, flag, text)
    valid = {
        "geometry": ["--manifold", "euclidean", "--dim", "3", "--report", str(tmp_path / "g.json")],
        "barrier-check": ["--manifold", "euclidean", "--dim", "2", "--m", "2", "--which", "super",
                          "--out", str(tmp_path / "c.json")],
        "uniq-check": ["--T", "0.05", "--c_m", "1", "--k", "0.2", "--out", str(tmp_path / "u.json")],
    }
    return [command, *valid[command], flag, text]


PAST_RHO_MAX = repr(math.nextafter(geometry.MAX_RHO_MAX, math.inf))

# malformed and below-minimum text of each integer flag, malformed text of
# a float flag, and each float flag out of the range the library checks:
# the flag's reader names it as typed
BAD_NUMBERS = [
    ("geometry", "--dim", "abc", "option '--dim': not an integer ('abc')"),
    ("geometry", "--dim", "1", "option '--dim' must be >= 2"),
    ("barrier-check", "--dim", "2.5", "option '--dim': not an integer ('2.5')"),
    ("barrier-check", "--dim", "1", "option '--dim' must be >= 2"),
    ("uniq-check", "--dim", "abc", "option '--dim': not an integer ('abc')"),
    ("uniq-check", "--dim", "1", "option '--dim' must be >= 2"),
    ("geometry", "--n-probe", "abc", "option '--n-probe': not an integer ('abc')"),
    ("geometry", "--n-probe", "999", "option '--n-probe' must be >= 1000"),
    ("barrier-check", "--nodes", "abc", "option '--nodes': not an integer ('abc')"),
    ("barrier-check", "--nodes", "0", "option '--nodes' must be >= 1"),
    ("uniq-check", "--table-points", "abc", "option '--table-points': not an integer ('abc')"),
    ("uniq-check", "--table-points", "0", "option '--table-points' must be >= 1"),
    ("sweep", "--workers", "abc", "option '--workers': not an integer ('abc')"),
    ("uniq-check", "--T", "abc", "option '--T': not a number ('abc')"),
    ("geometry", "--rho-max", "5", "option '--rho-max' must be >= 10"),
    ("geometry", "--rho-max", PAST_RHO_MAX, "option '--rho-max' must be <= 1e+150"),
    ("uniq-check", "--m", "1", "option '--m' must be > 1"),
    ("barrier-check", "--m", "1", "option '--m' must be > 1"),
    ("uniq-check", "--c2", "0", "option '--c2' must be > 0"),
    ("uniq-check", "--T", "0", "option '--T' must be > 0"),
    ("uniq-check", "--k", "0", "option '--k' must be > 0"),
    ("uniq-check", "--c_m", "-1", "option '--c_m' must be > 0"),
    ("uniq-check", "--r0", "1", "option '--r0' must be >= 2"),
    ("barrier-check", "--c2", "0", "option '--c2' must be > 0"),
    ("barrier-check", "--r0", "1.5", "option '--r0' must be >= 2"),
]


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
        # psi'/psi = (1 + 2 c rho^2)/rho overflows at c = 1e10 and the largest --rho-max
        pytest.param(
            lambda tmp: ["geometry", "--manifold", "quad-critical", "--dim", "3", "--c", "1e10",
                         "--rho-max", "1e150", "--report", str(tmp / "g.json")],
            "psi'/psi is not finite",
            id="geometry-psi-overflow",
        ),
        pytest.param(
            lambda tmp: ["barrier-check", "--manifold", "quad-critical", "--dim", "3", "--c", "1e10",
                         "--m", "2", "--which", "super", "--rho-max", "1e150", "--out", str(tmp / "c.json")],
            "psi'/psi is not finite",
            id="barrier-check-psi-overflow",
        ),
        # --rho-max is at most geometry.MAX_RHO_MAX, for every --which
        *(
            pytest.param(
                lambda tmp, which=which, m=m: check_args(tmp, *m, "--which", which, "--rho-max", PAST_RHO_MAX),
                "option '--rho-max' must be <= 1e+150",
                id=f"barrier-check-{which}-rho-max-past-the-bound",
            )
            for which, m in (("super", ["--m", "2"]), ("sub", ["--m", "2"]), ("eta", []))
        ),
        # norm_r is at least 2, and every radius a weight reads is at most
        # geometry.MAX_RHO_MAX: past it r^2 + rho^2 overflows
        *(
            pytest.param(lambda tmp, argv=argv, text=text: argv(tmp, write_cfg(tmp, text)), needle, id=name)
            for name, argv, text, needle in (
                ("solve-norm-r-below-two", solve_args, BASE_CFG + "norm_r = 1.5\n",
                 "key 'norm_r' must be >= 2, got 1.5"),
                ("blowup-norm-r-below-two", blowup_args, R12_BLOWUP_CFG + "norm_r = 1.5\n",
                 "key 'norm_r' must be >= 2, got 1.5"),
                ("sweep-norm-r-below-two", sweep_cfg_args, R12_BLOWUP_CFG + "norm_r = 1.5\n",
                 "key 'norm_r' must be >= 2, got 1.5"),
                ("solve-norm-r-past-the-largest-radius", solve_args, BASE_CFG + "norm_r = 1e160\n",
                 "key 'norm_r' must be <= 1e+150"),
                ("blowup-norm-r-past-the-largest-radius", blowup_args, R12_BLOWUP_CFG + "norm_r = 1e160\n",
                 "key 'norm_r' must be <= 1e+150"),
                ("sweep-norm-r-past-the-largest-radius", sweep_cfg_args, R12_BLOWUP_CFG + "norm_r = 1e160\n",
                 "key 'norm_r' must be <= 1e+150"),
                ("solve-barrier-r-past-the-largest-radius", solve_args, BARRIER_CFG + "barrier_r = 1e160\n",
                 "key 'barrier_r' must be <= 1e+150"),
                ("solve-R-past-the-largest-radius", solve_args, BASE_CFG.replace("R = 20", "R = 1e160"),
                 "key 'R' must be <= 1e+150"),
            )
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "super"), "'--m'", id="barrier-check-super-without-m"
        ),
        # --rho-max is bounded by the first node of the certificate --which
        # picks: the first probe radius, or the first eta node past --r0
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "0"),
            "option '--rho-max' must be > 0.001 (the first probe radius), got 0",
            id="barrier-check-super-rho-max-zero",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "-1"),
            "option '--rho-max' must be > 0.001",
            id="barrier-check-super-rho-max-negative",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "super", "--rho-max", "1e-5"),
            "option '--rho-max' must be > 0.001",
            id="barrier-check-super-rho-max-below-first-probe",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--m", "2", "--which", "sub", "--rho-max", "0"),
            "option '--rho-max' must be > 0.001",
            id="barrier-check-sub-rho-max-zero",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--rho-max", "0"),
            "option '--rho-max' must be > 2.000002",
            id="barrier-check-eta-rho-max-zero",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--rho-max", "-1"),
            "option '--rho-max' must be > 2.000002",
            id="barrier-check-eta-rho-max-negative",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--rho-max", "1"),
            "option '--rho-max' must be > 2.000002 (the first eta node, just past --r0), got 1",
            id="barrier-check-eta-rho-max-below-first-node",
        ),
        pytest.param(
            lambda tmp: check_args(tmp, "--which", "eta", "--r0", "4", "--rho-max", "4"),
            "option '--rho-max' must be > 4.000004",
            id="barrier-check-eta-rho-max-at-r0",
        ),
        pytest.param(
            lambda tmp: ["uniq-check", "--T", "0.05", "--c_m", "0", "--k", "0.2", "--out", str(tmp / "u.json")],
            "option '--c_m' must be > 0",
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
        pytest.param(
            lambda tmp: ["uniq-check", "--T", "0.05", "--c_m", "1", "--out", str(tmp / "u.csv")],
            "ends in .csv, the name of its R,F,logF table",
            id="uniq-check-out-is-its-table",
        ),
        # argparse's own errors: one configuration-error line, not a usage block
        pytest.param(
            lambda tmp: ["geometry", "--manifold", "euclidean", "--report", str(tmp / "g.json")],
            "the following arguments are required: --dim",
            id="geometry-missing-dim",
        ),
        pytest.param(
            lambda tmp: ["geometry", "--manifold", "bogus", "--dim", "3", "--report", str(tmp / "g.json")],
            "argument --manifold: invalid choice: 'bogus'",
            id="geometry-unknown-manifold",
        ),
        pytest.param(
            lambda tmp: quad_args("geometry", "--bogus", "1", "--report", str(tmp / "g.json")),
            "unrecognized arguments: --bogus 1",
            id="geometry-unknown-flag",
        ),
        # flags are not abbreviated: --rho is not --rho-max, nor --sum --summary
        pytest.param(
            lambda tmp: quad_args("geometry", "--rho", "20", "--report", str(tmp / "g.json")),
            "unrecognized arguments: --rho 20",
            id="geometry-abbreviated-flag",
        ),
        pytest.param(
            lambda tmp: [*solve_args(tmp, write_cfg(tmp, BASE_CFG)), "--sum", str(tmp / "c.json")],
            "unrecognized arguments: --sum",
            id="solve-abbreviated-flag",
        ),
        pytest.param(
            lambda tmp: sweep_args(tmp, "--workers", "0"),
            "option '--workers' must be >= 1",
            id="sweep-zero-workers",
        ),
        pytest.param(
            lambda tmp: sweep_args(tmp, "--workers", "-3"),
            "option '--workers' must be >= 1",
            id="sweep-negative-workers",
        ),
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
            lambda tmp: table_args(tmp, FAR_TABLE),
            "u0.csv: table rho must be at most 1e+150",
            id="solve-table-past-the-largest-probe-radius",
        ),
        *(
            pytest.param(
                lambda tmp, old=old, new=new: solve_args(tmp, write_cfg(tmp, BASE_CFG.replace(old, new))),
                needle,
                id=f"solve-{name}",
            )
            for name, old, new, needle in CONFIG_ERRORS
        ),
        *(
            pytest.param(lambda tmp, table=table: table_args(tmp, table), needle, id=f"solve-table-{name}")
            for name, table, needle in TABLE_ERRORS
        ),
        pytest.param(
            lambda tmp: solve_args(tmp, write_cfg(tmp, BASE_CFG.replace("c = 0.5", "c = -1"))),
            "c > 0",
            id="solve-negative-curvature-parameter",
        ),
        pytest.param(
            lambda tmp: solve_args(tmp, write_cfg(tmp, BASE_CFG.replace("t_end = 0.02", "t_end = 100"))),
            "t_end=100 reaches the barrier horizon T=",
            id="solve-t-end-past-the-certified-horizon",
        ),
        *(
            pytest.param(
                lambda tmp, command=command, u0=u0: datum_args(tmp, command, u0),
                needle,
                id=f"{command}-u0-{u0}",
            )
            for command in ("solve", "blowup")
            for u0, needle in NON_FINITE_DATA
        ),
        *(
            pytest.param(
                lambda tmp, args=args: number_args(tmp, *args),
                needle,
                id=f"{args[0]}-{args[1].lstrip('-')}-{args[2]}",
            )
            for *args, needle in BAD_NUMBERS
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


@pytest.mark.parametrize(
    "make_argv, text, code",
    [
        (solve_args, BASE_CFG + "norm_r = 1e150\n", 0),
        (blowup_args, R12_BLOWUP_CFG + "norm_r = 1e150\n", 0),
        # the barrier's trace at R = 20 is not below the solution's: a certificate failure
        (solve_args, BARRIER_CFG + "barrier_r = 1e150\n", 3),
        (solve_args, EUCLIDEAN_BALL_CFG.replace("R = 5", "R = 1e150") + "u0 = bounded(1.0)\nt_end = 1e-3\ndt0 = 1e-4\n",
         0),
    ],
    ids=["solve-norm-r", "blowup-norm-r", "solve-barrier-r", "solve-R"],
)
def test_the_largest_radius_runs_without_a_warning(tmp_path, capsys, make_argv, text, code):
    # r^2 + rho^2 <= 2e300 stays finite at geometry.MAX_RHO_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*make_argv(tmp_path, write_cfg(tmp_path, text))) == code, capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["", "geometry", "barrier-check", "solve", "exhaust", "blowup", "uniq-check", "sweep"]
)
def test_help_prints_usage_and_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*command.split(), "--help")
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: pme {command}".rstrip()) and not err, (out, err)


def previous_finite_or_null(obj):
    """``obj`` with non-finite floats as None and dataclasses as field dicts:
    the pass ``cli._json_text`` made before ``json.dumps`` until the writer
    took over both.  A field is keyed by the ``json`` item of its metadata
    where it has one, and left out where that is None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj):
        keys = {f.name: f.metadata.get("json", f.name) for f in dataclasses.fields(obj)}
        return {k: previous_finite_or_null(getattr(obj, n)) for n, k in keys.items() if k is not None}
    if isinstance(obj, dict):
        return {key: previous_finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [previous_finite_or_null(val) for val in obj]
    return obj


def previous_json_text(obj) -> str:
    return json.dumps(previous_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclasses.dataclass
class Pair:
    first: object
    second: object


@dataclasses.dataclass(frozen=True)
class Record:
    """Fields declared out of name order, one of them named outside ASCII."""

    zeta: object
    alpha: object
    Beta: object
    é: object


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass
class Keyed:
    """Fields keyed by their ``json`` metadata, out of their names' order,
    one of them not written."""

    alpha: object = dataclasses.field(metadata={"json": "zeta"})
    omega: object = dataclasses.field(metadata={"json": "beta"})
    hidden: object = dataclasses.field(metadata={"json": None})
    gamma: object


# every character class the string encoder escapes: quote, backslash,
# control, DEL, non-ASCII, line separator and astral characters
ODD_TEXT = st.one_of(
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u2028", "\U0001f600", "\U0010ffff", "a"])),
)
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1 / 3]
)
ALL_FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
BIG_INTS = st.one_of(st.integers(), st.integers(min_value=2**63 - 2, max_value=2**200), st.integers(max_value=-(2**63)))
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)
# what the reports hold and more: dataclass trees, tuples, numpy floats,
# non-finite floats, signed zeros, subnormals, ints past 2^63, odd strings,
# and dicts keyed by strings, ints or finite floats
REPORT_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), BIG_INTS, ALL_FLOATS, ALL_FLOATS.map(np.float64), ODD_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(ODD_TEXT, inner, max_size=4),
        st.dictionaries(BIG_INTS, inner, max_size=3),
        st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), inner, max_size=3),
        st.builds(Pair, inner, inner),
        st.builds(Record, inner, inner, inner, inner),
        st.builds(Keyed, inner, inner, inner, inner),
        st.just(Empty()),
    ),
    max_leaves=30,
)


@given(st.one_of(JSON_VALUES, REPORT_TREES))
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "d": [1.5, None, True, "x"]})
@example(Record(-0.0, 5e-324, [1e-300, 1e300, np.float64(-0.0)], {'"\\\x00\xe9\U0001f600': 2**64}))
@example(Pair(Empty(), ((), [Empty()])))
@example(Keyed(1, [2.0], object(), Keyed(None, -0.0, {1, 2}, math.inf)))
@example({False: 1, True: [math.nan]})
@example({None: -0.0})
@example({2.5: math.inf, -1.0: 1, 1e300: [-0.0]})
@example(Pair(math.nan, [math.inf, (-math.inf, 1.5)]))
@settings(max_examples=400, deadline=None)
def test_json_text_is_the_indented_json_dumps(obj):
    # on plain JSON values, previous_json_text is json.dumps itself
    assert cli._json_text(obj) == previous_json_text(obj)


@pytest.mark.parametrize(
    "obj",
    [
        object(),
        [1.0, {1, 2}],
        {"a": np.float32(1.0)},
        Pair(np.int64(3), None),
        {1: 0, "a": 1},
        {(1,): 2},
        {math.nan: 1},
        {math.inf: 1},
        {np.float64(-math.inf): 1},
        Record(1, 2, 3, {b"bytes": 4}),
    ],
    ids=["object", "set", "float32", "int64", "mixed-keys", "tuple-key", "nan-key", "inf-key", "numpy-inf-key", "bytes-key"],
)
def test_json_text_raises_what_json_dumps_raises(obj):
    with pytest.raises((TypeError, ValueError)) as want:
        previous_json_text(obj)
    with pytest.raises(want.type) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)


def test_json_text_writes_the_golden_ledger_as_json_dumps():
    cfg = cfgmod.parse_config(str(Path(__file__).parent / "golden" / "blowup.cfg"))
    ledger = cli._blowup_ledger(cfg)
    assert cli._json_text(ledger) == previous_json_text(ledger)


def _no_constant(token):
    raise AssertionError(f"{token} token written")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_json_text_refuses_a_non_finite_float_it_is_handed_directly(value):
    # no NaN or Infinity token is ever written: a non-finite float of either
    # sign, a Python or a numpy float, is null wherever it is a value, and as
    # a dict key, the one place json.dumps would have to write it, the
    # writer raises json's ValueError
    for x in (value, -value, np.float64(value), np.float64(-value)):
        text = cli._json_text([1.0, x, {"k": x}, Pair(x, (x, [x]))])
        expected = [1.0, None, {"k": None}, {"first": None, "second": [None, [None]]}]
        assert json.loads(text, parse_constant=_no_constant) == expected
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._json_text({"a": [{x: 1.0}]})


def previous_write_trajectory(path, traj):
    """``cli.write_trajectory`` and ``cli.write_csv`` as they were: a tuple
    per row, each value written with ``str``, the lines joined at the end."""
    centers = traj.grid.centers.tolist()
    rows = [(t, rho, val) for t, u in zip(traj.times, traj.fields) for rho, val in zip(centers, u.tolist())]
    lines = [",".join(["t", "rho", "u"])]
    for row in rows:
        lines.append(",".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n")


@given(
    st.integers(min_value=3, max_value=30),
    st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_trajectory_csv_is_the_previous_writers_bytes(tmp_path_factory, cells, times, seed):
    # a multi-record trajectory whose fields hold -0.0, the least subnormal,
    # 1e-300 and 1e300 among random values of every magnitude
    rng = np.random.default_rng(seed)
    grid = RadialGrid.uniform(geometry.euclidean(3), float(rng.uniform(0.5, 50.0)), cells)
    traj = solver.Trajectory(grid=grid)
    edges = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, 0.1])
    for t in sorted(times):
        u = rng.standard_normal(cells) * 10.0 ** rng.integers(-300, 300, cells)
        u[: len(edges)] = rng.permutation(edges)[:cells]
        traj.record(t, u, 0.0)
    out = tmp_path_factory.mktemp("csv")
    cli.write_trajectory(out / "new.csv", traj)
    previous_write_trajectory(out / "old.csv", traj)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


STARTUP_PROBE = """
import sys
import numpy
before = set(sys.modules)
import pme.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_starting_pme_loads_neither_numpy_polynomial_nor_scipy_linalg():
    # every pme command pays for its imports first: the grid's Gauss-Legendre
    # rule is written out instead of computed by numpy.polynomial, and the
    # solver loads dgtsv from scipy's LAPACK extension without scipy.linalg.
    # Modules that ``import numpy`` loads itself (numpy.polynomial before
    # numpy 2) are not pme's doing.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "pme.cli" in loaded
    assert "numpy.polynomial" not in loaded
    assert "scipy.linalg" not in loaded
    assert "logging" not in loaded  # --verbose writes its lines itself
