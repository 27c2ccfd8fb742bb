"""Config -> run-object builders: defaults, key coverage, datum tails."""

import math

import numpy as np
import pytest

from pme import blowup, config, geometry, solver, xlog
from pme.errors import ConfigError
from pme.geometry import log_sphere_area, sphere_area

# every key some run reads, each with a valid value (barrier boundary, so that
# a solve run reads the barrier_* keys)
FULL_CFG = {
    "manifold": "quad-critical",
    "dim": "3",
    "c": "0.5",
    "m": "2",
    "u0": "log-growth(1.0)",
    "R": "12",
    "cells": "60",
    "t_end": "0.01",
    "boundary": "barrier-dirichlet",
    "dt0": "2e-4",
    "dt_growth": "1.1",
    "dt_max": "1e-3",
    "newton_tol": "1e-9",
    "newton_max_iter": "20",
    "norm_r": "3",
    "snapshot_stride": "2",
    "barrier_a": "1.001",
    "barrier_r": "2.5",
    "barrier_T": "4.0",
    "barrier_delta": "0.12",
    "blowup_threshold": "30",
    "blowup_max_stages": "5",
    "steps_per_stage": "20",
}
# a solve or exhaust run does not read the keys only a blow-up run reads
SOLVE_CFG = {
    key: value
    for key, value in FULL_CFG.items()
    if key not in {"blowup_threshold", "blowup_max_stages", "steps_per_stage"}
}


def keys_read(build):
    """Keys of FULL_CFG that the manifold, exponent and datum builders plus ``build`` read."""
    run = config.RunConfig(FULL_CFG)
    m = config.exponent_from(run)
    manifold = config.manifold_from(run)
    config.datum_from(run)
    build(run, m, manifold)
    return run.read


def test_a_solve_build_reads_exactly_the_solve_keys():
    def solve_build(run, m, manifold):  # as cli.cmd_solve builds its run
        config.grid_from(run, manifold)
        config.solver_config_from(run, m)

    assert keys_read(solve_build) == set(SOLVE_CFG)


def test_a_blowup_build_reads_exactly_the_keys_sweep_can_vary():
    def blowup_build(run, m, manifold):  # as cli._blowup_setup builds its run
        config.grid_from(run, manifold)
        config.blowup_config_from(run, m)

    assert keys_read(blowup_build) == {
        "manifold", "dim", "c", "m", "u0", "R", "cells", "newton_tol", "norm_r",
        "blowup_threshold", "blowup_max_stages", "steps_per_stage",
    }


def test_only_the_ball_builder_reads_the_ball_keys():
    def settings(run, m, manifold):
        config.solver_config_from(run, m)
        config.blowup_config_from(run, m)

    assert not keys_read(settings) & {"R", "cells"}


def test_absent_keys_keep_dataclass_defaults():
    cfg = {"dt0": "1e-3", "t_end": "0.5", "R": "12", "cells": "60"}
    assert config.solver_config_from(cfg, 2.0) == solver.SolverConfig(
        m=2.0, dt=solver.DtPolicy(dt0=1e-3), t_end=0.5
    )
    assert config.blowup_config_from(cfg, 2.0) == blowup.BlowupConfig(m=2.0)


def test_present_keys_reach_their_fields():
    scfg = config.solver_config_from(SOLVE_CFG, 2.0)
    assert scfg.dt == solver.DtPolicy(dt0=2e-4, growth=1.1, dt_max=1e-3)
    assert (scfg.t_end, scfg.newton_tol, scfg.newton_max_iter) == (0.01, 1e-9, 20)
    assert (scfg.norm_r, scfg.snapshot_stride) == (3.0, 2)
    assert scfg.boundary.delta == 0.12
    assert (scfg.boundary.params.amplitude, scfg.boundary.params.r) == (1.001, 2.5)
    assert scfg.boundary.params.horizon == 4.0
    grid = config.grid_from(FULL_CFG, geometry.quad_critical(0.5, 3))
    assert (grid.radius, grid.cells) == (12.0, 60)
    bcfg = config.blowup_config_from(FULL_CFG, 2.0)
    assert bcfg.threshold_factor == 30.0
    assert (bcfg.max_stages, bcfg.steps_per_stage) == (5, 20)
    assert (bcfg.newton_tol, bcfg.norm_r) == (1e-9, 3.0)


@pytest.mark.parametrize(
    "key, value",
    [("cells", "2"), ("cells", "60.0"), ("newton_tol", "0"), ("dt_max", "inf"),
     ("steps_per_stage", "4"), ("boundary", "neumann"), ("barrier_a", "x")],
)
def test_invalid_values_raise_config_error(key, value):
    bad = dict(FULL_CFG, **{key: value})
    with pytest.raises(ConfigError, match=key):
        # each builder passes over the keys it does not read
        config.grid_from(bad, geometry.euclidean(3))
        config.solver_config_from(bad, 2.0)
        config.blowup_config_from(bad, 2.0)


@pytest.mark.parametrize(
    "read, cfg, message",
    [
        (config.get_float, {}, "missing required {}"),
        (config.get_float, {"{}": "x"}, "{}: not a number ('x')"),
        (config.get_float, {"{}": "-1"}, "{} must be positive"),
        (config.get_float, {"{}": "inf"}, "{} must be finite"),
        (config.get_int, {}, "missing required {}"),
        (config.get_int, {"{}": "1.5"}, "{}: not an integer ('1.5')"),
        (config.get_int, {"{}": "0"}, "{} must be >= 1"),
    ],
)
@pytest.mark.parametrize("key, named", [("--m", "option '--m'"), ("m", "key 'm'")])
def test_messages_name_a_dashed_key_as_an_option(read, cfg, message, key, named):
    cfg = {k.format(key): v for k, v in cfg.items()}
    kw = {"positive": True} if read is config.get_float else {"minimum": 1}
    with pytest.raises(ConfigError) as exc:
        read(cfg, key, **kw)
    assert str(exc.value) == message.format(named)


@pytest.mark.parametrize("u0", ["log-growth(1.5)", "bounded(0.7)"])
@pytest.mark.parametrize("rho_max", [2.0, 1e6])
def test_datum_matches_xlog_constructors(u0, rho_max):
    rho = np.geomspace(1e-3, rho_max, 200)
    got = config.datum_from({"u0": u0}).datum(2.0, rho)
    if u0.startswith("log"):
        want = xlog.log_growth_datum(1.5, 2.0, rho)
    else:
        want = xlog.bounded_datum(0.7, rho)
    assert np.array_equal(got.values, want.values)
    assert got.tail == want.tail


def test_table_datum_is_bounded_beyond_its_last_row(tmp_path):
    table = tmp_path / "u0.csv"
    table.write_text("rho,value\n0.5,2.0\n4.0,-0.25\n")
    rho = np.geomspace(1e-3, 1e3, 400)
    datum = config.datum_from({"u0": f"table({table})"}).datum(2.0, rho)
    assert datum.tail == xlog.TailDescriptor("bounded", 0.25, rho_start=4.0)
    assert np.all(datum.values[rho >= 4.0] == -0.25)
    assert xlog.limsup_ratio(datum) == 0.0


def test_log_sphere_area_matches_closed_form():
    for dim in range(2, 9):
        assert log_sphere_area(dim) == pytest.approx(math.log(sphere_area(dim)), rel=1e-14)
