"""Command-line scenario runner.

Subcommands: ``geometry`` (comparison constants report), ``barrier-check``
(super/sub/eta certificates), ``solve`` (single-ball run), ``exhaust``
(nested-ball monotonicity), ``blowup`` (staged norm blow-up), ``uniq-check``
(uniqueness-side decay product) and ``sweep`` (parameter sweeps).

Run objects come from the builders in ``pme.config``; ``blowup`` and each
``sweep`` row share one path from a config dict to a validated ledger, whose
setup builds the ball, so ``sweep`` checks every row's config and ball before
any run starts.  Each run checks, after its builders and before any solve or
output, that it read every config key (``barrier-check``: every optional
flag) it was given.
``sweep --param`` takes ``b`` (log-growth amplitude) or a config key the
blow-up run reads; each ``--values`` token enters the config as typed.

Outputs are deterministic (identical bytes for identical config and build)
and written atomically; ``write_json`` writes a report dataclass by its field
names.  Exit codes: 0 success, else the ``exit_code`` of the ``PMEError``
raised (``pme.errors``: 2 bad input, 3 certificate, 4 solver).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import barriers, blowup, config as cfgmod, geometry, solver
from .errors import EXIT_LABELS, CertificateError, ConfigError, PMEError, SolverError

logger = logging.getLogger("pme")


# -- deterministic atomic output ------------------------------------------------


def _atomic_write(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite_or_null(obj):
    """``obj`` with non-finite floats as None (JSON ``null``) and dataclasses as field dicts."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj):
        return {f.name: _finite_or_null(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def _json_text(obj) -> str:
    """Strict JSON: no ``Infinity`` or ``NaN`` tokens, non-finite values are null."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj):
    _atomic_write(path, _json_text(obj))


def write_csv(path, header, rows):
    """CSV of ``rows``, each value written with ``str`` (pass Python scalars)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory(path, traj: solver.Trajectory):
    """Trajectory CSV: one ``t,rho,u`` row per recorded time and cell."""
    centers = traj.grid.centers.tolist()
    rows = [
        (t, rho, val)
        for t, u in zip(traj.times, traj.fields)
        for rho, val in zip(centers, u.tolist())
    ]
    write_csv(path, ["t", "rho", "u"], rows)


# -- shared builders -------------------------------------------------------------


def _numbers(text: str, option: str) -> list:
    """Nonblank tokens of a comma-separated list of finite numbers."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in tokens:
        cfgmod.get_float({option: tok}, option)
    return tokens


def _manifold_args(parser):
    parser.add_argument("--manifold", required=True, choices=sorted(geometry.BUILTIN_FAMILIES))
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--c", type=float, default=None)


def _manifold_from_args(args):
    cfg = {"manifold": args.manifold, "dim": str(args.dim)}
    if args.c is not None:
        cfg["c"] = str(args.c)
    return cfgmod.manifold_from(cfg)


def _blowup_setup(cfg: dict):
    """Validated inputs of a blow-up run: ball, datum spec and settings."""
    cfg = cfgmod.RunConfig(cfg)
    grid = cfgmod.grid_from(cfg, cfgmod.manifold_from(cfg))
    m = cfgmod.exponent_from(cfg)
    spec, bcfg = cfgmod.datum_from(cfg), cfgmod.blowup_config_from(cfg, m)
    cfgmod.reject_unread(cfg, "the blow-up run")
    return grid, spec, bcfg


def _blowup_ledger(cfg: dict, stage_hook=None) -> blowup.BlowupLedger:
    """Run the staged blow-up construction for ``cfg`` and validate its ledger."""
    grid, spec, bcfg = _blowup_setup(cfg)
    consts = geometry.fit_comparison_constants(grid.manifold)
    datum = spec.datum(bcfg.m, np.geomspace(1e-3, 1e6, 4001))
    ledger = blowup.run_blowup(
        datum, spec.profile(bcfg.m), grid, consts, bcfg, stage_hook=stage_hook
    )
    ledger.validate()
    return ledger


# -- subcommands -----------------------------------------------------------------


def cmd_geometry(args) -> int:
    manifold = _manifold_from_args(args)
    consts = geometry.fit_comparison_constants(
        manifold, rho_max=args.rho_max, n_probe=args.n_probe
    )
    manifold_key = {"kind": manifold.kind, "dim": manifold.dim, "c": manifold.c}
    write_json(args.report, {**dataclasses.asdict(consts), "manifold": manifold_key})
    logger.info("geometry constants written to %s", args.report)
    return 0


def cmd_barrier_check(args) -> int:
    manifold = _manifold_from_args(args)
    # the optional flags given, as a config keyed by flag: a flag this --which
    # does not read exits 2, and every message names the flag
    opts = cfgmod.RunConfig(
        {f"--{k}": v for k, v in vars(args).items() if k in ("m", "nodes", "c2", "r0") and v is not None}
    )
    if args.which == "eta":
        c2 = cfgmod.get_float(opts, "--c2", default=1.0)
        r0 = cfgmod.get_float(opts, "--r0", default=2.0)
        cfgmod.reject_unread(opts, "--which eta")
        k = barriers.select_K(c2, r0)
        eta_params = barriers.EtaBarrierParams(
            decay=k, scale=1.0, horizon=1.0, inner_radius=r0, coeff_bound=c2
        )
        report = barriers.certify_eta(eta_params, dim=manifold.dim, rho_max=args.rho_max)
        params = {"a": None, "r": None, "K": k}
    else:
        m = cfgmod.exponent_from(opts, "--m")
        nodes = opts.get("--nodes", 10**4)
        if nodes < 1:
            raise ConfigError("--nodes must be >= 1")
        cfgmod.reject_unread(opts, f"--which {args.which}")
        grid = geometry.probe_grid(args.rho_max, nodes)
        consts = geometry.fit_comparison_constants(manifold, rho_max=max(10.0, args.rho_max))
        if args.which == "super":
            a = barriers.supersolution_amplitude(consts.c_prime, m)
            barrier = barriers.BarrierParams(amplitude=a, r=2.0, horizon=1.0, m=m)
            report = barriers.certify_supersolution(barrier, manifold, consts, grid)
        else:
            barrier = barriers.subsolution_params(consts, m)
            report = barriers.certify_subsolution(barrier, manifold, grid)
        params = {"a": barrier.amplitude, "r": barrier.r, "K": None}
    write_json(args.out, {**report.as_json_dict(), "params": params})
    if not report.passed:
        raise CertificateError(
            f"{args.which} certificate failed: residual {report.min_residual:.3e} "
            f"at rho={report.argmin_rho:.6g}"
        )
    logger.info("%s certificate passed (min residual %.3e)", args.which, report.min_residual)
    return 0


def _load_run(args):
    cfg = cfgmod.parse_config(args.config)
    manifold = cfgmod.manifold_from(cfg)
    m = cfgmod.exponent_from(cfg)
    spec = cfgmod.datum_from(cfg)
    return cfg, manifold, m, spec


def cmd_solve(args) -> int:
    cfg, manifold, m, spec = _load_run(args)
    grid = cfgmod.grid_from(cfg, manifold)
    scfg = cfgmod.solver_config_from(cfg, m)
    cfgmod.reject_unread(cfg, "a solve run")

    consts = geometry.fit_comparison_constants(manifold)
    top = max(1e3, 10 * grid.radius)
    if spec.kind == "table":  # the norm sees the sampled rows and the tail past the last row
        top = max(top, float(spec.table_rho[-1]))
    datum = spec.datum(m, np.geomspace(1e-3, top, 4001))
    et = solver.existence_time(datum, consts, m, r=scfg.norm_r)
    horizon = None
    if not et.global_flag and not math.isinf(et.time):
        horizon = et.time
        if scfg.t_end >= horizon:
            raise ConfigError(
                f"t_end={scfg.t_end:g} reaches the certified horizon T={horizon:g}"
            )

    traj = solver.solve_ball(spec.profile(m), scfg, grid, barrier_horizon=horizon)
    write_trajectory(args.out, traj)

    tol = solver.tau_h(grid.h, float(np.max(np.abs(traj.stacked))))
    excess = None
    if horizon is not None:  # a finite horizon implies a positive norm
        excess = solver.barrier_excess(traj, et.norm, horizon, scfg.norm_r, m)
    summary = {
        "log_norm_series": traj.lognorms,
        "tail_ratio_series": traj.tail_ratios,
        "mass_series": traj.masses,
        "times": traj.times,
        "max_barrier_violation": excess,
        "existence_time": et.time,
        "existence_time_limit": et.limit_time,
        "global_existence": et.global_flag,
        "tau_h": tol,
    }
    write_json(args.summary, summary)
    if excess is not None and excess > tol:
        raise CertificateError(f"barrier sandwich violated by {excess:.3e} (tolerance {tol:.3e})")
    return 0


def cmd_exhaust(args) -> int:
    cfg, manifold, m, spec = _load_run(args)
    radii = [float(x) for x in _numbers(args.radii, "--radii")]
    cells = cfgmod.get_int(cfg, "cells", minimum=3)
    scfg = cfgmod.solver_config_from(cfg, m)
    cfgmod.reject_unread(cfg, "an exhaust run")
    rep = solver.exhaust(spec.profile(m), scfg, manifold, radii, cells)
    write_json(args.out, rep)
    if rep.monotonicity_gap > rep.tau_h:
        raise CertificateError(
            f"exhaustion monotonicity violated: gap {rep.monotonicity_gap:.3e} > {rep.tau_h:.3e}"
        )
    return 0


def cmd_blowup(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    hook = None
    if args.dump_stages:
        dump_dir = Path(args.dump_stages)

        def hook(n, traj):
            write_trajectory(dump_dir / f"stage_{n:04d}.csv", traj)

    ledger = _blowup_ledger(cfg, stage_hook=hook)
    write_json(args.ledger, ledger)
    logger.info(
        "blow-up run: %s after %d stages, tau=%.6g",
        ledger.status,
        len(ledger.stages),
        ledger.tau,
    )
    return 0


def cmd_uniq_check(args) -> int:
    if args.table_points is not None:
        if not args.out:
            raise ConfigError("--table-points sizes the --out table; it needs --out")
        if args.table_points < 1:
            raise ConfigError("--table-points must be >= 1")
    if args.k is None:
        k = barriers.select_K(args.c2, args.r0)
    else:
        k = args.k
    eta_params = barriers.EtaBarrierParams(
        decay=k,
        scale=1.0,
        horizon=args.T,
        inner_radius=args.r0,
        coeff_bound=args.c2,
    )
    eta_report = barriers.certify_eta(eta_params, dim=args.dim)
    regime = barriers.decay_regime(args.c_m, k, args.T)
    out = {
        "K": k,
        "C_M": args.c_m,
        "T": args.T,
        "critical_T": k / (2.0 * args.c_m),
        "regime": regime,
        "eta_certificate": eta_report.as_json_dict(),
        "F_at_100": barriers.decay_product(args.c_m, k, args.T, args.m, 100.0),
        "logF_at_100": barriers.log_decay_product(args.c_m, k, args.T, args.m, 100.0),
    }
    if args.out:
        rows = [
            (r, barriers.decay_product(args.c_m, k, args.T, args.m, r),
             barriers.log_decay_product(args.c_m, k, args.T, args.m, r))
            for r in np.geomspace(10.0, 1000.0, args.table_points or 60).tolist()
        ]
        write_json(args.out, out)
        write_csv(Path(args.out).with_suffix(".csv"), ["R", "F", "logF"], rows)
    else:
        sys.stdout.write(_json_text(out))
    if not eta_report.passed:
        raise CertificateError("eta barrier inequality failed on the verification grid")
    if regime == "growth":
        raise CertificateError(
            f"smallness condition fails: T={args.T:g} >= K/(2 C_M)={k / (2 * args.c_m):g}"
        )
    if regime == "boundary":
        raise CertificateError("T sits exactly at K/(2 C_M): decay test inconclusive")
    return 0


# -- sweep ------------------------------------------------------------------------


def _sweep_row(cfg: dict) -> list:
    """Sweep CSV columns from ``status`` on: the run's ledger, or its failure."""
    try:
        ledger = _blowup_ledger(cfg)
    except PMEError as exc:
        nan = float("nan")
        return ["failed", nan, nan, 0, nan, nan, str(exc)]
    return [
        ledger.status,
        ledger.tau,
        ledger.T1,
        len(ledger.stages),
        ledger.initial_lognorm,
        ledger.stages[-1].lognorm,
        "",
    ]


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    base = cfgmod.parse_config(args.config)
    tokens = sorted(_numbers(args.values, "--values"), key=float)
    if not tokens:
        raise ConfigError("sweep needs a nonempty value grid")
    key, form = ("u0", "log-growth({})") if args.param == "b" else (args.param, "{}")
    cfgs = [{**base, key: form.format(tok)} for tok in tokens]
    for cfg in cfgs:
        _blowup_setup(cfg)  # every row's config and ball are valid before any run starts
    if args.workers > 1:
        # imported here: it costs every other command about 10 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_row, cfgs))
    else:
        rows = [_sweep_row(cfg) for cfg in cfgs]
    header = [
        "param",
        "value",
        "status",
        "tau",
        "T1",
        "stages",
        "initial_lognorm",
        "final_lognorm",
        "error",
    ]
    write_csv(args.out, header, [[args.param, float(tok), *row] for tok, row in zip(tokens, rows)])
    if all(row[0] == "failed" for row in rows):
        raise SolverError("every sweep row failed")
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pme",
        description="Radial porous-medium-equation runs and certificates "
        "on negatively curved model manifolds",
    )
    ap.add_argument("--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="fit and report comparison constants")
    _manifold_args(g)
    g.add_argument("--rho-max", type=float, default=1e3)
    g.add_argument("--n-probe", type=int, default=4096)
    g.add_argument("--report", required=True)
    g.set_defaults(func=cmd_geometry)

    b = sub.add_parser("barrier-check", help="certify a barrier inequality")
    _manifold_args(b)
    b.add_argument("--m", type=float, default=None, help="super/sub: PME exponent (required)")
    b.add_argument("--which", choices=("super", "sub", "eta"), required=True)
    b.add_argument("--rho-max", type=float, default=1e3)
    b.add_argument("--nodes", type=int, default=None, help="super/sub: nodes (default 10000)")
    b.add_argument("--c2", type=float, default=None, help="eta: coefficient bound (default 1)")
    b.add_argument("--r0", type=float, default=None, help="eta: inner radius (default 2)")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_barrier_check)

    s = sub.add_parser("solve", help="single-ball Cauchy-Dirichlet run")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="trajectory CSV (t,rho,u)")
    s.add_argument("--summary", required=True, help="summary JSON")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("exhaust", help="nested-ball exhaustion run")
    e.add_argument("--config", required=True)
    e.add_argument("--radii", required=True, help="comma-separated increasing radii")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_exhaust)

    bl = sub.add_parser("blowup", help="staged norm blow-up run")
    bl.add_argument("--config", required=True)
    bl.add_argument("--ledger", required=True)
    bl.add_argument("--dump-stages", default=None, help="directory for per-stage CSVs")
    bl.set_defaults(func=cmd_blowup)

    u = sub.add_parser("uniq-check", help="uniqueness-side decay certificates")
    u.add_argument("--T", type=float, required=True)
    u.add_argument("--c_m", type=float, required=True)
    u.add_argument("--k", type=float, default=None, help="decay constant; derived from --c2 when omitted")
    u.add_argument("--c2", type=float, default=1.0)
    u.add_argument("--r0", type=float, default=2.0)
    u.add_argument("--m", type=float, default=2.0)
    u.add_argument("--dim", type=int, default=2)
    u.add_argument("--table-points", type=int, default=None, help="rows of the --out table (default 60)")
    u.add_argument("--out", default=None)
    u.set_defaults(func=cmd_uniq_check)

    w = sub.add_parser("sweep", help="parameter sweep of blow-up runs")
    w.add_argument("--config", required=True)
    w.add_argument("--param", required=True, help="'b' (log-growth amplitude) or a key blowup reads")
    w.add_argument("--values", required=True, help="comma-separated values")
    w.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)

    return ap


def _check_float_options(parser, args):
    """Every float option is finite, as a config key read by ``get_float`` is;
    the message names the option by its flag."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest: a.option_strings[0] for a in subparsers.choices[args.command]._actions if a.option_strings
    }
    for name, value in vars(args).items():
        if isinstance(value, float):
            cfgmod.get_float({flags[name]: value}, flags[name])


def main(argv=None) -> int:
    """Run one subcommand; a PMEError exits with its class's ``exit_code``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _check_float_options(parser, args)
        return args.func(args)
    except PMEError as exc:
        print(f"pme: {EXIT_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
