"""Command-line scenario runner.

Subcommands: ``geometry`` (comparison constants report), ``barrier-check``
(super/sub/eta certificates), ``solve`` (single-ball run), ``exhaust``
(nested-ball monotonicity), ``blowup`` (staged norm blow-up), ``uniq-check``
(uniqueness-side decay product) and ``sweep`` (parameter sweeps).

Run inputs come from library builders: run objects and the datum, with the
profile a run evaluates on its cells, from ``pme.config``, and the eta
barrier certificate from ``barriers.eta_certificate``, so this module only
parses, writes and validates.  ``blowup`` and each ``sweep`` row share one
path from a config dict to a ledger, whose setup builds the ball, so
``sweep`` checks every row's config and ball before any run starts.  Each report type owns
its verdict: ``solve``, ``exhaust``, ``blowup``, ``uniq-check`` and
``barrier-check`` build their report (``solver.SolveReport``,
``solver.ExhaustReport``, ``blowup.BlowupLedger``,
``barriers.UniquenessReport``, ``barriers.CertificateReport``), write it,
then call its ``validate``, so a failed check leaves the output to inspect;
this module raises no CertificateError of its own.  Each run checks, after
its builders and before any solve or output, that it read every config key
(``barrier-check``: every optional flag) it was given.  Every number flag
is typed by the reader of a config key, ``config.get_float`` or
``config.get_int``, with the flag's bounds, so a malformed, non-finite or
out-of-range number is a ConfigError that names the flag as typed:
``option '--x'``, then ``: not a number ('abc')``, ``must be finite``,
``must be >= B``, ``must be > B`` or ``must be <= B``.  The bounds:
``--dim`` >= 2, ``--n-probe`` >= 1000, ``--nodes``, ``--table-points``
and ``--workers`` >= 1; ``--m`` > 1, ``--T``, ``--k``, ``--c_m`` and
``--c2`` > 0, ``--r0`` >= 2, ``--rho-max`` <= ``geometry.MAX_RHO_MAX``
and, in ``geometry``, >= ``geometry.MIN_RHO_MAX``.  The lower bound of
``barrier-check --rho-max``, the first node of the certificate
``--which`` picks (past ``--r0`` for eta), is no constant, and
``cmd_barrier_check`` checks it.  Flags are not abbreviated, and
argparse's own errors (a missing or unknown flag, a bad choice) are
ConfigErrors too.  An output path that cannot be written (a
directory, a path under a regular file, a directory without write
permission) is a ConfigError that names it.  Under ``--verbose``, a successful ``geometry``,
``barrier-check`` or ``blowup`` prints one ``INFO pme:`` line on stderr.
``sweep --param`` takes ``b`` (log-growth amplitude) or a config key the
blow-up run reads; each ``--values`` token enters the config as typed.

Outputs are deterministic (identical bytes for identical config and build)
and written atomically.  JSON is the text of ``json.dumps(indent=2,
sort_keys=True, allow_nan=False)`` of the report, a dataclass written as the
dict of its fields and a non-finite float as null, written in one pass by
``_json_text`` with json's own leaf functions.  A field is keyed by its
name, or by the ``json`` item of its metadata where it has one, and a
``json`` of None leaves it out: ``barriers.CertificateReport`` writes
``passed`` as ``pass`` and leaves ``kind`` out.  ``tests/test_cli.py``
compares its text with that ``json.dumps`` call after a field and null
pass of its own, for generated trees (dataclasses, numpy floats,
signed zeros, subnormals, ints past 2^63, escaped strings), for the errors
json raises and for the golden blow-up ledger, and ``tests/test_golden.py``
checks that every JSON output of the golden runs is canonical JSON.  Exit
codes: 0 success, else the ``exit_code`` of the ``PMEError`` raised
(``pme.errors``: 2 bad input, 3 certificate, 4 solver).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import barriers, blowup, config as cfgmod, geometry, solver
from .errors import EXIT_LABELS, ConfigError, PMEError, SolverError


# -- deterministic atomic output ------------------------------------------------


def _atomic_write(path, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it; a path
    that cannot be written is a ConfigError that names it."""
    path = Path(path)
    try:
        if not path.parent.exists():  # a parent that is a file fails in mkstemp: "Not a directory"
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
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


_INF, _FLOAT_TEXT, _INT_TEXT = math.inf, float.__repr__, int.__repr__


def _json_text(obj) -> str:
    """Strict JSON, with no ``Infinity`` or ``NaN`` token: the text of
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
    with dataclasses as field dicts and non-finite floats as null, and the
    errors it raises.  A field's key is its name, or the ``json`` item of
    its metadata (``dataclasses.field(metadata={"json": key})``), and a
    ``json`` of None leaves the field out.  Leaves go through
    ``float.__repr__``, ``int.__repr__`` and ``encode_basestring_ascii``, as
    in json; each dataclass type's sorted, encoded keys are cached."""
    return _encode(obj, "\n") + "\n"


@functools.cache
def _field_keys(cls) -> tuple:
    """(name, ``"key": ``) pairs of a dataclass's written fields, sorted by
    key.  A field's key is its name, or the ``json`` item of its metadata
    where it has one; a ``json`` of None leaves the field out."""
    keys = sorted(
        (key, f.name) for f in dataclasses.fields(cls) if (key := f.metadata.get("json", f.name)) is not None
    )
    return tuple((n, encode_basestring_ascii(k) + ": ") for k, n in keys)


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it, or its error: a non-string key
    is the text of ``{key: None}`` that json's indenting encoder, the one
    ``json.dumps(indent=2)`` runs, writes, less the braces and the value."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: None}, indent=0, allow_nan=False)[2:-8]


def _encode(obj, nl: str) -> str:
    """JSON text of ``obj`` whose inner lines start with ``nl`` and two more
    spaces: a dataclass is a dict of its fields, a non-finite float null."""
    cls = type(obj)
    if isinstance(obj, float):
        return _FLOAT_TEXT(obj) if -_INF < obj < _INF else "null"
    if cls is int or cls is str:
        return _INT_TEXT(obj) if cls is int else encode_basestring_ascii(obj)
    inner = nl + "  "
    if dataclasses.is_dataclass(obj):  # an instance, or a dataclass itself
        keys = _field_keys(obj if isinstance(obj, type) else cls)
        items, ends = [k + _encode(getattr(obj, n), inner) for n, k in keys], "{}"
    elif isinstance(obj, dict):
        items, ends = [_key_text(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_encode(v, inner) for v in obj], "[]"
    else:  # None, a bool, a str or int subclass; anything else is json's TypeError
        return json.dumps(obj, indent=0)
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1] if items else ends


def write_json(path, obj):
    _atomic_write(path, _json_text(obj))


def write_csv(path, header, rows):
    """CSV of ``rows``, each value written with ``str`` (pass Python scalars)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory(path, traj: solver.Trajectory):
    """Trajectory CSV: one ``t,rho,u`` row per recorded time and cell.  Each
    record's lines reach ``write_csv`` as a one-value row (``str`` of a string
    is itself), a center's text (a float's ``repr`` is its ``str``) taken once
    and a time's once per record."""
    centers = [f",{rho!r}," for rho in traj.grid.centers.tolist()]
    rows = [
        (t + ("\n" + t).join(map(str.__add__, centers, map(_FLOAT_TEXT, u.tolist()))),)
        for t, u in zip(map(_FLOAT_TEXT, traj.times), traj.fields)
    ]
    write_csv(path, ["t", "rho", "u"], rows)


# -- shared builders -------------------------------------------------------------


def _numbers(text: str, option: str) -> list:
    """Nonblank tokens of a comma-separated list of finite numbers."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in tokens:
        cfgmod.get_float({option: tok}, option)
    return tokens


def _float(parser, flag: str, minimum=None, above=None, maximum=None, **kwargs):
    """Add a float ``flag`` with its bounds, read as ``config.get_float`` reads a key."""
    parser.add_argument(
        flag,
        type=lambda text: cfgmod.get_float({flag: text}, flag, minimum=minimum, above=above, maximum=maximum),
        **kwargs,
    )


def _int(parser, flag: str, minimum: int, **kwargs):
    """Add an integer ``flag`` of at least ``minimum``, read as ``config.get_int`` reads a key."""
    parser.add_argument(
        flag, type=lambda text: cfgmod.get_int({flag: text}, flag, minimum=minimum), **kwargs
    )


def _manifold_args(parser):
    parser.add_argument("--manifold", required=True, choices=sorted(geometry.BUILTIN_FAMILIES))
    _int(parser, "--dim", 2, required=True)
    _float(parser, "--c", default=None)


def _blowup_setup(cfg: dict):
    """Validated inputs of a blow-up run: ball, datum and settings."""
    cfg = cfgmod.RunConfig(cfg)
    grid = cfgmod.grid_from(cfg, cfgmod.manifold_from(cfg))
    m = cfgmod.exponent_from(cfg)
    datum, bcfg = cfgmod.datum_from(cfg, m), cfgmod.blowup_config_from(cfg, m)
    cfgmod.reject_unread(cfg, "the blow-up run")
    return grid, datum, bcfg


def _blowup_ledger(cfg: dict, stage_hook=None) -> blowup.BlowupLedger:
    """Run the staged blow-up construction for ``cfg``; the caller validates its ledger."""
    grid, datum, bcfg = _blowup_setup(cfg)
    consts = geometry.fit_comparison_constants(grid.manifold)
    return blowup.run_blowup(datum, grid, consts, bcfg, stage_hook=stage_hook)


# -- subcommands -----------------------------------------------------------------


def _info(args, message: str):
    """Under ``--verbose``, ``message`` as one ``INFO pme:`` line on stderr."""
    if args.verbose:
        print(f"INFO pme: {message}", file=sys.stderr)


def cmd_geometry(args) -> int:
    manifold = geometry.make_manifold(args.manifold, args.dim, args.c)
    consts = geometry.fit_comparison_constants(
        manifold, rho_max=args.rho_max, n_probe=args.n_probe
    )
    manifold_key = {"kind": manifold.kind, "dim": manifold.dim, "c": manifold.c}
    write_json(args.report, {**dataclasses.asdict(consts), "manifold": manifold_key})
    _info(args, f"geometry constants written to {args.report}")
    return 0


def _rho_max_above(rho_max: float, first: float, what: str):
    """ConfigError naming ``--rho-max`` unless it exceeds ``first``, ``what``."""
    if not rho_max > first:
        raise ConfigError(f"option '--rho-max' must be > {first:.10g} ({what}), got {rho_max:.10g}")


def cmd_barrier_check(args) -> int:
    manifold = geometry.make_manifold(args.manifold, args.dim, args.c)
    # the optional flags given, as a config keyed by flag: a flag this --which
    # does not read exits 2, and every message names the flag
    opts = cfgmod.RunConfig(
        {f"--{k}": v for k, v in vars(args).items() if k in ("m", "nodes", "c2", "r0") and v is not None}
    )
    if args.which == "eta":
        c2 = cfgmod.get_float(opts, "--c2", default=1.0)
        r0 = cfgmod.get_float(opts, "--r0", default=2.0)
        cfgmod.reject_unread(opts, "--which eta")
        _rho_max_above(args.rho_max, barriers.eta_first_node(r0), "the first eta node, just past --r0")
        _, report = barriers.eta_certificate(c2, r0, 1.0, manifold.dim, rho_max=args.rho_max)
    else:
        m = cfgmod.exponent_from(opts, "--m")
        nodes = opts.get("--nodes", barriers.CERTIFICATE_NODES)
        cfgmod.reject_unread(opts, f"--which {args.which}")
        _rho_max_above(args.rho_max, geometry.FIRST_PROBE, "the first probe radius")
        grid = geometry.probe_grid(args.rho_max, nodes)
        consts = geometry.fit_comparison_constants(
            manifold, rho_max=max(geometry.MIN_RHO_MAX, args.rho_max)
        )
        if args.which == "super":
            a = barriers.supersolution_amplitude(consts.c_prime, m)
            barrier = barriers.BarrierParams(amplitude=a, r=2.0, horizon=1.0, m=m)
            report = barriers.certify_supersolution(barrier, manifold, consts, grid)
        else:
            barrier = barriers.subsolution_params(consts, m)
            report = barriers.certify_subsolution(barrier, manifold, grid)
    write_json(args.out, report)
    report.validate()
    _info(args, f"{args.which} certificate passed (min residual {report.min_residual:.3e})")
    return 0


def _load_run(args):
    cfg = cfgmod.parse_config(args.config)
    return cfg, cfgmod.manifold_from(cfg), cfgmod.exponent_from(cfg)


def cmd_solve(args) -> int:
    cfg, manifold, m = _load_run(args)
    grid = cfgmod.grid_from(cfg, manifold)
    datum = cfgmod.datum_from(cfg, m)
    scfg, r = cfgmod.solver_config_from(cfg, m), cfgmod.norm_r_from(cfg)
    cfgmod.reject_unread(cfg, "a solve run")

    consts = geometry.fit_comparison_constants(manifold)
    et = solver.existence_time(datum, consts, m, r=r)
    traj = solver.solve_ball(datum.profile, scfg, grid, barrier_horizon=et.horizon)
    write_trajectory(args.out, traj)
    report = solver.solve_report(traj, et)
    write_json(args.summary, report)
    report.validate()
    return 0


def cmd_exhaust(args) -> int:
    cfg, manifold, m = _load_run(args)
    if "boundary" in cfg:  # its check is for increase in R, which only zero data give
        raise ConfigError("an exhaust run does not read 'boundary': its balls take zero boundary data")
    radii = [float(x) for x in _numbers(args.radii, "--radii")]
    cells = cfgmod.get_int(cfg, "cells", minimum=3)
    datum = cfgmod.datum_from(cfg, m)
    scfg = cfgmod.solver_config_from(cfg, m)
    cfgmod.reject_unread(cfg, "an exhaust run")
    # the horizon ``solve`` certifies, at the default norm radius, caps every ball
    et = solver.existence_time(datum, geometry.fit_comparison_constants(manifold), m)
    report = solver.exhaust(datum.profile, scfg, manifold, radii, cells, barrier_horizon=et.horizon)
    write_json(args.out, report)
    report.validate()
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
    ledger.validate()
    _info(args, f"blow-up run: {ledger.status} after {len(ledger.stages)} stages, tau={ledger.tau:.6g}")
    return 0


def cmd_uniq_check(args) -> int:
    if args.table_points is not None and not args.out:
        raise ConfigError("--table-points sizes the --out table; it needs --out")
    if args.out and Path(args.out).suffix == ".csv":
        raise ConfigError(f"--out {args.out} ends in .csv, the name of its R,F,logF table")
    report = barriers.uniqueness_report(args.c_m, args.k, args.T, args.m, args.c2, args.r0, args.dim)
    if args.out:
        k = report.K
        rows = [
            (r, *barriers.decay_product(args.c_m, k, args.T, args.m, r))
            for r in np.geomspace(10.0, 1000.0, args.table_points or 60).tolist()
        ]
        write_json(args.out, report)
        write_csv(Path(args.out).with_suffix(".csv"), ["R", "F", "logF"], rows)
    else:
        sys.stdout.write(_json_text(report))
    report.validate()
    return 0


# -- sweep ------------------------------------------------------------------------


def _sweep_row(cfg: dict) -> list:
    """Sweep CSV columns from ``status`` on: the run's ledger, or its failure."""
    try:
        ledger = _blowup_ledger(cfg)
        ledger.validate()
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
    base = cfgmod.parse_config(args.config)
    tokens = sorted(_numbers(args.values, "--values"), key=float)
    if not tokens:
        raise ConfigError("sweep needs a nonempty value grid")
    key, form = ("u0", "log-growth({})") if args.param == "b" else (args.param, "{}")
    cfgs = [{**base, key: form.format(tok)} for tok in tokens]
    for cfg in cfgs:
        _blowup_setup(cfg)  # every row's config and ball are valid before any run starts
    # a pool starts all its workers at once, so it gets no more than the rows
    workers = min(args.workers, len(cfgs))
    if workers > 1:
        # imported here, so that only a sweep with a pool pays for its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, cfgs))
    else:
        rows = [_sweep_row(cfg) for cfg in cfgs]
    header = "param,value,status,tau,T1,stages,initial_lognorm,final_lognorm,error".split(",")
    write_csv(args.out, header, [[args.param, float(tok), *row] for tok, row in zip(tokens, rows)])
    if all(row[0] == "failed" for row in rows):
        raise SolverError("every sweep row failed")
    return 0


# -- entry point ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """No flag abbreviations, and an input error is a ConfigError, not a usage block;
    ``add_subparsers`` builds every subcommand's parser with this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pme",
        description="Radial porous-medium-equation runs and certificates "
        "on negatively curved model manifolds",
    )
    ap.add_argument("--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="fit and report comparison constants")
    _manifold_args(g)
    _float(
        g, "--rho-max", minimum=geometry.MIN_RHO_MAX, maximum=geometry.MAX_RHO_MAX, default=geometry.PROBE_RHO_MAX
    )
    _int(g, "--n-probe", geometry.MIN_PROBES, default=geometry.PROBE_COUNT)
    g.add_argument("--report", required=True)
    g.set_defaults(func=cmd_geometry)

    b = sub.add_parser("barrier-check", help="certify a barrier inequality")
    _manifold_args(b)
    _float(b, "--m", above=1.0, default=None, help="super/sub: PME exponent (required)")
    b.add_argument("--which", choices=("super", "sub", "eta"), required=True)
    _float(b, "--rho-max", maximum=geometry.MAX_RHO_MAX, default=geometry.PROBE_RHO_MAX)
    _int(b, "--nodes", 1, default=None, help=f"super/sub: nodes (default {barriers.CERTIFICATE_NODES})")
    _float(b, "--c2", above=0.0, default=None, help="eta: coefficient bound (default 1)")
    _float(b, "--r0", minimum=2.0, default=None, help="eta: inner radius (default 2)")
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
    _float(u, "--T", above=0.0, required=True)
    _float(u, "--c_m", above=0.0, required=True)
    _float(u, "--k", above=0.0, default=None, help="decay constant; derived from --c2 when omitted")
    _float(u, "--c2", above=0.0, default=1.0)
    _float(u, "--r0", minimum=2.0, default=2.0)
    _float(u, "--m", above=1.0, default=2.0)
    _int(u, "--dim", 2, default=2)
    _int(u, "--table-points", 1, default=None, help="rows of the --out table (default 60)")
    u.add_argument("--out", default=None)
    u.set_defaults(func=cmd_uniq_check)

    w = sub.add_parser("sweep", help="parameter sweep of blow-up runs")
    w.add_argument("--config", required=True)
    w.add_argument("--param", required=True, help="'b' (log-growth amplitude) or a key blowup reads")
    w.add_argument("--values", required=True, help="comma-separated values")
    _int(w, "--workers", 1, default=os.cpu_count() or 1)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    """Run one subcommand; a PMEError exits with its class's ``exit_code``."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PMEError as exc:
        print(f"pme: {EXIT_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
