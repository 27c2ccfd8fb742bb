"""Line-oriented ``key = value`` run configuration, and the objects built from it.

Strict parsing: values are validated before any computation starts, and every
constraint violation raises an error with exit code 2: ConfigError here (an
unreadable config or table file too), DomainError from the manifold and grid
constructors.  The built-in manifolds are valid for every admissible key, so
``manifold_from`` builds one without probing it; ``grid_from`` builds the
ball, which fails when its volume ratios overflow the double range.  The initial
datum is one of ``log-growth(b)``, ``bounded(B)`` or ``table(path.csv)``, with
finite numbers; tables are two-column CSV ``rho,value`` with a header row and
radii from 0 to 1e150, interpolated linearly onto the solver grid and held at
the first value below the first row and at the last beyond the last row.  A
nonblank table line of other than two fields is refused, naming its line.

Every number from a config line or a command-line flag has one reader,
``get_float`` (``get_int`` for an integer): it parses the text, checks that
it is finite and checks the bounds given beside the key.  Its message names
the key (``key 'x'``) or the flag (``option '--x'``), then says
``: not a number ('abc')``, ``must be finite``, ``must be >= B``,
``must be > B`` or ``must be <= B``.  The bounds of the keys: ``m`` > 1;
``dim`` >= 2; ``c`` > 0 for the families that take it (``curvature_from``);
``cells`` >= 3; ``R`` > 0 and <= ``geometry.MAX_RHO_MAX``; ``t_end``,
``dt0``, ``dt_max``, ``newton_tol``, ``barrier_a`` and ``barrier_T`` > 0;
``dt_growth`` >= 1; ``norm_r`` and ``barrier_r`` in [2, MAX_RHO_MAX];
``barrier_delta`` >= 0; ``blowup_threshold`` > 1;
``newton_max_iter``, ``snapshot_stride`` and ``blowup_max_stages`` >= 1;
``steps_per_stage`` >= 5; and the amplitude of ``log-growth`` or
``bounded`` >= 0, named as key ``u0``.  The dataclasses keep the same
bounds as their own invariants.

``solver_config_from``, ``blowup_config_from``, ``grid_from``,
``datum_from`` and ``norm_r_from`` map a config to run objects for every
subcommand and ``sweep`` row; ``grid_from`` is the one reader of ``R``.
``datum_from`` builds the run's datum, the profile the run evaluates on its
cells and the tail its norm reads, with no sampling.  An absent optional
key keeps its dataclass field default.  A ``RunConfig`` records the keys
its builders read, and ``reject_unread`` makes any other key a ConfigError:
a run accepts exactly the keys it reads.
"""

from __future__ import annotations

import csv
import math
import re
from functools import partial
from operator import ge, gt, le
from pathlib import Path

import numpy as np

from .barriers import BarrierParams
from .blowup import BlowupConfig
from .errors import ConfigError
from .geometry import MAX_RHO_MAX, PARAMETRIC_FAMILIES, ModelManifold, make_manifold
from .grid import RadialGrid
from .solver import BarrierDirichlet, DtPolicy, HomogeneousDirichlet, SolverConfig
from .xlog import NORM_R, RadialDatum, bounded_datum, log_growth_datum, table_datum

_U0_RE = re.compile(r"^(log-growth|bounded|table)\(([^)]*)\)$")


def _read_text(path) -> str:
    """Text of the file ``path``; an unreadable file is a ConfigError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # OSError: no repeated path
        raise ConfigError(f"cannot read {path}: {reason}") from exc


class RunConfig(dict):
    """A ``{key: value}`` run config that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def reject_unread(run: RunConfig, reader: str):
    """ConfigError naming every key of ``run`` that building the run did not read."""
    unread = sorted(run.keys() - run.read)
    if unread:
        raise ConfigError(f"{reader} does not read {', '.join(map(repr, unread))}")


def parse_config(path) -> RunConfig:
    """Parse a config file into a {key: string} ``RunConfig``."""
    out = RunConfig()
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def _named(key: str) -> str:
    """``key`` as messages name it: a ``--`` key is a command-line option."""
    return f"option '{key}'" if key.startswith("--") else f"key '{key}'"


def get_float(cfg: dict, key: str, default=None, minimum=None, above=None, maximum=None) -> float:
    """Finite float value of ``key``: at least ``minimum``, more than
    ``above`` and at most ``maximum`` where given; required unless a
    default is given, which is returned as it is.  The one reader of a
    number from a config line or a float flag: every message names the key
    (``key 'x'``) or the flag (``option '--x'``), then says ``must be
    finite``, ``must be >= B``, ``must be > B`` or ``must be <= B``."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required {_named(key)}")
        return default
    try:
        val = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{_named(key)}: not a number ({cfg[key]!r})") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{_named(key)} must be finite")
    for op, holds, bound in ((">=", ge, minimum), (">", gt, above), ("<=", le, maximum)):
        if bound is not None and not holds(val, bound):
            raise ConfigError(f"{_named(key)} must be {op} {bound:g}")
    return val


def get_int(cfg: dict, key: str, minimum=None) -> int:
    """Integer value of the required ``key``."""
    if key not in cfg:
        raise ConfigError(f"missing required {_named(key)}")
    try:
        val = int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{_named(key)}: not an integer ({cfg[key]!r})") from exc
    if minimum is not None and val < minimum:
        raise ConfigError(f"{_named(key)} must be >= {minimum}")
    return val


_positive = partial(get_float, above=0.0)
# the weight offset r of a norm or barrier: w_r forms r^2, finite up to MAX_RHO_MAX
_weight_offset = partial(get_float, minimum=2.0, maximum=MAX_RHO_MAX)


def _fields(cfg: dict, readers: dict) -> dict:
    """Dataclass keywords for the keys of ``readers`` {key: (field, reader)} in ``cfg``."""
    return {name: read(cfg, key) for key, (name, read) in readers.items() if key in cfg}


_DT_FIELDS = {"dt_growth": ("growth", partial(get_float, minimum=1.0)), "dt_max": ("dt_max", _positive)}
_RUN_FIELDS = {"newton_tol": ("newton_tol", _positive)}
_SOLVER_FIELDS = {
    **_RUN_FIELDS,
    "newton_max_iter": ("newton_max_iter", partial(get_int, minimum=1)),
    "snapshot_stride": ("snapshot_stride", partial(get_int, minimum=1)),
}
_BLOWUP_FIELDS = {
    **_RUN_FIELDS,
    "blowup_threshold": ("threshold_factor", partial(get_float, above=1.0)),
    "blowup_max_stages": ("max_stages", partial(get_int, minimum=1)),
    "steps_per_stage": ("steps_per_stage", partial(get_int, minimum=5)),
}


def _boundary_from(cfg: dict, m: float):
    name = cfg.get("boundary", "homogeneous-dirichlet")
    if name == "homogeneous-dirichlet":
        return HomogeneousDirichlet()
    if name != "barrier-dirichlet":
        raise ConfigError(f"unknown boundary mode {name!r}")
    params = BarrierParams(
        amplitude=_positive(cfg, "barrier_a"),
        r=_weight_offset(cfg, "barrier_r", default=2.0),
        horizon=_positive(cfg, "barrier_T"),
        m=m,
    )
    return BarrierDirichlet(params, **_fields(cfg, {"barrier_delta": ("delta", partial(get_float, minimum=0.0))}))


def solver_config_from(cfg: dict, m: float) -> SolverConfig:
    """Solver settings of a ``solve`` or ``exhaust`` run."""
    return SolverConfig(
        m=m,
        dt=DtPolicy(dt0=_positive(cfg, "dt0"), **_fields(cfg, _DT_FIELDS)),
        t_end=_positive(cfg, "t_end"),
        boundary=_boundary_from(cfg, m),
        **_fields(cfg, _SOLVER_FIELDS),
    )


def norm_r_from(cfg: dict) -> float:
    """Weight offset r in [2, ``geometry.MAX_RHO_MAX``] of the norm a
    ``solve``, ``blowup`` or ``sweep`` run reports."""
    return _weight_offset(cfg, "norm_r", default=NORM_R)


def blowup_config_from(cfg: dict, m: float) -> BlowupConfig:
    """Settings of the staged blow-up run (``blowup`` and each ``sweep`` row)."""
    return BlowupConfig(m=m, norm_r=norm_r_from(cfg), **_fields(cfg, _BLOWUP_FIELDS))


def grid_from(cfg: dict, manifold: ModelManifold) -> RadialGrid:
    """The ball of a ``solve``, ``blowup`` or ``sweep`` run: radius ``R``, ``cells`` cells."""
    return RadialGrid.uniform(manifold, _positive(cfg, "R", maximum=MAX_RHO_MAX), get_int(cfg, "cells", minimum=3))


def curvature_from(cfg: dict, kind: str, key: str = "c") -> float | None:
    """The curvature parameter of ``key``, None where absent: > 0 for a
    family that takes one (``make_manifold`` refuses it for the others)."""
    if key not in cfg:
        return None
    return get_float(cfg, key, above=0.0 if kind in PARAMETRIC_FAMILIES else None)


def manifold_from(cfg: dict) -> ModelManifold:
    kind = cfg.get("manifold")
    if kind is None:
        raise ConfigError("missing required key 'manifold'")
    dim = get_int(cfg, "dim", minimum=2)
    return make_manifold(kind, dim, curvature_from(cfg, kind))


def exponent_from(cfg: dict, key: str = "m") -> float:
    """The PME exponent m > 1 of ``key``."""
    return get_float(cfg, key, above=1.0)


def datum_from(cfg: dict, m: float) -> RadialDatum:
    """The run's ``u0``: its profile, form and amplitude, its m for log-growth
    and a table's rows."""
    raw = cfg.get("u0")
    if raw is None:
        raise ConfigError("missing required key 'u0'")
    match = _U0_RE.match(raw.strip())
    if not match:
        raise ConfigError(
            f"u0 must be log-growth(b), bounded(B) or table(path); got {raw!r}"
        )
    kind, arg = match.group(1), match.group(2).strip()
    if kind == "table":
        return table_datum(*_read_table(arg))
    amp = get_float({"u0": arg}, "u0", minimum=0.0)
    if kind == "log-growth":
        return log_growth_datum(amp, m)
    return bounded_datum(amp)


def _read_table(path):
    reader = csv.reader(_read_text(path).splitlines())
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["rho", "value"]:
        raise ConfigError(f"{path}: table needs a 'rho,value' header row")
    rows = []
    for lineno, row in enumerate([header, *reader], start=1):
        if row and len(row) != 2:  # the header row too
            raise ConfigError(f"{path}:{lineno}: bad table row {row!r}: {len(row)} fields, not 2")
        if lineno == 1 or not row:
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad table row {row!r}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigError(f"{path}:{lineno}: table entries must be finite, got {row!r}")
        if rows[-1][0] < 0:
            raise ConfigError(f"{path}:{lineno}: table rho must be >= 0, got {row[0]!r}")
    if len(rows) < 2:
        raise ConfigError(f"{path}: table needs at least two rows")
    rho = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if np.any(np.diff(rho) <= 0):
        raise ConfigError(f"{path}: table rho column must be strictly increasing")
    if rho[-1] > MAX_RHO_MAX:  # the norm's w(rho_N) forms rho^2, infinite past 1.3e154
        raise ConfigError(f"{path}: table rho must be at most {MAX_RHO_MAX:g}")
    return rho, vals
