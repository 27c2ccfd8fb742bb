"""Line-oriented ``key = value`` run configuration, and the objects built from it.

Strict parsing: values are validated before any computation starts, and every
constraint violation raises an error with exit code 2: ConfigError here (an
unreadable config or table file too), DomainError from the manifold and grid
constructors.  The built-in manifolds are valid for every admissible key, so
``manifold_from`` builds one without probing it; ``grid_from`` builds the
ball, which fails when its volume ratios overflow the double range.  The initial
datum is one of ``log-growth(b)``, ``bounded(B)`` or ``table(path.csv)``;
tables are two-column CSV ``rho,value`` with a header row, interpolated
linearly onto the solver grid and held at the last value beyond the last row.

``solver_config_from``, ``blowup_config_from`` and ``grid_from`` map a config
to run objects for every subcommand and ``sweep`` row; ``grid_from`` is the
one reader of ``R``.  An absent optional key keeps its dataclass field
default.  A ``RunConfig`` records the keys its builders read, and
``reject_unread`` makes any other key a ConfigError: a run accepts exactly
the keys it reads.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .barriers import BarrierParams
from .blowup import BlowupConfig
from .errors import ConfigError
from .geometry import ModelManifold, make_manifold
from .grid import RadialGrid
from .solver import BarrierDirichlet, DtPolicy, HomogeneousDirichlet, SolverConfig
from .xlog import (
    RadialDatum,
    TailDescriptor,
    bounded_datum,
    bounded_profile,
    log_growth_datum,
    log_growth_profile,
)

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


def get_float(cfg: dict, key: str, default=None, positive=False) -> float:
    """Finite float value of ``key``; required unless a default is given."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required {_named(key)}")
        return default
    try:
        val = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{_named(key)}: not a number ({cfg[key]!r})") from exc
    if positive and val <= 0:
        raise ConfigError(f"{_named(key)} must be positive")
    if not math.isfinite(val):
        raise ConfigError(f"{_named(key)} must be finite")
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


_positive = partial(get_float, positive=True)


def _fields(cfg: dict, readers: dict) -> dict:
    """Dataclass keywords for the keys of ``readers`` {key: (field, reader)} in ``cfg``."""
    return {name: read(cfg, key) for key, (name, read) in readers.items() if key in cfg}


_DT_FIELDS = {"dt_growth": ("growth", get_float), "dt_max": ("dt_max", get_float)}
_RUN_FIELDS = {"newton_tol": ("newton_tol", _positive), "norm_r": ("norm_r", get_float)}
_SOLVER_FIELDS = {
    **_RUN_FIELDS,
    "newton_max_iter": ("newton_max_iter", partial(get_int, minimum=1)),
    "snapshot_stride": ("snapshot_stride", partial(get_int, minimum=1)),
}
_BLOWUP_FIELDS = {
    **_RUN_FIELDS,
    "blowup_threshold": ("threshold_factor", get_float),
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
        r=get_float(cfg, "barrier_r", default=2.0),
        horizon=_positive(cfg, "barrier_T"),
        m=m,
    )
    return BarrierDirichlet(params, **_fields(cfg, {"barrier_delta": ("delta", get_float)}))


def solver_config_from(cfg: dict, m: float) -> SolverConfig:
    """Solver settings of a ``solve`` or ``exhaust`` run."""
    return SolverConfig(
        m=m,
        dt=DtPolicy(dt0=_positive(cfg, "dt0"), **_fields(cfg, _DT_FIELDS)),
        t_end=_positive(cfg, "t_end"),
        boundary=_boundary_from(cfg, m),
        **_fields(cfg, _SOLVER_FIELDS),
    )


def blowup_config_from(cfg: dict, m: float) -> BlowupConfig:
    """Settings of the staged blow-up run (``blowup`` and each ``sweep`` row)."""
    return BlowupConfig(m=m, **_fields(cfg, _BLOWUP_FIELDS))


def grid_from(cfg: dict, manifold: ModelManifold) -> RadialGrid:
    """The ball of a ``solve``, ``blowup`` or ``sweep`` run: radius ``R``, ``cells`` cells."""
    return RadialGrid.uniform(manifold, _positive(cfg, "R"), get_int(cfg, "cells", minimum=3))


def manifold_from(cfg: dict) -> ModelManifold:
    kind = cfg.get("manifold")
    if kind is None:
        raise ConfigError("missing required key 'manifold'")
    dim = get_int(cfg, "dim", minimum=2)
    c = get_float(cfg, "c") if "c" in cfg else None
    return make_manifold(kind, dim, c)


def exponent_from(cfg: dict, key: str = "m") -> float:
    m = get_float(cfg, key)
    if m <= 1.0:
        raise ConfigError("the PME exponent must satisfy m > 1")
    return m


@dataclass(frozen=True)
class DatumSpec:
    """Parsed ``u0``: canonical family or a sampled table."""

    kind: str  # log-growth | bounded | table
    amplitude: float = 0.0
    table_rho: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None

    def profile(self, m: float):
        if self.kind == "log-growth":
            return log_growth_profile(self.amplitude, m)
        if self.kind == "bounded":
            return bounded_profile(self.amplitude)

        def interp(rho):
            return np.interp(rho, self.table_rho, self.table_values)

        return interp

    def datum(self, m: float, rho) -> RadialDatum:
        if self.kind == "log-growth":
            return log_growth_datum(self.amplitude, m, rho)
        if self.kind == "bounded":
            return bounded_datum(self.amplitude, rho)
        # np.interp holds the last value beyond the last row: the table is bounded
        tail = TailDescriptor(
            "bounded", abs(float(self.table_values[-1])), rho_start=float(self.table_rho[-1])
        )
        rho = np.asarray(rho, dtype=float)
        return RadialDatum(rho, self.profile(m)(rho), tail=tail)


def datum_from(cfg: dict) -> DatumSpec:
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
        rho, vals = _read_table(arg)
        return DatumSpec(kind="table", table_rho=rho, table_values=vals)
    try:
        amp = float(arg)
    except ValueError as exc:
        raise ConfigError(f"u0 amplitude is not a number: {arg!r}") from exc
    if amp < 0:
        raise ConfigError("u0 amplitude must be nonnegative")
    return DatumSpec(kind=kind, amplitude=amp)


def _read_table(path):
    reader = csv.reader(_read_text(path).splitlines())
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["rho", "value"]:
        raise ConfigError(f"{path}: table needs a 'rho,value' header row")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad table row {row!r}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: table needs at least two rows")
    rho = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if np.any(np.diff(rho) <= 0):
        raise ConfigError(f"{path}: table rho column must be strictly increasing")
    return rho, vals
