"""Weighted sup-norms for data with logarithmic growth.

The norm family is ||f||_r = sup |f(rho)| / [log(r^2 + rho^2)]^(1/(m-1)),
r >= 2.  Finite grids cannot see the rho -> infinity behaviour, so data carry
a *tail descriptor* (exact analytic form beyond a stated radius).  Every
rho -> infinity quantity, the tail supremum and the asymptotic growth ratio,
is read off that descriptor; nothing is extrapolated from the grid, and a
datum without one has no asymptotic ratio (``NotApplicableError``).

Note on the r -> infinity limit: since log(r^2 + rho^2) ~ 2 log rho, the
norms decrease to 2^(-1/(m-1)) times the asymptotic ratio
limsup |f| / (log rho)^(1/(m-1)); ``norm_limit`` returns that limit and
``limsup_ratio`` the plain asymptotic ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotApplicableError, TailMismatchError

TAIL_FORMS = ("log-growth", "bounded")
NORM_R = 2.0  # the weight offset r of a run that sets none


@dataclass(frozen=True)
class LogNorm:
    """Norm parameters: weight offset r >= 2 and PME exponent m > 1."""

    r: float
    m: float

    def __post_init__(self):
        if not 2.0 <= self.r < math.inf:
            raise DomainError(f"norm parameter r must be finite and >= 2, got {self.r!r}")
        if not 1.0 < self.m < math.inf:
            raise DomainError(f"PME exponent m must be finite and > 1, got {self.m!r}")

    def weight(self, rho):
        rho = np.asarray(rho, dtype=float)
        return np.log(self.r**2 + rho**2) ** (1.0 / (self.m - 1.0))


@dataclass(frozen=True)
class TailDescriptor:
    """Closed-form behaviour of a datum beyond ``rho_start``.

    form 'log-growth': f(rho) = amplitude * (log rho)^(1/(m-1)) exactly.
    form 'bounded':    |f(rho)| <= amplitude.
    """

    form: str
    amplitude: float
    rho_start: float
    m: Optional[float] = None

    def __post_init__(self):
        if self.form not in TAIL_FORMS:
            raise DomainError(f"unknown tail form '{self.form}'")
        if self.form == "log-growth":
            if not (self.m is not None and 1.0 < self.m < math.inf):
                raise DomainError("log-growth tail requires a finite m > 1")
            if not 2.0 <= self.rho_start < math.inf:
                raise DomainError("log-growth tail must start at a finite rho >= 2")
        elif not -math.inf < self.rho_start < math.inf:
            raise DomainError("bounded tail must start at a finite rho")
        if not 0.0 <= self.amplitude < math.inf:
            raise DomainError("tail amplitude must be nonnegative and finite")

    def evaluate(self, rho):
        if self.form == "bounded":
            return np.full_like(np.asarray(rho, dtype=float), self.amplitude)
        return self.amplitude * np.log(rho) ** (1.0 / (self.m - 1.0))


@dataclass(frozen=True)
class RadialDatum:
    """A radial function sampled on increasing nodes, plus optional tail
    and the profile the samples were taken from."""

    rho: np.ndarray
    values: np.ndarray
    tail: Optional[TailDescriptor] = None
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if rho.size == 0:
            raise DomainError("empty grid")
        if rho.shape != vals.shape:
            raise DomainError("rho and values must have matching shapes")
        if not np.all(np.diff(rho) > 0):  # a NaN node fails this too
            raise DomainError("nodes must be strictly increasing")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "values", vals)
        if self.tail is not None:
            self._check_tail()

    def _check_tail(self):
        t = self.tail
        sel = self.rho >= t.rho_start
        idx = np.nonzero(sel)[0][-3:]
        if idx.size == 0:
            return
        sampled = self.values[idx]
        if t.form == "bounded":
            if np.any(np.abs(sampled) > t.amplitude * (1.0 + 1e-8) + 1e-300):
                raise TailMismatchError("samples exceed the declared bound")
            return
        expect = t.evaluate(self.rho[idx])
        scale = np.maximum(np.abs(expect), 1e-300)
        if np.any(np.abs(sampled - expect) > 1e-8 * scale):
            raise TailMismatchError(
                "outermost samples do not match the log-growth tail form"
            )


def log_norm(datum: RadialDatum, norm: LogNorm) -> float:
    """Weighted sup-norm over the sampled nodes plus the exact tail part.

    For a log-growth tail the ratio (log rho / log(r^2+rho^2))^(1/(m-1)) is
    increasing beyond rho >= 2, so its supremum is the limit
    2^(-1/(m-1)) * amplitude; for a bounded tail the weight is increasing, so
    the supremum sits at the tail start.
    """
    w = norm.weight(datum.rho)
    grid_part = float(np.max(np.abs(datum.values) / w))
    t = datum.tail
    if t is None:
        return grid_part
    if t.form == "log-growth":
        if t.m != norm.m:
            raise DomainError("tail descriptor exponent disagrees with the norm")
        tail_part = t.amplitude * 2.0 ** (-1.0 / (norm.m - 1.0))
    else:
        tail_part = t.amplitude / float(norm.weight(t.rho_start))
    return max(grid_part, tail_part)


def limsup_ratio(datum: RadialDatum) -> float:
    """limsup |f|/(log rho)^(1/(m-1)), read off the tail descriptor."""
    t = datum.tail
    if t is None:
        raise NotApplicableError("the asymptotic ratio needs a tail descriptor")
    return 0.0 if t.form == "bounded" else t.amplitude


def norm_limit(datum: RadialDatum, m: float | None = None) -> float:
    """lim_{r->inf} ||f||_r = 2^(-1/(m-1)) * limsup_ratio."""
    ratio = limsup_ratio(datum)
    t = datum.tail
    if t.form == "log-growth":
        if m not in (None, t.m):
            raise DomainError("tail descriptor exponent disagrees with m")
        m = t.m
    if m is None:
        raise DomainError("m is required to take the norm limit")
    return ratio * 2.0 ** (-1.0 / (m - 1.0))


# -- canonical data generators -------------------------------------------------

RAMP_EDGE = float(np.e)  # log-growth data ramp linearly up to rho = e


def log_growth_profile(b: float, m: float) -> Callable[[np.ndarray], np.ndarray]:
    """b (log rho)^(1/(m-1)) beyond rho = e, linear ramp b rho/e inside.

    The ramp keeps the datum nonnegative and continuous while leaving both
    the asymptotic ratio and the norm tail exactly b-scaled.
    """
    if b < 0:
        raise DomainError("amplitude must be nonnegative")
    if m <= 1:
        raise DomainError("m must be > 1")

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where(
            rho >= RAMP_EDGE,
            np.log(np.maximum(rho, RAMP_EDGE)) ** (1.0 / (m - 1.0)),
            rho / RAMP_EDGE,
        )
        return b * out

    return profile


def log_growth_datum(b: float, m: float, rho) -> RadialDatum:
    rho = np.asarray(rho, dtype=float)
    tail = TailDescriptor("log-growth", b, rho_start=max(RAMP_EDGE, 2.0), m=m)
    if rho[-1] < tail.rho_start:
        tail = None
    profile = log_growth_profile(b, m)
    return RadialDatum(rho, profile(rho), tail=tail, profile=profile)


def bounded_profile(bound: float) -> Callable[[np.ndarray], np.ndarray]:
    def profile(rho):
        return np.full_like(np.asarray(rho, dtype=float), bound)

    return profile


def bounded_datum(bound: float, rho) -> RadialDatum:
    rho = np.asarray(rho, dtype=float)
    tail = TailDescriptor("bounded", bound, rho_start=float(rho[0]))
    profile = bounded_profile(bound)
    return RadialDatum(rho, profile(rho), tail=tail, profile=profile)


def table_datum(table_rho: np.ndarray, table_values: np.ndarray, rho) -> RadialDatum:
    """The rows (table_rho, table_values) interpolated linearly and held at
    the last value beyond the last row, sampled at ``rho``: bounded by
    |last value| past the last row."""

    def profile(x):
        return np.interp(x, table_rho, table_values)

    rho = np.asarray(rho, dtype=float)
    tail = TailDescriptor("bounded", abs(float(table_values[-1])), rho_start=float(table_rho[-1]))
    return RadialDatum(rho, profile(rho), tail=tail, profile=profile)
