"""Weighted sup-norms for data with logarithmic growth.

The norm family is ||f||_r = sup |f(rho)| / w(rho), w(rho) =
[log(r^2 + rho^2)]^(1/(m-1)), r >= 2.  A datum is its profile and its tail
descriptor (the exact analytic form beyond a stated radius), plus the rows
of a table datum; ``log_norm`` takes the supremum over the whole half-line
in closed form, and every rho -> infinity quantity, the tail supremum and
the asymptotic growth ratio, is read off the tail descriptor.  Nothing is
sampled.

Note on the r -> infinity limit: since log(r^2 + rho^2) ~ 2 log rho, the
norms decrease to 2^(-1/(m-1)) times the asymptotic ratio
limsup |f| / (log rho)^(1/(m-1)); ``norm_limit`` returns that limit and
``limsup_ratio`` the plain asymptotic ratio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .geometry import MAX_RHO_MAX

TAIL_FORMS = ("log-growth", "bounded")
NORM_R = 2.0  # the weight offset r of a run that sets none
RAMP_EDGE = float(np.e)  # log-growth data ramp linearly up to rho = e


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
        elif not 0.0 <= self.rho_start < math.inf:
            raise DomainError("bounded tail must start at a finite rho >= 0")
        if not 0.0 <= self.amplitude < math.inf:
            raise DomainError("tail amplitude must be nonnegative and finite")


@dataclass(frozen=True)
class RadialDatum:
    """A radial datum: the ``profile`` a run evaluates on its cells, its
    ``tail`` and, for a table, the ``rows`` (rho, value) the profile
    interpolates.  ``log_norm`` reads the part below the tail from the
    builder's kind: ``log_growth_datum`` (the ramp b rho/e below e),
    ``bounded_datum`` (none: the tail starts at 0) or ``table_datum``."""

    profile: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    tail: TailDescriptor
    rows: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def vanishes(self) -> bool:
        """Whether the datum is 0 everywhere: its tail amplitude and every
        table value are 0 (each builder's profile scales with them)."""
        return self.tail.amplitude == 0.0 and (self.rows is None or not np.any(self.rows[1]))


def log_norm(datum: RadialDatum, norm: LogNorm) -> float:
    """The weighted sup-norm over the whole half-line, in closed form, as
    max(part below the tail, tail part); w is increasing in rho.

    - bounded(B): the tail starts at 0, so the norm is B / w(0).
    - table: the upper bound max over segments of max(|f_i|, |f_{i+1}|) /
      w(rho_i), with |f_0| / w(0) for the hold below the first row and
      |f_N| / w(rho_N) past the last row.
    - log-growth(b): the tail ratio b (log rho / log(r^2 + rho^2))^(1/(m-1))
      increases on rho >= e, since (r^2+rho^2) log(r^2+rho^2) > rho^2 log
      rho^2, so its supremum is the limit 2^(-1/(m-1)) b; the ramp below e
      is ``_ramp_part``.
    """
    t = datum.tail
    if t.form == "log-growth":
        if t.m != norm.m:
            raise DomainError("tail descriptor exponent disagrees with the norm")
        return max(_ramp_part(t.amplitude, norm), t.amplitude * 2.0 ** (-1.0 / (norm.m - 1.0)))
    # a weight past the float range (m near 1) is inf, its part 0.0, refused by existence_time
    with np.errstate(over="ignore"):
        tail_part = t.amplitude / float(norm.weight(t.rho_start))
        if datum.rows is None:
            return tail_part
        rho, values = datum.rows
        size = np.abs(values)
        head = np.maximum(size[:-1], size[1:]) / norm.weight(rho[:-1])
        return max(float(size[0] / norm.weight(0.0)), float(np.max(head, initial=0.0)), tail_part)


def _ramp_part(b: float, norm: LogNorm) -> float:
    """An upper bound of sup g on [0, e], g(rho) = (b rho/e) / w(rho), or 0
    where that supremum is g(e) = b / log(r^2 + e^2)^p < b 2^-p, the tail limit.

    With s = r^2 + rho^2 and p = 1/(m-1), g' has the sign of h(s) = s log s
    - 2p (s - r^2).  h is convex (h'' = 1/s), h(r^2) = r^2 log r^2 > 0, and
    h falls until its minimum at s* = e^(2p-1).  So with end = s* clipped to
    [r^2, r^2 + e^2], h has a root below e exactly when h(end) <= 0; if not,
    g increases on [0, e].  Otherwise bisection keeps h(lo) > 0 >= h(hi)
    around h's first root s1 until lo and hi are adjacent doubles.  Then g
    increases on [r^2, lo] (h > 0 there, since h falls on [r^2, s*]), and
    on [hi, r^2 + e^2] h changes sign at most once, from - to +, so sup g
    there is max(g(hi), g(e)).  Since rho and w increase, every g on [lo,
    hi] is at most (b/e) rho(hi) / w(rho(lo)), and sup g on [0, e] is at
    most the larger of that bound and g(e).  The signs of h are float
    signs: a wrong one can only fall within the rounding of h near s1,
    where g is flat.  The bound is evaluated as (b/e) q^p, q = rho(hi)^(m-1)
    / log(lo), which neither overflows nor loses a factor to a huge w; its
    rounding is below ``slack``: p times the few roundings of q and of p,
    and the cancellation in hi - r^2.
    """
    m, r2 = norm.m, norm.r * norm.r
    p = 1.0 / (m - 1.0)
    top = r2 + RAMP_EDGE * RAMP_EDGE

    def h(s):
        return s * math.log(s) - 2.0 * p * (s - r2)

    # s* capped at e^700: for s past it h > 700 s - 2p e^2 > 0, as p < 1/eps
    lo, hi = r2, min(max(math.exp(min(2.0 * p - 1.0, 700.0)), r2), top)
    if not h(hi) <= 0.0:  # NaN (an r^2 that overflows) too: no root below e
        return 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if h(mid) > 0.0 else (lo, mid)
    q = math.sqrt(hi - r2) ** (m - 1.0) / math.log(lo)
    eps = sys.float_info.epsilon
    slack = 2.0 * eps * ((4.0 + abs(math.log(q))) * p + 4.0 + (hi + r2) / (hi - r2))
    return b / RAMP_EDGE * q**p * (1.0 + slack)


def limsup_ratio(datum: RadialDatum) -> float:
    """limsup |f|/(log rho)^(1/(m-1)), read off the tail descriptor."""
    t = datum.tail
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


def log_growth_datum(b: float, m: float) -> RadialDatum:
    tail = TailDescriptor("log-growth", b, rho_start=RAMP_EDGE, m=m)
    return RadialDatum(log_growth_profile(b, m), tail)


def bounded_profile(bound: float) -> Callable[[np.ndarray], np.ndarray]:
    def profile(rho):
        return np.full_like(np.asarray(rho, dtype=float), bound)

    return profile


def bounded_datum(bound: float) -> RadialDatum:
    return RadialDatum(bounded_profile(bound), TailDescriptor("bounded", bound, rho_start=0.0))


def table_datum(table_rho, table_values) -> RadialDatum:
    """The rows (table_rho, table_values) interpolated linearly, held at the
    first value below the first row and at the last beyond the last row:
    bounded by |last value| past the last row.  The rows are finite, with
    strictly increasing radii from rho >= 0 up to ``geometry.MAX_RHO_MAX``,
    past which the norm's w(rho_N) would form an infinite rho^2 (from
    about 1.3e154)."""
    rho = np.array(table_rho, dtype=float)
    values = np.array(table_values, dtype=float)
    if rho.size == 0 or rho.shape != values.shape or rho.ndim != 1:
        raise DomainError("a table needs one nonempty row of values per radius")
    if not np.all(np.diff(rho) > 0):  # a NaN radius fails this too
        raise DomainError("table radii must be strictly increasing")
    if not (0.0 <= rho[0] and math.isfinite(rho[-1]) and np.all(np.isfinite(values))):
        raise DomainError("table entries must be finite, with radii >= 0")
    if rho[-1] > MAX_RHO_MAX:
        raise DomainError(f"table radii must be at most {MAX_RHO_MAX:g}, got {rho[-1]:g}")

    def profile(x):
        return np.interp(x, rho, values)

    tail = TailDescriptor("bounded", abs(float(values[-1])), rho_start=float(rho[-1]))
    return RadialDatum(profile, tail, rows=(rho, values))
