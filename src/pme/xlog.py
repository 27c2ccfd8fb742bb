"""Weighted sup-norms for data with logarithmic growth.

The norm family is ||f||_r = sup |f(rho)| / w(rho), w(rho) =
[log(r^2 + rho^2)]^(1/(m-1)), r >= 2.  A datum is one record: its profile,
its closed form (log-growth, bounded or table) with its amplitude, its
exponent m for log-growth and its rows for a table.  ``log_norm`` takes the
supremum over the whole half-line in closed form, and every rho -> infinity
quantity, the tail supremum and the asymptotic growth ratio, is read off the
form and the amplitude.  Nothing is sampled.

The weight w_r has one body, ``LogNorm.weight``, which the separable
barriers' profiles read too (``barriers.BarrierParams``); it raises its log
L = log(r^2 + rho^2) to 1/(m-1) in ``LogNorm.weight_from_log``, which a
caller that has L already reads directly.  The power is an ``np.power``
call, so a float radius gets the bits of its entry in an array, and every
weight of a table's norm takes one path.  The tail limit 2^(-1/(m-1)) b of
a log-growth datum has one body too, ``norm_limit``, which ``log_norm``
reads.

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

NORM_R = 2.0  # the weight offset r of a run that sets none
RAMP_EDGE = float(np.e)  # log-growth data ramp linearly up to rho = e


@dataclass(frozen=True)
class LogNorm:
    """Norm parameters: weight offset r in [2, ``geometry.MAX_RHO_MAX``], where
    r^2 + rho^2 <= 2e300 stays finite for every radius up to that bound, and
    PME exponent m > 1."""

    r: float
    m: float

    def __post_init__(self):
        if not 2.0 <= self.r <= MAX_RHO_MAX:
            raise DomainError(f"norm parameter r must be in [2, {MAX_RHO_MAX:g}], got {self.r!r}")
        if not 1.0 < self.m < math.inf:
            raise DomainError(f"PME exponent m must be finite and > 1, got {self.m!r}")

    def weight(self, rho):
        """w_r(rho) = [log(r^2 + rho^2)]^(1/(m-1)), the one body of the weight
        that the norms and the barriers' profiles share.  Its power is an
        ``np.power`` call: a float radius is the 0-d case of the array code,
        and gets the bits of its entry in an array."""
        rho = np.asarray(rho, dtype=float)
        return self.weight_from_log(np.log(self.r**2 + rho**2))

    def weight_from_log(self, L):
        """L^(1/(m-1)) for L = log(r^2 + rho^2): the weight from its log, for a
        caller that has L already (``barriers.wm_radial_derivatives``)."""
        return np.power(L, 1.0 / (self.m - 1.0))


@dataclass(frozen=True)
class RadialDatum:
    """A radial datum: the ``profile`` a run evaluates on its cells and its
    closed form, ``form`` with its ``amplitude``:

    - 'log-growth': f(rho) = amplitude (log rho)^(1/(m-1)) exactly on rho
      >= e, the ramp amplitude rho/e below (``log_growth_datum``);
    - 'bounded': f = amplitude everywhere (``bounded_datum``);
    - 'table': the ``rows`` (rho, value) interpolated, |f| = amplitude past
      the last row (``table_datum``).
    """

    profile: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    form: str
    amplitude: float
    m: Optional[float] = None
    rows: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.form not in ("log-growth", "bounded", "table"):
            raise DomainError(f"unknown datum form '{self.form}'")
        if not 0.0 <= self.amplitude < math.inf:
            raise DomainError("datum amplitude must be nonnegative and finite")
        if self.form == "log-growth" and not (self.m is not None and 1.0 < self.m < math.inf):
            raise DomainError("a log-growth datum requires a finite m > 1")
        if (self.rows is None) == (self.form == "table"):
            raise DomainError("a datum has rows if and only if it is a table")

    @property
    def vanishes(self) -> bool:
        """Whether the datum is 0 everywhere: its amplitude and every table
        value are 0 (each builder's profile scales with them)."""
        return self.amplitude == 0.0 and (self.rows is None or not np.any(self.rows[1]))


def log_norm(datum: RadialDatum, norm: LogNorm) -> float:
    """The weighted sup-norm over the whole half-line, in closed form; w is
    increasing in rho.

    - bounded(B): the norm is B / w(0).
    - table: the upper bound max over segments of max(|f_i|, |f_{i+1}|) /
      w(rho_i), with |f_0| / w(0) for the hold below the first row.  The
      hold past the last row adds nothing: its part |f_N| / w(rho_N) is at
      most the last segment's, |f_N| / w(rho_{N-1}), or for a single row
      |f_0| / w(0), since every weight takes the one path of
      ``LogNorm.weight`` and w(rho_{N-1}) <= w(rho_N) holds in its floats,
      on a base shared by the last two radii too (``tests/test_xlog.py``).
    - log-growth(b): the tail ratio b (log rho / log(r^2 + rho^2))^(1/(m-1))
      increases on rho >= e, since (r^2+rho^2) log(r^2+rho^2) > rho^2 log
      rho^2, so its supremum is the limit 2^(-1/(m-1)) b, read from
      ``norm_limit``; the ramp below e is ``_ramp_part``.
    """
    b = datum.amplitude
    if datum.form == "log-growth":
        if datum.m != norm.m:
            raise DomainError("datum exponent disagrees with the norm")
        return max(_ramp_part(b, norm), norm_limit(datum, norm.m))
    # a weight past the float range (m near 1) is inf, its part 0.0, refused by existence_time
    with np.errstate(over="ignore"):
        if datum.rows is None:
            return b / float(norm.weight(0.0))
        rho, values = datum.rows
        size = np.abs(values)
        head = np.maximum(size[:-1], size[1:]) / norm.weight(rho[:-1])
        return max(float(size[0] / norm.weight(0.0)), float(np.max(head, initial=0.0)))


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
    """limsup |f|/(log rho)^(1/(m-1)): the amplitude of a log-growth datum, 0
    for a bounded one or a table."""
    return datum.amplitude if datum.form == "log-growth" else 0.0


def norm_limit(datum: RadialDatum, m: float) -> float:
    """lim_{r->inf} ||f||_r = 2^(-1/(m-1)) * limsup_ratio."""
    if datum.form == "log-growth" and datum.m != m:
        raise DomainError("datum exponent disagrees with m")
    return limsup_ratio(datum) * 2.0 ** (-1.0 / (m - 1.0))


# -- canonical data generators -------------------------------------------------


def log_growth_datum(b: float, m: float) -> RadialDatum:
    """b (log rho)^(1/(m-1)) beyond rho = e, linear ramp b rho/e inside.

    The ramp keeps the datum nonnegative and continuous while leaving both
    the asymptotic ratio and the norm tail exactly b-scaled.  The power is
    an ``np.power`` call, as in ``LogNorm.weight``.
    """

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where(
            rho >= RAMP_EDGE,
            np.power(np.log(np.maximum(rho, RAMP_EDGE)), 1.0 / (m - 1.0)),
            rho / RAMP_EDGE,
        )
        return b * out

    return RadialDatum(profile, "log-growth", b, m=m)


def bounded_datum(bound: float) -> RadialDatum:
    """f = bound everywhere."""

    def profile(rho):
        return np.full_like(np.asarray(rho, dtype=float), bound)

    return RadialDatum(profile, "bounded", bound)


def table_datum(table_rho, table_values) -> RadialDatum:
    """The rows (table_rho, table_values) interpolated linearly, held at the
    first value below the first row and at the last beyond the last row:
    bounded by |last value| past the last row.  The rows are finite, with
    strictly increasing radii from rho >= 0 up to ``geometry.MAX_RHO_MAX``,
    past which the norm's weight at a row would form an infinite rho^2
    (from about 1.3e154)."""
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

    return RadialDatum(profile, "table", abs(float(values[-1])), rows=(rho, values))
