"""Explicit super/subsolution profiles and their grid certificates.

All barriers share the radial profile W(rho) = a w_r(rho), a times the
norm's weight w_r(rho) = [log(r^2 + rho^2)]^(1/(m-1)) of ``xlog.LogNorm``,
and the separable time factor (1 - t/T)^(-1/(m-1)), which blows up at t = T.
Each closed form has one body, which every caller reads: the weight is
``LogNorm.weight`` (a ``BarrierParams`` holds the ``LogNorm`` of its r and
m), the time factor ``blowup_factor`` and W_T^m from unit-profile values
``BarrierParams.wm_at_horizon``.  So a blow-up stage's boundary datum and
its audit envelope agree bit for bit by construction.
A small amplitude (from the upper drift bound) makes the separable function a
supersolution; a large amplitude (from the lower drift bound, available on
quadratically pinched models) makes it a subsolution.  The backward-in-time
exponential barrier ``eta`` and the decay product F(R) drive the
uniqueness-side certificates.

Certificates evaluate the relevant differential inequality in closed form on
a radius grid and report the worst residual relative to the local magnitude,
since the profiles span many orders of magnitude.  A ``CertificateReport``
owns its verdict: ``validate`` raises CertificateError (exit code 3) when
its check fails.  The ``UniquenessReport`` of ``uniqueness_report`` holds
the eta ``CertificateReport`` itself and defers to its verdict, then checks
the decay regime.  Both are written as their dataclasses (``cli._json_text``):
a report's ``passed`` as ``pass``, and its ``kind`` not at all.

The blow-up stages use the shifted subsolutions V = (W_T^m - delta)_+^(1/m),
and no certificate is run per stage: the unit-profile certificate of
``certify_subsolution`` covers every T and delta >= 0.  Where W_T^m > delta,
V^m = W_T^m - delta, so Lap(V^m) = Lap(W_T^m) and V <= W_T; and
W_T = T^(-1/(m-1)) W_1, so (m-1) T Lap(V^m) = T^(-1/(m-1)) (m-1) Lap(W_1^m).
The scaled residual (A - x)/(|A| + |x|) does not increase in x >= 0, so at
every node V's residual is at least W_T's, and W_T's equals W_1's because
the common factor T^(-1/(m-1)) cancels.
``tests/test_barriers.py`` checks this as a property on the four families.

A float radius is the 0-d case of the array code: each function here has
one body for both, and returns a numpy float64 (a ``float``) for a float.
Every power of a radius-dependent value in W (``LogNorm.weight``), W^m and
V is an ``np.power`` call, since a numpy float64's ``**`` runs libm's
``pow``, which can round otherwise than numpy's array loop; so a blow-up
stage's boundary datum and its subsolution on the cells are the same
function in floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CertificateError, DomainError, NotApplicableError
from .geometry import MAX_RHO_MAX, PROBE_COUNT, PROBE_RHO_MAX, probe_grid
from .geometry import ComparisonConstants, ModelManifold
from .xlog import LogNorm

RESIDUAL_TOL = 1e-10
CERTIFICATE_NODES = 10**4  # default nodes of the super/sub certificates
ETA_TOL = 1e-12
ETA_RADII, ETA_TIMES = 100, 100  # the (rho, t) grid of ``certify_eta``
K_MARGIN = 0.1
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # 709.78: math.exp raises OverflowError past it
NO_LIVE_ETA_NODE = "eta is 0 on every node, so nothing was checked"


def blowup_factor(horizon, m, scale=1.0):
    """The separable time factor of horizon T times ``scale``, as the function
    t -> (1 - t/T)^(-1/(m-1)) * scale, which blows up at t = T.  Its exponent
    is computed once, here; a call costs one power and gives a Python float
    for a float t.  ``x * 1.0`` is exact, so the default scale moves no bit."""
    e = -1.0 / (m - 1.0)
    return lambda t: (1.0 - t / horizon) ** e * scale


def horizon_time(a, norm, m):
    """Horizon T = a^(m-1) ||u||^(1-m) of the amplitude-a barrier above norm ||u||."""
    return a ** (m - 1.0) * norm ** (1.0 - m)


def separable_envelopes(times, horizon, m, scale, profile) -> np.ndarray:
    """One row blowup_factor(horizon, m, scale)(t) * profile per time.  The
    times are Python floats (``Trajectory.times``), and each factor is the
    Python float of the one ``blowup_factor`` of the envelope.
    The rows are the K x 1 by 1 x n matrix product of the factors and the
    profile: its inner dimension is 1, so each entry is one rounded product,
    the bits of a broadcast multiply wherever that product is not -0.0
    (BLAS writes +0.0 for it).  No product is -0.0 for the positive factors
    and the profiles of the audits, which are >= +0.0."""
    factors = np.array(list(map(blowup_factor(horizon, m, scale), times)))
    return np.dot(factors[:, None], profile[None])


@dataclass(frozen=True)
class BarrierParams:
    """Separable barrier data: amplitude, weight offset, blow-up horizon,
    exponent, and the ``norm`` of that offset and exponent, built once here
    (its ``LogNorm`` checks r and m)."""

    amplitude: float
    r: float
    horizon: float
    m: float
    norm: LogNorm = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a, T = self.amplitude, self.horizon
        if not (0.0 < a < math.inf and 0.0 < T < math.inf):
            raise DomainError(f"amplitude {a!r} and horizon {T!r} at m={self.m!r} must be positive and finite")
        object.__setattr__(self, "norm", LogNorm(self.r, self.m))

    def profile_unit(self, rho):
        """Unit-horizon profile W(rho) = a w_r(rho) = a [log(r^2+rho^2)]^(1/(m-1))."""
        return self.amplitude * self.norm.weight(rho)

    def at_horizon(self, unit):
        """The horizon-scaled profile from unit-profile values W: W / T^(1/(m-1))."""
        return unit / self.horizon ** (1.0 / (self.m - 1.0))

    def wm_at_horizon(self, unit):
        """W_T^m from unit-profile values W, its power an ``np.power`` call:
        the one body of W_T^m, which ``shifted_subsolution`` and each
        blow-up stage read."""
        return np.power(self.at_horizon(unit), self.m)


def supersolution_amplitude(c_prime: float, m: float) -> float:
    """Amplitude making the separable profile a supersolution:
    a = [2m (C' + (m+1)/(m-1))]^(-1/(m-1))."""
    if c_prime <= 0:
        raise DomainError("c_prime must be positive")
    if m <= 1:
        raise DomainError("m must be > 1")
    return (2.0 * m * (c_prime + (m + 1.0) / (m - 1.0))) ** (-1.0 / (m - 1.0))


def wm_radial_derivatives(p: BarrierParams, rho):
    """First and second radial derivatives of W^m for the unit profile."""
    rho = np.asarray(rho, dtype=float)
    m = p.m
    s = p.r**2 + rho**2
    L = np.log(s)
    base = p.amplitude**m * (2.0 * m / (m - 1.0)) * p.norm.weight_from_log(L) / s
    first = base * rho
    # rho^2/s <= 1 is formed first: (m-1) s L overflows for m of 1e6 at rho = 1e150
    q = rho**2 / s
    bracket = 1.0 - 2.0 * q + 2.0 * q / ((m - 1.0) * L)
    second = base * bracket
    return first, second


def laplacian_wm(p: BarrierParams, manifold: ModelManifold, rho):
    """Radial Laplacian of W^m: (W^m)'' + m(rho) (W^m)'.

    The drift term stays bounded as rho -> 0 because (W^m)' vanishes
    linearly there.
    """
    first, second = wm_radial_derivatives(p, rho)
    return second + manifold.drift(rho) * first


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a grid certificate: worst scaled residual and location."""

    kind: str = field(metadata={"json": None})  # super | sub | eta, the name in messages
    passed: bool = field(metadata={"json": "pass"})  # ``pass`` is a Python keyword
    min_residual: float
    argmin_rho: float
    nodes: int
    params: dict
    details: dict

    def validate(self):
        """CertificateError naming the worst residual when the certificate failed,
        or, for an eta certificate with no live node, that nothing was checked."""
        if not self.passed:
            cause = (
                NO_LIVE_ETA_NODE
                if self.min_residual == math.inf
                else f"residual {self.min_residual:.3e} at rho={self.argmin_rho:.6g}"
            )
            raise CertificateError(f"{self.kind} certificate failed: {cause}")
        return True


@np.errstate(over="ignore", invalid="ignore")  # reported by the range check below
def _unit_terms(p: BarrierParams, manifold: ModelManifold, rho_grid):
    """The nodes of a super/sub certificate, ``rho_grid`` or by default the
    probe grid, with the unit profile W and (m-1) Lap(W^m) on them.

    DomainError naming m when a term leaves the float range, as the sub
    profile does near m = 1 (its amplitude is 1e301 at m = 1.001): a NaN
    residual would fail the certificate without saying why."""
    rho = probe_grid(PROBE_RHO_MAX, CERTIFICATE_NODES) if rho_grid is None else np.asarray(rho_grid)
    if rho.size == 0:
        raise DomainError("a certificate needs at least one grid node")
    w, lap = p.profile_unit(rho), (p.m - 1.0) * laplacian_wm(p, manifold, rho)
    if not np.isfinite((w, lap)).all():
        raise DomainError(f"the unit barrier profile at m={p.m!r} leaves the float range")
    return rho, w, lap


def _report(kind, res, rho, p: BarrierParams, details: dict, ok: bool = True) -> CertificateReport:
    """Report of the worst scaled residual ``res`` of the barrier ``p`` on
    the nodes ``rho``."""
    i = int(np.argmin(res))
    return CertificateReport(
        kind=kind,
        passed=ok and bool(res[i] >= -RESIDUAL_TOL),
        min_residual=float(res[i]),
        argmin_rho=float(rho[i]),
        nodes=rho.size,
        params={"a": p.amplitude, "r": p.r, "m": p.m},
        details=details,
    )


def certify_supersolution(
    p: BarrierParams,
    manifold: ModelManifold,
    consts: ComparisonConstants,
    rho_grid: Optional[np.ndarray] = None,
) -> CertificateReport:
    """Certify W >= (m-1) Laplacian(W^m) for the unit-horizon profile.

    Residuals are scaled by |W| + |(m-1) Lap(W^m)| per node.  The sufficient
    amplitude condition 2m a^(m-1) [C'(1+rho^2) + (m+1)/(m-1)] <= r^2 + rho^2
    is checked too.
    """
    rho, w, lap = _unit_terms(p, manifold, rho_grid)
    lhs = (
        2.0
        * p.m
        * p.amplitude ** (p.m - 1.0)
        * (consts.c_prime * (1.0 + rho**2) + (p.m + 1.0) / (p.m - 1.0))
    )
    margin = (p.r**2 + rho**2) - lhs
    j = int(np.argmin(margin))
    ok = bool(margin[j] >= 0.0)
    details = {"amplitude_condition_ok": ok, "amplitude_condition_min_margin": float(margin[j])}
    res = (w - lap) / (np.abs(w) + np.abs(lap))
    return _report("super", res, rho, p, details, ok)


def certify_subsolution(
    p: BarrierParams,
    manifold: ModelManifold,
    rho_grid: Optional[np.ndarray] = None,
) -> CertificateReport:
    """Certify W <= (m-1) Laplacian(W^m) for the unit-horizon profile."""
    rho, w, lap = _unit_terms(p, manifold, rho_grid)
    # not the negated super residual: (lap - w) keeps its own signed zeros
    res = (lap - w) / (np.abs(w) + np.abs(lap))
    return _report("sub", res, rho, p, {})


def subsolution_params(consts: ComparisonConstants, m: float) -> BarrierParams:
    """Smallest integer weight offset r >= 2 with h(x) = (C''/2)(1+x) + 1 -
    2x/(r^2+x) >= 0 for all x = rho^2 >= 0, and the large amplitude a =
    (r^2 / (C'' m))^(1/(m-1)); horizon 1.

    h is convex with h'(x*) = 0 at x* = 2r/sqrt(C'') - r^2.  If r sqrt(C'')
    >= 2, x* <= 0 and min h = h(0) = 1 + C''/2 > 0; otherwise min h = h(x*)
    = 1 + C''/2 - (2 - r sqrt(C''))^2/2, which is >= 0 iff r >= (2 - sqrt(2
    + C''))/sqrt(C'').  r rises past that bound while the probe grid finds
    h < 0 in floats.
    """
    if consts.c_double_prime is None:
        raise NotApplicableError("model carries no lower quadratic drift certificate")
    c_dd = consts.c_double_prime
    x = probe_grid(PROBE_RHO_MAX, PROBE_COUNT) ** 2
    r = max(2, math.ceil((2.0 - math.sqrt(2.0 + c_dd)) / math.sqrt(c_dd)))
    while np.min(c_dd / 2.0 * (1.0 + x) + 1.0 - 2.0 * x / (r * r + x)) < 0.0:
        r += 1
    a = (r * r / (c_dd * m)) ** (1.0 / (m - 1.0))
    return BarrierParams(amplitude=a, r=float(r), horizon=1.0, m=m)


def shifted_subsolution(p: BarrierParams, delta: float, rho):
    """(max(W_{T,r}^m - delta, 0))^(1/m): vertical shift in pressure scale.

    Clipped to zero where the shift exceeds W^m.  On the unclipped region
    V <= (m-1) T Lap(V^m) holds with a scaled residual no smaller than the
    unit profile's, for every T and delta >= 0: the shift leaves Lap(V^m) =
    Lap(W_T^m) = T^(-m/(m-1)) Lap(W_1^m) and only lowers V below W_T (see
    the module docstring), so ``certify_subsolution`` covers it.

    One body for any shape of rho, its powers ``np.power`` calls: a float
    radius gives the bits of the same radius's entry in an array.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return shift_root(p.wm_at_horizon(p.profile_unit(rho)), delta, p.m)


def shift_root(wm, delta: float, m: float):
    """(max(wm - delta, 0))^(1/m): the shifted subsolution from W^m values."""
    return np.power(np.maximum(wm - delta, 0.0), 1.0 / m)


# -- backward uniqueness barrier ----------------------------------------------


@dataclass(frozen=True)
class EtaBarrierParams:
    """Backward barrier eta = scale * exp(-K/(2T-t) * rho^2/log rho)."""

    decay: float  # K
    scale: float  # lambda
    horizon: float  # T
    inner_radius: float  # R0 >= 2
    coeff_bound: float  # C2

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.decay, self.scale, self.horizon)):
            raise DomainError("decay, scale and horizon must be positive and finite")
        if not 2.0 <= self.inner_radius < math.inf:
            raise DomainError("inner radius must be finite and >= 2")
        if not 0.0 < self.coeff_bound < math.inf:
            raise DomainError("coefficient bound must be positive and finite")


def select_K(c2: float) -> float:
    """Largest safe decay constant K = 1 / ((1+K_MARGIN) C2 G*) for every R0 >= 2.

    G* = sup_{rho >= R0} log(2+rho) (2L-1)^2 / L^3, L = log rho, is 4: for
    rho >= 2, L > 1/3 and log(2+rho) <= L + log 2 < L + 1, so the bracket is
    below (L+1)(2L-1)^2/L^3 = 4 - (3L-1)/L^3 < 4, and it tends to 4.
    """
    if c2 <= 0:
        raise DomainError("C2 must be positive")
    return 1.0 / ((1.0 + K_MARGIN) * c2 * 4.0)


def eta(p: EtaBarrierParams, rho, t):
    """Evaluate the backward barrier for rho > R0, 0 <= t <= T."""
    rho_arr = np.asarray(rho, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(rho_arr <= p.inner_radius):
        raise DomainError("eta is defined for rho > inner_radius")
    if np.any(t_arr < 0) or np.any(t_arr > p.horizon):
        raise DomainError("t must lie in [0, T]")
    with np.errstate(over="ignore"):  # an exponent of -inf gives the 0 it underflows to
        arg = -p.decay / (2.0 * p.horizon - t_arr) * rho_arr**2 / np.log(rho_arr)
    return p.scale * np.exp(arg)


def eta_derivatives(p: EtaBarrierParams, rho, t):
    """(eta, eta_t, eta_rho, eta_rhorho) in closed form; each derivative is
    eta times a factor, and is 0 where eta underflows to 0.  Only there does
    e_rr's factor y L (2L-1)^2 overflow: for the exponent y = K rho^2 /
    ((2T-t) L) and L = log rho <= 346 that needs y > 1e300, and eta is 0 for
    y > 746.  The powers of L are ``np.power`` calls (module docstring), and
    a float radius and time give floats."""
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    e = eta(p, rho, t)
    tau = 2.0 * p.horizon - t
    L = np.log(rho)
    with np.errstate(over="ignore", invalid="ignore"):
        e_t = -(p.decay / tau) / tau * rho**2 / L * e
        e_r = -p.decay / tau * rho * (2.0 * L - 1.0) / np.power(L, 2) * e
        poly = 2.0 * np.power(L, 3) - 3.0 * np.power(L, 2) + 2.0 * L
        e_rr = (
            -p.decay
            * e
            / (tau * np.power(L, 4))
            * (poly - p.decay / tau * rho**2 * np.power(2.0 * L - 1.0, 2))
        )
    live = e > 0.0
    return (e, *(np.where(live, d, 0.0)[()] for d in (e_t, e_r, e_rr)))


def eta_first_node(inner_radius: float) -> float:
    """The innermost radial node of ``certify_eta``, just past R0."""
    return inner_radius * (1.0 + 1e-6)


def certify_eta(p: EtaBarrierParams, dim: int = 2, rho_max: float = 1e4) -> CertificateReport:
    """Verify eta_t + C2 log(2+rho) * Laplacian(eta) <= 0 on the
    ETA_RADII x ETA_TIMES grid of geometric radii up to ``rho_max`` (at most
    ``geometry.MAX_RHO_MAX``) and times in [0, T).

    The Laplacian uses the worst-case drift floor (N-1)/rho; since
    eta_rho < 0, any larger drift only helps.  Only nodes where the
    Laplacian is positive are binding (elsewhere eta_t < 0 settles it).
    Nodes where eta underflows to 0 carry no information and are skipped;
    a grid with no other node fails, since it checked nothing.
    """
    if dim < 2:
        raise DomainError("dimension must be >= 2")
    first = eta_first_node(p.inner_radius)
    if not rho_max > first:
        raise DomainError(f"rho_max must exceed the first node {first:g}, got {rho_max:g}")
    if rho_max > MAX_RHO_MAX:
        raise DomainError(f"rho_max must be at most {MAX_RHO_MAX:g}, got {rho_max:g}")
    rho = np.geomspace(first, rho_max, ETA_RADII)
    ts = np.linspace(0.0, p.horizon * (1.0 - 1e-6), ETA_TIMES)
    R, T = np.meshgrid(rho, ts, indexing="ij")
    e, e_t, e_r, e_rr = eta_derivatives(p, R, T)
    lap = e_rr + (dim - 1.0) / R * e_r
    coeff = p.coeff_bound * np.log(2.0 + R)
    lhs = e_t + coeff * np.maximum(lap, 0.0)
    scale = np.abs(e_t) + coeff * (np.abs(e_rr) + (dim - 1.0) / R * np.abs(e_r))
    scale = np.maximum(scale, 1e-300)
    res = -lhs / scale
    live = e > 0.0
    res = np.where(live, res, np.inf)  # a dead node's residual is +inf
    i, j = np.unravel_index(int(np.argmin(res)), res.shape)
    signs_ok = bool(np.all(e_t[live] < 0) and np.all(e_r[live] < 0))
    return CertificateReport(
        kind="eta",
        passed=bool(-ETA_TOL <= res[i, j] < math.inf),
        min_residual=float(res[i, j]),
        argmin_rho=float(R[i, j]),
        nodes=res.size,
        params={
            "K": p.decay,
            "lambda": p.scale,
            "T": p.horizon,
            "R0": p.inner_radius,
            "C2": p.coeff_bound,
        },
        details={"argmin_t": float(T[i, j]), "signs_ok": signs_ok},
    )


def eta_certificate(
    coeff_bound: float, inner_radius: float, horizon: float, dim: int, decay=None, rho_max=1e4
) -> tuple:
    """``(K, report)``: the eta barrier of decay K (scale 1) certified on the
    ``dim``-dimensional grid up to ``rho_max``; ``decay`` None takes
    ``select_K(coeff_bound)``."""
    if decay is None:
        decay = select_K(coeff_bound)
    p = EtaBarrierParams(
        decay=decay, scale=1.0, horizon=horizon, inner_radius=inner_radius, coeff_bound=coeff_bound
    )
    return decay, certify_eta(p, dim=dim, rho_max=rho_max)


# -- uniqueness decay product ---------------------------------------------------


def log_decay_product(c_m: float, decay: float, horizon: float, m: float, radius: float) -> float:
    """log F(R) for the boundary-flux decay product.

    F(R) = (log R)^(m/(m-1)) exp{C_M R^2/log R - K/(2T) (R-1)^2/log(R-1)}.
    """
    if radius < 3.0:
        raise DomainError("decay product is evaluated for R >= 3")
    if min(c_m, decay, horizon) <= 0 or m <= 1:
        raise DomainError("constants must be positive with m > 1")
    r = float(radius)
    return (
        m / (m - 1.0) * math.log(math.log(r))
        + c_m * r * r / math.log(r)
        - decay / (2.0 * horizon) * (r - 1.0) ** 2 / math.log(r - 1.0)
    )


def decay_product(c_m: float, decay: float, horizon: float, m: float, radius: float) -> tuple:
    """(F(R), log F(R)), F formed from its own log: inf past the log of the
    largest double, where ``math.exp`` would raise OverflowError, and 0.0
    where ``math.exp`` underflows."""
    lf = log_decay_product(c_m, decay, horizon, m, radius)
    return (math.inf if lf > LOG_FLOAT_MAX else math.exp(lf)), lf


def decay_regime(c_m: float, decay: float, horizon: float) -> str:
    """'decay' when T < K/(2 C_M), 'growth' when above, 'boundary' within a
    relative 1e-12 of the knife edge: |2 C_M T - K| <= 1e-12 K.  The sides
    are exact rationals, so neither end of the float range misclassifies:
    K/(2 C_M) would overflow to inf for a tiny C_M, 2 C_M for a huge one."""
    if not 0.0 < c_m < math.inf:
        raise DomainError("C_M must be positive and finite")
    # imported here, so that only a uniqueness check pays for its import
    from fractions import Fraction

    gap = 2 * Fraction(c_m) * Fraction(horizon) - Fraction(decay)
    if abs(gap) <= Fraction(1e-12) * Fraction(decay):
        return "boundary"
    return "decay" if gap < 0 else "growth"


@dataclass
class UniquenessReport:
    """The uniqueness-side certificates at horizon T: the eta barrier, the
    decay regime of T against K/(2 C_M) and the decay product at R = 100."""

    K: float
    C_M: float
    T: float
    critical_T: float  # K/(2 C_M)
    regime: str  # decay | growth | boundary
    eta_certificate: CertificateReport
    F_at_100: float
    logF_at_100: float

    def validate(self):
        """CertificateError unless the eta barrier holds and T < K/(2 C_M):
        the eta certificate's own verdict, then the regime's."""
        self.eta_certificate.validate()
        if self.regime == "growth":
            raise CertificateError(
                f"smallness condition fails: T={self.T:g} >= K/(2 C_M)={self.critical_T:g}"
            )
        if self.regime == "boundary":
            raise CertificateError("T sits exactly at K/(2 C_M): decay test inconclusive")
        return True


def uniqueness_report(
    c_m: float,
    decay: Optional[float],
    horizon: float,
    m: float,
    coeff_bound: float,
    inner_radius: float,
    dim: int,
) -> UniquenessReport:
    """Certify the eta barrier of ``eta_certificate`` at ``horizon``, and
    classify the decay regime."""
    decay, eta_report = eta_certificate(coeff_bound, inner_radius, horizon, dim, decay)
    regime = decay_regime(c_m, decay, horizon)  # rejects C_M <= 0 before critical_T divides by it
    F, log_f = decay_product(c_m, decay, horizon, m, 100.0)
    return UniquenessReport(
        K=decay,
        C_M=c_m,
        T=horizon,
        critical_T=0.5 * decay / c_m,  # 2 C_M would overflow for a huge C_M
        regime=regime,
        eta_certificate=eta_report,
        F_at_100=F,
        logF_at_100=log_f,
    )
