"""Rotationally symmetric model manifolds and their comparison geometry.

A model manifold is described by a dimension N >= 2 and a warping function
psi with psi(0) = 0, psi'(0) = 1 and psi > 0 on (0, inf); convexity of psi
is equivalent to nonpositive sectional curvature.  Everything downstream
(radial Laplacian drift, curvature profiles, sphere volumes, certified
comparison constants) reduces to scalar functions of the radius rho.

Built-in families carry closed-form derivative *ratios* psi'/psi and
psi''/psi and a closed-form log psi.  Ratios and log-values stay finite even
where psi itself overflows double precision (the quadratically warped family
reaches exp(c rho^2)), so all hot paths work in ratio/log space.  The four
families are of class A and convex for every c > 0 by construction, and are
not re-checked at run time; ``drift`` and ``curvature`` raise DomainError
where a ratio leaves the double range.

Suprema/infima over the noncompact radius range are certified on a geometric
probe grid with a multiplicative safety margin, combined with per-family
analytic limits at rho -> 0 and rho -> infinity.  Every rho -> infinity
quantity comes from the family's ``tail_limits`` alone; nothing is
extrapolated from the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Safety margin applied to grid extrema when certifying constants.
FIT_MARGIN = 1e-3
# Fewest probe radii, and smallest outermost probe, a constant fit accepts.
MIN_PROBES = 1000
MIN_RHO_MAX = 10.0
# The innermost radius of every probe grid; the default outermost radius and size.
FIRST_PROBE = 1e-3
PROBE_RHO_MAX = 1e3
PROBE_COUNT = 4096
# The largest outermost radius of a probe grid.  The widest term a probe
# evaluates is log-critical's s^2 (log s)^3, s = e + rho, in psi''/psi:
# 4.1e307 at rho = 1e150, under the double maximum 1.8e308 (at 1e151 it
# overflows).  The certificates' widest, rho^2 (2 log rho - 1)^2 in eta's
# e_rr and r^2 + rho^2 in W^m's, are 4.8e305 and 1e300; eta's, times
# K/(2T-t), overflows only where eta is 0.
MAX_RHO_MAX = 1e150


def log_sphere_area(dim: int) -> float:
    """log of the area of the unit (dim-1)-sphere, 2 pi^(N/2) / Gamma(N/2)."""
    return math.log(2.0) + (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0)


@dataclass(frozen=True, eq=False)
class ModelManifold:
    """Warped-product model: metric d rho^2 + psi(rho)^2 d theta^2."""

    dim: int
    kind: str
    c: Optional[float]
    # psi is held once, as log psi and its derivative ratios
    log_psi: Callable[[np.ndarray], np.ndarray]
    # psi'/psi and psi''/psi in overflow-safe closed form, read through
    # ``drift`` and ``curvature``, which check that they are finite
    ratio1: Callable[[np.ndarray], np.ndarray]
    ratio2: Callable[[np.ndarray], np.ndarray]
    # Analytic rho -> inf limits of the fitted ratios: rho m/(1+rho^2)
    # ("drift"), -Ric/(1+rho^2), -sec/rho^2 and log|S_rho| log rho/rho^2
    # ("volume", None when it diverges).
    tail_limits: dict = field(repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError("dimension must be >= 2")

    # -- pointwise geometry ------------------------------------------------

    def _check_rho(self, rho):
        arr = np.asarray(rho, dtype=float)
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError("rho must be positive and finite")
        return arr

    def drift(self, rho):
        """Radial Laplacian drift m(rho) = (N-1) psi'(rho)/psi(rho)."""
        arr = self._check_rho(rho)
        with np.errstate(over="ignore"):  # an overflow is reported just below
            val = (self.dim - 1) * np.asarray(self.ratio1(arr), dtype=float)
        if not np.all(np.isfinite(val)):
            raise DomainError("psi'/psi is not finite on the requested radii")
        return val

    def curvature(self, rho):
        """Sectional curvature -psi''/psi of the radial 2-planes; the radial
        Ricci curvature is (N-1) times it."""
        arr = self._check_rho(rho)
        with np.errstate(over="ignore"):  # an overflow is reported just below
            sec = -np.asarray(self.ratio2(arr), dtype=float)
        if not np.all(np.isfinite(sec)):
            raise DomainError("psi''/psi is not finite on the requested radii")
        return sec

    def log_surface_measure(self, radius):
        """log of the area of the geodesic sphere S_R, |S^{N-1}| psi(R)^{N-1}."""
        r = self._check_rho(radius)
        return log_sphere_area(self.dim) + (self.dim - 1) * np.asarray(
            self.log_psi(r), dtype=float
        )


# -- built-in families -------------------------------------------------------


def euclidean(dim: int) -> ModelManifold:
    """Flat model, psi(rho) = rho."""
    return ModelManifold(
        dim=dim,
        kind="euclidean",
        c=None,
        log_psi=lambda r: np.log(r),
        ratio1=lambda r: 1.0 / np.asarray(r),
        ratio2=lambda r: np.zeros_like(np.asarray(r)),
        tail_limits={"drift": 0.0, "ricci": 0.0, "sect": 0.0, "volume": 0.0},
    )


def hyperbolic(dim: int) -> ModelManifold:
    """Constant curvature -1, psi(rho) = sinh(rho)."""
    return ModelManifold(
        dim=dim,
        kind="hyperbolic",
        c=None,
        # log sinh r = r + log(1 - exp(-2r)) - log 2, with expm1 keeping full
        # precision as r -> 0
        log_psi=lambda r: np.asarray(r) + np.log(-np.expm1(-2.0 * np.asarray(r))) - math.log(2.0),
        ratio1=lambda r: 1.0 / np.tanh(r),
        ratio2=lambda r: np.ones_like(np.asarray(r)),
        tail_limits={"drift": 0.0, "ricci": 0.0, "sect": 0.0, "volume": 0.0},
    )


def quad_critical(c: float, dim: int) -> ModelManifold:
    """psi(rho) = rho exp(c rho^2): sectional curvature ~ -4 c^2 rho^2.

    Realizes the quadratic curvature borderline with both the upper and the
    lower drift envelope; rho * m(rho) = (N-1)(1 + 2 c rho^2).
    """
    if c <= 0:
        raise DomainError("quad-critical family requires c > 0")
    return ModelManifold(
        dim=dim,
        kind="quad-critical",
        c=c,
        log_psi=lambda r: np.log(r) + c * np.asarray(r) ** 2,
        ratio1=lambda r: (1.0 + 2.0 * c * np.asarray(r) ** 2) / np.asarray(r),
        ratio2=lambda r: 6.0 * c + 4.0 * c * c * np.asarray(r) ** 2,
        tail_limits={
            "drift": 2.0 * c * (dim - 1),
            "ricci": 4.0 * c * c * (dim - 1),
            "sect": 4.0 * c * c,
            "volume": None,  # sphere volume grows like exp(c' R^2): diverges
        },
    )


def log_critical(c: float, dim: int) -> ModelManifold:
    """psi(rho) = rho exp(c rho^2 / log(e + rho)).

    Ricci curvature decays like -(1 + rho^2)/log^2 rho, the borderline under
    which the uniqueness-side decay certificates operate.  Certified on the
    probe grid, not proved.
    """
    if c <= 0:
        raise DomainError("log-critical family requires c > 0")

    def _f_parts(r):
        r = np.asarray(r)
        s = math.e + r
        g = np.log(s)
        f = c * r * r / g
        f1 = 2.0 * c * r / g - c * r * r / (s * g * g)
        # np.power, not g**3: for a float r, g is a numpy float64, whose **
        # runs libm's pow and not the array loop of the same radius in an array
        f2 = (
            2.0 * c / g
            - 4.0 * c * r / (s * g * g)
            + c * r * r * (g + 2.0) / (s * s * np.power(g, 3))
        )
        return f, f1, f2

    def ratio1(r):
        r = np.asarray(r)
        _, f1, _ = _f_parts(r)
        return 1.0 / r + f1

    def ratio2(r):
        r = np.asarray(r)
        _, f1, f2 = _f_parts(r)
        return 2.0 * f1 / r + f1 * f1 + f2

    return ModelManifold(
        dim=dim,
        kind="log-critical",
        c=c,
        log_psi=lambda r: np.log(r) + _f_parts(r)[0],
        ratio1=ratio1,
        ratio2=ratio2,
        tail_limits={
            "drift": 0.0,
            "ricci": 0.0,
            "sect": 0.0,
            "volume": (dim - 1) * c,
        },
    )


# the families of a curvature parameter c > 0; the others take none
PARAMETRIC_FAMILIES = ("quad-critical", "log-critical")
BUILTIN_FAMILIES = {
    "euclidean": euclidean,
    "hyperbolic": hyperbolic,
    "quad-critical": quad_critical,
    "log-critical": log_critical,
}


def make_manifold(kind: str, dim: int, c: float | None = None) -> ModelManifold:
    """Instantiate a built-in family by name (config/CLI entry point)."""
    if kind not in BUILTIN_FAMILIES:
        raise DomainError(f"unknown manifold kind '{kind}'")
    if kind in PARAMETRIC_FAMILIES:
        if c is None:
            raise DomainError(f"{kind} requires the curvature parameter c")
        return BUILTIN_FAMILIES[kind](c, dim)
    if c is not None:
        raise DomainError(f"{kind} takes no curvature parameter c")
    return BUILTIN_FAMILIES[kind](dim)


# -- certified comparison constants ------------------------------------------


@dataclass(frozen=True)
class ComparisonConstants:
    """Certified constants comparing the drift with quadratic envelopes.

    c_prime:        m(rho) <= c_prime (1+rho^2)/rho everywhere probed.
    c_double_prime: m(rho) >= c_double_prime (1+rho^2)/rho, or None when the
                    lower-quadratic certificate fails (ratio inf -> 0).
    c_o:            Ric_radial >= -c_o (1+rho^2).
    k_o, r_o:       sectional <= -k_o rho^2 for rho >= r_o, or None.
    c_m:            meas(S_R) <= exp(c_m R^2/log R) on probes, or None when
                    sphere volume outgrows that envelope (quad family).
    attained_at:    probe radius at which each grid extremum was attained
                    ("rho->0"/"rho->inf" for analytic limit attainment).
    """

    c_prime: float
    c_double_prime: Optional[float]
    c_o: float
    k_o: Optional[float]
    r_o: Optional[float]
    c_m: Optional[float]
    attained_at: dict


def probe_grid(rho_max: float, n_probe: int) -> np.ndarray:
    """Geometric radii on [FIRST_PROBE, rho_max]: the probes of the constant
    fits and the nodes of the barrier certificates."""
    if not rho_max > FIRST_PROBE:
        raise DomainError(
            f"rho_max must exceed the first probe radius {FIRST_PROBE:g}, got {rho_max:g}"
        )
    if rho_max > MAX_RHO_MAX:
        raise DomainError(f"rho_max must be at most {MAX_RHO_MAX:g}, got {rho_max:g}")
    return np.geomspace(FIRST_PROBE, rho_max, n_probe)


def _extremum_with_limits(vals, rho, head, tail, sign=1.0):
    """Certified sup (sign 1) or inf (sign -1): the grid extremum merged with
    the analytic endpoint limits, and where it is attained."""
    i = int(np.argmax(sign * vals))
    best, where = float(vals[i]), float(rho[i])
    for lim, tag in ((head, "rho->0"), (tail, "rho->inf")):
        if lim is not None and sign * lim > sign * best:
            best, where = lim, tag
    return best, where


def fit_comparison_constants(
    manifold: ModelManifold, rho_max: float = PROBE_RHO_MAX, n_probe: int = PROBE_COUNT
) -> ComparisonConstants:
    """Fit all drift/curvature/volume comparison constants on a probe grid.

    Grid extrema are widened by FIT_MARGIN and merged with the family's
    analytic limits, so the certified inequalities hold beyond the probes.
    """
    if rho_max < MIN_RHO_MAX:
        raise DomainError(f"rho_max must be >= {MIN_RHO_MAX:g}")
    if n_probe < MIN_PROBES:
        raise DomainError(f"n_probe must be >= {MIN_PROBES}")
    rho = probe_grid(rho_max, n_probe)
    nm1 = manifold.dim - 1
    tails = manifold.tail_limits
    attained: dict = {}

    drift = manifold.drift(rho)
    ratio = rho * drift / (1.0 + rho * rho)
    head = float(nm1)  # rho psi'/psi -> 1 for class A
    sup, where = _extremum_with_limits(ratio, rho, head, tails["drift"])
    c_prime = (1.0 + FIT_MARGIN) * sup
    attained["c_prime"] = where

    inf, where = _extremum_with_limits(ratio, rho, head, tails["drift"], -1.0)
    if inf > 1e-9 * sup:
        c_double_prime: Optional[float] = (1.0 - FIT_MARGIN) * inf
        attained["c_double_prime"] = where
    else:
        c_double_prime = None
        attained["c_double_prime"] = None

    # -Ric_radial = -(N-1) sec over 1 + rho^2, and its value as rho -> 0
    sec = manifold.curvature(rho)
    neg_ric = -(nm1 * sec) / (1.0 + rho * rho)
    ric_head = float(-(nm1 * manifold.curvature(1e-6)))
    sup, where = _extremum_with_limits(neg_ric, rho, ric_head, tails["ricci"])
    c_o = (1.0 + FIT_MARGIN) * max(sup, 0.0)
    attained["c_o"] = where

    r_o = 1.0
    mask = rho >= r_o
    neg_sect = -sec[mask] / rho[mask] ** 2
    inf, where = _extremum_with_limits(neg_sect, rho[mask], None, tails["sect"], -1.0)
    if inf > 1e-12:
        k_o: Optional[float] = (1.0 - FIT_MARGIN) * inf
        attained["k_o"] = where
    else:
        k_o, r_o = None, None
        attained["k_o"] = None

    if tails["volume"] is None:
        c_m = None
        attained["c_m"] = None
    else:
        rv = rho[rho >= 3.0]
        vol_ratio = manifold.log_surface_measure(rv) * np.log(rv) / rv**2
        sup, where = _extremum_with_limits(vol_ratio, rv, None, tails["volume"])
        c_m = (1.0 + FIT_MARGIN) * max(sup, 0.0)
        attained["c_m"] = where

    return ComparisonConstants(
        c_prime=c_prime,
        c_double_prime=c_double_prime,
        c_o=c_o,
        k_o=k_o,
        r_o=r_o,
        c_m=c_m,
        attained_at=attained,
    )
