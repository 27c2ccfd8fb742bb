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


def sphere_area(dim: int) -> float:
    """Surface area of the unit (dim-1)-sphere, 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def log_sphere_area(dim: int) -> float:
    return math.log(2.0) + (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0)


@dataclass(frozen=True)
class CurvatureSample:
    """Sectional curvature of radial 2-planes and radial Ricci curvature."""

    sectional: np.ndarray | float
    ricci_radial: np.ndarray | float


@dataclass(frozen=True, eq=False)
class ModelManifold:
    """Warped-product model: metric d rho^2 + psi(rho)^2 d theta^2."""

    dim: int
    kind: str
    c: Optional[float]
    # psi is held once, as log psi and its derivative ratios
    log_psi: Callable[[np.ndarray], np.ndarray]
    # psi'/psi and psi''/psi in overflow-safe closed form.
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
        return float(val) if np.isscalar(rho) else val

    def curvature(self, rho):
        """Sectional curvature -psi''/psi and radial Ricci (N-1) times it."""
        arr = self._check_rho(rho)
        with np.errstate(over="ignore"):  # an overflow is reported just below
            sec = -np.asarray(self.ratio2(arr), dtype=float)
        if not np.all(np.isfinite(sec)):
            raise DomainError("psi''/psi is not finite on the requested radii")
        ric = (self.dim - 1) * sec
        if np.isscalar(rho):
            return CurvatureSample(float(sec), float(ric))
        return CurvatureSample(sec, ric)

    def log_surface_measure(self, radius):
        """log of the area of the geodesic sphere S_R, |S^{N-1}| psi(R)^{N-1}."""
        r = self._check_rho(radius)
        return log_sphere_area(self.dim) + (self.dim - 1) * np.asarray(
            self.log_psi(r), dtype=float
        )


# -- built-in families -------------------------------------------------------


def euclidean(dim: int = 3) -> ModelManifold:
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


def hyperbolic(dim: int = 2) -> ModelManifold:
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


def quad_critical(c: float, dim: int = 3) -> ModelManifold:
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


def log_critical(c: float, dim: int = 2) -> ModelManifold:
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
        f2 = (
            2.0 * c / g
            - 4.0 * c * r / (s * g * g)
            + c * r * r * (g + 2.0) / (s * s * g**3)
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
    if kind in ("quad-critical", "log-critical"):
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
    """Geometric radii on [1e-3, rho_max]: the probes of the constant fits
    and the nodes of the barrier certificates."""
    if not rho_max > 1e-3:
        raise DomainError(f"rho_max must exceed the first probe radius 1e-3, got {rho_max:g}")
    return np.geomspace(1e-3, rho_max, n_probe)


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
    manifold: ModelManifold, rho_max: float = 1e3, n_probe: int = 4096
) -> ComparisonConstants:
    """Fit all drift/curvature/volume comparison constants on a probe grid.

    Grid extrema are widened by FIT_MARGIN and merged with the family's
    analytic limits, so the certified inequalities hold beyond the probes.
    """
    if rho_max < 10.0:
        raise DomainError("rho_max must be >= 10")
    if n_probe < 1000:
        raise DomainError("n_probe must be >= 1000")
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

    curv = manifold.curvature(rho)
    neg_ric = -curv.ricci_radial / (1.0 + rho * rho)
    ric_head = float(nm1 * np.asarray(manifold.ratio2(1e-6), dtype=float))
    sup, where = _extremum_with_limits(neg_ric, rho, ric_head, tails["ricci"])
    c_o = (1.0 + FIT_MARGIN) * max(sup, 0.0)
    attained["c_o"] = where

    r_o = 1.0
    mask = rho >= r_o
    neg_sect = -curv.sectional[mask] / rho[mask] ** 2
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
