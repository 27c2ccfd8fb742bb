"""Finite-volume grid for radial functions on a geodesic ball.

Cells are uniform in rho on [0, R]; each cell carries the Riemannian volume
of its annulus, |S^{N-1}| integral of psi^{N-1} over the cell.  On strongly
warped models the volume element spans far more than the double-precision
exponent range, so the grid stores log-weights and exposes *scaled*
quantities: every weight and face area is normalized by the largest cell
volume (``log_scale``).  Ratios between neighbouring cells, which are all
the scheme ever needs, remain O(exp(drift * h)).  ``RadialGrid.uniform``
raises DomainError for a ball where even these ratios overflow the double
range (quad-critical c = 1000 at R = 25 with 250 cells): a scaled weight or
a face coefficient that is not finite.  Scaled weights of inner cells may
still underflow to 0.

The flux through the origin vanishes identically because psi(0)^{N-1} = 0;
no ghost cell is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geometry import ModelManifold, log_sphere_area

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    manifold: ModelManifold
    radius: float
    cells: int
    edges: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    h: float = 0.0
    # log of cell volumes and face areas (absolute, includes |S^{N-1}|)
    log_weights: np.ndarray = field(repr=False, default=None)
    log_faces: np.ndarray = field(repr=False, default=None)
    log_scale: float = 0.0  # log of the normalizing volume
    weights_scaled: np.ndarray = field(repr=False, default=None)
    # transmissibility of the faces left/right of each cell, divided by the
    # cell volume (the per-cell update coefficients of the scheme)
    coeff_minus: np.ndarray = field(repr=False, default=None)
    coeff_plus: np.ndarray = field(repr=False, default=None)
    boundary_flux_coeff: float = 0.0  # outer face area / (dist * scale)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # reported by the range check below
    def uniform(cls, manifold: ModelManifold, radius: float, cells: int) -> "RadialGrid":
        if radius <= 0 or cells < 3:
            raise DomainError("need radius > 0 and at least 3 cells")
        edges = np.linspace(0.0, radius, cells + 1)
        h = radius / cells
        centers = 0.5 * (edges[:-1] + edges[1:])
        nm1 = manifold.dim - 1
        lsa = log_sphere_area(manifold.dim)

        # Cell volumes via 5-point Gauss-Legendre on psi^{N-1}, evaluated
        # relative to the cell center so the exponentials stay tame.
        lp_centers = nm1 * np.asarray(manifold.log_psi(centers), dtype=float)
        nodes = centers[:, None] + 0.5 * h * _GL_NODES[None, :]
        nodes = np.clip(nodes, 1e-300, None)
        lp_nodes = nm1 * np.asarray(manifold.log_psi(nodes), dtype=float)
        q = 0.5 * np.sum(_GL_WEIGHTS[None, :] * np.exp(lp_nodes - lp_centers[:, None]), axis=1)
        log_weights = lsa + lp_centers + np.log(h * q)

        lp_edges = np.empty(cells + 1)
        lp_edges[0] = -np.inf  # psi(0)^{N-1} = 0: zero-flux origin
        lp_edges[1:] = nm1 * np.asarray(manifold.log_psi(edges[1:]), dtype=float)
        # face distance between the adjacent cell centers (h, or h/2 at R)
        dist = np.full(cells + 1, h)
        dist[-1] = 0.5 * h
        log_faces = lsa + lp_edges - np.log(dist)

        coeff_minus = np.exp(log_faces[:-1] - log_weights)
        coeff_plus = np.exp(log_faces[1:] - log_weights)

        log_scale = float(np.max(log_weights))
        weights_scaled = np.exp(log_weights - log_scale)
        boundary_flux_coeff = float(np.exp(log_faces[-1] - log_scale))

        # A value that is not finite means exp(drift * h) has overflowed.  A
        # ratio that underflows to 0 (an inner weight, or the inflow
        # coefficient of a much larger cell) is below every other term it
        # meets, so it stays.
        if not all(np.isfinite(a).all() for a in (weights_scaled, coeff_minus, coeff_plus)):
            family = manifold.kind if manifold.c is None else f"{manifold.kind} (c={manifold.c:g})"
            raise DomainError(
                f"{family} ball of radius R={radius:g} with {cells} cells: the volume "
                "ratios between neighbouring cells overflow the double range"
            )

        return cls(
            manifold=manifold,
            radius=float(radius),
            cells=cells,
            edges=edges,
            centers=centers,
            h=h,
            log_weights=log_weights,
            log_faces=log_faces,
            log_scale=log_scale,
            weights_scaled=weights_scaled,
            coeff_minus=coeff_minus,
            coeff_plus=coeff_plus,
            boundary_flux_coeff=boundary_flux_coeff,
        )

    def mass(self, u: np.ndarray) -> float:
        """Integral of u over the ball in units of exp(log_scale)."""
        return float(np.dot(self.weights_scaled, u))

    def restriction_slice(self, sub_radius: float) -> slice:
        """Cells shared with a nested grid of the same spacing on B_sub."""
        n = sub_radius / self.h
        if abs(n - round(n)) > 1e-9:
            raise DomainError("radii are not nested for this spacing")
        return slice(0, int(round(n)))

