"""Finite-volume grid for radial functions on a geodesic ball.

Cells are uniform in rho on [0, R]; each cell carries the Riemannian volume
of its annulus, |S^{N-1}| integral of psi^{N-1} over the cell.  On strongly
warped models the volume element spans far more than the double-precision
exponent range, so the grid stores no absolute volume or face area.
``RadialGrid.uniform`` forms both as logarithms, taking |S_rho| from
``ModelManifold.log_surface_measure``, and keeps only the scaled ratios the
scheme reads: the cell volumes over the largest (``weights_scaled``), each
cell's face transmissibilities over its own volume (``coeff_minus``,
``coeff_plus``) and the outer face's over the largest volume
(``boundary_flux_coeff``).  Ratios between neighbouring cells remain
O(exp(drift * h)).  ``uniform`` raises DomainError for a ball where even
these ratios overflow the double range (quad-critical c = 1000 at R = 25
with 250 cells): a scaled weight or a face coefficient that is not finite.
Scaled weights of inner cells may still underflow to 0.

The flux through the origin vanishes identically because psi(0)^{N-1} = 0;
no ghost cell is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, is_count
from .geometry import MAX_RHO_MAX, ModelManifold

# 5-point Gauss-Legendre nodes and weights on [-1, 1], the float64 values of
# ``numpy.polynomial.legendre.leggauss(5)`` (tests/test_grid.py checks them),
# written out because importing ``numpy.polynomial`` slows every ``pme`` start
_GL_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_GL_WEIGHTS = np.array(
    [0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
     0.23692688505618928]
)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    manifold: ModelManifold
    radius: float
    cells: int
    edges: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    h: float
    weights_scaled: np.ndarray = field(repr=False)
    # transmissibility of the faces left/right of each cell, divided by the
    # cell volume (the per-cell update coefficients of the scheme)
    coeff_minus: np.ndarray = field(repr=False)
    coeff_plus: np.ndarray = field(repr=False)
    boundary_flux_coeff: float  # outer face area / (dist * largest cell volume)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # reported by the range check below
    def uniform(cls, manifold: ModelManifold, radius: float, cells: int) -> "RadialGrid":
        if radius <= 0 or radius > MAX_RHO_MAX or not is_count(cells, 3):
            raise DomainError(f"need 0 < radius <= {MAX_RHO_MAX:g} and an integer number of cells >= 3")
        edges = np.linspace(0.0, radius, cells + 1)
        h = radius / cells
        centers = 0.5 * (edges[:-1] + edges[1:])
        nm1 = manifold.dim - 1

        # Cell volumes |S_center| h q, q the 5-point Gauss-Legendre mean of
        # psi^{N-1} over the cell relative to the center, so the exponentials
        # stay tame.
        lp_centers = nm1 * np.asarray(manifold.log_psi(centers), dtype=float)
        nodes = centers[:, None] + 0.5 * h * _GL_NODES[None, :]
        nodes = np.clip(nodes, 1e-300, None)
        lp_nodes = nm1 * np.asarray(manifold.log_psi(nodes), dtype=float)
        q = 0.5 * np.sum(_GL_WEIGHTS[None, :] * np.exp(lp_nodes - lp_centers[:, None]), axis=1)
        log_weights = manifold.log_surface_measure(centers) + np.log(h * q)

        # Face areas |S_edge| over the distance between the adjacent cell
        # centers (h, or h/2 at R); the origin's is psi(0)^{N-1} = 0, a
        # zero-flux origin.
        dist = np.full(cells, h)
        dist[-1] = 0.5 * h
        log_faces = np.concatenate(([-np.inf], manifold.log_surface_measure(edges[1:]) - np.log(dist)))

        # Each inner face enters two coefficients, coeff_plus of the cell
        # inside it and coeff_minus of the cell outside, through these two
        # exps, each of a difference of logarithms rounded to about
        # eps |log w|.  So w_i cp_i and w_{i+1} cm_{i+1} miss each other by up
        # to a few hundred eps relative (257 eps on quad-critical c = 0.5),
        # and the scheme's mass balance tracks the boundary outflow only to
        # that relative error per face.
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
            weights_scaled=weights_scaled,
            coeff_minus=coeff_minus,
            coeff_plus=coeff_plus,
            boundary_flux_coeff=boundary_flux_coeff,
        )

    def mass(self, u: np.ndarray) -> float:
        """Integral of u over the ball in units of the largest cell volume."""
        return float(np.dot(self.weights_scaled, u))
