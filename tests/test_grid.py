"""Volume weights, scaling and nesting of the radial grid."""

import math

import numpy as np
import pytest

from pme import geometry
from pme.errors import DomainError
from pme.grid import RadialGrid


def test_euclidean_weights_match_annulus_volumes():
    # |S^1| * (rho_{j+1}^2 - rho_j^2)/2 in dimension 2 (exact for GL5)
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, 3.0, 30)
    exact = math.pi * (g.edges[1:] ** 2 - g.edges[:-1] ** 2)
    got = np.exp(g.log_weights)
    assert np.allclose(got, exact, rtol=1e-13)


def test_euclidean_weights_dim5():
    M = geometry.euclidean(5)
    g = RadialGrid.uniform(M, 2.0, 17)
    area = geometry.sphere_area(5)
    exact = area * (g.edges[1:] ** 5 - g.edges[:-1] ** 5) / 5.0
    assert np.allclose(np.exp(g.log_weights), exact, rtol=1e-12)


def test_hyperbolic_weights_match_closed_form():
    # 2 pi (cosh b - cosh a) in dimension 2
    M = geometry.hyperbolic(2)
    g = RadialGrid.uniform(M, 2.0, 40)
    exact = 2 * math.pi * (np.cosh(g.edges[1:]) - np.cosh(g.edges[:-1]))
    assert np.allclose(np.exp(g.log_weights), exact, rtol=1e-8)


def test_quad_weights_finite_despite_overflowing_psi():
    # psi(R)^{N-1} overflows double precision; scaled weights must not
    M = geometry.quad_critical(0.5, 3)
    g = RadialGrid.uniform(M, 50.0, 500)
    assert np.all(np.isfinite(g.weights_scaled))
    assert np.max(g.weights_scaled) == pytest.approx(1.0)
    assert np.all(np.isfinite(g.coeff_plus)) and np.all(np.isfinite(g.coeff_minus))
    assert g.coeff_minus[0] == 0.0  # zero-flux origin


def test_origin_face_area_vanishes():
    for M in (geometry.euclidean(2), geometry.hyperbolic(3)):
        g = RadialGrid.uniform(M, 1.0, 10)
        assert g.log_faces[0] == -math.inf


def test_restriction_slice_nesting():
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, 50.0, 500)
    sl = g.restriction_slice(25.0)
    assert sl == slice(0, 250)
    with pytest.raises(DomainError):
        g.restriction_slice(25.03)


def test_grid_validation():
    M = geometry.euclidean(2)
    with pytest.raises(DomainError):
        RadialGrid.uniform(M, -1.0, 10)
    with pytest.raises(DomainError):
        RadialGrid.uniform(M, 1.0, 2)


def test_ball_whose_volume_ratios_overflow_is_a_domain_error():
    # exp(drift * h) between neighbouring cells overflows the double range; the
    # build raises, naming the ball, and lets no RuntimeWarning through
    with pytest.raises(DomainError, match=r"quad-critical \(c=1000\) ball of radius R=25 with 250 cells"):
        RadialGrid.uniform(geometry.quad_critical(1000.0, 3), 25.0, 250)


@pytest.mark.parametrize("c", [20.0, 100.0])
def test_ratios_may_underflow_to_zero(c):
    # inner scaled weights underflow from c = 20 on; from c = 80 on so do the
    # outer cells' inflow coefficients, each below 1e-308 of its cell's other
    # terms, and the ball stays usable
    g = RadialGrid.uniform(geometry.quad_critical(c, 3), 25.0, 250)
    assert g.weights_scaled[0] == 0.0 and g.weights_scaled[-1] == 1.0
    assert (g.coeff_minus[-1] == 0.0) == (c == 100.0)
    assert np.all(g.coeff_plus > 0)
    assert np.all(np.isfinite(g.coeff_minus)) and np.all(np.isfinite(g.coeff_plus))
