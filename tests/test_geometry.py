"""Geometry: drifts, curvatures, measures, certified constants.

Closed-form derivative examples are checked against a symbolic oracle
(sympy differentiation of the warping functions), the class-A conditions
and the analytic rho -> inf limits against sympy limits, constants against
brute-force suprema over the probe grid.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from pme import geometry
from pme.errors import DomainError

RHO = sp.symbols("rho", positive=True)


def symbolic_ratios(psi_expr):
    """(psi'/psi, psi''/psi) as floats-of-rho callables via sympy."""
    d1 = sp.diff(psi_expr, RHO) / psi_expr
    d2 = sp.diff(psi_expr, RHO, 2) / psi_expr
    f1 = sp.lambdify(RHO, sp.simplify(d1), "numpy")
    f2 = sp.lambdify(RHO, sp.simplify(d2), "numpy")
    return f1, f2


SYMBOLIC = {
    "euclidean": RHO,
    "hyperbolic": sp.sinh(RHO),
    "quad-critical": RHO * sp.exp(sp.Rational(1, 2) * RHO**2),
    "log-critical": RHO * sp.exp(RHO**2 / sp.log(sp.E + RHO)),
}
# each built-in with the c of its SYMBOLIC psi
BUILT = {
    "euclidean": geometry.euclidean(3),
    "hyperbolic": geometry.hyperbolic(3),
    "quad-critical": geometry.quad_critical(0.5, 3),
    "log-critical": geometry.log_critical(1.0, 3),
}


# -- drift ---------------------------------------------------------------------


def test_drift_euclidean_exact():
    assert geometry.euclidean(3).drift(2.0) == pytest.approx(1.0, abs=0)


def test_drift_hyperbolic_against_symbolic_oracle():
    f1, _ = symbolic_ratios(SYMBOLIC["hyperbolic"])
    got = geometry.hyperbolic(2).drift(1.0)
    assert got == pytest.approx(float(f1(1.0)), rel=1e-12)
    assert got == pytest.approx(1.3130352854993312, rel=1e-10)  # coth(1)


def test_drift_quad_critical_against_symbolic_oracle():
    f1, _ = symbolic_ratios(SYMBOLIC["quad-critical"])
    M = geometry.quad_critical(0.5, 2)
    for rho in (0.3, 1.0, 4.0):
        assert M.drift(rho) == pytest.approx(float(f1(rho)), rel=1e-12)
    # c = 1: (1 + 2 c rho^2)/rho equals 3 at rho = 1
    assert geometry.quad_critical(1.0, 2).drift(1.0) == pytest.approx(3.0, rel=1e-14)


def test_drift_rejects_bad_rho():
    M = geometry.euclidean(3)
    with pytest.raises(DomainError):
        M.drift(0.0)
    with pytest.raises(DomainError):
        M.drift(-1.0)


def test_drift_vectorized(probe_rhos):
    M = geometry.hyperbolic(3)
    vals = M.drift(probe_rhos)
    assert vals.shape == probe_rhos.shape
    assert np.all(np.isfinite(vals))


# -- curvature ------------------------------------------------------------------


def test_curvature_euclidean_zero(probe_rhos):
    cur = geometry.euclidean(4).curvature(probe_rhos)
    assert np.all(cur.sectional == 0.0)
    assert np.all(cur.ricci_radial == 0.0)


def test_curvature_hyperbolic_constant():
    cur = geometry.hyperbolic(2).curvature(2.5)
    assert cur.sectional == pytest.approx(-1.0, rel=1e-14)


def test_curvature_quad_critical_symbolic():
    _, f2 = symbolic_ratios(RHO * sp.exp(RHO**2))
    M = geometry.quad_critical(1.0, 3)
    cur = M.curvature(1.0)
    assert cur.sectional == pytest.approx(-float(f2(1.0)), rel=1e-12)
    assert cur.sectional == pytest.approx(-10.0, rel=1e-12)
    assert cur.ricci_radial == pytest.approx(-20.0, rel=1e-12)


def test_curvature_log_critical_symbolic(probe_rhos):
    f1, f2 = symbolic_ratios(SYMBOLIC["log-critical"])
    M = geometry.log_critical(1.0, 2)
    sub = probe_rhos[::25]
    got = M.curvature(sub).sectional
    want = -np.array([float(f2(r)) for r in sub])
    assert np.allclose(got, want, rtol=1e-9)
    got1 = M.drift(sub)
    want1 = np.array([float(f1(r)) for r in sub])
    assert np.allclose(got1, want1, rtol=1e-9)


def test_ricci_is_dim_times_sectional(all_builtins, probe_rhos):
    for M in all_builtins:
        cur = M.curvature(probe_rhos)
        assert np.allclose(cur.ricci_radial, (M.dim - 1) * cur.sectional, rtol=0, atol=1e-14)
        assert np.all(cur.sectional <= 1e-14)


# -- class A and the rho -> inf limits ----------------------------------------------


def test_builtins_are_class_a(probe_rhos):
    # class A: psi -> 0 and psi' -> 1 at the origin; psi'' >= 0 (nonpositive
    # sectional curvature), in mpmath, where exp(rho^2) cannot overflow
    for kind, psi in SYMBOLIC.items():
        assert sp.limit(psi, RHO, 0, "+") == 0, kind
        assert sp.limit(sp.diff(psi, RHO), RHO, 0, "+") == 1, kind
        d2 = sp.lambdify(RHO, sp.diff(psi, RHO, 2), "mpmath")
        assert all(d2(mpmath.mpf(float(r))) >= 0 for r in probe_rhos), kind


@pytest.mark.parametrize("kind", list(SYMBOLIC))
def test_tail_limits_match_sympy_limits(kind):
    psi, M = SYMBOLIC[kind], BUILT[kind]
    nm1, half = M.dim - 1, sp.Rational(M.dim, 2)
    r1, r2 = sp.diff(psi, RHO) / psi, sp.diff(psi, RHO, 2) / psi
    log_area = sp.log(2 * sp.pi**half / sp.gamma(half)) + nm1 * sp.expand_log(sp.log(psi), force=True)
    ratios = {
        "drift": RHO * nm1 * r1 / (1 + RHO**2),
        "ricci": nm1 * r2 / (1 + RHO**2),
        "sect": r2 / RHO**2,
        "volume": log_area * sp.log(RHO) / RHO**2,
    }
    assert set(M.tail_limits) == set(ratios)
    for name, ratio in ratios.items():
        want = sp.limit(ratio, RHO, sp.oo)
        got = M.tail_limits[name]
        if want == sp.oo:
            assert got is None, (name, got)
        else:
            assert got == pytest.approx(float(want), rel=1e-14, abs=1e-300), (name, want)


# -- closed-form ratios --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic", "quad-critical", "log-critical"])
def test_fd_fallback_matches_closed_forms(kind):
    # the built-ins' closed-form psi'/psi and psi''/psi against sympy's
    # derivatives of the same psi
    built = BUILT[kind]
    f1, f2 = symbolic_ratios(SYMBOLIC[kind])
    for rho in (0.05, 0.7, 1.0, 3.0, 8.0):
        assert float(built.ratio1(rho)) == pytest.approx(float(f1(rho)), rel=1e-12)
        assert float(built.ratio2(rho)) == pytest.approx(float(f2(rho)), rel=1e-12)


# -- surface measure ---------------------------------------------------------------


def test_surface_measure_euclidean_unit_sphere():
    got = math.exp(geometry.euclidean(3).log_surface_measure(1.0))
    assert got == pytest.approx(4 * math.pi, rel=1e-12)


def test_surface_measure_hyperbolic():
    got = math.exp(geometry.hyperbolic(2).log_surface_measure(1.0))
    assert got == pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-12)


@pytest.mark.parametrize("r", np.geomspace(1e-8, 1.0, 9).tolist())
def test_hyperbolic_log_psi_keeps_full_precision_near_the_origin(r):
    exact = float(sp.log(sp.sinh(sp.Float(r, 40))))
    assert float(geometry.hyperbolic(2).log_psi(r)) == pytest.approx(exact, rel=1e-14)


def test_surface_measure_log_critical_satisfies_volume_envelope():
    M = geometry.log_critical(1.0, 2)
    consts = geometry.fit_comparison_constants(M)
    assert consts.c_m is not None
    for R in (5.0, 10.0, 100.0, 900.0):
        assert M.log_surface_measure(R) <= consts.c_m * R**2 / math.log(R) + 1e-9


# -- comparison constants ------------------------------------------------------------


def test_constants_euclidean_match_brute_force():
    M = geometry.euclidean(3)
    consts = geometry.fit_comparison_constants(M)
    # brute force over the probe grid: sup of rho*m/(1+rho^2) is 2 at rho->0
    rho = geometry.probe_grid(1e3, 4096)
    sup = max(float(np.max(rho * M.drift(rho) / (1 + rho**2))), 2.0)
    assert consts.c_prime == pytest.approx((1 + 1e-3) * sup, rel=1e-12)
    assert consts.c_prime == pytest.approx(2.0 * (1 + 1e-3), rel=1e-12)
    assert consts.c_double_prime is None
    assert consts.c_o == 0.0


def test_constants_quad_exact_identity(quad_constants):
    # rho*m(rho) = 2 (1+rho^2) exactly for c = 0.5, N = 3
    assert quad_constants.c_prime == pytest.approx(2.0 * (1 + 1e-3), rel=1e-12)
    assert quad_constants.c_double_prime == pytest.approx(2.0 * (1 - 1e-3), rel=1e-12)
    assert quad_constants.k_o == pytest.approx(1.0 * (1 - 1e-3), rel=1e-12)
    assert quad_constants.c_m is None


def test_constants_hyperbolic_lower_bound_absent():
    consts = geometry.fit_comparison_constants(geometry.hyperbolic(2))
    assert consts.c_double_prime is None  # rho*coth(rho)/(1+rho^2) -> 0


def test_certified_sandwich_on_probes(all_builtins):
    for M in [*all_builtins, geometry.log_critical(0.3, 4)]:
        consts = geometry.fit_comparison_constants(M)
        rho = geometry.probe_grid(1e3, 2048)
        drift = M.drift(rho)
        assert np.all(drift <= consts.c_prime * (1 + rho**2) / rho + 1e-12)
        assert np.all(drift >= (M.dim - 1) / rho - 1e-10)  # Euclidean floor
        if consts.c_double_prime is not None:
            assert np.all(drift >= consts.c_double_prime * (1 + rho**2) / rho - 1e-12)

        # the fits probe up to rho = 1e3; past that, only the analytic
        # tails stand behind the constants
        rho = np.geomspace(1e3, 1e8, 2001)
        ratio = rho * M.drift(rho) / (1 + rho**2)
        assert np.all(ratio <= consts.c_prime), M.kind
        if consts.c_double_prime is not None:
            assert np.all(ratio >= consts.c_double_prime), M.kind
        curv = M.curvature(rho)
        assert np.all(-curv.ricci_radial / (1 + rho**2) <= consts.c_o), M.kind
        if consts.k_o is not None:
            assert np.all(-curv.sectional / rho**2 >= consts.k_o), M.kind
        if consts.c_m is not None:
            vol = M.log_surface_measure(rho) * np.log(rho) / rho**2
            assert np.all(vol <= consts.c_m), M.kind


def test_fit_preconditions():
    M = geometry.euclidean(2)
    with pytest.raises(DomainError):
        geometry.fit_comparison_constants(M, rho_max=5.0)
    with pytest.raises(DomainError):
        geometry.fit_comparison_constants(M, n_probe=10)
    geometry.probe_grid(geometry.MAX_RHO_MAX, 10)
    with pytest.raises(DomainError, match="at most 1e\\+150"):
        geometry.fit_comparison_constants(M, rho_max=math.nextafter(geometry.MAX_RHO_MAX, math.inf))


def test_make_manifold_dispatch():
    M = geometry.make_manifold("quad-critical", 3, 0.5)
    assert M.kind == "quad-critical" and M.c == 0.5
    for kind in ("euclidean", "hyperbolic"):
        assert geometry.make_manifold(kind, 3).c is None
        with pytest.raises(DomainError):
            geometry.make_manifold(kind, 3, 0.5)
    with pytest.raises(DomainError):
        geometry.make_manifold("quad-critical", 3, None)
    with pytest.raises(DomainError):
        geometry.make_manifold("nope", 3, None)
