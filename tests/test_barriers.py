"""Barrier profiles and certificates against independent oracles.

The closed-form radial Laplacian is checked against central differences;
the closed-form subsolution offset and eta decay constant against the scans
they replaced and a brute-force scan; the decay product against direct
evaluation in log space.
"""

import dataclasses
import json
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pme import barriers, cli, geometry, xlog
from pme.errors import CertificateError, DomainError, NotApplicableError


def fd_laplacian(p, manifold, rho, h=1e-5):
    """Central-difference radial Laplacian of W^m (independent oracle).

    Evaluated in extended precision so the second difference is not
    drowned by cancellation at the small step.
    """

    def wm(x):
        x = np.longdouble(x)
        return np.log(np.longdouble(p.r) ** 2 + x * x) ** (p.m / (p.m - 1.0)) * (
            np.longdouble(p.amplitude) ** p.m
        )

    hh = np.longdouble(h * max(1.0, rho))
    rho = np.longdouble(rho)
    second = (wm(rho + hh) - 2 * wm(rho) + wm(rho - hh)) / hh**2
    first = (wm(rho + hh) - wm(rho - hh)) / (2 * hh)
    return float(second + np.longdouble(manifold.drift(float(rho))) * first)


# -- supersolution amplitude ---------------------------------------------------


def test_amplitude_closed_form_values():
    assert barriers.supersolution_amplitude(3.0, 2.0) == pytest.approx(1 / 24, rel=1e-15)
    assert barriers.supersolution_amplitude(1.0, 3.0) == pytest.approx(18.0**-0.5, rel=1e-15)


def test_amplitude_decreasing_in_cprime():
    vals = [barriers.supersolution_amplitude(c, 2.0) for c in (0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_supersolution_params_are_the_unit_horizon_profile(quad_constants, m):
    a = barriers.supersolution_amplitude(quad_constants.c_prime, m)
    assert barriers.supersolution_params(quad_constants, m) == barriers.BarrierParams(a, 2.0, 1.0, m)


# -- radial Laplacian of the profile ---------------------------------------------


@pytest.mark.parametrize(
    "manifold,rho",
    [
        (geometry.euclidean(2), 1.0),
        (geometry.euclidean(3), 0.37),
        (geometry.hyperbolic(2), 2.0),
        (geometry.quad_critical(1.0, 3), 2.0),
        (geometry.log_critical(1.0, 2), 5.0),
    ],
)
def test_laplacian_matches_difference_quotients(manifold, rho):
    p = barriers.BarrierParams(amplitude=1.0, r=2.0, horizon=1.0, m=2.0)
    got = barriers.laplacian_wm(p, manifold, rho)
    want = fd_laplacian(p, manifold, rho)
    assert got == pytest.approx(want, rel=1e-6)


def test_laplacian_m3_matches_difference_quotients():
    p = barriers.BarrierParams(amplitude=0.7, r=3.0, horizon=1.0, m=3.0)
    M = geometry.quad_critical(0.5, 3)
    got = barriers.laplacian_wm(p, M, 1.5)
    assert got == pytest.approx(fd_laplacian(p, M, 1.5), rel=1e-6)


def test_laplacian_bounded_at_origin():
    # (W^m)' vanishes linearly, so the drift term stays bounded as rho -> 0
    p = barriers.BarrierParams(amplitude=1.0, r=2.0, horizon=1.0, m=2.0)
    M = geometry.euclidean(3)
    vals = [barriers.laplacian_wm(p, M, rho) for rho in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(np.isfinite(v) for v in vals)
    assert abs(vals[-1] - vals[-2]) < 1e-6 * abs(vals[-1])


# -- supersolution certificate ----------------------------------------------------


@pytest.mark.parametrize(
    "manifold",
    [geometry.euclidean(2), geometry.quad_critical(0.5, 3), geometry.log_critical(1.0, 2)],
)
def test_supersolution_certificate_passes(manifold):
    consts = geometry.fit_comparison_constants(manifold)
    a = barriers.supersolution_amplitude(consts.c_prime, 2.0)
    p = barriers.BarrierParams(amplitude=a, r=2.0, horizon=1.0, m=2.0)
    rep = barriers.certify_supersolution(p, manifold, consts)
    assert rep.passed
    assert rep.min_residual >= -barriers.RESIDUAL_TOL
    assert rep.details["amplitude_condition_ok"]


def test_supersolution_certificate_with_oversized_constant():
    # any upper constant dominating the true drift envelope works; here the
    # flat model in dimension 2 checked with the constant fitted for N = 3
    M = geometry.euclidean(2)
    c_prime = 2.0 * (1 + 1e-3)
    a = barriers.supersolution_amplitude(c_prime, 2.0)
    p = barriers.BarrierParams(amplitude=a, r=2.0, horizon=1.0, m=2.0)

    class Consts:
        pass

    consts = Consts()
    consts.c_prime = c_prime
    rep = barriers.certify_supersolution(p, M, consts)
    assert rep.passed


def test_supersolution_certificate_fails_for_tenfold_amplitude(quad_manifold, quad_constants):
    a = barriers.supersolution_amplitude(quad_constants.c_prime, 2.0)
    p = barriers.BarrierParams(amplitude=10 * a, r=2.0, horizon=1.0, m=2.0)
    rep = barriers.certify_supersolution(p, quad_manifold, quad_constants)
    assert not rep.passed
    assert rep.min_residual < 0
    assert np.isfinite(rep.argmin_rho)


def test_supersolution_stability_under_halved_amplitude(quad_manifold, quad_constants):
    a = barriers.supersolution_amplitude(quad_constants.c_prime, 2.0)
    for amp in (a, a / 2.0):
        p = barriers.BarrierParams(amplitude=amp, r=2.0, horizon=1.0, m=2.0)
        assert barriers.certify_supersolution(p, quad_manifold, quad_constants).passed


# -- subsolution parameters ---------------------------------------------------------


def brute_force_min_r(c_dd, r_max=40):
    """Scan integer offsets with a dense grid (independent oracle)."""
    rho = np.linspace(0.0, 200.0, 400001)
    x = rho**2
    for r in range(2, r_max):
        if np.min(c_dd / 2.0 * (1 + x) + 1.0 - 2.0 * x / (r * r + x)) >= 0:
            return r
    return None


class FakeConsts:
    def __init__(self, c_dd):
        self.c_double_prime = c_dd


@pytest.mark.parametrize("c_dd,expected_a", [(2.0, 1.0)])
def test_subsolution_params_reference_case(c_dd, expected_a):
    p = barriers.subsolution_params(FakeConsts(c_dd), 2.0)
    assert p.r == brute_force_min_r(c_dd) == 2
    assert p.amplitude == pytest.approx(expected_a, rel=1e-15)


@pytest.mark.parametrize("c_dd", [0.1, 0.05, 0.01])
def test_subsolution_params_match_brute_force(c_dd):
    p = barriers.subsolution_params(FakeConsts(c_dd), 2.0)
    assert p.r == brute_force_min_r(c_dd)
    assert p.amplitude == pytest.approx((p.r**2 / (c_dd * 2.0)) ** 1.0, rel=1e-15)


def old_subsolution_scan(c_dd, m):
    """The search the closed-form offset replaced: the first r = 2, 3, ...
    whose float minimum of h at 0 and at the critical point is >= 0 and
    whose probe grid finds no negative value."""
    x = geometry.probe_grid(1e3, 4096) ** 2
    for r in range(2, 1025):
        x_star = math.sqrt(4.0 * r * r / c_dd) - r * r
        candidates = [0.0, x_star] if x_star > 0 else [0.0]
        if min(c_dd / 2.0 * (1.0 + y) + 1.0 - 2.0 * y / (r * r + y) for y in candidates) < 0.0:
            continue
        if np.min(c_dd / 2.0 * (1.0 + x) + 1.0 - 2.0 * x / (r * r + x)) >= 0.0:
            return barriers.BarrierParams((r * r / (c_dd * m)) ** (1.0 / (m - 1.0)), float(r), 1.0, m)
    return None


@given(
    log_c=st.floats(min_value=math.log(1e-6), max_value=math.log(100.0)),
    m=st.floats(min_value=1.05, max_value=6.0),
)
@settings(max_examples=300, deadline=None)
def test_subsolution_params_are_the_old_scans(log_c, m):
    c_dd = math.exp(log_c)
    assert barriers.subsolution_params(FakeConsts(c_dd), m) == old_subsolution_scan(c_dd, m)


@pytest.mark.parametrize("c_dd", [1e-7, 1e-9, 1e-12])
def test_subsolution_params_reach_offsets_past_the_old_cap(c_dd):
    # the scan stopped at r = 1024, about C'' = 3.3e-7; the closed form has
    # no cap, and its r is the smallest with h >= 0 at the critical point
    p = barriers.subsolution_params(FakeConsts(c_dd), 2.0)
    r, sq = p.r, math.sqrt(c_dd)

    def h_min(r):
        return 1.0 + c_dd / 2.0 - (2.0 - r * sq) ** 2 / 2.0 if r * sq < 2.0 else 1.0 + c_dd / 2.0

    assert r > 1024 and h_min(r) >= 0.0 > h_min(r - 1)
    assert p.amplitude == (r * r / (c_dd * 2.0)) ** 1.0


def test_subsolution_params_require_lower_bound():
    consts = geometry.fit_comparison_constants(geometry.hyperbolic(2))
    with pytest.raises(NotApplicableError):
        barriers.subsolution_params(consts, 2.0)


def test_subsolution_certificate(quad_manifold, quad_constants):
    p = barriers.subsolution_params(quad_constants, 2.0)
    rep = barriers.certify_subsolution(p, quad_manifold)
    assert rep.passed
    assert rep.min_residual >= -barriers.RESIDUAL_TOL


def test_certificates_reject_an_empty_grid(quad_manifold, quad_constants):
    sub = barriers.subsolution_params(quad_constants, 2.0)
    p = barriers.BarrierParams(sub.amplitude, sub.r, horizon=4.0, m=2.0)
    empty = np.array([])
    for certify in (
        lambda: barriers.certify_supersolution(p, quad_manifold, quad_constants, empty),
        lambda: barriers.certify_subsolution(p, quad_manifold, empty),
    ):
        with pytest.raises(DomainError):
            certify()


def test_the_sub_residual_is_plus_zero_where_the_laplacian_term_equals_w(monkeypatch, quad_manifold, quad_constants):
    # (lap - w) / (|w| + |lap|) is +0.0 at a node where (m-1) Lap(W^m) == W
    # in floats; the negated super residual, -((w - lap) / ...), is -0.0
    # there, and a written min_residual would change sign
    p = barriers.subsolution_params(quad_constants, 2.0)  # m - 1 = 1: the patched Lap is the term
    rho, k = np.geomspace(0.1, 100.0, 50), 17

    def laplacian_wm(params, manifold, nodes):
        w = params.profile_unit(nodes)
        return np.where(np.arange(nodes.size) == k, w, 2.0 * w)

    monkeypatch.setattr(barriers, "laplacian_wm", laplacian_wm)
    rep = barriers.certify_subsolution(p, quad_manifold, rho)
    assert rep.argmin_rho == rho[k] and rep.passed
    assert rep.min_residual == 0.0 and math.copysign(1.0, rep.min_residual) == 1.0


@pytest.mark.parametrize("amplitude, horizon", [(0.0, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_barrier_params_name_the_amplitude_horizon_and_m_they_reject(amplitude, horizon):
    want = f"amplitude {amplitude!r} and horizon {horizon!r} at m=1.001 must be positive and finite"
    with pytest.raises(DomainError, match=re.escape(want)):
        barriers.BarrierParams(amplitude, 2.0, horizon, 1.001)


# -- shifted subsolution -------------------------------------------------------------


def test_shift_zero_is_identity(quad_constants):
    p = barriers.subsolution_params(quad_constants, 2.0)
    p = barriers.BarrierParams(p.amplitude, p.r, horizon=4.0, m=2.0)
    rho = np.geomspace(0.01, 50, 200)
    assert np.allclose(barriers.shifted_subsolution(p, 0.0, rho), p.at_horizon(p.profile_unit(rho)), rtol=0)


def test_shift_flattens_at_matching_level(quad_constants):
    p = barriers.subsolution_params(quad_constants, 2.0)
    p = barriers.BarrierParams(p.amplitude, p.r, horizon=4.0, m=2.0)
    rho_star = 3.0
    delta = float(p.at_horizon(p.profile_unit(rho_star)) ** p.m)
    assert barriers.shifted_subsolution(p, delta, rho_star) == 0.0
    assert barriers.shifted_subsolution(p, delta, 2 * rho_star) > 0.0


SHIFT_RHO = geometry.probe_grid(1e3, 500)


@st.composite
def shifted_profiles(draw):
    """A built-in model, a profile of any amplitude, offset r >= 2, horizon T
    and exponent m, and a shift delta in [0, max W_T^m] (0 drawn on its own)."""
    kind = draw(st.sampled_from(sorted(geometry.BUILTIN_FAMILIES)))
    c = draw(st.floats(0.1, 2.0)) if kind in ("quad-critical", "log-critical") else None
    manifold = geometry.make_manifold(kind, draw(st.integers(2, 5)), c)
    p = barriers.BarrierParams(
        amplitude=10 ** draw(st.floats(-2.0, math.log10(5.0))),
        r=draw(st.floats(2.0, 20.0)),
        horizon=10 ** draw(st.floats(-4.0, 2.0)),
        m=draw(st.floats(1.05, 4.0)),
    )
    top = float(np.max(p.at_horizon(p.profile_unit(SHIFT_RHO)) ** p.m))
    delta = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True).map(lambda f: f * top))
    return manifold, p, delta


@given(shifted_profiles())
@settings(max_examples=200, deadline=None)
def test_shift_keeps_the_unit_profile_residual(case):
    # Why no stage certifies its own shifted subsolution V (barriers module
    # docstring): where W_T^m > delta, Lap(V^m) = Lap(W_T^m) = T^(-m/(m-1))
    # Lap(W_1^m) and V <= W_T, so the residual of V <= (m-1) T Lap(V^m) is
    # at least that of W_1 <= (m-1) Lap(W_1^m), which certify_subsolution
    # reports.  At delta = 0 the two are one quantity rounded two ways; the
    # allowance of 32 eps is about three times the worst gap seen (2.5e-15).
    manifold, p, delta = case
    rho = SHIFT_RHO[p.at_horizon(p.profile_unit(SHIFT_RHO)) ** p.m > delta]
    assume(rho.size > 0)
    lap = barriers.laplacian_wm(p, manifold, rho)  # of the unit profile W_1^m
    w = p.profile_unit(rho)
    unit = ((p.m - 1.0) * lap - w) / (np.abs(w) + np.abs((p.m - 1.0) * lap))
    assert np.min(unit) == barriers.certify_subsolution(p, manifold, rho).min_residual
    v = barriers.shifted_subsolution(p, delta, rho)
    rhs = (p.m - 1.0) * p.horizon * lap / p.horizon ** (p.m / (p.m - 1.0))
    shifted = (rhs - v) / (np.abs(v) + np.abs(rhs))
    assert np.all(shifted >= unit - 32 * np.finfo(float).eps)


def test_shift_rejects_negative_delta(quad_constants):
    p = barriers.subsolution_params(quad_constants, 2.0)
    with pytest.raises(DomainError):
        barriers.shifted_subsolution(p, -1.0, 3.0)


barrier_params = st.builds(
    barriers.BarrierParams,
    amplitude=st.floats(1e-3, 50.0),
    r=st.floats(2.0, 30.0),
    horizon=st.floats(1e-4, 100.0),
    m=st.sampled_from([2.0, 3.0]) | st.floats(1.05, 6.0),
)


@given(
    barrier_params,
    st.just(0.0) | st.floats(0.0, 5.0) | st.floats(1e-3, 1e6),
    st.floats(0.0, 200.0) | st.integers(0, 50),
)
@settings(max_examples=400, deadline=None)
def test_a_float_radius_is_the_bits_of_its_array_entry(p, delta, rho):
    # a float radius is the 0-d case of the array code, each power an
    # np.power call, so a stage's boundary datum at R and its subsolution on
    # the cells are one function in floats, shifts that clip to 0 included;
    # and so are the one weight w_r and the log-growth datum of p's m
    functions = (
        lambda x: barriers.shifted_subsolution(p, delta, x),
        p.norm.weight,
        xlog.log_growth_datum(delta, p.m).profile,
    )
    for f in functions:
        with np.errstate(all="ignore"):
            got = f(rho)
            entry = f(np.array([rho, 1.0]))[0]
        assert isinstance(got, float)
        assert np.array([got]).tobytes() == np.array([entry]).tobytes()


ETA_PARAMS = barriers.EtaBarrierParams(decay=0.2, scale=1.5, horizon=0.5, inner_radius=2.0, coeff_bound=1.0)


def _eta_of_radius(rho):
    return barriers.eta(ETA_PARAMS, 2.0 + rho, 0.3)


def _eta_derivative(k):
    """The k-th of ``eta_derivatives`` (eta, eta_t, eta_rho, eta_rhorho) at
    the radius 2 + rho."""
    return lambda rho: barriers.eta_derivatives(ETA_PARAMS, 2.0 + rho, 0.3)[k]


FLOAT_CASES = {
    "drift": lambda rho: geometry.log_critical(0.3, 2).drift(rho),
    "curvature": lambda rho: geometry.log_critical(0.3, 2).curvature(rho),
    "laplacian_wm": lambda rho: barriers.laplacian_wm(
        barriers.BarrierParams(0.3, 2.5, 1.0, 2.7), geometry.quad_critical(0.5, 3), rho
    ),
    "eta": _eta_of_radius,
    **{f"eta_derivatives[{k}]": _eta_derivative(k) for k in range(4)},
    "shifted_subsolution": lambda rho: barriers.shifted_subsolution(
        barriers.BarrierParams(0.3, 2.5, 0.7, 2.7), 0.01, rho
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
@given(rho=st.floats(1e-3, 300.0))
@settings(max_examples=100, deadline=None)
def test_a_float_argument_gives_the_bits_of_its_array_entry(name, rho):
    # one body serves a float and an array: no cast branch, no scalar path
    f = FLOAT_CASES[name]
    got = f(rho)
    entry = f(np.array([rho, 1.0]))[0]
    assert isinstance(got, float)
    assert np.array([got]).tobytes() == np.array([entry]).tobytes()


# -- separable structure and ordering ---------------------------------------------------


def test_separable_norm_growth_is_exact():
    p = barriers.BarrierParams(amplitude=0.05, r=2.0, horizon=0.1, m=2.0)
    rho = np.geomspace(1e-3, 1e3, 2000)
    n = xlog.LogNorm(2.0, 2.0)
    base = xlog.log_norm(xlog.table_datum(rho, p.at_horizon(p.profile_unit(rho))), n)
    for t in (0.0, 0.03, 0.09):
        vals = barriers.blowup_factor(p.horizon, p.m)(t) * p.at_horizon(p.profile_unit(rho))
        got = xlog.log_norm(xlog.table_datum(rho, vals), n)
        factor = (1 - t / p.horizon) ** -1.0
        assert got == pytest.approx(factor * base, rel=1e-13)


def test_supersolution_dominates_subsolution_for_canonical_datum(
    quad_manifold, quad_constants
):
    m = 2.0
    b = 1.0
    rho = np.geomspace(1e-3, 1e3, 4000)
    datum = xlog.log_growth_datum(b, m)
    u0 = datum.profile(rho)
    norm0 = xlog.log_norm(datum, xlog.LogNorm(2.0, m))
    a_sup = barriers.supersolution_amplitude(quad_constants.c_prime, m)
    T = a_sup ** (m - 1.0) * norm0 ** (1.0 - m)
    upper = barriers.BarrierParams(a_sup, 2.0, T, m)
    sub = barriers.subsolution_params(quad_constants, m)
    lower = barriers.BarrierParams(sub.amplitude, sub.r, horizon=4.0, m=m)
    delta = float(np.max(lower.at_horizon(lower.profile_unit(rho)) ** m - np.abs(u0) ** m))
    up0 = barriers.blowup_factor(upper.horizon, upper.m)(0.0) * upper.at_horizon(upper.profile_unit(rho))
    low0 = barriers.shifted_subsolution(lower, max(delta, 0.0), rho)
    assert np.all(up0 >= u0 - 1e-12)
    assert np.all(u0 >= low0 - 1e-12)
    assert np.all(up0 >= low0 - 1e-12)


# -- eta barrier ------------------------------------------------------------------------


def test_select_K_reference_value():
    # G* = 4 approached from below; margin 0.1 gives K = 1/4.4
    k = barriers.select_K(1.0)
    assert k == pytest.approx(1.0 / 4.4, rel=1e-12)
    # the bracket function starts near 0.62 at rho = 2
    g2 = math.log(4.0) * (2 * math.log(2.0) - 1) ** 2 / math.log(2.0) ** 3
    assert g2 == pytest.approx(0.62, abs=0.01)


def old_select_K(c2, inner_radius):
    """The search G* = 4 replaced: the max of g on 20,001 geometric radii of
    [R0, 1e6] and its limit 4 at infinity."""
    rho = np.geomspace(inner_radius, 1e6, 20001)
    g = np.log(2.0 + rho) * (2.0 * np.log(rho) - 1.0) ** 2 / np.log(rho) ** 3
    return 1.0 / ((1.0 + barriers.K_MARGIN) * c2 * max(float(np.max(g)), 4.0))


@given(
    log_c2=st.floats(min_value=math.log(1e-8), max_value=math.log(1e8)),
    log_r0=st.floats(min_value=math.log(2.0), max_value=math.log(1e5)),
)
@settings(max_examples=100, deadline=None)
def test_select_K_is_the_old_scan_bit_for_bit(log_c2, log_r0):
    c2 = math.exp(log_c2)
    assert barriers.select_K(c2).hex() == old_select_K(c2, math.exp(log_r0)).hex()


def test_eta_bracket_stays_below_four_on_the_whole_range():
    # g(rho) = log(2+rho) (2L-1)^2 / L^3 < 4 - (3L-1)/L^3 < 4, L = log rho,
    # in 50-digit arithmetic on [2, 1e300], where double logs would lose it
    with mpmath.workdps(50):
        for k in range(3001):
            rho = mpmath.mpf(2) * mpmath.power(10, mpmath.mpf(k) / 10)
            L = mpmath.log(rho)
            g = mpmath.log(2 + rho) * (2 * L - 1) ** 2 / L**3
            assert g < 4 - (3 * L - 1) / L**3 < 4, rho
        assert 4 - g < mpmath.mpf("1e-2")  # and it tends to 4


def test_eta_signs_and_scaling():
    p = barriers.EtaBarrierParams(0.2, 1.0, 1.0, 2.0, 1.0)
    e, e_t, e_r, _ = barriers.eta_derivatives(p, np.array([3.0, 10.0]), np.array([0.2, 0.2]))
    assert np.all(e_t < 0) and np.all(e_r < 0)
    p2 = barriers.EtaBarrierParams(0.2, 2.0, 1.0, 2.0, 1.0)
    assert barriers.eta(p2, 5.0, 0.1) == pytest.approx(2 * barriers.eta(p, 5.0, 0.1), rel=0)


def test_eta_certificate_on_grid():
    k = barriers.select_K(1.0)
    p = barriers.EtaBarrierParams(k, 1.0, 1.0, 2.0, 1.0)
    rep = barriers.certify_eta(p, dim=2)
    assert rep.passed
    assert rep.nodes == 10**4
    assert rep.details["signs_ok"]


def test_eta_certificate_fails_for_oversized_K():
    p = barriers.EtaBarrierParams(5.0, 1.0, 1.0, 2.0, 1.0)
    rep = barriers.certify_eta(p, dim=2)
    assert not rep.passed


@pytest.mark.parametrize("c2, rho_max", [(1e-4, 1e4), (1e-6, 1e150), (1e-12, 1e150)])
def test_an_eta_grid_with_no_live_node_fails(c2, rho_max):
    # K = 1/(4.4 C2) makes eta underflow to 0 on every node: no node was
    # checked, so the certificate fails, and the products that overflow at
    # those nodes give no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, rep = barriers.eta_certificate(c2, 2.0, 1.0, 2, rho_max=rho_max)
        e, *derivatives = barriers.eta_derivatives(
            barriers.EtaBarrierParams(k, 1.0, 1.0, 2.0, c2), np.array([3.0, rho_max]), np.array([0.0, 0.5])
        )
    assert not rep.passed and rep.min_residual == math.inf
    assert_certificate_error(rep, "eta certificate failed: eta is 0 on every node, so nothing was checked")
    assert np.all(e == 0.0) and all(np.all(d == 0.0) for d in derivatives)


def test_eta_derivatives_are_unchanged_where_eta_lives():
    # zeroing the dead nodes moves no live node's derivative
    p = barriers.EtaBarrierParams(0.2, 1.0, 1.0, 2.0, 1.0)
    rho, t = np.geomspace(2.5, 1e150, 400), np.linspace(0.0, 0.9, 400)
    e, e_t, e_r, e_rr = barriers.eta_derivatives(p, rho, t)
    live = e > 0.0
    assert 0 < live.sum() < live.size
    tau, L = 2.0 - t[live], np.log(rho[live])
    r, k, el = rho[live], p.decay, e[live]
    assert np.array_equal(e_t[live], -(k / tau) / tau * r**2 / L * el)
    assert np.array_equal(e_r[live], -k / tau * r * (2.0 * L - 1.0) / L**2 * el)
    poly = 2.0 * L**3 - 3.0 * L**2 + 2.0 * L
    assert np.array_equal(e_rr[live], -k * el / (tau * L**4) * (poly - k / tau * r**2 * (2.0 * L - 1.0) ** 2))


def test_eta_domain_checks():
    p = barriers.EtaBarrierParams(0.2, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        barriers.eta(p, 1.5, 0.1)
    with pytest.raises(DomainError):
        barriers.eta(p, 3.0, 2.0)
    with pytest.raises(DomainError):
        barriers.certify_eta(p, dim=1)
    with pytest.raises(DomainError, match="at most 1e\\+150"):
        barriers.certify_eta(p, rho_max=math.nextafter(geometry.MAX_RHO_MAX, math.inf))


VALID_PARAMS = {
    barriers.BarrierParams: {"amplitude": 1.0, "r": 2.0, "horizon": 1.0, "m": 2.0},
    barriers.EtaBarrierParams: {
        "decay": 0.2, "scale": 1.0, "horizon": 1.0, "inner_radius": 2.0, "coeff_bound": 1.0
    },
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, field",
    [(cls, field) for cls, valid in VALID_PARAMS.items() for field in valid],
    ids=lambda arg: getattr(arg, "__name__", None),
)
def test_barrier_params_reject_a_non_finite_field(cls, field, value):
    valid = VALID_PARAMS[cls]
    cls(**valid)
    with pytest.raises(DomainError):
        cls(**{**valid, field: value})


# -- decay product -----------------------------------------------------------------------


def test_decay_product_small_horizon_decays():
    f100, log_f = barriers.decay_product(1.0, 0.2, 0.05, 2.0, 100.0)
    assert f100 < 1e-30 and log_f == barriers.log_decay_product(1.0, 0.2, 0.05, 2.0, 100.0)
    logs = [barriers.log_decay_product(1.0, 0.2, 0.05, 2.0, R) for R in np.geomspace(10, 1e3, 40)]
    assert all(a > b for a, b in zip(logs, logs[1:]))


def test_decay_product_large_horizon_grows():
    assert barriers.decay_product(1.0, 0.2, 0.2, 2.0, 100.0)[0] > 1e10


def test_decay_product_is_inf_past_the_log_of_the_largest_double():
    # log F(100) = 719.6 lies between log(max double) = 709.78, past which
    # math.exp raises OverflowError, and 745
    f, log_f = barriers.decay_product(0.33, 1e-6, 0.05, 2.0, 100.0)
    assert 719.5 < log_f < 719.7 and f == math.inf
    assert math.isfinite(math.exp(barriers.LOG_FLOAT_MAX))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(barriers.LOG_FLOAT_MAX, math.inf))
    # below -745 math.exp returns 0.0 itself
    f, log_f = barriers.decay_product(1.0, 0.2, 0.01, 2.0, 100.0)
    assert f == 0.0 and log_f < -745.0


def test_decay_regime_boundary():
    assert barriers.decay_regime(1.0, 0.2, 0.05) == "decay"
    assert barriers.decay_regime(1.0, 0.2, 0.2) == "growth"
    assert barriers.decay_regime(1.0, 0.2, 0.1) == "boundary"


@pytest.mark.parametrize(
    "c_m, decay, horizon, regime",
    [
        # K/(2 C_M) = 1e309 overflows to inf, where |T - inf| <= 1e-12 inf held
        (1e-310, 0.2, 0.05, "decay"),
        (5e-324, 1.0, 1e308, "decay"),
        # 2 C_M overflows to inf, so K/(2 C_M) would be 0.0, below every T
        (1e308, 0.2, 1e-310, "decay"),
        (1e308, 0.2, 1e-300, "growth"),
        (sys.float_info.max, 1.0, 2.0**-1025, "boundary"),
    ],
)
def test_decay_regime_at_both_ends_of_the_float_range(c_m, decay, horizon, regime):
    assert barriers.decay_regime(c_m, decay, horizon) == regime


def test_a_report_at_a_huge_C_M_writes_the_critical_horizon_its_regime_reads():
    # 2 C_M overflows to inf, K/(2 C_M) = 1e-309 does not: critical_T lies
    # above T, as the decay regime says, not at 0.0
    rep = barriers.uniqueness_report(1e308, 0.2, 1e-310, 2.0, 1.0, 2.0, 2)
    assert rep.regime == "decay" and rep.critical_T > rep.T > 0.0


# -- each report's own verdict ----------------------------------------------------------


def assert_certificate_error(rep, message):
    with pytest.raises(CertificateError) as info:
        rep.validate()
    assert str(info.value) == message and info.value.exit_code == 3


def test_certificate_report_validate_names_the_failed_certificate(quad_manifold, quad_constants):
    a = barriers.supersolution_amplitude(quad_constants.c_prime, 2.0)
    p = barriers.BarrierParams(amplitude=10 * a, r=2.0, horizon=1.0, m=2.0)
    rep = barriers.certify_supersolution(p, quad_manifold, quad_constants)
    assert_certificate_error(
        rep, f"super certificate failed: residual {rep.min_residual:.3e} at rho={rep.argmin_rho:.6g}"
    )
    rep = barriers.certify_eta(barriers.EtaBarrierParams(5.0, 1.0, 1.0, 2.0, 1.0), dim=2)
    assert_certificate_error(
        rep, f"eta certificate failed: residual {rep.min_residual:.3e} at rho={rep.argmin_rho:.6g}"
    )
    sub = barriers.certify_subsolution(barriers.subsolution_params(quad_constants, 2.0), quad_manifold)
    assert sub.kind == "sub" and sub.validate()
    assert "kind" not in json.loads(cli._json_text(sub))


def test_uniqueness_report_derives_K_and_passes_in_the_decay_regime():
    rep = barriers.uniqueness_report(1.0, None, 0.05, 2.0, 1.0, 2.0, 2)
    assert rep.K == barriers.select_K(1.0)
    assert rep.critical_T == rep.K / 2.0 and rep.regime == "decay"
    assert rep.logF_at_100 == barriers.log_decay_product(1.0, rep.K, 0.05, 2.0, 100.0)
    assert rep.eta_certificate.passed and rep.validate()


@pytest.mark.parametrize(
    "c2, r0, horizon, dim, decay",
    [(1.0, 2.0, 0.05, 2, None), (0.5, 3.0, 1.0, 4, None), (1.0, 2.0, 0.2, 3, 0.2), (1.0, 2.0, 1.0, 2, 5.0)],
)
def test_eta_certificate_is_the_uniqueness_reports(c2, r0, horizon, dim, decay):
    k, rep = barriers.eta_certificate(c2, r0, horizon, dim, decay)
    assert k == (barriers.select_K(c2) if decay is None else decay)
    assert rep.params == {"K": k, "lambda": 1.0, "T": horizon, "R0": r0, "C2": c2}
    uniq = barriers.uniqueness_report(1.0, decay, horizon, 2.0, c2, r0, dim)
    assert uniq.K == k and uniq.eta_certificate == rep


def test_a_uniqueness_report_holds_its_eta_certificate_and_defers_to_it(monkeypatch):
    # the report keeps the very report eta_certificate returned, and its
    # validate raises that report's error, message and all
    k, rep = barriers.eta_certificate(1.0, 2.0, 0.05, 2, decay=5.0)
    monkeypatch.setattr(barriers, "eta_certificate", lambda *args: (k, rep))
    uniq = barriers.uniqueness_report(1.0, 5.0, 0.05, 2.0, 1.0, 2.0, 2)
    assert uniq.eta_certificate is rep and uniq.regime == "decay"
    with pytest.raises(CertificateError) as want:
        rep.validate()
    assert_certificate_error(uniq, str(want.value))


@pytest.mark.parametrize(
    "decay, horizon, message",
    [
        # K = 5 breaks the eta inequality while T = 1 < K/(2 C_M) = 2.5
        (5.0, 1.0, "eta certificate failed: residual -8.717e-01 at rho=28.7934"),
        (0.2, 0.2, "smallness condition fails: T=0.2 >= K/(2 C_M)=0.1"),
        (0.2, 0.1, "T sits exactly at K/(2 C_M): decay test inconclusive"),
        # K = 1e4 at T = 0.05 is in the decay regime, but eta is 0 on every node
        (1e4, 0.05, "eta certificate failed: eta is 0 on every node, so nothing was checked"),
    ],
)
def test_uniqueness_report_validate_raises_outside_its_certificates(decay, horizon, message):
    rep = barriers.uniqueness_report(1.0, decay, horizon, 2.0, 1.0, 2.0, 2)
    assert_certificate_error(rep, message)
    if decay == 5.0:
        assert rep.regime == "decay"
        passed = dataclasses.replace(rep.eta_certificate, passed=True)
        assert dataclasses.replace(rep, eta_certificate=passed).validate()
