"""Weighted norm family: definition-level examples plus invariants.

Property tests cover monotonicity in the weight offset, homogeneity, the
reproducing bound and the ordering against the asymptotic ratio.  Note the
asymptotic ratio is measured against (log rho)^(1/(m-1)) while the norms use
log(r^2 + rho^2) ~ 2 log rho, so the norm family decreases to
2^(-1/(m-1)) times the ratio, not to the ratio itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme import xlog
from pme.errors import DomainError, NotApplicableError, TailMismatchError

GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 3000)))


def _datum_from_list(values, rho=None):
    rho = GRID[: len(values)] if rho is None else rho
    return xlog.RadialDatum(rho, np.asarray(values, dtype=float))


# -- log_norm examples ------------------------------------------------------------


def test_norm_of_weight_itself_is_one():
    n = xlog.LogNorm(3.0, 2.5)
    d = xlog.RadialDatum(GRID, n.weight(GRID))
    assert xlog.log_norm(d, n) == pytest.approx(1.0, abs=0)


def test_norm_of_constant_log4_attained_at_origin():
    n = xlog.LogNorm(2.0, 2.0)
    d = xlog.RadialDatum(GRID, np.full_like(GRID, np.log(4.0)))
    # sup at rho = 0 where the weight equals log 4
    assert xlog.log_norm(d, n) == pytest.approx(1.0, rel=1e-15)


def test_norm_with_log_growth_tail_reaches_half_amplitude():
    # the tail ratio (log rho / log(r^2+rho^2))^(1/(m-1)) increases to 1/2
    # for m = 2, so the exact tail supremum contributes b/2
    b = 3.0
    d = xlog.log_growth_datum(b, 2.0, GRID[1:])
    n = xlog.LogNorm(2.0, 2.0)
    got = xlog.log_norm(d, n)
    assert got == pytest.approx(b / 2.0, rel=1e-12)
    # grid-only sup approaches the same value from below as the grid extends
    bare = xlog.RadialDatum(d.rho, d.values)
    assert xlog.log_norm(bare, n) < got
    assert xlog.log_norm(bare, n) == pytest.approx(got, rel=1e-3)


def test_norm_empty_grid_rejected():
    with pytest.raises(DomainError):
        xlog.RadialDatum(np.array([]), np.array([]))


@pytest.mark.parametrize("node", [0, 1, 2])
def test_a_nan_node_fails_the_ordering(node):
    rho = np.array([1.0, 2.0, 3.0])
    rho[node] = np.nan
    with pytest.raises(DomainError, match="strictly increasing"):
        xlog.RadialDatum(rho, np.ones(3))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "form, field",
    [("log-growth", "amplitude"), ("log-growth", "rho_start"), ("log-growth", "m"),
     ("bounded", "amplitude"), ("bounded", "rho_start")],
)
def test_tail_descriptor_rejects_a_non_finite_field(form, field, value):
    valid = {"amplitude": 1.0, "rho_start": 3.0, "m": 2.0 if form == "log-growth" else None}
    xlog.TailDescriptor(form, **valid)
    with pytest.raises(DomainError):
        xlog.TailDescriptor(form, **{**valid, field: value})


def test_tail_mismatch_detected():
    rho = GRID[1:]
    vals = xlog.log_growth_profile(1.0, 2.0)(rho)
    vals[-1] *= 1.001
    with pytest.raises(TailMismatchError):
        xlog.RadialDatum(rho, vals, tail=xlog.TailDescriptor("log-growth", 1.0, 3.0, m=2.0))


# -- limsup ratio -----------------------------------------------------------------


def test_limsup_bounded_data_is_zero():
    d = xlog.bounded_datum(7.0, GRID[1:])
    assert xlog.limsup_ratio(d) == 0.0


def test_limsup_log_growth_is_amplitude():
    d = xlog.log_growth_datum(0.7, 2.0, GRID[1:])
    assert xlog.limsup_ratio(d) == 0.7


def test_limsup_of_shifted_weight_without_descriptor():
    # f = log(4 + rho^2) grows like 2 log rho, but no grid reaches rho -> inf:
    # without a tail descriptor there is no ratio, however far the samples go
    rho = np.geomspace(1.0, 1e6, 4000)
    d = xlog.RadialDatum(rho, np.log(4.0 + rho**2))
    with pytest.raises(NotApplicableError):
        xlog.limsup_ratio(d)
    for m in (None, 2.0):
        with pytest.raises(NotApplicableError):
            xlog.norm_limit(d, m)


def test_limsup_requires_reach_or_descriptor():
    rho = np.geomspace(1.0, 100.0, 50)
    d = xlog.RadialDatum(rho, np.ones_like(rho))
    with pytest.raises(NotApplicableError):
        xlog.limsup_ratio(d)
    with pytest.raises(NotApplicableError):
        xlog.norm_limit(d, 2.0)


def test_norm_limit_is_half_ratio_for_m2():
    d = xlog.log_growth_datum(1.0, 2.0, GRID[1:])
    assert xlog.norm_limit(d) == pytest.approx(0.5, rel=1e-14)
    assert xlog.norm_limit(d, 2.0) == xlog.norm_limit(d)
    with pytest.raises(DomainError):
        xlog.norm_limit(d, 3.0)  # the tail's own exponent is 2


# -- invariants (property tests) ----------------------------------------------------


@st.composite
def datums(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    vals = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return _datum_from_list(vals)


@given(datums(), st.floats(min_value=2.0, max_value=50.0), st.floats(min_value=2.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_norm_nonincreasing_in_r(d, r1, r2):
    m = 2.0
    lo, hi = sorted((r1, r2))
    n_lo, n_hi = xlog.LogNorm(lo, m), xlog.LogNorm(hi, m)
    assert xlog.log_norm(d, n_lo) >= xlog.log_norm(d, n_hi) * (1 - 1e-12)


@given(datums(), st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_norm_homogeneity(d, lam):
    n = xlog.LogNorm(2.0, 3.0)
    scaled = xlog.RadialDatum(d.rho, lam * d.values)
    a, b = xlog.log_norm(scaled, n), lam * xlog.log_norm(d, n)
    assert a == pytest.approx(b, rel=1e-13, abs=1e-300)


@given(datums())
@settings(max_examples=200, deadline=None)
def test_reproducing_bound(d):
    n = xlog.LogNorm(2.0, 2.0)
    norm = xlog.log_norm(d, n)
    bound = norm * n.weight(d.rho)
    assert np.all(np.abs(d.values) <= bound * (1 + 1e-12) + 1e-12)


def test_reproducing_bound_absolute_at_unit_scale():
    n = xlog.LogNorm(2.0, 2.0)
    rho = GRID
    vals = np.sin(rho / (1.0 + rho)) + 0.3 * np.log1p(rho)
    d = xlog.RadialDatum(rho, vals)
    norm = xlog.log_norm(d, n)
    assert np.all(np.abs(vals) <= norm * n.weight(rho) + 1e-12)


@pytest.mark.parametrize("b", [0.25, 1.0, 5.0])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_ratio_scaled_by_half_power_below_every_norm(b, m):
    d = xlog.log_growth_datum(b, m, GRID[1:])
    ratio = xlog.limsup_ratio(d)
    scaled = ratio * 2.0 ** (-1.0 / (m - 1.0))
    for r in (2.0, 4.0, 16.0, 256.0):
        assert scaled <= xlog.log_norm(d, xlog.LogNorm(r, m)) * (1 + 1e-12)


def test_norm_family_decreases_to_norm_limit():
    d = xlog.log_growth_datum(2.0, 2.0, GRID[1:])
    limit = xlog.norm_limit(d)
    norms = [xlog.log_norm(d, xlog.LogNorm(r, 2.0)) for r in (2.0, 8.0, 64.0, 1024.0)]
    assert all(a >= b * (1 - 1e-12) for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(limit, rel=1e-6)
    assert all(n >= limit * (1 - 1e-12) for n in norms)
