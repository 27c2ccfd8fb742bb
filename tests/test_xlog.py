"""Weighted norm family: definition-level examples plus invariants.

Property tests cover monotonicity in the weight offset, homogeneity, the
reproducing bound, the ordering against the asymptotic ratio, and the closed
forms of ``log_norm`` against dense samples of each datum.  Note the
asymptotic ratio is measured against (log rho)^(1/(m-1)) while the norms use
log(r^2 + rho^2) ~ 2 log rho, so the norm family decreases to
2^(-1/(m-1)) times the ratio, not to the ratio itself.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme import geometry, xlog
from pme.errors import DomainError

GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 3000)))
EPS = sys.float_info.epsilon


def _datum_from_list(values):
    return xlog.table_datum(GRID[: len(values)], values)


# -- log_norm examples ------------------------------------------------------------


def test_norm_of_weight_itself_is_one():
    # up to the table bound: segment i contributes max(w_i, w_{i+1}) / w_i
    n = xlog.LogNorm(3.0, 2.5)
    w = n.weight(GRID)
    got = xlog.log_norm(xlog.table_datum(GRID, w), n)
    assert got == np.max(w[1:] / w[:-1])
    assert got == pytest.approx(1.0, rel=2e-3)


def test_norm_of_constant_log4_attained_at_origin():
    n = xlog.LogNorm(2.0, 2.0)
    d = xlog.table_datum(GRID, np.full_like(GRID, np.log(4.0)))
    # sup at rho = 0 where the weight equals log 4
    assert xlog.log_norm(d, n) == pytest.approx(1.0, rel=1e-15)


def test_norm_with_log_growth_tail_reaches_half_amplitude():
    # the tail ratio (log rho / log(r^2+rho^2))^(1/(m-1)) increases to 1/2
    # for m = 2, so the exact tail supremum contributes b/2
    b = 3.0
    d = xlog.log_growth_datum(b, 2.0)
    assert xlog.log_norm(d, xlog.LogNorm(2.0, 2.0)) == b / 2.0


def test_norm_empty_grid_rejected():
    with pytest.raises(DomainError):
        xlog.table_datum(np.array([]), np.array([]))


@pytest.mark.parametrize("node", [0, 1, 2])
def test_a_nan_node_fails_the_ordering(node):
    rho = np.array([1.0, 2.0, 3.0])
    rho[node] = np.nan
    with pytest.raises(DomainError, match="strictly increasing"):
        xlog.table_datum(rho, np.ones(3))


@pytest.mark.parametrize(
    "rho, values",
    [([-1.0, 2.0], [1.0, 1.0]), ([0.0, math.inf], [1.0, 1.0]), ([0.0, 2.0], [1.0, math.nan])],
    ids=["negative-radius", "infinite-radius", "nan-value"],
)
def test_table_rows_are_finite_from_rho_zero(rho, values):
    with pytest.raises(DomainError, match="finite, with radii >= 0"):
        xlog.table_datum(rho, values)


def test_a_table_past_the_largest_radius_is_refused_without_a_warning():
    # w(rho_N) forms rho^2, infinite past about 1.3e154: the table is refused
    # before the norm, and at the largest radius the norm is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^table radii must be at most 1e\+150, got 1e\+200$"):
            xlog.table_datum([0.0, 1e200], [1.0, 5.0])
        datum = xlog.table_datum([0.0, geometry.MAX_RHO_MAX], [1.0, 5.0])
        assert math.isfinite(xlog.log_norm(datum, xlog.LogNorm(2.0, 2.0)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "form, field",
    [("log-growth", "amplitude"), ("log-growth", "m"), ("bounded", "amplitude"), ("table", "amplitude")],
)
def test_tail_descriptor_rejects_a_non_finite_field(form, field, value):
    # the datum's closed form beyond its rows: its amplitude and, for log-growth, its m
    valid = {
        "amplitude": 1.0,
        "m": 2.0 if form == "log-growth" else None,
        "rows": (np.array([0.0, 1.0]), np.array([2.0, 1.0])) if form == "table" else None,
    }
    xlog.RadialDatum(np.abs, form, **valid)
    with pytest.raises(DomainError):
        xlog.RadialDatum(np.abs, form, **{**valid, field: value})


@pytest.mark.parametrize(
    "form, amplitude, m, match",
    [("tail", 1.0, None, "unknown datum form 'tail'"), ("bounded", -1.0, None, "nonnegative and finite"),
     ("log-growth", 1.0, None, "finite m > 1"), ("log-growth", 1.0, 1.0, "finite m > 1")],
)
def test_radial_datum_rejects_an_unknown_form_a_negative_amplitude_or_an_m_of_at_most_one(form, amplitude, m, match):
    with pytest.raises(DomainError, match=match):
        xlog.RadialDatum(np.abs, form, amplitude, m=m)


@pytest.mark.parametrize("form", ["log-growth", "bounded", "table"])
def test_a_datum_has_rows_if_and_only_if_it_is_a_table(form):
    m = 2.0 if form == "log-growth" else None
    rows = (np.array([0.0, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(DomainError, match="^a datum has rows if and only if it is a table$"):
        xlog.RadialDatum(np.abs, form, 1.0, m=m, rows=None if form == "table" else rows)


# -- limsup ratio -----------------------------------------------------------------


def test_limsup_bounded_data_is_zero():
    d = xlog.bounded_datum(7.0)
    assert xlog.limsup_ratio(d) == 0.0


def test_limsup_log_growth_is_amplitude():
    d = xlog.log_growth_datum(0.7, 2.0)
    assert xlog.limsup_ratio(d) == 0.7


def test_norm_limit_is_half_ratio_for_m2():
    d = xlog.log_growth_datum(1.0, 2.0)
    assert xlog.norm_limit(d, 2.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(DomainError, match="^datum exponent disagrees with m$"):
        xlog.norm_limit(d, 3.0)  # the datum's own exponent is 2


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
    rho, values = d.rows
    scaled = xlog.table_datum(rho, lam * values)
    a, b = xlog.log_norm(scaled, n), lam * xlog.log_norm(d, n)
    assert a == pytest.approx(b, rel=1e-13, abs=1e-300)


@given(datums())
@settings(max_examples=200, deadline=None)
def test_reproducing_bound(d):
    n = xlog.LogNorm(2.0, 2.0)
    norm = xlog.log_norm(d, n)
    rho, values = d.rows
    bound = norm * n.weight(rho)
    assert np.all(np.abs(values) <= bound * (1 + 1e-12) + 1e-12)


def test_reproducing_bound_absolute_at_unit_scale():
    n = xlog.LogNorm(2.0, 2.0)
    rho = GRID
    vals = np.sin(rho / (1.0 + rho)) + 0.3 * np.log1p(rho)
    d = xlog.table_datum(rho, vals)
    norm = xlog.log_norm(d, n)
    assert np.all(np.abs(vals) <= norm * n.weight(rho) + 1e-12)


@pytest.mark.parametrize("b", [0.25, 1.0, 5.0])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_ratio_scaled_by_half_power_below_every_norm(b, m):
    d = xlog.log_growth_datum(b, m)
    ratio = xlog.limsup_ratio(d)
    scaled = ratio * 2.0 ** (-1.0 / (m - 1.0))
    for r in (2.0, 4.0, 16.0, 256.0):
        assert scaled <= xlog.log_norm(d, xlog.LogNorm(r, m)) * (1 + 1e-12)


def test_norm_family_decreases_to_norm_limit():
    d = xlog.log_growth_datum(2.0, 2.0)
    limit = xlog.norm_limit(d, 2.0)
    norms = [xlog.log_norm(d, xlog.LogNorm(r, 2.0)) for r in (2.0, 8.0, 64.0, 1024.0)]
    assert all(a >= b * (1 - 1e-12) for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(limit, rel=1e-6)
    assert all(n >= limit * (1 - 1e-12) for n in norms)


# -- closed forms against dense samples -----------------------------------------------


def test_bounded_norm_is_the_bound_over_w_at_zero():
    n = xlog.LogNorm(3.0, 1.5)
    assert xlog.log_norm(xlog.bounded_datum(5.0), n) == 5.0 / float(n.weight(0.0))


def test_a_spike_between_two_grid_radii_sets_the_table_norm():
    # a spike of height 100 strictly between the neighbouring radii of a
    # 4,001-point geometric grid next to rho = 50, zero on every grid radius
    grid = geometry.probe_grid(1e3, 4001)
    k = int(np.searchsorted(grid, 50.0))
    lo, hi = grid[k - 1], grid[k]
    spike = 0.5 * (lo + hi)
    rows = [0.0, lo + 0.1 * (hi - lo), spike, hi - 0.1 * (hi - lo), 2e3]
    d = xlog.table_datum(rows, [0.0, 0.0, 100.0, 0.0, 0.0])
    assert not np.any(d.profile(grid))
    n = xlog.LogNorm(2.0, 2.0)
    assert xlog.log_norm(d, n) >= 100.0 / float(n.weight(spike)) > 12.7


def test_a_table_norm_needs_no_tail_part_where_the_last_radii_share_a_base():
    # r^2 + rho^2 rounds to r^2 at the last two radii, so the last segment's
    # part and the tail part past the last row divide by powers of one base.
    # LogNorm.weight has one path, a float radius the bits of its array
    # entry, so the two weights are one float and the last segment's part is
    # the norm.  On this base libm's scalar power rounds an ulp below
    # numpy's array power (numpy 2.4 with AVX-512)
    rho_n = math.nextafter(1e-9, 1.0)
    n = xlog.LogNorm(3.1726190444325244, 1.2428406062229587)
    d = xlog.table_datum([0.0, 1e-9, rho_n], [0.5, 1.0, 1.0])
    w = n.weight(np.array([1e-9, rho_n]))
    assert n.weight(1e-9) == n.weight(rho_n) == w[0] == w[1]
    assert xlog.log_norm(d, n) == 1.0 / w[0]


def _norm_with_the_tail_part(d, n):
    """``log_norm`` of a table with the hold past its last row included: the
    part |f_N| / w(rho_N) that the last segment's part bounds."""
    with np.errstate(over="ignore"):
        return max(xlog.log_norm(d, n), d.amplitude / float(n.weight(d.rows[0][-1])))


@st.composite
def tables_at_their_tails(draw):
    """Tables whose tail part comes closest to the norm: a single row; last
    radii below 1e-8, whose squares vanish beside r^2 >= 4, so that they
    share one base; or last radii of adjacent doubles up to MAX_RHO_MAX."""
    kind = draw(st.sampled_from(["one row", "shared base", "far"]))
    if kind == "one row":
        rho = [draw(st.floats(0.0, geometry.MAX_RHO_MAX))]
    else:
        top = 1e-8 if kind == "shared base" else geometry.MAX_RHO_MAX
        last = draw(st.floats(top / 2.0, top))
        rho = [last]
        for _ in range(draw(st.integers(1, 4))):
            rho.insert(0, math.nextafter(rho[0], 0.0))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(rho), max_size=len(rho)))
    return xlog.table_datum(rho, values)


@given(
    tables_at_their_tails(),
    st.floats(2.0, 1e3) | st.floats(1e149, geometry.MAX_RHO_MAX),
    st.floats(1.0, 1.01, exclude_min=True) | st.floats(1.0, 7.0, exclude_min=True),
)
@settings(max_examples=300, deadline=None)
def test_a_table_norm_is_its_maximum_with_the_tail_part(d, r, m):
    n = xlog.LogNorm(r, m)
    assert xlog.log_norm(d, n).hex() == _norm_with_the_tail_part(d, n).hex()


def _dense_table_ratio(d, n, per_segment=200):
    """sup |f| / w over dense samples of every segment, below the first row
    and past the last."""
    rho = d.rows[0]
    edges = np.concatenate(([0.0], rho, [10.0 * rho[-1] + 10.0]))
    x = np.concatenate([np.linspace(a, b, per_segment) for a, b in zip(edges, edges[1:])])
    return float(np.max(np.abs(d.profile(x)) / n.weight(x)))


@st.composite
def tables(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    # radii on a 0.01 lattice: np.interp's slopes stay finite
    radii = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size, unique=True))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size))
    return xlog.table_datum(np.sort(radii) / 100.0, values)


@given(tables(), st.floats(2.0, 50.0), st.floats(1.1, 4.0))
@settings(max_examples=200, deadline=None)
def test_table_norm_is_at_least_the_dense_supremum(d, r, m):
    n = xlog.LogNorm(r, m)
    # each sample rounds its interpolation and its weight: a few ulps
    assert xlog.log_norm(d, n) >= _dense_table_ratio(d, n) * (1.0 - 8.0 * EPS)


def _dense_log_growth_ratio(b, r, m):
    """sup of the log-growth datum's ratio f / w: 10^6 geometric samples of
    the ramp b rho/e on [1e-3, e], and the tail limit b 2^(-1/(m-1)), the
    supremum of the tail ratio, which rises on rho >= e.  Returns it and
    whether h(s) = s log s - 2p (s - r^2) stays positive on the samples."""
    p = 1.0 / (m - 1.0)
    rho = np.geomspace(1e-3, xlog.RAMP_EDGE, 10**6)
    s = r * r + rho * rho
    ramp = b / xlog.RAMP_EDGE * (rho ** (m - 1.0) / np.log(s)) ** p
    no_root = bool(np.all(s * np.log(s) - 2.0 * p * (s - r * r) > 0.0))
    return max(float(np.max(ramp)), b * 2.0 ** (-1.0 / (m - 1.0))), no_root


@given(st.floats(1e-3, 1e3), st.floats(2.0, 1e3), st.floats(1.003, 4.0))
@settings(max_examples=40, deadline=None)
def test_log_growth_norm_is_the_dense_supremum(b, r, m):
    got = xlog.log_norm(xlog.log_growth_datum(b, m), xlog.LogNorm(r, m))
    dense, no_root = _dense_log_growth_ratio(b, r, m)
    assert dense <= got <= dense * (1.0 + 1e-9)
    if no_root:  # the ramp rises up to e: the norm is the tail limit
        assert got == b * 2.0 ** (-1.0 / (m - 1.0))


@pytest.mark.parametrize("m, r", [(1.15, 2.0), (1.002, 2.0), (1.01, 2.5), (1.2, 2.0)])
def test_log_growth_norm_in_the_ramp(m, r):
    # below m of about 1.22 at r = 2 the supremum sits in the ramp, past the
    # tail limit, and no weight of the ramp overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = xlog.log_norm(xlog.log_growth_datum(1.0, m), xlog.LogNorm(r, m))
    dense, no_root = _dense_log_growth_ratio(1.0, r, m)
    assert not no_root and dense <= got <= dense * (1.0 + 1e-9)
    assert got > 2.0 ** (-1.0 / (m - 1.0))
    if (m, r) == (1.15, 2.0):
        assert got == pytest.approx(0.0171166865, rel=1e-9)


# -- the one-record datum against the two-record design it replaced ----------------


@dataclass(frozen=True)
class _Tail:
    """The separate tail record of the two-record design: the datum's closed
    form beyond its ``start`` radius."""

    form: str
    amplitude: float
    start: float
    m: Optional[float] = None


def _two_record_log_norm(tail, rows, norm):
    if tail.form == "log-growth":
        return max(xlog._ramp_part(tail.amplitude, norm), tail.amplitude * 2.0 ** (-1.0 / (norm.m - 1.0)))
    with np.errstate(over="ignore"):
        tail_part = tail.amplitude / float(norm.weight(tail.start))
        if rows is None:
            return tail_part
        rho, values = rows
        size = np.abs(values)
        head = np.maximum(size[:-1], size[1:]) / norm.weight(rho[:-1])
        return max(float(size[0] / norm.weight(0.0)), float(np.max(head, initial=0.0)), tail_part)


def _two_record_limsup_ratio(tail):
    return 0.0 if tail.form == "bounded" else tail.amplitude


def _two_record_norm_limit(tail, m):
    return _two_record_limsup_ratio(tail) * 2.0 ** (-1.0 / ((tail.m or m) - 1.0))


def _two_record_vanishes(tail, rows):
    return tail.amplitude == 0.0 and (rows is None or not np.any(rows[1]))


@st.composite
def data_with_tails(draw):
    """(datum, m, tail, rows): a log-growth datum of its own m, or a bounded
    or table datum and any m, with the tail record and rows that the
    two-record design built for the same builder input."""
    m = draw(st.floats(1.0, 6.0, exclude_min=True))
    amplitude = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
    form = draw(st.sampled_from(["log-growth", "bounded", "table"]))
    if form == "log-growth":
        return xlog.log_growth_datum(amplitude, m), m, _Tail(form, amplitude, xlog.RAMP_EDGE, m), None
    if form == "bounded":
        return xlog.bounded_datum(amplitude), m, _Tail(form, amplitude, 0.0), None
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=3, max_size=40))
    rows = (GRID[: len(values)], np.array(values))
    tail = _Tail("bounded", abs(float(rows[1][-1])), float(rows[0][-1]))
    return xlog.table_datum(*rows), m, tail, rows


@given(data_with_tails(), st.floats(2.0, 1e3))
@settings(max_examples=300, deadline=None)
def test_the_datum_record_reads_every_float_as_the_two_record_design(datum_tail, r):
    datum, m, tail, rows = datum_tail
    norm = xlog.LogNorm(r, m)
    got = (xlog.log_norm(datum, norm), xlog.limsup_ratio(datum), xlog.norm_limit(datum, m), datum.vanishes)
    want = (
        _two_record_log_norm(tail, rows, norm),
        _two_record_limsup_ratio(tail),
        _two_record_norm_limit(tail, m),
        _two_record_vanishes(tail, rows),
    )
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
