"""Stage formulas against closed forms and a desk-scale full run.

The full-run test uses a small ball so it stays fast; the acceptance suite
runs the production-size configuration.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme import barriers, blowup, geometry, solver, xlog
from pme.errors import CertificateError, DomainError, NotApplicableError, StageError
from pme.grid import RadialGrid

RHO_REF = np.geomspace(1e-3, 1e6, 3000)


# -- stage horizon -----------------------------------------------------------------


def test_stage_T_reference_values():
    assert blowup.stage_T(1.0, 0.5, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    # doubling the ratio divides the horizon by 2^(m-1)
    t1 = blowup.stage_T(1.0, 0.25, 1.3, 3.0)
    t2 = blowup.stage_T(2.0, 0.25, 1.3, 3.0)
    assert t2 / t1 == pytest.approx(2.0 ** (1 - 3.0), rel=1e-14)


def test_stage_T_monotone_in_eps():
    ts = [blowup.stage_T(1.0, eps, 1.0, 2.0) for eps in (0.1, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_stage_T_rejects_zero_ratio():
    with pytest.raises(NotApplicableError):
        blowup.stage_T(0.0, 0.5, 1.0, 2.0)


# -- stage epsilon -----------------------------------------------------------------


def test_stage_epsilon_zero_gap_returns_half():
    assert blowup.stage_epsilon(1, 1.0, 1.0, 1.0, 2.0) == 0.5


def test_stage_epsilon_reference_inequality():
    # m=2, T_n - S_n = 1, T1 = 1, n = 1: need eps <= 1/3, largest 2^-j is 1/4
    eps = blowup.stage_epsilon(1, 1.5, 0.5, 1.0, 2.0)
    assert eps == 0.25


@pytest.mark.parametrize("n,Tn,Sn,T1,m", [(1, 1.5, 0.5, 1.0, 2.0), (3, 0.9, 0.2, 1.0, 2.5), (7, 2.0, 0.1, 0.5, 1.7)])
def test_stage_epsilon_satisfies_constraint(n, Tn, Sn, T1, m):
    eps = blowup.stage_epsilon(n, Tn, Sn, T1, m)
    assert 0 < eps < 1
    assert ((1 - eps) ** (1 - m) - 1) * (Tn - Sn) <= T1 / 2**n
    # largest admissible power of two: doubling eps must violate
    if eps < 0.5:
        assert ((1 - 2 * eps) ** (1 - m) - 1) * (Tn - Sn) > T1 / 2**n


def exact_bracket(eps, m):
    """(1-eps)^(1-m) - 1 in exact rationals, for integer m."""
    return (1 - Fraction(eps)) ** (1 - m) - 1


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [60, 100, 500])
def test_stage_epsilon_is_exact_where_one_minus_eps_rounds_to_one(n, m):
    # once T1/2^n is below the float spacing of T_n - S_n, (1-eps)**(1-m) - 1
    # rounds to 0 for every eps <= 2^-53, and the inequality held only by rounding
    Tn, Sn, T1 = 1.7, 1.0, 1.0
    eps = blowup.stage_epsilon(n, Tn, Sn, T1, float(m))
    gap, budget = Fraction(Tn) - Fraction(Sn), Fraction(T1) / 2**n
    assert exact_bracket(eps, m) * gap <= budget
    assert exact_bracket(2 * eps, m) * gap > budget


def halving_search(n, Tn, Sn, T1, m):
    """``stage_epsilon`` without its start: halve from 1/2 until the inequality holds."""
    eps = 0.5
    while math.expm1((1 - m) * math.log1p(-eps)) * (Tn - Sn) > T1 / 2.0**n:
        eps *= 0.5
    return eps


@given(
    st.integers(min_value=1, max_value=600),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=1.01, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_stage_epsilon_start_skips_only_failing_candidates(n, Tn, frac, T1, m):
    Sn = frac * Tn
    assert blowup.stage_epsilon(n, Tn, Sn, T1, m) == halving_search(n, Tn, Sn, T1, m)


# -- stage schedule (no solve) ------------------------------------------------------


def horizon_ref(a, ratio, m):
    """Horizon of the amplitude-a barrier above ``ratio``: (a/ratio)^(m-1)."""
    return (a / ratio) ** (m - 1)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1.2, max_value=4.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=100, deadline=None)
def test_stage_schedule_recursion(a_hat, tilde_frac, m, ratio0, max_stages):
    a_tilde = tilde_frac * a_hat
    rows = list(blowup.stage_schedule(ratio0, a_hat, a_tilde, m, max_stages))
    assert 1 <= len(rows) <= max_stages
    T1 = rows[0][1]
    t_sum, ratio = 0.0, ratio0
    for n, (eps, T_n, S_n, t_n, after) in enumerate(rows, 1):
        assert 0 < eps < 1 and S_n < T_n
        assert T_n == pytest.approx(horizon_ref(a_hat / (1 - eps), ratio, m), rel=1e-12)
        assert S_n == pytest.approx(horizon_ref(a_tilde / 2, ratio, m), rel=1e-12)
        t_sum += S_n
        assert t_n == t_sum
        factor = (1 - eps) * (1 - S_n / T_n) ** (-1 / (m - 1))
        assert after == pytest.approx(ratio * factor, rel=1e-12)
        ratio = after
    for n, (prev, cur) in enumerate(zip(rows, rows[1:]), 1):
        assert cur[1] <= (prev[1] - prev[2] + T1 / 2.0**n) * (1 + 1e-12)
    assert sum(Fraction(row[2]) for row in rows) <= 2 * Fraction(T1)
    # the schedule ends at the stage cap or at the first stall
    stalled = [row[2] < blowup.S_MIN_FACTOR * T1 for row in rows]
    assert not any(stalled[:-1])
    assert stalled[-1] or len(rows) == max_stages


def test_stage_schedule_rejects_a_duration_at_the_horizon():
    # a_tilde/2 >= a_hat/(1 - eps_1) makes S_1 >= T_1
    with pytest.raises(StageError, match="n=1$"):
        next(blowup.stage_schedule(1.0, 1.0, 4.0, 2.0, 10))


# -- stage delta --------------------------------------------------------------------


def _barrier(horizon=4.0):
    return barriers.BarrierParams(amplitude=1.0, r=2.0, horizon=horizon, m=2.0)


def test_stage_delta_zero_when_field_dominates():
    p = _barrier()
    rho = np.linspace(0.05, 25.0, 300)
    u = p.profile(rho) + 0.5
    assert blowup.stage_delta(u, p, rho) == 0.0


def test_stage_delta_matches_closed_form():
    # smallest admissible shift is max(W^m - u^m) for nonnegative fields
    p = _barrier()
    rho = np.linspace(0.05, 25.0, 500)
    u = np.maximum(p.profile(rho) - 0.3 * np.exp(-rho), 0.0)
    wm = p.profile(rho) ** p.m
    exact = float(np.max(wm - np.sign(u) * u**p.m))
    got = blowup.stage_delta(u, p, rho)
    assert got == pytest.approx(exact, abs=blowup.DELTA_BISECT_TOL * float(np.max(wm)) * 1.01)
    assert np.all(u >= barriers.shifted_subsolution(p, got, rho) - 1e-12)


def test_stage_delta_failure_for_negative_field():
    p = _barrier()
    rho = np.linspace(0.05, 25.0, 100)
    u = np.full_like(rho, -1.0)
    with pytest.raises(StageError):
        blowup.stage_delta(u, p, rho)


# -- full run (desk scale) -------------------------------------------------------------


def desk_run():
    M = geometry.quad_critical(0.5, 3)
    cc = geometry.fit_comparison_constants(M)
    cfg = blowup.BlowupConfig(m=2.0, threshold_factor=50.0, max_stages=400, steps_per_stage=25)
    datum = xlog.log_growth_datum(1.0, 2.0, RHO_REF)
    prof = xlog.log_growth_profile(1.0, 2.0)
    return blowup.run_blowup(datum, prof, RadialGrid.uniform(M, 12.0, 120), cc, cfg)


@pytest.fixture(scope="module")
def desk_ledger():
    return desk_run()


def test_newton_evaluates_residual_about_once_per_iteration(monkeypatch):
    # residual evaluations are the full-field odd_power calls; Newton
    # iterations are the tridiagonal solves
    counts = {"residuals": 0, "iterations": 0}
    odd_power, dgtsv = solver.odd_power, solver.dgtsv

    def counted_odd_power(u, m):
        counts["residuals"] += u.size > 1
        return odd_power(u, m)

    def counted_dgtsv(*args, **kw):
        counts["iterations"] += 1
        return dgtsv(*args, **kw)

    monkeypatch.setattr(solver, "odd_power", counted_odd_power)
    monkeypatch.setattr(solver, "dgtsv", counted_dgtsv)
    assert desk_run().status == "blown-up"
    assert counts["iterations"] > 0
    assert counts["residuals"] < 2 * counts["iterations"]


def test_run_reaches_threshold(desk_ledger):
    led = desk_ledger
    assert led.status == "blown-up"
    assert led.stages[-1].lognorm >= led.threshold
    assert led.tau <= led.tau_bound + 1e-6


def test_ledger_invariants(desk_ledger):
    led = desk_ledger
    assert led.validate()
    for s in led.stages:
        assert s.S_n < s.T_n
        assert 0 < s.eps_n < 1
    # stage durations eventually decay
    assert led.stages[-1].S_n < led.stages[0].S_n


def test_ledger_telescoping_exact(desk_ledger):
    led = desk_ledger
    for prev, cur in zip(led.stages, led.stages[1:]):
        bound = prev.T_n - prev.S_n + led.T1 / 2.0 ** (cur.n - 1)
        assert cur.T_n <= bound * (1 + 1e-12)


def test_ledger_is_the_stage_schedule(desk_ledger):
    # every ledger value but delta_n, lognorm and the gaps comes from the schedule
    led = desk_ledger
    M = geometry.quad_critical(0.5, 3)
    cc = geometry.fit_comparison_constants(M)
    a_hat = barriers.subsolution_params(cc, 2.0).amplitude
    a_tilde = barriers.supersolution_amplitude(cc.c_prime, 2.0)
    ratio = xlog.norm_limit(xlog.log_growth_datum(1.0, 2.0, RHO_REF), 2.0)
    rows = blowup.stage_schedule(ratio, a_hat, a_tilde, 2.0, len(led.stages))
    recorded = [(s.eps_n, s.T_n, s.S_n, s.t_n, s.liminf_est) for s in led.stages]
    assert recorded == list(rows)
    assert (led.T1, led.tau, led.tau_bound) == (recorded[0][1], recorded[-1][3], 2 * recorded[0][1])


def test_ledger_growth_identity(desk_ledger):
    # ratio update matches the closed-form factor per stage
    led = desk_ledger
    for prev, cur in zip(led.stages, led.stages[1:]):
        factor = (1 - cur.eps_n) * (1 - cur.S_n / cur.T_n) ** -1.0
        assert cur.liminf_est == pytest.approx(prev.liminf_est * factor, rel=1e-12)


def test_sandwich_gaps_within_tolerance(desk_ledger):
    led = desk_ledger
    worst_low = max(s.lower_gap for s in led.stages)
    worst_up = max(s.upper_gap for s in led.stages)
    assert worst_low <= led.discretization_tol
    assert worst_up <= led.discretization_tol


@pytest.mark.parametrize("gap", ["lower_gap", "upper_gap"])
@pytest.mark.parametrize("factor", [1.5, math.nan])
def test_validate_rejects_a_sandwich_gap_above_tolerance(desk_ledger, gap, factor):
    led = desk_ledger
    k = len(led.stages) // 2
    bad = dataclasses.replace(led.stages[k], **{gap: factor * led.discretization_tol})
    stages = [*led.stages[:k], bad, *led.stages[k + 1 :]]
    with pytest.raises(CertificateError, match=f"at stage {bad.n}$"):
        dataclasses.replace(led, stages=stages).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 1.0),
        ("m", math.nan),
        ("threshold_factor", 1.0),
        ("threshold_factor", -1.0),
        ("max_stages", 0),
        ("steps_per_stage", 4),
        ("steps_per_stage", 0),
        ("newton_tol", 0.0),
        ("norm_r", 1.5),
    ],
)
def test_blowup_config_rejects_values_outside_its_domain(field, value):
    with pytest.raises(DomainError):
        blowup.BlowupConfig(**{"m": 2.0, field: value})


def test_bounded_datum_rejected():
    M = geometry.quad_critical(0.5, 3)
    cc = geometry.fit_comparison_constants(M)
    datum = xlog.bounded_datum(1.0, RHO_REF)
    grid, cfg = RadialGrid.uniform(M, 12.0, 60), blowup.BlowupConfig(m=2.0)
    with pytest.raises(NotApplicableError):
        blowup.run_blowup(datum, xlog.bounded_profile(1.0), grid, cc, cfg)


def test_model_without_lower_bound_rejected():
    M = geometry.hyperbolic(2)
    cc = geometry.fit_comparison_constants(M)
    datum = xlog.log_growth_datum(1.0, 2.0, RHO_REF)
    grid, cfg = RadialGrid.uniform(M, 12.0, 60), blowup.BlowupConfig(m=2.0)
    with pytest.raises(NotApplicableError):
        blowup.run_blowup(datum, xlog.log_growth_profile(1.0, 2.0), grid, cc, cfg)


# -- trajectory series and sandwich audits against the record loops --------------------


def reference_series(traj):
    """Norm, tail-ratio and mass series as ``Trajectory.record`` used to
    compute them, one record at a time."""
    grid, norm = traj.grid, traj.norm
    centers = grid.centers
    outer = slice(int(np.searchsorted(centers, max(grid.radius / 2.0, 2.0))), None)
    tail = np.log(centers[outer]) ** (1.0 / (norm.m - 1.0))
    w = norm.weight(centers)
    lognorms, tail_ratios, masses = [], [], []
    for u in traj.fields:
        au = np.abs(u)
        lognorms.append(float((au / w).max()))
        tail_ratios.append(float((au[outer] / tail).max()) if tail.size else 0.0)
        masses.append(grid.mass(u))
    return lognorms, tail_ratios, masses


def reference_barrier_excess(traj, norm0, horizon, r, m):
    """``solver.barrier_excess`` as it was: one Python loop over the records."""
    w = xlog.LogNorm(r, m).weight(traj.grid.centers)
    worst = -math.inf
    for t, u in zip(traj.times, traj.fields):
        bound = (1.0 - t / horizon) ** (-1.0 / (m - 1.0)) * norm0 * w
        worst = max(worst, float(np.max(np.abs(u) - bound)))
    return worst


def reference_sandwich_gaps(traj, m, T_next, v_base, s_super, norm_far, far_weight):
    """The stage audit of ``run_blowup`` as it was: one loop over the records."""
    lower_gap = upper_gap = -math.inf
    for t, f in zip(traj.times, traj.fields):
        low = (1.0 - t / T_next) ** (-1.0 / (m - 1.0)) * v_base
        lower_gap = max(lower_gap, float(np.max(low - f)))
        if t < 0.95 * s_super:
            up = (1.0 - t / s_super) ** (-1.0 / (m - 1.0)) * norm_far * far_weight
            upper_gap = max(upper_gap, float(np.max(f - up)))
    return lower_gap, upper_gap


@st.composite
def audited_trajectories(draw):
    manifold = draw(st.sampled_from([geometry.euclidean(3), geometry.quad_critical(0.5, 3)]))
    cells = draw(st.integers(min_value=3, max_value=60))
    grid = RadialGrid.uniform(manifold, draw(st.floats(min_value=1.0, max_value=25.0)), cells)
    m = draw(st.floats(min_value=1.05, max_value=4.0))
    horizon = draw(st.floats(min_value=1e-4, max_value=10.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    traj = solver.Trajectory(grid=grid, norm=xlog.LogNorm(2.0, m))
    # the recorded times lie in [0, horizon); t = 0 is left out at random so
    # that a stage can also have no record before 0.95 s_super
    for t in np.sort(rng.uniform(0.0, horizon, draw(st.integers(min_value=1, max_value=12)))):
        traj.record(t, rng.uniform(-3.0, 3.0, cells) * rng.uniform(0.0, 1.0), 0.0)
    return traj, m, horizon, rng


@given(audited_trajectories(), st.floats(min_value=1e-3, max_value=10.0), st.floats(2.0, 50.0))
@settings(max_examples=150, deadline=None)
def test_vectorised_reads_equal_the_record_loops(case, s_super, r):
    traj, m, horizon, rng = case
    assert (traj.lognorms, traj.tail_ratios, traj.masses) == reference_series(traj)
    norm0 = float(rng.uniform(1e-3, 5.0))
    got = solver.barrier_excess(traj, norm0, horizon, r, m)
    assert got == reference_barrier_excess(traj, norm0, horizon, r, m)
    n = traj.grid.cells
    args = (m, horizon, rng.uniform(0.0, 3.0, n), s_super, norm0, rng.uniform(0.5, 5.0, n))
    assert blowup.sandwich_gaps(traj, *args) == reference_sandwich_gaps(traj, *args)
