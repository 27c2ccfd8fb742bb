"""Stage formulas against closed forms and a desk-scale full run.

The full-run test uses a small ball so it stays fast; the acceptance suite
runs the production-size configuration.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pme import barriers, blowup, geometry, solver, xlog
from pme.errors import CertificateError, DomainError, NotApplicableError, StageError
from pme.grid import RadialGrid


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
    u = p.at_horizon(p.profile_unit(rho)) + 0.5
    wm = p.at_horizon(p.profile_unit(rho)) ** p.m
    delta, root = blowup.stage_delta(u, wm, p.m)
    assert delta == 0.0 and root.tobytes() == barriers.shift_root(wm, 0.0, p.m).tobytes()


def passes(u, v):
    """The admissibility test of ``stage_delta``: u >= v - 1e-14 at every cell."""
    return bool(np.all(u >= v - 1e-14))


def assert_smallest_shift(delta, u, p, rho):
    """``delta`` passes the test and, when positive, fails it 1e-13 max W^m lower."""
    assert passes(u, barriers.shifted_subsolution(p, delta, rho))
    if delta > 0.0:
        lower = delta - 1e-13 * float(np.max(p.at_horizon(p.profile_unit(rho)) ** p.m))
        assert not passes(u, barriers.shifted_subsolution(p, max(lower, 0.0), rho))


def test_stage_delta_matches_closed_form():
    # smallest admissible shift is max(W^m - u^m) for nonnegative fields
    p = _barrier()
    rho = np.linspace(0.05, 25.0, 500)
    u = np.maximum(p.at_horizon(p.profile_unit(rho)) - 0.3 * np.exp(-rho), 0.0)
    wm = p.at_horizon(p.profile_unit(rho)) ** p.m
    exact = float(np.max(wm - np.sign(u) * u**p.m))
    got, root = blowup.stage_delta(u, wm, p.m)
    assert got == pytest.approx(exact, abs=1e-12 * float(np.max(wm)))
    assert root.tobytes() == barriers.shift_root(wm, got, p.m).tobytes()
    assert_smallest_shift(got, u, p, rho)


def test_stage_delta_failure_for_negative_field():
    p = _barrier()
    rho = np.linspace(0.05, 25.0, 100)
    u = np.full_like(rho, -1.0)
    with pytest.raises(StageError):
        blowup.stage_delta(u, p.at_horizon(p.profile_unit(rho)) ** p.m, p.m)


def reference_wm(p, rho):
    """W_T^m in the operations the stages always used: W_T = W_1 / T^(1/(m-1))
    from the unit profile W_1 on the grid."""
    return (p.profile_unit(rho) / p.horizon ** (1.0 / (p.m - 1.0))) ** p.m


def reference_shifted_subsolution(p, delta, rho):
    return np.maximum(reference_wm(p, rho) - delta, 0.0) ** (1.0 / p.m)


@given(
    T=st.floats(min_value=1e-4, max_value=1e2),
    delta=st.floats(min_value=0.0, max_value=50.0),
    m=st.floats(min_value=1.05, max_value=4.0),
    amplitude=st.floats(min_value=0.01, max_value=5.0),
    offset=st.integers(min_value=2, max_value=20),
    mix=st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=40, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_unit_profile_cache_is_bitwise_the_per_stage_profile(T, delta, m, amplitude, offset, mix):
    # run_blowup evaluates the unit profile once and scales it per stage;
    # delta_n and the audit's v_base must be the bytes that the per-stage
    # evaluation on a fresh BarrierParams of horizon T gives
    rho = np.linspace(0.05, 25.0, 40)
    unit = barriers.BarrierParams(amplitude, float(offset), horizon=1.0, m=m).profile_unit(rho)
    p = barriers.BarrierParams(amplitude, float(offset), horizon=T, m=m)
    wm = p.at_horizon(unit) ** m
    want_v = reference_shifted_subsolution(p, delta, rho)
    assert barriers.shifted_subsolution(p, delta, rho).tobytes() == want_v.tobytes()
    assert barriers.shift_root(wm, delta, m).tobytes() == want_v.tobytes()
    # a field around the shifted subsolution, below it where mix < 0; the
    # shift must be the smallest that passes the test on the per-stage profile
    u = want_v * (1.0 + np.array(mix))
    if not np.all(u >= -1e-14):
        with pytest.raises(StageError):
            blowup.stage_delta(u, wm, m)
        return
    got, root = blowup.stage_delta(u, wm, m)
    assert passes(u, reference_shifted_subsolution(p, got, rho))
    if got > 0.0:
        lower = max(got - 1e-13 * float(np.max(reference_wm(p, rho))), 0.0)
        assert not passes(u, reference_shifted_subsolution(p, lower, rho))
    want_root = reference_shifted_subsolution(p, got, rho).tobytes()
    assert root.tobytes() == barriers.shift_root(wm, got, m).tobytes() == want_root


# -- full run (desk scale) -------------------------------------------------------------


def desk_run():
    M = geometry.quad_critical(0.5, 3)
    cc = geometry.fit_comparison_constants(M)
    cfg = blowup.BlowupConfig(m=2.0, threshold_factor=50.0, max_stages=400, steps_per_stage=25)
    datum = xlog.log_growth_datum(1.0, 2.0)
    return blowup.run_blowup(datum, RadialGrid.uniform(M, 12.0, 120), cc, cfg)


@pytest.fixture(scope="module")
def desk_ledger():
    return desk_run()


def test_newton_evaluates_residual_about_once_per_iteration(monkeypatch):
    # residual evaluations are the integrator's residual calls; Newton
    # iterations are the tridiagonal solves.  Each solve evaluates its start
    # and at least one trial per iteration, so the count exceeds the
    # iterations, and the residual of an accepted trial is not evaluated again
    counts = {"residuals": 0, "iterations": 0}
    residual, dgtsv = solver.Window.residual, solver.dgtsv

    def counted_residual(*args):
        counts["residuals"] += 1
        return residual(*args)

    def counted_dgtsv(*args, **kw):
        counts["iterations"] += 1
        return dgtsv(*args, **kw)

    monkeypatch.setattr(solver.Window, "residual", counted_residual)
    monkeypatch.setattr(solver, "dgtsv", counted_dgtsv)
    assert desk_run().status == "blown-up"
    assert counts["iterations"] > 0
    assert counts["iterations"] < counts["residuals"] < 2 * counts["iterations"]


def test_predictor_start_saves_a_quarter_of_the_newton_iterations():
    # Newton iterations are the tridiagonal solves; the start-free run hands
    # ``step`` no integrator, so that it has no history to guess from
    dgtsv, step = solver.dgtsv, solver.step

    def iterations(predicted):
        calls = []

        def counted_dgtsv(*args, **kw):
            calls.append(1)
            return dgtsv(*args, **kw)

        def start_free_step(u, t, dt, grid, cfg, integrator=None):
            return step(u, t, dt, grid, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", counted_dgtsv)
            if not predicted:
                mp.setattr(solver, "step", start_free_step)
            assert desk_run().status == "blown-up"
        return len(calls)

    # 2,270 against 3,896 when this test was written
    assert iterations(True) < 0.75 * iterations(False)


def stage_run(carried):
    """The desk run with each step's returned field, its accepted solves and
    the moves of the accepted solves summed up to it (the bound of
    ``test_solver.test_predicted_run_agrees_with_the_start_free_run``), and
    the LAPACK solves of each stage's first step.  ``carried=False`` hands
    every stage a fresh integrator, so no stage inherits a history."""
    eps = np.finfo(float).eps
    newton_solve, step, dgtsv = solver._newton_solve, solver.step, solver.dgtsv
    solve_ball = blowup.solve_ball
    fields, solves, moves, first_step_solves, lapack = [], [], [0.0], [], [0]

    def recording_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted=False):
        out = newton_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted)
        grid, m = work.grid, work.m
        if out[1]:
            uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))
            coeff = float(np.max(d * (grid.coeff_plus + grid.coeff_minus)))
            moves[-1] += tol * uscale + 8 * eps * (uscale + coeff * uscale**m)
            solves[-1] += 1
        return out

    def counted_dgtsv(*args, **kw):
        lapack[0] += 1
        return dgtsv(*args, **kw)

    def marking_step(u, t, dt, grid, cfg, integrator=None):
        solves.append(0)
        moves.append(moves[-1])
        before = lapack[0]
        out = step(u, t, dt, grid, cfg, integrator)
        if t == 0.0:  # each stage's clock starts at 0
            first_step_solves.append(lapack[0] - before)
        fields.append(out[0])
        return out

    def fresh_solve_ball(u0, cfg, grid, barrier_horizon=None, integrator=None):
        return solve_ball(u0, cfg, grid, barrier_horizon)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", recording_solve)
        mp.setattr(solver, "dgtsv", counted_dgtsv)
        mp.setattr(solver, "step", marking_step)
        if not carried:
            mp.setattr(blowup, "solve_ball", fresh_solve_ball)
        ledger = desk_run()
    return ledger, fields, solves, np.array(moves[1:]), first_step_solves


def test_stages_carry_the_predictor_history_across_their_boundaries():
    got, got_fields, got_solves, got_moves, got_first = stage_run(carried=True)
    want, want_fields, want_solves, want_moves, want_first = stage_run(carried=False)
    assert len(got_first) == len(got.stages)
    # a stage's first step is predicted from the last stage's levels
    assert np.mean(got_first) <= 1.3 < np.mean(want_first)
    assert (got.status, len(got.stages), got.growth_onset) == (
        want.status,
        len(want.stages),
        want.growth_onset,
    )
    # The runs solve the same substeps under the same boundary data (the
    # same shifts), and the step is an L1 contraction, so their fields differ
    # by at most W times the moves of both runs' accepted solves so far.
    assert [s.delta_n for s in got.stages] == [s.delta_n for s in want.stages]
    assert got_solves == want_solves
    grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 12.0, 120)
    W = float(np.sum(grid.weights_scaled))
    diff = np.array([grid.weights_scaled @ np.abs(a - b) for a, b in zip(got_fields, want_fields)])
    assert np.all(diff <= W * (got_moves + want_moves))
    assert diff.max() > 0.0  # the carried history did change the iterates


@pytest.mark.parametrize("steps_per_stage, steps", [(5, 9), (30, 12), (40, 13), (120, 17)])
def test_a_stage_takes_the_steps_of_its_policy(steps_per_stage, steps):
    # the README's step policy: a stage's first step is S_n / steps_per_stage,
    # each next one 1.3 times the last, capped at S_n / 10, and the last one
    # ends the stage (at 5: S_n / 5, then eight of S_n / 10)
    M = geometry.quad_critical(0.5, 3)
    counts = []
    blowup.run_blowup(
        xlog.log_growth_datum(1.0, 2.0), RadialGrid.uniform(M, 12.0, 60), geometry.fit_comparison_constants(M),
        blowup.BlowupConfig(m=2.0, max_stages=3, steps_per_stage=steps_per_stage),
        stage_hook=lambda n, traj: counts.append(len(traj.times) - 1),
    )
    assert counts == [steps] * 3


def test_run_reaches_threshold(desk_ledger):
    led = desk_ledger
    assert led.status == "blown-up"
    assert led.stages[-1].lognorm >= led.threshold
    assert led.tau <= led.tau_bound


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
    ratio = xlog.norm_limit(xlog.log_growth_datum(1.0, 2.0), 2.0)
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


def test_validate_rejects_a_stage_time_off_the_sum_of_durations(desk_ledger):
    led = desk_ledger
    k = len(led.stages) // 2
    s = led.stages[k]
    bad = dataclasses.replace(s, t_n=math.nextafter(s.t_n, math.inf))
    stages = [*led.stages[:k], bad, *led.stages[k + 1 :]]
    with pytest.raises(StageError, match=f"sum of the stage durations at {s.n}$"):
        dataclasses.replace(led, stages=stages).validate()


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda led: {"tau": math.nextafter(led.tau, math.inf)}, "not the last stage time"),
        (lambda led: {"tau": math.nextafter(led.tau, 0.0)}, "not the last stage time"),
        (lambda led: {"tau_bound": math.nextafter(led.tau, 0.0)}, "exceeds 2 T1"),
    ],
    ids=["tau-above-last-t", "tau-below-last-t", "bound-below-tau"],
)
def test_validate_checks_the_total_duration_exactly(desk_ledger, change, message):
    led = desk_ledger
    assert led.tau <= led.tau_bound == 2.0 * led.T1
    with pytest.raises(StageError, match=message):
        dataclasses.replace(led, **change(led)).validate()
    assert dataclasses.replace(led, tau_bound=led.tau).validate()  # equality passes


def _edit_stage(led, k, **change):
    """``led`` with its stage ``k`` changed by ``change``."""
    stages = list(led.stages)
    stages[k] = dataclasses.replace(stages[k], **change)
    return dataclasses.replace(led, stages=stages)


# id: (an edit of a valid ledger at its last stage k, the error's text)
LEDGER_EDITS = {
    "empty": (lambda led, k: dataclasses.replace(led, stages=[]), "empty ledger"),
    "eps-out-of-range": (lambda led, k: _edit_stage(led, k, eps_n=1.0), "eps out of range at stage {n}"),
    "S-not-below-T": (lambda led, k: _edit_stage(led, k, S_n=led.stages[k].T_n), "S >= T at stage {n}"),
    "times-not-increasing": (
        lambda led, k: _edit_stage(led, k, t_n=led.stages[k - 1].t_n), "stage times not increasing at {n}"
    ),
    "telescoping": (
        lambda led, k: _edit_stage(led, k, T_n=2.0 * led.stages[k].T_n), "telescoping bound violated at {n}"
    ),
    "norm-series": (
        lambda led, k: _edit_stage(led, k, lognorm=led.stages[k - 1].lognorm),
        "norm series not strictly increasing past the onset",
    ),
}


@pytest.mark.parametrize("edit, message", LEDGER_EDITS.values(), ids=LEDGER_EDITS.keys())
def test_validate_rejects_each_broken_invariant(desk_ledger, edit, message):
    led, k = desk_ledger, len(desk_ledger.stages) - 1
    assert led.validate() and led.growth_onset < k
    with pytest.raises(StageError, match=f"^{re.escape(message.format(n=led.stages[k].n))}$"):
        edit(led, k).validate()


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
        ("max_stages", 2.5),
        ("steps_per_stage", 40.0),
        ("newton_tol", 0.0),
        ("norm_r", 1.5),
    ],
)
def test_blowup_config_rejects_values_outside_its_domain(field, value):
    with pytest.raises(DomainError):
        blowup.BlowupConfig(**{"m": 2.0, field: value})


def test_a_stage_time_error_is_first_order_in_its_step_cap(quad_manifold, quad_constants):
    # acceptance criterion 6's run (R = 25, J = 250) cut at 40 stages, its
    # step cap S_n/10 lowered to S_n/20 and S_n/40, each against an S_n/200
    # reference: the worst stage's relative lognorm error falls by about 2x
    # per halving of the cap (0.114, 0.068 and 0.035, all at stage 3)
    grid = RadialGrid.uniform(quad_manifold, 25.0, 250)
    cfg = blowup.BlowupConfig(m=2.0, max_stages=40, steps_per_stage=30)

    def lognorms(k):
        def policy(dt0, growth, dt_max):  # run_blowup passes dt_max = S_n/10
            cap = dt_max * 10.0 / k
            return solver.DtPolicy(min(dt0, cap), growth, cap)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blowup, "DtPolicy", policy)
            led = blowup.run_blowup(xlog.log_growth_datum(1.0, 2.0), grid, quad_constants, cfg)
        return np.array([s.lognorm for s in led.stages])

    ref = lognorms(200)
    worst = [float(np.max(np.abs(lognorms(k) - ref) / ref)) for k in (10, 20, 40)]
    assert all(1.5 <= coarse / fine <= 2.5 for coarse, fine in zip(worst, worst[1:])), worst


def test_bounded_datum_rejected():
    M = geometry.quad_critical(0.5, 3)
    cc = geometry.fit_comparison_constants(M)
    datum = xlog.bounded_datum(1.0)
    grid, cfg = RadialGrid.uniform(M, 12.0, 60), blowup.BlowupConfig(m=2.0)
    with pytest.raises(NotApplicableError):
        blowup.run_blowup(datum, grid, cc, cfg)


def test_model_without_lower_bound_rejected():
    M = geometry.hyperbolic(2)
    cc = geometry.fit_comparison_constants(M)
    datum = xlog.log_growth_datum(1.0, 2.0)
    grid, cfg = RadialGrid.uniform(M, 12.0, 60), blowup.BlowupConfig(m=2.0)
    with pytest.raises(NotApplicableError):
        blowup.run_blowup(datum, grid, cc, cfg)


# -- trajectory series and sandwich audits against the record loops --------------------


def reference_series(traj, norm):
    """Norm, tail-ratio and mass series as ``Trajectory.record`` used to
    compute them, one record at a time."""
    grid = traj.grid
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


def certificate(horizon, norm0, r, m):
    """An existence certificate with a finite horizon, for ``barrier_excess``."""
    return solver.ExistenceTime(horizon, math.inf, False, norm0, xlog.LogNorm(r, m))


def signed_max(rows):
    """The largest entry of the stacked ``rows``, by numpy's signed maximum,
    the reduction ``blowup`` and ``barrier_excess`` keep: so a maximum of
    zeros carries the sign that reduction gives it."""
    return float(np.maximum.reduce(np.array(rows), None))


def reference_barrier_excess(traj, norm0, horizon, r, m):
    """``solver.barrier_excess`` written as one Python loop over the
    records, each envelope from its own time factor: its one oracle."""
    w = xlog.LogNorm(r, m).weight(traj.grid.centers)
    rows = []
    for t, u in zip(traj.times, traj.fields):
        bound = (1.0 - t / horizon) ** (-1.0 / (m - 1.0)) * norm0 * w
        rows.append(np.abs(u) - bound)
    return signed_max(rows)


def reference_sandwich_gaps(traj, m, T_next, v_base, s_super, norm_far, far_weight):
    """``blowup.sandwich_gaps`` written as one Python loop over the records,
    each envelope from its own time factor: its one oracle."""
    lower, upper = [], []
    for t, f in zip(traj.times, traj.fields):
        low = (1.0 - t / T_next) ** (-1.0 / (m - 1.0)) * v_base
        lower.append(low - f)
        if t < 0.95 * s_super:
            up = (1.0 - t / s_super) ** (-1.0 / (m - 1.0)) * norm_far * far_weight
            upper.append(f - up)
    return signed_max(lower), signed_max(upper) if upper else -math.inf


@st.composite
def audited_trajectories(draw):
    """A stage trajectory, its m, its subsolution horizon, a generator and the
    profile ``v_base`` of its lower envelope, which holds exact +0.0 entries
    where W^m <= delta, as ``shift_root`` gives them.  The fields are drawn
    at random, or lie on or above the lower envelope and equal it on some
    cells (a gap of exactly 0.0), or are zeros of either sign."""
    manifold = draw(st.sampled_from([geometry.euclidean(3), geometry.quad_critical(0.5, 3)]))
    cells = draw(st.integers(min_value=3, max_value=60))
    grid = RadialGrid.uniform(manifold, draw(st.floats(min_value=1.0, max_value=25.0)), cells)
    m = draw(st.floats(min_value=1.05, max_value=4.0))
    horizon = draw(st.floats(min_value=1e-4, max_value=10.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    v_base = barriers.shift_root(rng.uniform(0.0, 9.0, cells), float(rng.uniform(0.0, 6.0)), m)
    kind = draw(st.sampled_from(["random", "on-envelope", "zeros"]))
    # 1 to 40 records in [0, horizon); t = 0, where every stage starts, is
    # left out at random so that a stage can also have no record before
    # 0.95 s_super, and a lone record may be the t = 0 one
    times = np.sort(rng.uniform(0.0, horizon, draw(st.integers(min_value=1, max_value=40)))).tolist()
    if draw(st.booleans()):
        times[0] = 0.0
    traj = solver.Trajectory(grid=grid)
    for t in times:
        low = barriers.blowup_factor(horizon, m)(t) * v_base
        if kind == "random":
            u = rng.uniform(-3.0, 3.0, cells) * rng.uniform(0.0, 1.0)
        elif kind == "on-envelope":
            u = low + rng.uniform(0.0, 1.0, cells) * (rng.random(cells) < 0.5)
        else:
            u = np.where(rng.random(cells) < 0.5, -0.0, 0.0)
        traj.record(t, u, 0.0)
    return traj, m, horizon, rng, v_base


def float_bytes(*xs):
    return np.array(xs, dtype=float).tobytes()


@given(audited_trajectories(), st.floats(min_value=1e-3, max_value=10.0), st.floats(2.0, 50.0))
@settings(max_examples=150, deadline=None)
def test_vectorised_reads_equal_the_record_loops(case, s_super, r):
    # the series, and the solve and stage audits bit for bit
    traj, m, horizon, rng, v_base = case
    norm = xlog.LogNorm(r, m)
    assert (traj.lognorms(norm), traj.tail_ratios(m), traj.masses) == reference_series(traj, norm)
    norm0 = float(rng.uniform(1e-3, 5.0))
    got = solver.barrier_excess(traj, certificate(horizon, norm0, r, m))
    assert float_bytes(got) == float_bytes(reference_barrier_excess(traj, norm0, horizon, r, m))
    n = traj.grid.cells
    args = (m, horizon, v_base, s_super, norm0, rng.uniform(0.5, 5.0, n))
    assert float_bytes(*blowup.sandwich_gaps(traj, *args)) == float_bytes(*reference_sandwich_gaps(traj, *args))


@given(audited_trajectories(), st.sampled_from(["none", "all", "some", "at-a-record"]))
@settings(max_examples=150, deadline=None)
def test_early_records_as_a_prefix_equal_the_mask(case, early):
    traj, m, horizon, rng, v_base = case
    times = traj.times
    # 0.95 s_super below the first record, above the last, anywhere, or on a record
    s_super = {
        "none": times[0] / 0.95 / 2.0,
        "all": 2.0 * times[-1] / 0.95 + 1e-3,
        "some": float(rng.uniform(0.1, 2.0)) * horizon,
        "at-a-record": times[int(rng.integers(len(times)))] / 0.95,
    }[early]
    n = traj.grid.cells
    norm_far, far_weight = rng.uniform(1e-3, 5.0), rng.uniform(0.5, 5.0, n)
    args = (m, horizon, v_base, s_super, float(norm_far), far_weight)
    got = blowup.sandwich_gaps(traj, *args)
    # the record loop tests t < 0.95 s_super record by record, a mask
    assert float_bytes(*got) == float_bytes(*reference_sandwich_gaps(traj, *args))
    if early == "none":
        assert got[1] == -math.inf


@given(audited_trajectories(), st.sampled_from(["none", "all", "some"]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_audit_keeps_its_bits_signed_zeros_included(case, early, zero_weights):
    # the envelopes as K x 1 by 1 x n products give the gaps' bytes of the
    # per-record envelopes, on profiles and weights with +0.0 entries, on
    # fields that meet the lower envelope (a lower gap of exactly +0.0) and
    # on fields of -0.0 and +0.0 (an upper gap entry of -0.0 over a weight
    # of +0.0); with no record before 0.95 s_super, every record before it,
    # and some
    traj, m, horizon, rng, v_base = case
    times = traj.times
    s_super = {
        "none": times[0] / 0.95 / 2.0,
        "all": 2.0 * times[-1] / 0.95 + 1e-3,
        "some": float(rng.uniform(0.1, 2.0)) * horizon,
    }[early]
    n = traj.grid.cells
    far_weight = rng.uniform(0.5, 5.0, n)
    if zero_weights:
        far_weight[rng.random(n) < 0.3] = 0.0
    args = (m, horizon, v_base, s_super, float(rng.uniform(1e-3, 5.0)), far_weight)
    got = blowup.sandwich_gaps(traj, *args)
    assert float_bytes(*got) == float_bytes(*reference_sandwich_gaps(traj, *args))
    assert (got[1] == -math.inf) == (s_super * 0.95 <= times[0])
    r, norm0 = float(rng.uniform(2.0, 50.0)), float(rng.uniform(1e-3, 5.0))
    got = solver.barrier_excess(traj, certificate(horizon, norm0, r, m))
    assert float_bytes(got) == float_bytes(reference_barrier_excess(traj, norm0, horizon, r, m))


def test_each_stage_audits_the_root_its_shift_accepted(monkeypatch):
    # run_blowup audits each stage against the shifted subsolution that
    # stage_delta accepted, which is shift_root(W^m, delta_n, m), bit for bit
    shifts, audits = [], []
    stage_delta, sandwich_gaps = blowup.stage_delta, blowup.sandwich_gaps

    def recording_delta(u, wm, m):
        shifts.append((wm, m))
        return stage_delta(u, wm, m)

    def recording_gaps(traj, m, horizon, v_base, *rest):
        audits.append(v_base)
        return sandwich_gaps(traj, m, horizon, v_base, *rest)

    monkeypatch.setattr(blowup, "stage_delta", recording_delta)
    monkeypatch.setattr(blowup, "sandwich_gaps", recording_gaps)
    ledger = desk_run()
    assert len(shifts) == len(audits) == len(ledger.stages)
    assert any(s.delta_n > 0.0 for s in ledger.stages)
    for (wm, m), v_base, stage in zip(shifts, audits, ledger.stages):
        assert v_base.tobytes() == barriers.shift_root(wm, stage.delta_n, m).tobytes()


def test_a_blowup_stage_never_computes_the_window_margin(monkeypatch):
    # every stage's boundary value is not +0.0, so no solve runs on a window
    # and no step size needs its margin
    calls = []
    margin = solver._window_margin
    monkeypatch.setattr(solver, "_window_margin", lambda q: calls.append(q) or margin(q))
    M = geometry.quad_critical(0.5, 3)
    cfg = blowup.BlowupConfig(m=2.0, max_stages=3, steps_per_stage=25)
    ledger = blowup.run_blowup(
        xlog.log_growth_datum(1.0, 2.0), RadialGrid.uniform(M, 12.0, 120),
        geometry.fit_comparison_constants(M), cfg,
    )
    assert len(ledger.stages) == 3 and calls == []


def previous_recorded_lognorm(u, weight, tail_est):
    """``blowup``'s recorded norm in one weight, the one oracle of
    ``_recorded_lognorms``: the largest |u|/w, or the tail estimate."""
    ratio = np.abs(u)
    np.divide(ratio, weight, ratio)
    return max(ratio.item(ratio.argmax()), tail_est)


@given(
    st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
            st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
            st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
        )
    ),
    st.floats(0.0, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_recorded_lognorms_are_the_previous_per_weight_norms(case, tail_est):
    u, weight, far_weight = (np.array(x) for x in case)
    want = (
        previous_recorded_lognorm(u, weight, tail_est),
        previous_recorded_lognorm(u, far_weight, tail_est),
    )
    got = blowup._recorded_lognorms(u, weight, far_weight, tail_est)
    assert float_bytes(*got) == float_bytes(*want)
