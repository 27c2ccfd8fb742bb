"""Implicit solver: fixed points, the classical self-similar oracle, mass
audits, comparison/order preservation, exhaustion and existence times."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_banded

from pme import barriers, geometry, solver, xlog
from pme.errors import DomainError, NotApplicableError, SolverError
from pme.grid import RadialGrid


def small_cfg(t_end, m=2.0, dt0=1e-3, **kw):
    return solver.SolverConfig(
        m=m, dt=solver.DtPolicy(dt0=dt0, growth=1.2, dt_max=1e-2), t_end=t_end, **kw
    )


# -- step basics -----------------------------------------------------------------


def test_zero_is_a_fixed_point():
    M = geometry.hyperbolic(2)
    g = RadialGrid.uniform(M, 4.0, 40)
    u, out = solver.step(np.zeros(40), 0.0, 0.05, g, small_cfg(1.0))
    assert np.all(u == 0.0)
    assert out == 0.0


def test_step_requires_positive_dt():
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, 1.0, 10)
    with pytest.raises(DomainError):
        solver.step(np.zeros(10), 0.0, 0.0, g, small_cfg(1.0))


def test_step_rejects_nonfinite_field():
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, 1.0, 10)
    bad = np.zeros(10)
    bad[3] = math.nan
    with pytest.raises(SolverError):
        solver.step(bad, 0.0, 0.01, g, small_cfg(1.0))


def test_positivity_preserved():
    M = geometry.quad_critical(0.5, 3)
    g = RadialGrid.uniform(M, 10.0, 100)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0, 100)
    traj = solver.solve_ball(u, small_cfg(0.05), g)
    for f in traj.fields:
        assert np.min(f) >= -1e-12


# -- Newton kernel ---------------------------------------------------------------------


def odd_power(u, m):
    """Signed power |u|^{m-1} u, as the reference kernels compute it."""
    return np.sign(u) * np.abs(u) ** m


def reference_newton_solve(u_old, v_b, dt, grid, m, tol, max_iter):
    """The kernel as it was before the direct LAPACK call and residual reuse."""
    cm = dt * grid.coeff_minus
    cp = dt * grid.coeff_plus
    n = u_old.size
    u = u_old.copy()
    uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))

    def residual(u):
        v = odd_power(u, m)
        right = np.empty(n)
        right[:-1] = v[1:]
        right[-1] = v_b
        left = np.empty(n)
        left[0] = 0.0
        left[1:] = v[:-1]
        return (u - u_old) - (cp * (right - v) - cm * (v - left))

    g = residual(u)
    g_norm = float(np.max(np.abs(g)))
    for _ in range(max_iter):
        if g_norm <= tol * uscale:
            return u, True, g_norm
        dv = m * (np.abs(u) ** (m - 1.0) + solver.JACOBIAN_EPS)
        ab = np.zeros((3, n))
        ab[1, :] = 1.0 + (cp + cm) * dv
        ab[0, 1:] = -cp[:-1] * dv[1:]
        ab[2, :-1] = -cm[1:] * dv[:-1]
        try:
            delta = solve_banded((1, 1), ab, -g)
        except Exception:
            return u, False, g_norm
        lam = 1.0
        while lam > 2.0**-30:
            g_new_norm = float(np.max(np.abs(residual(u + lam * delta))))
            if g_new_norm < (1.0 - 0.25 * lam) * g_norm or g_new_norm <= tol * uscale:
                break
            lam *= 0.5
        u = u + lam * delta
        g = residual(u)
        g_norm = float(np.max(np.abs(g)))
    return u, g_norm <= tol * uscale, g_norm


BUILTIN_MANIFOLDS = [
    geometry.euclidean(3),
    geometry.hyperbolic(2),
    geometry.quad_critical(0.5, 3),
    geometry.quad_critical(1.0, 2),
    geometry.log_critical(1.0, 2),
]


@st.composite
def newton_cases(draw):
    manifold = draw(st.sampled_from(BUILTIN_MANIFOLDS))
    cells = draw(st.integers(min_value=3, max_value=80))
    radius = draw(st.floats(min_value=1.0, max_value=20.0))
    values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    u_old = np.array(draw(st.lists(values, min_size=cells, max_size=cells)))
    m = draw(st.sampled_from([1.5, 2.0, 3.0]))
    dt = draw(st.floats(min_value=1e-5, max_value=1.0))
    v_b = draw(values)
    max_iter = draw(st.integers(min_value=1, max_value=30))
    return RadialGrid.uniform(manifold, radius, cells), u_old, m, dt, v_b, max_iter


@given(newton_cases())
@settings(max_examples=150, deadline=None)
def test_newton_solve_matches_reference_kernel(case):
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    u, ok, res = solver._newton_solve(*args)
    u_ref, ok_ref, res_ref = reference_newton_solve(*args)
    assert np.array_equal(u, u_ref)
    assert ok == ok_ref
    assert res == res_ref


def plain_newton_solve(u_old, v_b, dt, grid, m, tol, max_iter, start=None):
    """The kernel before its per-call trimming: |u| recomputed for the
    Jacobian, ``-g`` and each trial point new arrays.  ``_newton_solve`` must
    reproduce it byte for byte."""
    dgtsv = solver.dgtsv  # resolved per call, so that a stub reaches both kernels
    cm = dt * grid.coeff_minus
    cp = dt * grid.coeff_plus
    n = u_old.size
    u = (u_old if start is None else start).copy()
    uscale = max(1.0, float(np.abs(u_old).max()), abs(v_b) ** (1.0 / m))
    target = tol * uscale
    c_diag = cp + cm
    c_upper = -cp[:-1]
    c_lower = -cm[1:]
    jac = np.empty(3 * n - 2)
    diag, upper, lower = jac[:n], jac[n : 2 * n - 1], jac[2 * n - 1 :]

    def residual(u):
        v = odd_power(u, m)
        jump = np.empty(n + 1)
        jump[0] = v[0]
        np.subtract(v[1:], v[:-1], out=jump[1:-1])
        jump[-1] = v_b - v[-1]
        return (u - u_old) - (cp * jump[1:] - cm * jump[:-1])

    g = residual(u)
    g_norm = float(np.abs(g).max())
    for _ in range(max_iter):
        if g_norm <= target:
            return u, True, g_norm
        if not math.isfinite(g_norm):
            return u, False, g_norm
        dv = m * (np.abs(u) ** (m - 1.0) + solver.JACOBIAN_EPS)
        np.multiply(c_diag, dv, out=diag)
        diag += 1.0
        np.multiply(c_upper, dv[1:], out=upper)
        np.multiply(c_lower, dv[:-1], out=lower)
        if not np.isfinite(jac).all():
            return u, False, g_norm
        _, _, _, delta, info = dgtsv(
            lower, diag, upper, -g,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        if info != 0 or not np.isfinite(delta).all():
            return u, False, g_norm
        lam = 1.0
        while lam > 2.0**-30:
            trial = u + lam * delta
            g_trial = residual(trial)
            g_trial_norm = float(np.abs(g_trial).max())
            if g_trial_norm < (1.0 - 0.25 * lam) * g_norm or g_trial_norm <= target:
                u, g, g_norm = trial, g_trial, g_trial_norm
                break
            lam *= 0.5
        else:
            u = u + lam * delta
            g = residual(u)
            g_norm = float(np.abs(g).max())
    return u, g_norm <= target, g_norm


def plain_step_kernel(u_old, v_b, dt, grid, m, tol, max_iter, start, work):
    """``plain_newton_solve`` as ``step`` calls it: it also leaves in the
    workspace the boundary jump that ``step`` reads, computed from the
    returned field as v_b - sign(u)|u|^m at its last cell."""
    u, ok, res = plain_newton_solve(u_old, v_b, dt, grid, m, tol, max_iter, start)
    work.jump[-1] = v_b - float(odd_power(u[-1:], m)[0])
    return u, ok, res


FAMILIES = [
    geometry.euclidean(3),
    geometry.hyperbolic(2),
    geometry.quad_critical(0.5, 3),
    geometry.log_critical(1.0, 2),
]


@st.composite
def signed_newton_cases(draw):
    """Mixed-sign fields with exact zeros of both signs, scattered and in one
    block, and now and then a value whose power overflows, so the failure
    paths are drawn too.  In a zero block the Jacobian couples cells only
    through JACOBIAN_EPS, so the Newton direction underflows to exact zeros
    there, and the sign of each zero cell must come out as the plain
    kernel's."""
    manifold = draw(st.sampled_from(FAMILIES))
    cells = draw(st.integers(min_value=3, max_value=80))
    radius = draw(st.floats(min_value=1.0, max_value=20.0))
    zero = st.sampled_from([0.0, -0.0])
    value = st.one_of(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), zero)
    values = draw(st.lists(value, min_size=cells, max_size=cells))
    start = draw(st.integers(min_value=0, max_value=cells))
    stop = draw(st.integers(min_value=start, max_value=cells))
    values[start:stop] = draw(st.lists(zero, min_size=stop - start, max_size=stop - start))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        values[draw(st.integers(min_value=0, max_value=cells - 1))] = draw(
            st.sampled_from([1e200, -1e200])
        )
    m = draw(st.floats(min_value=1.2, max_value=4.0))
    dt = draw(st.floats(min_value=1e-5, max_value=1.0))
    v_b = draw(value)
    max_iter = draw(st.integers(min_value=1, max_value=30))
    grid = RadialGrid.uniform(manifold, radius, cells)
    return grid, np.array(values), m, dt, v_b, max_iter


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@given(signed_newton_cases())
@settings(max_examples=300, deadline=None)
def test_newton_solve_is_bitwise_the_plain_kernel(case):
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    with np.errstate(all="ignore"):
        u, ok, res = solver._newton_solve(*args)
        u_ref, ok_ref, res_ref = plain_newton_solve(*args)
    assert same_bytes(u, u_ref)
    assert ok == ok_ref
    assert same_bytes(res, res_ref)


@given(signed_newton_cases(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_step_through_halvings_is_bitwise_the_plain_kernel(case, singular):
    # the first ``singular`` LAPACK calls of each run report a singular
    # system, so ``step`` halves whenever its first solve needs an iteration
    grid, u_old, m, dt, _, _ = case
    cfg = small_cfg(1.0, m=m)
    real_dgtsv = solver.dgtsv

    def run(kernel):
        calls = []

        def singular_first(*args, **kw):
            calls.append(1)
            *out, info = real_dgtsv(*args, **kw)
            return (*out, 1 if len(calls) <= singular else info)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", singular_first)
            mp.setattr(solver, "_newton_solve", kernel)
            try:
                with np.errstate(all="ignore"):
                    return solver.step(u_old, 0.0, dt, grid, cfg)
            except SolverError as exc:
                return str(exc)

    got, want = run(solver._newton_solve), run(plain_step_kernel)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


# -- predictor start ------------------------------------------------------------------------


@given(signed_newton_cases())
@settings(max_examples=150, deadline=None)
def test_newton_solve_from_a_copy_of_the_old_field_is_the_default_start(case):
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    # the copy either in a new array or in the workspace's own start buffer,
    # which the solve begins from without copying it
    work = solver.NewtonWorkspace(grid, m)
    with np.errstate(all="ignore"):
        copied = solver._newton_solve(*args, start=u_old.copy())
        np.copyto(work.start, u_old)
        in_place = solver._newton_solve(*args, start=work.start, work=work)
        u_ref, ok_ref, res_ref = solver._newton_solve(*args)
    for u, ok, res in (copied, in_place):
        assert same_bytes(u, u_ref)
        assert ok == ok_ref
        assert same_bytes(res, res_ref)


@st.composite
def polynomial_levels(draw):
    """Accepted levels of a field that is a polynomial in t, oldest first,
    and the step d to the new level: five levels on one drawn step size with
    degree <= 4, or two to five levels on drawn step sizes with degree <= 1
    from two levels and <= 2 from more.  Returns the levels, d, whether the
    steps are uniform, the exact new field and the exact weights of the
    levels the guess uses, as Fractions."""
    cells = draw(st.integers(min_value=3, max_value=6))
    size = st.floats(min_value=1e-6, max_value=1.0)
    uniform = draw(st.booleans())
    if uniform:
        d = draw(size)
        steps, degree = [d] * 4, 4
    else:
        count = draw(st.integers(min_value=1, max_value=4))
        steps, d = draw(st.lists(size, min_size=count, max_size=count)), draw(size)
        degree = min(count, 2)
    coeff = st.floats(min_value=-100.0, max_value=100.0)
    coeffs = [
        [Fraction(c) for c in draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))]
        for _ in range(cells)
    ]

    def field_at(s):  # exact, per cell
        return [sum(c * s**j for j, c in enumerate(cs)) for cs in coeffs]

    # level k sits sum(steps[k:]) before the newest; the first level's size is unused
    ages = [-sum(map(Fraction, steps[k:])) for k in range(len(steps) + 1)]
    levels = [
        (step_size, np.array([float(x) for x in field_at(age)]))
        for step_size, age in zip([0.0, *steps], ages)
    ]
    used = ages[-(5 if uniform else min(len(ages), 3)) :]
    new = Fraction(d)
    weights = [math.prod((new - sj) / (si - sj) for sj in used if sj != si) for si in used]
    return levels, d, uniform, field_at(new), weights


@given(polynomial_levels())
@settings(max_examples=200, deadline=None)
def test_guess_reproduces_polynomial_fields(case):
    # The guess is exact on polynomials of its degree up to rounding: the
    # levels are rounded once each, every weight is within 8 roundings of its
    # exact value (the uniform ones are exact) and the weighted sum adds at
    # most 6 more, so 16 unit roundoffs of sum |w_i u_i| bound the error.
    levels, d, uniform, exact, weights = case
    work = solver.NewtonWorkspace(RadialGrid.uniform(geometry.euclidean(2), 1.0, len(exact)), 2.0)
    guess = solver._extrapolate(levels, d, uniform, work)
    assert guess is work.start
    used = [u for _, u in levels[-len(weights) :]]
    for i, want in enumerate(exact):
        scale = sum(abs(w) * abs(Fraction(u[i])) for w, u in zip(weights, used))
        assert abs(Fraction(guess[i]) - want) <= 8 * np.finfo(float).eps * scale


def test_one_level_gives_no_guess():
    work = solver.NewtonWorkspace(RadialGrid.uniform(geometry.euclidean(2), 1.0, 4), 2.0)
    assert solver._extrapolate([(0.0, np.ones(4))], 0.1, False, work) is None


def test_uniform_steps_take_the_quartic_and_fewer_newton_iterations():
    # A fixed-step Barenblatt run guesses from the quartic from its sixth step
    # on.  The quartic's error falls like dt^5 against the quadratic's dt^3,
    # so the saving grows as the grid is refined: at dt = h/2 the run makes
    # 76% of the quadratic run's LAPACK calls at J = 500, 64% at J = 2000.
    real_dgtsv, extrapolate = solver.dgtsv, solver._extrapolate

    def run(quartic):
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return real_dgtsv(*args, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", counting)
            if not quartic:
                mp.setattr(
                    solver, "_extrapolate", lambda lv, d, uniform, w: extrapolate(lv, d, False, w)
                )
            err = barenblatt_l1_error(2000)[0]
        return len(calls), err

    (calls, err), (quadratic_calls, quadratic_err) = run(True), run(False)
    assert calls < 0.7 * quadratic_calls
    assert err != quadratic_err  # the quartic did change the iterates


def run_step(u, dt, grid, cfg, start=None):
    try:
        with np.errstate(all="ignore"):
            return solver.step(u, 0.0, dt, grid, cfg, start)
    except SolverError as exc:
        return str(exc)


@given(signed_newton_cases())
@settings(max_examples=60, deadline=None)
def test_step_after_a_failed_prediction_is_the_start_free_step(case):
    # the guess, a constant, is no solution, so the predicted solve needs a
    # Newton iteration, and its first LAPACK call reports a singular system
    grid, u_old, m, dt, _, _ = case
    cfg = small_cfg(1.0, m=m)
    want = run_step(u_old, dt, grid, cfg)
    real_dgtsv, calls = solver.dgtsv, []

    def singular_first(*args, **kw):
        calls.append(1)
        *out, info = real_dgtsv(*args, **kw)
        return (*out, 1 if len(calls) == 1 else info)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "dgtsv", singular_first)
        got = run_step(u_old, dt, grid, cfg, start=np.full(grid.cells, 0.5))
    assert calls
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


def recorded_run(u0, cfg, grid, predicted=True):
    """``solve_ball``'s trajectory, each step's count of accepted solves, and
    the moves of the accepted solves summed up to each step (the bound of
    test_scaling_group).  ``predicted=False`` drops the guess that
    ``solve_ball`` hands to ``step``, so every solve starts from the old
    field."""
    eps = np.finfo(float).eps
    newton_solve, step = solver._newton_solve, solver.step
    solves, moves = [], [0.0]

    def recording_solve(u_old, v_b, d, grid, m, tol, max_iter, start=None, work=None):
        out = newton_solve(u_old, v_b, d, grid, m, tol, max_iter, start, work)
        if out[1]:
            uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))
            coeff = float(np.max(d * (grid.coeff_plus + grid.coeff_minus)))
            moves[-1] += tol * uscale + 8 * eps * (uscale + coeff * uscale**m)
            solves[-1] += 1
        return out

    def marking_step(u, t, dt, grid, cfg, start=None, work=None):
        solves.append(0)
        moves.append(moves[-1])
        return step(u, t, dt, grid, cfg, start if predicted else None, work)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", recording_solve)
        mp.setattr(solver, "step", marking_step)
        traj = solver.solve_ball(u0, cfg, grid)
    return traj, solves, np.array(moves)


@pytest.mark.parametrize("manifold", FAMILIES, ids=lambda m: m.kind)
@pytest.mark.parametrize("boundary", ["dirichlet", "barrier"])
def test_predicted_run_agrees_with_the_start_free_run(manifold, boundary):
    # Both runs solve the same substeps under the same Dirichlet data, and
    # the step is a contraction in the cell-weighted L1 norm; an accepted
    # solve is the exact step from a field moved by its residual.  So after
    # k steps the two fields differ by at most W times the moves of both
    # runs' first k steps, W = sum of the scaled cell weights.
    m = 2.0
    grid = RadialGrid.uniform(manifold, 8.0, 60)
    bc = solver.HomogeneousDirichlet()
    if boundary == "barrier":
        bc = solver.BarrierDirichlet(barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=m))
    cfg = small_cfg(0.2, m=m, boundary=bc)
    u0 = np.random.default_rng(5).uniform(-1.5, 1.5, grid.cells)
    got, got_solves, got_moves = recorded_run(u0, cfg, grid)
    want, want_solves, want_moves = recorded_run(u0, cfg, grid, predicted=False)
    assert got.times == want.times
    assert got_solves == want_solves
    W = float(np.sum(grid.weights_scaled))
    bound = W * (got_moves + want_moves)
    diff = [float(grid.weights_scaled @ np.abs(a - b)) for a, b in zip(got.fields, want.fields)]
    assert np.all(diff <= bound)
    assert max(diff) > 0.0  # the guess did change the iterates


# -- one workspace per run -----------------------------------------------------------------


@st.composite
def workspace_runs(draw):
    """A short run on any family under homogeneous or barrier Dirichlet data,
    from mixed-sign data with exact zeros of both signs."""
    manifold = draw(st.sampled_from(FAMILIES))
    cells = draw(st.integers(min_value=3, max_value=60))
    radius = draw(st.floats(min_value=1.0, max_value=20.0))
    zero = st.sampled_from([0.0, -0.0])
    value = st.one_of(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), zero)
    u0 = np.array(draw(st.lists(value, min_size=cells, max_size=cells)))
    m = draw(st.sampled_from([1.5, 2.0, 3.0]))
    dt0 = draw(st.floats(min_value=1e-4, max_value=0.02))
    bc = solver.HomogeneousDirichlet()
    if draw(st.booleans()):
        params = barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=m)
        bc = solver.BarrierDirichlet(params, draw(st.floats(min_value=0.0, max_value=2.0)))
    # fixed steps guess from the quartic from the sixth step on
    steps = draw(st.integers(min_value=1, max_value=8))
    growth = draw(st.sampled_from([1.0, 1.25]))
    cfg = solver.SolverConfig(
        m=m, dt=solver.DtPolicy(dt0=dt0, growth=growth), t_end=steps * dt0, boundary=bc
    )
    return RadialGrid.uniform(manifold, radius, cells), u0, cfg


def workspace_run(u0, cfg, grid, shared=True):
    """``solve_ball``'s trajectory, the workspaces its solves were handed,
    and each step's outflow summed from the returned fields:
    -d * boundary_flux_coeff * (v_b - sign(u)|u|^m at the last cell) over
    the step's accepted solves.  ``shared=False`` drops the run's
    workspace, so that each step builds its own."""
    newton_solve, step = solver._newton_solve, solver.step
    works, outflows = [], []

    def recording_solve(u_old, v_b, d, grid, m, tol, max_iter, start=None, work=None):
        out = newton_solve(u_old, v_b, d, grid, m, tol, max_iter, start, work)
        works.append(work)
        if out[1]:
            jump = v_b - float(odd_power(out[0][-1:], m)[0])
            outflows[-1] += -d * grid.boundary_flux_coeff * jump
        return out

    def marking_step(u, t, dt, grid, cfg, start=None, work=None):
        outflows.append(0.0)
        return step(u, t, dt, grid, cfg, start, work if shared else None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", recording_solve)
        mp.setattr(solver, "step", marking_step)
        traj = solver.solve_ball(u0, cfg, grid)
    return traj, works, outflows


@given(workspace_runs())
@settings(max_examples=80, deadline=None)
def test_run_shares_one_workspace_and_no_field_with_it(run):
    grid, u0, cfg = run
    given_u0 = u0.tobytes()
    traj, works, outflows = workspace_run(u0, cfg, grid)
    work = works[0]
    assert all(w is work for w in works)
    buffers = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
    fields = traj.fields
    for i, f in enumerate(fields):
        assert not any(np.shares_memory(f, g) for g in fields[i + 1 :])
        assert not any(np.shares_memory(f, b) for b in buffers)
    assert u0.tobytes() == given_u0
    # the outflow is the one of the sign(u)|u|^m formula, bit for bit
    assert same_bytes(traj.boundary_outflow[1:], outflows)
    # reusing the workspace from step to step moves no bit
    fresh, fresh_works, _ = workspace_run(u0, cfg, grid, shared=False)
    assert len({id(w) for w in fresh_works}) == len(fresh.times) - 1  # one per step
    assert fresh.times == traj.times
    assert same_bytes(fresh.stacked, traj.stacked)
    assert same_bytes(fresh.boundary_outflow, traj.boundary_outflow)
    # a second run on the same grid leaves the first trajectory's bytes alone
    recorded = [f.tobytes() for f in fields]
    solver.solve_ball(-0.5 * u0[::-1], cfg, grid)
    assert [f.tobytes() for f in traj.fields] == recorded
    # a callable datum may return an array it keeps; the run records none of it
    held = u0.copy()
    kept = solver.solve_ball(lambda centers: held, cfg, grid)
    assert not any(np.shares_memory(f, held) for f in kept.fields)


# -- the LAPACK binary ------------------------------------------------------------------


@st.composite
def tridiagonal_systems(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    dl, d, du, b = (
        np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        for k in (n - 1, n, n - 1, n)
    )
    kind = draw(st.sampled_from(["plain", "pivoting", "singular"]))
    if kind == "pivoting":
        # a diagonal far below the subdiagonal makes dgtsv swap rows
        d *= 1e-3
        dl = np.where(np.abs(dl) < 1.0, 5.0, dl)
    elif kind == "singular":
        # column k is zero: d[k], dl[k] and du[k-1] vanish
        k = draw(st.integers(min_value=0, max_value=n - 1))
        d[k] = 0.0
        if k < n - 1:
            dl[k] = 0.0
        if k > 0:
            du[k - 1] = 0.0
    return dl, d, du, b


@given(tridiagonal_systems())
@settings(max_examples=200, deadline=None)
def test_dgtsv_is_scipys_binary(system):
    # every output, bit for bit, including the info of a singular system
    *arrays, info = solver.dgtsv(*(a.copy() for a in system))
    *ref_arrays, ref_info = lapack.dgtsv(*(a.copy() for a in system))
    assert info == ref_info
    for a, ref in zip(arrays, ref_arrays):
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes()


SOLVE_DIGEST = """
import hashlib
import numpy as np
{before}
from pme import geometry, solver
from pme.grid import RadialGrid
{after}
g = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 10.0, 80)
u0 = np.random.default_rng(3).uniform(-1.0, 2.0, 80)
dt = solver.DtPolicy(dt0=1e-3, growth=1.2, dt_max=1e-2)
traj = solver.solve_ball(u0, solver.SolverConfig(m=2.0, dt=dt, t_end=0.05), g)
print(hashlib.sha256(b"".join(f.tobytes() for f in traj.fields)).hexdigest())
"""


def solve_digest(before="", after=""):
    code = SOLVE_DIGEST.format(before=before, after=after)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_solve_unchanged_by_importing_scipy_linalg_before_or_after():
    alone = solve_digest()
    assert solve_digest(before="import scipy.linalg") == alone
    assert solve_digest(after="import scipy.linalg") == alone


@pytest.mark.parametrize(
    "finder", ["importlib.util.find_spec", "importlib.machinery.PathFinder.find_spec"]
)
def test_missing_lapack_extension_names_scipy(monkeypatch, finder):
    monkeypatch.setattr(finder, lambda *args: None)
    with pytest.raises(ImportError, match="scipy"):
        solver._load_dgtsv()


def fake_dgtsv(delta_value=None, info=0):
    """dgtsv stand-in returning ``info`` and, if given, a constant direction."""

    def call(dl, d, du, b, **kw):
        x = b if delta_value is None else np.full_like(b, delta_value)
        return dl, d, du, x, info

    return call


def newton_args(J=20):
    g = RadialGrid.uniform(geometry.euclidean(2), 2.0, J)
    u_old = np.linspace(1.0, 0.5, J)
    return u_old, 0.0, 0.01, g, 2.0, 1e-10, 30


@pytest.mark.parametrize(
    "stub", [fake_dgtsv(info=3), fake_dgtsv(delta_value=math.nan), fake_dgtsv(math.inf)],
    ids=["singular", "nan-direction", "inf-direction"],
)
def test_newton_solve_fails_on_singular_or_nonfinite_system(monkeypatch, stub):
    monkeypatch.setattr(solver, "dgtsv", stub)
    u_old = newton_args()[0]
    u, ok, res = solver._newton_solve(*newton_args())
    assert not ok
    assert np.array_equal(u, u_old)  # nothing non-finite reached the iterate
    assert math.isfinite(res)


def test_newton_solve_fails_on_overflowing_field():
    u_old, v_b, dt, g, m, tol, max_iter = newton_args()
    u_old = u_old.copy()
    u_old[5] = 1e200  # |u|^2 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        u, ok, res = solver._newton_solve(u_old, v_b, dt, g, m, tol, max_iter)
    assert not ok
    assert not math.isfinite(res)


def test_step_halves_after_a_singular_system(monkeypatch):
    u0, v_b, dt, g, m, tol, max_iter = newton_args()
    cfg = small_cfg(1.0, m=m)
    want = u0
    for k in range(2):
        want, _ = solver.step(want, k * dt / 2, dt / 2, g, cfg)

    real_dgtsv, calls = solver.dgtsv, []

    def singular_first(*args, **kw):
        calls.append(1)
        *out, info = real_dgtsv(*args, **kw)
        return (*out, 1 if len(calls) == 1 else info)

    solved = []
    real_solve = solver._newton_solve

    def recording_solve(u, v_b, d, *rest):
        out = real_solve(u, v_b, d, *rest)
        solved.append((d, out[1]))
        return out

    monkeypatch.setattr(solver, "dgtsv", singular_first)
    monkeypatch.setattr(solver, "_newton_solve", recording_solve)
    u, _ = solver.step(u0, 0.0, dt, g, cfg)
    assert solved == [(dt, False), (dt / 2, True), (dt / 2, True)]
    assert np.array_equal(u, want)


def test_step_spends_at_most_the_substep_budget(monkeypatch):
    g = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    calls = []

    def fails_above(threshold):
        def stub(u, v_b, d, *rest):
            calls.append(d)
            return u, d <= threshold, 0.0

        return stub

    # 64 accepted substeps and 63 rejected ones fit in the budget
    monkeypatch.setattr(solver, "_newton_solve", fails_above(1.0 / 64))
    solver.step(np.zeros(10), 0.0, 1.0, g, small_cfg(1.0))
    assert len(calls) == 127

    # depth 30 < MAX_HALVINGS, but about 2^31 solves: the budget stops it
    calls.clear()
    monkeypatch.setattr(solver, "_newton_solve", fails_above(1e-9))
    with pytest.raises(SolverError, match="budget"):
        solver.step(np.zeros(10), 0.0, 1.0, g, small_cfg(1.0))
    assert len(calls) == solver.MAX_SUBSTEPS


def test_halving_failure_names_the_last_residual_and_its_target(monkeypatch):
    # every LAPACK call reports a singular system, so each solve that needs a
    # Newton iteration fails; at depth MAX_HALVINGS the step's residual still
    # exceeds the target, as where a run stalls at its rounding floor
    u_old, v_b, _, g, m, tol, max_iter = newton_args()
    u0, dt = 100.0 * u_old, 10.0
    monkeypatch.setattr(solver, "dgtsv", fake_dgtsv(info=3))
    d = dt / 2.0**solver.MAX_HALVINGS
    _, ok, res = solver._newton_solve(u0, v_b, d, g, m, tol, max_iter)
    target = tol * 100.0
    assert not ok and res > target
    with pytest.raises(SolverError) as exc:
        solver.step(u0, 0.0, dt, g, small_cfg(1.0, m=m))
    assert str(exc.value) == (
        f"Newton failed after {solver.MAX_HALVINGS} halvings at t=0"
        f" (last failed solve: residual {res:.3g}, target {target:.3g})"
    )


def test_budget_failure_names_the_last_residual_and_its_target(monkeypatch):
    g = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    u0 = np.full(10, -3.0)
    failed = []

    def fails_above_1e9(u, v_b, d, *rest):
        if d <= 1e-9:
            return u, True, 0.0
        failed.append(7.0 * d)
        return u, False, failed[-1]

    monkeypatch.setattr(solver, "_newton_solve", fails_above_1e9)
    with pytest.raises(SolverError, match="budget") as exc:
        solver.step(u0, 0.0, 1.0, g, small_cfg(1.0))
    assert str(exc.value).endswith(
        f" (last failed solve: residual {failed[-1]:.3g}, target {3e-10:.3g})"
    )


# -- configuration invariants ------------------------------------------------------


@pytest.mark.parametrize("dt_max", [0.0, -1e-3, math.nan])
def test_dt_policy_rejects_nonpositive_dt_max(dt_max):
    with pytest.raises(DomainError, match="dt_max"):
        solver.DtPolicy(dt0=1e-3, dt_max=dt_max)


@pytest.mark.parametrize("key", ["snapshot_stride", "newton_max_iter"])
@pytest.mark.parametrize("value", [0, -1])
def test_solver_config_rejects_counts_below_one(key, value):
    with pytest.raises(DomainError, match=key):
        small_cfg(1.0, **{key: value})


# -- Barenblatt oracle --------------------------------------------------------------


def barenblatt_l1_error(J, t0=1.0, t1=2.0, mass_const=0.25):
    """L1 error relative to the exact profile, max-norm error over h * max
    exact, and the trajectory of the Euclidean (N=2, m=2) source solution."""
    M = geometry.euclidean(2)
    R = 6.0
    g = RadialGrid.uniform(M, R, J)
    u0 = solver.barenblatt(g.centers, t0, 2, 2.0, mass_const)
    h = R / J
    cfg = solver.SolverConfig(
        m=2.0,
        dt=solver.DtPolicy(dt0=0.5 * h, growth=1.0),
        t_end=t1 - t0,
        snapshot_stride=10**9,
    )
    traj = solver.solve_ball(u0, cfg, g)
    exact = solver.barenblatt(g.centers, t1, 2, 2.0, mass_const)
    diff = np.abs(traj.final - exact)
    err = np.dot(g.weights_scaled, diff) / np.dot(g.weights_scaled, exact)
    return err, float(np.max(diff)) / (h * float(np.max(exact))), traj


def test_barenblatt_profile_is_tracked():
    err, _, traj = barenblatt_l1_error(500)
    assert err < 0.02
    # compactly supported: no outflow, mass conserved tightly
    assert abs(traj.masses[-1] - traj.masses[0]) <= 1e-9 * traj.masses[0]


def test_barenblatt_convergence_order():
    e1, _, _ = barenblatt_l1_error(400)
    e2, _, _ = barenblatt_l1_error(800)
    assert e1 / e2 >= 1.8


def test_barenblatt_max_norm_error_calibrates_tau_h():
    # tau_h's coefficient: the max-norm error stays below TAU_H_COEFF * h * max|u|
    # at dt = h/2 on J = 250 ... 4000 cells (0.098 at J = 250, worst 0.320 at 4000)
    worst = max(barenblatt_l1_error(J)[1] for J in (250, 500, 1000, 2000, 4000))
    assert worst < solver.TAU_H_COEFF


def test_support_radius_helper():
    r = solver.barenblatt_support_radius(1.0, 2, 2.0, 0.25)
    assert r == pytest.approx(2.0, rel=1e-12)
    assert solver.barenblatt(np.array([r * 1.01]), 1.0, 2, 2.0, 0.25)[0] == 0.0


# -- mass audit -----------------------------------------------------------------------


def test_mass_audit_tracks_boundary_flux():
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, 3.0, 120)
    traj = solver.solve_ball(np.ones(120), small_cfg(0.3), g)
    dm = np.diff(traj.masses)
    outflow = np.array(traj.boundary_outflow[1:])
    scale = max(abs(m) for m in traj.masses)
    assert np.max(np.abs(dm + outflow)) <= 1e-6 * scale
    assert np.all(dm < 0)  # constant datum, zero boundary: mass leaves


def test_mass_audit_on_warped_model():
    M = geometry.quad_critical(0.5, 3)
    g = RadialGrid.uniform(M, 10.0, 150)
    u0 = xlog.log_growth_profile(1.0, 2.0)(g.centers)
    traj = solver.solve_ball(u0, small_cfg(0.02, dt0=2e-4), g)
    dm = np.diff(traj.masses)
    outflow = np.array(traj.boundary_outflow[1:])
    scale = max(abs(m) for m in traj.masses)
    assert np.max(np.abs(dm + outflow)) <= 1e-6 * scale


# -- odd symmetry -------------------------------------------------------------------------


@st.composite
def symmetric_runs(draw):
    grid, u0, m, dt0, _, _ = draw(newton_cases())
    steps = draw(st.integers(min_value=1, max_value=8))
    cfg = solver.SolverConfig(
        m=m, dt=solver.DtPolicy(dt0=dt0, growth=1.25), t_end=steps * dt0
    )
    return grid, u0, cfg


@given(symmetric_runs())
@settings(max_examples=60, deadline=None)
def test_odd_symmetry_is_exact(run):
    # every operation of the scheme commutes with negation under homogeneous
    # Dirichlet data, so -u0 gives -u exactly (== treats 0.0 and -0.0 alike)
    grid, u0, cfg = run
    a = solver.solve_ball(u0, cfg, grid)
    b = solver.solve_ball(-u0, cfg, grid)
    assert b.times == a.times
    assert all(np.array_equal(fb, -fa) for fa, fb in zip(a.fields, b.fields, strict=True))
    assert b.masses == [-x for x in a.masses]
    assert b.boundary_outflow == [-x for x in a.boundary_outflow]
    assert b.lognorms == a.lognorms
    assert b.tail_ratios == a.tail_ratios


@given(symmetric_runs())
@settings(max_examples=80, deadline=None)
def test_mass_balance_per_recorded_interval(run):
    # Each accepted Newton solve leaves a residual g with max|g| <= tol * uscale,
    # uscale = max(1, max|u_old|, |v_b|^(1/m)) <= U = max(1, max|u0|) under
    # homogeneous Dirichlet data.  The flux terms of sum_i w_i g_i telescope
    # to the boundary outflow, so each recorded interval obeys
    #   |dmass + outflow| <= solves * tol * U * W + 8 cells eps W U^m,
    # W = sum of the scaled cell weights; the second term covers rounding in
    # the masses and in the flux sums.
    grid, u0, cfg = run
    solves = []  # accepted Newton solves of each step, one step per record
    newton_solve, step = solver._newton_solve, solver.step

    def counting_newton_solve(*args):
        out = newton_solve(*args)
        solves[-1] += out[1]
        return out

    def counting_step(*args):
        solves.append(0)
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", counting_newton_solve)
        mp.setattr(solver, "step", counting_step)
        traj = solver.solve_ball(u0, cfg, grid)
    W = float(np.sum(grid.weights_scaled))
    U = max(1.0, float(np.max(np.abs(u0))))
    bound = (
        np.array(solves) * cfg.newton_tol * U * W
        + 8 * grid.cells * np.finfo(float).eps * W * U**cfg.m
    )
    defect = np.abs(np.diff(traj.masses) + traj.boundary_outflow[1:])
    assert len(defect) == len(solves)
    assert np.all(defect <= bound)


# -- PME scaling group -------------------------------------------------------------------


@pytest.mark.parametrize("manifold", FAMILIES, ids=lambda m: m.kind)
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_scaling_group(manifold, m, lam):
    # v = lam * u(lam^(m-1) t) solves the PME when u does.  The implicit step
    # maps over exactly: from lam * u_old with dt / lam^(m-1), the residual at
    # lam * u is lam times the residual at u.  An accepted solve with residual
    # g solves the step exactly from u_old + g, with max|g| <= tol * uscale
    # plus rounding: 4 eps per entry of each operand, and the operands are at
    # most 2 uscale and 2 dt (cp + cm) uscale^m.  The step is a contraction in
    # the cell-weighted L1 norm (monotone, conservative, Dirichlet), so after
    # the run |lam u - v|_1 is at most W times the sum of these moves, lam
    # times those of the run from u0 plus those of the run from lam u0;
    # W = sum of the scaled cell weights.  Not exact, because uscale =
    # max(1, ...) does not scale with lam.
    grid = RadialGrid.uniform(manifold, 8.0, 60)
    cfg = small_cfg(1.0, m=m)
    eps = np.finfo(float).eps
    moves = []  # [run from u0, run from lam u0]
    newton_solve = solver._newton_solve

    def recording_solve(u_old, v_b, d, grid, m, tol, max_iter, start=None, work=None):
        out = newton_solve(u_old, v_b, d, grid, m, tol, max_iter, start, work)
        if out[1]:
            uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))
            coeff = float(np.max(d * (grid.coeff_plus + grid.coeff_minus)))
            moves[-1] += tol * uscale + 8 * eps * (uscale + coeff * uscale**m)
        return out

    u = np.random.default_rng(1).uniform(-1.5, 1.5, grid.cells)
    v = lam * u
    s = lam ** (m - 1.0)
    t = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", recording_solve)
        for k in range(40):
            dt = 1e-3 * 1.1**k
            moves.append(0.0)
            u, _ = solver.step(u, t, dt, grid, cfg)
            moves.append(0.0)
            v, _ = solver.step(v, t / s, dt / s, grid, cfg)
            t += dt
    W = float(np.sum(grid.weights_scaled))
    bound = W * (lam * sum(moves[0::2]) + sum(moves[1::2]))
    assert float(grid.weights_scaled @ np.abs(lam * u - v)) <= bound


# -- comparison principle ---------------------------------------------------------------


@pytest.mark.parametrize("manifold", FAMILIES, ids=lambda m: m.kind)
def test_discrete_comparison_fifty_random_pairs(manifold):
    rng = np.random.default_rng(hash(manifold.kind) % 2**32)
    J = 60
    g = RadialGrid.uniform(manifold, 8.0, J)
    worst = -math.inf
    for _ in range(50):
        lo = rng.uniform(-1.5, 1.5, J)
        hi = lo + rng.uniform(0.0, 1.0, J)
        cfg = small_cfg(0.1, dt0=2e-3)
        ta = solver.solve_ball(lo, cfg, g)
        tb = solver.solve_ball(hi, cfg, g)
        for a, b in zip(ta.fields, tb.fields):
            worst = max(worst, float(np.max(a - b)))
    assert worst <= 1e-12


def test_comparison_with_ordered_barrier_boundaries(quad_manifold, quad_constants):
    # larger shift -> smaller boundary datum -> smaller solution
    m = 2.0
    sub = barriers.subsolution_params(quad_constants, m)
    params = barriers.BarrierParams(sub.amplitude, sub.r, horizon=4.0, m=m)
    g = RadialGrid.uniform(quad_manifold, 10.0, 100)
    u0 = xlog.log_growth_profile(1.0, m)(g.centers)
    worst = -math.inf
    for d_lo, d_hi in ((0.0, 0.3), (0.1, 1.0)):
        cfg_hi = small_cfg(0.05, dt0=1e-3, boundary=solver.BarrierDirichlet(params, d_lo))
        cfg_lo = small_cfg(0.05, dt0=1e-3, boundary=solver.BarrierDirichlet(params, d_hi))
        ta = solver.solve_ball(u0, cfg_lo, g)
        tb = solver.solve_ball(u0, cfg_hi, g)
        for a, b in zip(ta.fields, tb.fields):
            worst = max(worst, float(np.max(a - b)))
    assert worst <= 1e-12


# -- barrier sandwich along a run ----------------------------------------------------------


def test_sign_changing_datum_bounded_by_barrier(quad_manifold, quad_constants):
    m = 2.0
    g = RadialGrid.uniform(quad_manifold, 20.0, 200)
    rho_ref = np.geomspace(1e-3, 1e5, 4000)
    datum = xlog.log_growth_datum(1.0, m, rho_ref)
    norm0 = xlog.log_norm(datum, xlog.LogNorm(2.0, m))
    et = solver.existence_time(datum, quad_constants, m)
    prof = xlog.log_growth_profile(1.0, m)
    cfg = solver.SolverConfig(
        m=m, dt=solver.DtPolicy(dt0=2e-4, growth=1.2, dt_max=1e-3), t_end=0.4 * et.time
    )
    traj = solver.solve_ball(lambda r: -prof(r), cfg, g, barrier_horizon=et.time)
    excess = solver.barrier_excess(traj, norm0, et.time, 2.0, m)
    scale = max(float(np.max(np.abs(f))) for f in traj.fields)
    assert excess <= solver.tau_h(g.h, scale)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_solve_ball_rejects_a_horizon_that_is_not_positive(horizon):
    g = RadialGrid.uniform(geometry.euclidean(2), 2.0, 10)
    with pytest.raises(DomainError, match="barrier_horizon"):
        solver.solve_ball(np.ones(10), small_cfg(0.007), g, barrier_horizon=horizon)


def test_an_infinite_horizon_caps_no_step():
    g = RadialGrid.uniform(geometry.euclidean(2), 2.0, 10)
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=1e-3, growth=1.0), t_end=0.007)
    free = solver.solve_ball(np.ones(10), cfg, g)
    capped = solver.solve_ball(np.ones(10), cfg, g, barrier_horizon=math.inf)
    assert len(free.times) == 8  # seven steps
    assert capped.times == free.times
    assert same_bytes(capped.stacked, free.stacked)


# -- exhaustion -------------------------------------------------------------------------


def test_exhaust_monotone_and_cauchy():
    M = geometry.quad_critical(0.02, 3)
    cfg = solver.SolverConfig(
        m=2.0, dt=solver.DtPolicy(dt0=2e-3, growth=1.3, dt_max=2e-2), t_end=1.0
    )
    rep = solver.exhaust(lambda r: np.ones_like(r), cfg, M, (6.0, 12.0, 24.0), 60)
    assert rep.monotonicity_gap <= rep.tau_h
    assert rep.inner_increments[1] <= rep.inner_increments[0] / 2.0


def test_exhaust_zero_datum_identical_levels():
    M = geometry.euclidean(2)
    cfg = small_cfg(0.05)
    rep = solver.exhaust(lambda r: np.zeros_like(r), cfg, M, (4.0, 8.0, 16.0), 20)
    assert rep.monotonicity_gap == 0.0
    assert all(d == 0.0 for d in rep.inner_increments)


def test_exhaust_compact_support_barely_moves():
    # compactly supported datum: levels agree long before the support reaches R
    M = geometry.euclidean(2)
    cfg = small_cfg(0.2)

    def bump(r):
        return np.maximum(1.0 - (r / 2.0) ** 2, 0.0)

    rep = solver.exhaust(bump, cfg, M, (8.0, 16.0, 32.0), 40)
    assert rep.inner_increments[0] <= 10 * rep.tau_h
    assert rep.monotonicity_gap <= rep.tau_h


def test_exhaust_with_an_odd_cell_count():
    # the inner ball is the first cells // 2 cells of the first level
    M = geometry.euclidean(2)
    cfg = small_cfg(0.05)

    def bump(r):
        return np.maximum(1.0 - (r / 2.0) ** 2, 0.0)

    radii, cells = (5.0, 10.0, 20.0), 51
    rep = solver.exhaust(bump, cfg, M, radii, cells)
    levels = [solver.solve_ball(bump, cfg, RadialGrid.uniform(M, R, cells * k)).stacked
              for R, k in zip(radii, (1, 2, 4))]
    inner = slice(0, cells // 2)
    assert rep.inner_increments == [
        float(np.max(np.abs(b[:, inner] - a[:, inner]))) for a, b in zip(levels, levels[1:])
    ]
    assert rep.monotonicity_gap <= rep.tau_h


def test_exhaust_validates_radii():
    M = geometry.euclidean(2)
    with pytest.raises(DomainError):
        solver.exhaust(lambda r: np.zeros_like(r), small_cfg(0.1), M, (4.0, 8.0), 20)
    with pytest.raises(DomainError):
        solver.exhaust(lambda r: np.zeros_like(r), small_cfg(0.1), M, (4.0, 8.1, 16.0), 20)


# -- existence time ------------------------------------------------------------------------


def test_existence_time_closed_form():
    class FakeConsts:
        c_prime = 3.0

    rho = np.geomspace(1e-3, 1e6, 2000)
    w = xlog.LogNorm(2.0, 2.0).weight(rho)
    # norm exactly 1; the weight's tail 2 log rho matches the rows past 1e5 to 2e-11
    datum = xlog.RadialDatum(rho, w, tail=xlog.TailDescriptor("log-growth", 2.0, 1e5, m=2.0))
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.time == pytest.approx(1.0 / 24, rel=1e-12)
    assert not et.global_flag


def test_existence_time_doubling_scales():
    class FakeConsts:
        c_prime = 2.0

    rho = np.geomspace(1e-3, 1e6, 2000)
    m = 2.0
    d1 = xlog.log_growth_datum(1.0, m, rho)
    d2 = xlog.log_growth_datum(2.0, m, rho)
    t1 = solver.existence_time(d1, FakeConsts(), m).time
    t2 = solver.existence_time(d2, FakeConsts(), m).time
    assert t2 / t1 == pytest.approx(2.0 ** (1 - m), rel=1e-12)


def test_existence_time_bounded_datum_global():
    class FakeConsts:
        c_prime = 2.0

    rho = np.geomspace(1e-3, 1e6, 2000)
    datum = xlog.bounded_datum(5.0, rho)
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.global_flag
    assert et.limit_time == math.inf
    assert et.time < math.inf  # finite-r certificate still exists


def test_existence_time_zero_datum():
    class FakeConsts:
        c_prime = 2.0

    rho = np.geomspace(1e-3, 1e6, 2000)
    datum = xlog.RadialDatum(rho, np.zeros_like(rho))
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.global_flag and et.time == math.inf
    # a positive datum has no limit horizon without a tail descriptor
    datum = xlog.RadialDatum(rho, np.ones_like(rho))
    with pytest.raises(NotApplicableError):
        solver.existence_time(datum, FakeConsts(), 2.0)


# -- step policies agree -----------------------------------------------------------------


def test_two_step_policies_converge_to_same_limit():
    # compatible data (compact support) so no boundary layer forms at t=0
    M = geometry.quad_critical(0.5, 3)
    g = RadialGrid.uniform(M, 10.0, 200)
    u0 = np.maximum(1.0 - (g.centers / 2.0) ** 2, 0.0)
    fixed = solver.SolverConfig(
        m=2.0, dt=solver.DtPolicy(dt0=2.5e-4, growth=1.0), t_end=0.02, snapshot_stride=10**9
    )
    adaptive = solver.SolverConfig(
        m=2.0,
        dt=solver.DtPolicy(dt0=5e-5, growth=1.3, dt_max=5e-4),
        t_end=0.02,
        snapshot_stride=10**9,
    )
    ua = solver.solve_ball(u0, fixed, g).final
    ub = solver.solve_ball(u0, adaptive, g).final
    scale = float(np.max(np.abs(ua)))
    assert np.max(np.abs(ua - ub)) <= 5.0 * (2.5e-4 + 5e-4) * scale
