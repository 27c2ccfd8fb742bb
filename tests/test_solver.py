"""Implicit solver: fixed points, the classical self-similar oracle, mass
audits, comparison/order preservation, exhaustion and existence times."""

import dataclasses
import math
import subprocess
import sys
import warnings
import zlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_banded

from pme import barriers, blowup, geometry, solver, xlog
from pme.errors import CertificateError, DomainError, SolverError
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
    """Signed power u^m := |u|^{m-1} u, written as the definition: the
    reference kernels' v, which the step kernel must give bit for bit."""
    return u * np.abs(u) ** (m - 1.0)


def cell_balance(u_old, u, v_b, cp, cm, m):
    """What the scheme's cell balance means, written plainly: with
    v = odd_power(u, m) padded by +0.0 at the origin and by v_b at the ball's
    edge, g = (u - u_old) - (cp (right - v) - cm (v - left)) for the
    dt-scaled face coefficients cp and cm; returned with the outer face's
    jump v_b - v[-1], the last entry of right - v.  The one oracle of
    ``Integrator.balance``, and the residual of both Newton oracles below."""
    v = odd_power(u, m)
    jump_out = np.append(v[1:], v_b) - v
    jump_in = v - np.append(0.0, v[:-1])
    return (u - u_old) - (cp * jump_out - cm * jump_in), jump_out[-1]


def newton_solve(u_old, v_b, dt, grid, m, tol, max_iter, start=None, work=None, kernel=None):
    """``kernel`` (default ``solver._newton_solve``) called with the plain
    kernels' arguments: on ``work``, an integrator on ``grid`` and ``m``,
    or a new one, bounded by the ``end`` of ``u_old``.  A ``start`` is
    written into the integrator's ``u`` as a guess is, with ``u_old`` the
    newest level of a history whose ``support``, the solve's bound, is the
    larger ``end`` of the two fields, and the solve is predicted."""
    kernel = kernel or solver._newton_solve
    if work is None:
        work = solver.Integrator(grid, m)
    assert work.grid is grid and work.m == m
    if start is None:
        return kernel(work, u_old, v_b, dt, tol, max_iter, work.end(u_old))
    work.levels, work.support = [(0.0, u_old)], max(work.end(u_old), work.end(start))
    np.copyto(work.u, start)
    return kernel(work, u_old, v_b, dt, tol, max_iter, work.support, predicted=True)


def reference_newton_solve(u_old, v_b, dt, grid, m, tol, max_iter):
    """What the kernel means: damped Newton on the cell balance from the old
    field, with an Armijo line search, each system through ``solve_banded``
    and each residual evaluated anew.  ``_newton_solve`` must give its
    numbers."""
    cm = dt * grid.coeff_minus
    cp = dt * grid.coeff_plus
    n = u_old.size
    u = u_old.copy()
    uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))

    def residual(u):
        return cell_balance(u_old, u, v_b, cp, cm, m)[0]

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


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.one_of(st.just(2.0), st.floats(min_value=1.0, max_value=4.0, exclude_min=True)),
)
@settings(max_examples=300, deadline=None)
def test_the_odd_power_is_within_two_ulp_of_the_sign_form(values, m):
    # v = u |u|^(m-1) (odd_power, the kernel's bits) against sign(u) |u|^m,
    # over finite u with +-0, subnormals and huge values: two roundings
    # (the power and the product) against one, so within 2 ulp of the sign
    # form, with an overflow read as the largest float; at m = 2 the same
    # bits for nonzero u, since pow(x, 1.0) is x and pow(x, 2.0) is x * x,
    # and u's own zero at a zero cell, where the sign form has +0.0
    u = np.array(values)
    big = np.finfo(float).max
    with np.errstate(over="ignore", under="ignore"):
        new = odd_power(u, m)
        old = np.sign(u) * np.abs(u) ** m
    assert same_bytes(new[u == 0.0], u[u == 0.0])
    if m == 2.0:
        assert same_bytes(new[u != 0.0], old[u != 0.0])
    new, old = np.clip(new, -big, big), np.clip(old, -big, big)
    # the spacing below the largest float, where np.spacing overflows
    ulp = np.spacing(np.minimum(np.abs(old), np.nextafter(big, 0.0)))
    assert np.all(np.abs(new - old) <= 2.0 * ulp), m


@given(newton_cases())
@settings(max_examples=150, deadline=None)
def test_newton_solve_matches_reference_kernel(case):
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    u, ok, res = newton_solve(*args)
    u_ref, ok_ref, res_ref = reference_newton_solve(*args)
    assert np.array_equal(u, u_ref)
    assert ok == ok_ref
    assert res == res_ref


def plain_newton_solve(work, u_old, v_b, dt, tol, max_iter, bound=None, predicted=False):
    """The kernel written plainly on the whole grid, with new arrays for
    |u|^{m-1} (once for v, once for dv), ``-g`` and each trial point: the
    bitwise oracle of ``_newton_solve``.  A window must give the whole
    grid's floats, signed zeros included, also where a stubbed ``dgtsv``
    fails a call, and ``reference_newton_solve`` (``solve_banded``) takes
    neither a start nor a stub.  It takes ``_newton_solve``'s arguments
    (``bound`` unread), so that ``step`` runs on it, and leaves in ``work``
    what ``step`` reads: the target, the last residual's boundary jump and
    the whole grid as the solve's window."""
    dgtsv = solver.dgtsv  # resolved per call, so that a stub reaches both kernels
    grid, m = work.grid, work.m
    cm = dt * grid.coeff_minus
    cp = dt * grid.coeff_plus
    n = u_old.size
    u = (work.u if predicted else u_old).copy()
    uscale = max(1.0, float(np.abs(u_old).max()), abs(v_b) ** (1.0 / m))
    target = work.target = tol * uscale
    work.window = work.whole
    c_diag = cp + cm
    c_upper = -cp[:-1]
    c_lower = -cm[1:]
    jac = np.empty(3 * n - 2)
    diag, upper, lower = jac[:n], jac[n : 2 * n - 1], jac[2 * n - 1 :]

    def residual(u):
        g, work.jump[-1] = cell_balance(u_old, u, v_b, cp, cm, m)
        return g

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


@st.composite
def zero_tail_newton_cases(draw, clean=False):
    """Newton solves from a field that is +0.0 on a tail longer than the
    window margin of the drawn step, so that the solve can run on a window
    of the grid, and the number of the solve's first LAPACK calls that
    report a singular system.  The zero cells' Jacobian coupling
    q = dt coeff m eps runs up to about 1/4, above which there is no window.
    Unless ``clean``, the boundary value may be -0.0, and the field may hold
    -0.0 cells, in its tail too, or a cell of +-1e200.  The "pivoting" kind
    makes coeff_minus grow outward up to 1000-fold, as if the cell volumes
    shrank, so that LAPACK swaps rows in the support.  The "singular" kind,
    never ``clean``, has its first one or two LAPACK calls report a
    singular system; the other kinds none."""
    manifold = draw(st.sampled_from(FAMILIES))
    m = draw(st.floats(min_value=1.2, max_value=4.0))
    kinds = ["plain", "pivoting"] if clean else ["plain", "pivoting", "singular"]
    kind = draw(st.sampled_from(kinds))
    support = draw(st.integers(min_value=1, max_value=30))
    tail = draw(st.integers(min_value=40, max_value=800))
    cells = support + tail
    h = draw(st.floats(min_value=0.02, max_value=0.5))
    grid = RadialGrid.uniform(manifold, h * cells, cells)
    if kind == "pivoting":
        growth = np.geomspace(1.0, draw(st.floats(min_value=1.0, max_value=1e3)), cells)
        grid = dataclasses.replace(grid, coeff_minus=grid.coeff_minus * growth)
    # the largest q whose margin ends the window 3 cells before the grid's
    r = 2.0 ** (-solver._TAIL_BITS / (tail - 6))
    q = min(0.25, r / (1.0 + r)) * 10.0 ** draw(st.floats(min_value=-6.0, max_value=0.0))
    coeff_max = float(np.max(np.concatenate([grid.coeff_plus, grid.coeff_minus])))
    dt = q / (coeff_max * m * 1e-12)
    # the q the integrator computes from dt (``Integrator.coupling``) may
    # round to just above 1/4, where there is no window
    while dt * coeff_max * (solver.JACOBIAN_EPS * m) > 0.25:
        dt = math.nextafter(dt, 0.0)
    flavour = "clean" if clean else draw(st.sampled_from(["clean", "signed zeros", "huge"]))
    value = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: x + 0.0)  # no -0.0
    if flavour == "signed zeros":
        value = st.one_of(value, st.sampled_from([0.0, -0.0]))
    u_old = np.zeros(cells)
    u_old[:support] = draw(st.lists(value, min_size=support, max_size=support))
    if flavour == "signed zeros":
        k = draw(st.lists(st.integers(min_value=support, max_value=cells - 1), max_size=3))
        u_old[k] = -0.0
    elif flavour == "huge":
        u_old[draw(st.integers(min_value=0, max_value=support - 1))] = draw(
            st.sampled_from([1e200, -1e200])
        )
    v_b = 0.0 if clean else draw(st.sampled_from([0.0, 0.0, -0.0]))
    max_iter = draw(st.integers(min_value=1, max_value=30))
    singular = draw(st.integers(min_value=1, max_value=2)) if kind == "singular" else 0
    return grid, u_old, m, dt, v_b, max_iter, singular


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_same_step(got, want):
    """Two results of ``step``, (field, outflow) or an error's message, are
    the same bytes."""
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


def recorded_dgtsv(real_dgtsv, singular=0):
    """``real_dgtsv`` reporting a singular system on its first ``singular``
    calls, and the list of the rows of every call."""
    rows = []

    def call(dl, d, du, b, *flags, **kw):
        rows.append(d.size)
        *out, info = real_dgtsv(dl, d, du, b, *flags, **kw)
        return (*out, 1 if len(rows) <= singular else info)

    return call, rows


def assert_newton_solve_is_the_plain_kernel(case, singular=0, start=None):
    """The Newton solve of ``case`` from ``start`` gives the plain kernel's
    bytes, when the first ``singular`` LAPACK calls of each kernel report a
    singular system, which fails the solve at its start."""
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    real_dgtsv = solver.dgtsv
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(solver, "dgtsv", recorded_dgtsv(real_dgtsv, singular)[0])
        u, ok, res = newton_solve(*args, start=start)
        mp.setattr(solver, "dgtsv", recorded_dgtsv(real_dgtsv, singular)[0])
        u_ref, ok_ref, res_ref = newton_solve(*args, start=start, kernel=plain_newton_solve)
    assert same_bytes(u, u_ref)
    assert ok == ok_ref
    assert same_bytes(res, res_ref)


@given(signed_newton_cases())
@settings(max_examples=300, deadline=None)
def test_newton_solve_is_bitwise_the_plain_kernel(case):
    assert_newton_solve_is_the_plain_kernel(case)


@given(zero_tail_newton_cases())
@settings(max_examples=300, deadline=None)
def test_zero_tail_newton_solve_is_bitwise_the_plain_kernel(case):
    *case, singular = case
    assert_newton_solve_is_the_plain_kernel(case, singular)


def assert_step_through_halvings_is_the_plain_kernel(case, singular):
    """``step`` on ``case`` gives the plain kernel's bytes, or its error,
    when the first ``singular`` LAPACK calls of each run report a singular
    system, so that ``step`` halves whenever its first solve needs an
    iteration."""
    grid, u_old, m, dt, _, _ = case
    cfg = small_cfg(1.0, m=m)
    real_dgtsv = solver.dgtsv

    def run(kernel):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", recorded_dgtsv(real_dgtsv, singular)[0])
            mp.setattr(solver, "_newton_solve", kernel)
            # both kernels face one budget, small enough that a draw which
            # halves its way to the budget ends in seconds, not minutes;
            # test_step_spends_at_most_the_substep_budget covers the real one
            mp.setattr(solver, "MAX_SUBSTEPS", 200)
            try:
                with np.errstate(all="ignore"):
                    return solver.step(u_old, 0.0, dt, grid, cfg)
            except SolverError as exc:
                return str(exc)

    assert_same_step(run(solver._newton_solve), run(plain_newton_solve))


@given(signed_newton_cases(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_step_through_halvings_is_bitwise_the_plain_kernel(case, singular):
    assert_step_through_halvings_is_the_plain_kernel(case, singular)


@given(zero_tail_newton_cases(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_zero_tail_step_through_halvings_is_bitwise_the_plain_kernel(case, singular):
    # every case is run through halvings, whatever its own kind
    assert_step_through_halvings_is_the_plain_kernel(case[:-1], singular)


@given(zero_tail_newton_cases(clean=True))
@settings(max_examples=100, deadline=None)
def test_zero_tail_solves_run_on_fewer_rows_than_cells(case):
    # a +0.0 boundary value and a field of finite values and +0.0 cells
    # whose tail is longer than the margin: every LAPACK call until the
    # first on the whole grid solves fewer rows, and only a window's
    # direction reaching its last row sends the solve to the whole grid
    grid, u_old, m, dt, v_b, max_iter, _ = case
    counting, rows = recorded_dgtsv(solver.dgtsv)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(solver, "dgtsv", counting)
        newton_solve(u_old, v_b, dt, grid, m, 1e-10, max_iter)
    windows = rows[: rows.index(grid.cells)] if grid.cells in rows else rows
    assert all(w < grid.cells for w in windows)
    assert rows[len(windows) :] == [grid.cells] * (len(rows) - len(windows))
    assert not rows or windows


@given(
    zero_tail_newton_cases(),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_newton_solve_from_a_start_on_a_window_is_bitwise_the_plain_kernel(case, shift, kept):
    # a start other than the old field: the old field moved by ``shift`` on
    # the leading share ``kept`` of its support and +0.0 past it, so that the
    # old field may reach past the start.  The window is set by both, and
    # -0.0 cells of the old field do not matter
    *case, singular = case
    u_old = case[1]
    start = np.where(u_old != 0.0, u_old * (1.0 + shift), 0.0)
    start[int(kept * (np.flatnonzero(u_old).max(initial=-1) + 1)) :] = 0.0
    assert_newton_solve_is_the_plain_kernel(case, singular, start)


def test_a_window_whose_direction_reaches_its_last_row_goes_on_on_the_whole_grid(
    monkeypatch,
):
    # values of 1e30 put right-hand side entries far above the 2^64 the
    # margin is sized for, so the direction does not underflow within it
    grid = RadialGrid.uniform(geometry.euclidean(2), 4.0, 200)
    u_old = np.zeros(200)
    u_old[:10] = np.linspace(1e30, 1e29, 10)
    args = (u_old, 0.0, 1e-31, grid, 2.0, 1e-10, 30)
    counting, rows = recorded_dgtsv(solver.dgtsv)
    monkeypatch.setattr(solver, "dgtsv", counting)
    u, ok, res = newton_solve(*args)
    monkeypatch.undo()
    u_ref, ok_ref, res_ref = newton_solve(*args, kernel=plain_newton_solve)
    assert same_bytes(u, u_ref) and ok == ok_ref and same_bytes(res, res_ref)
    assert ok
    whole = rows.index(200)
    assert 0 < whole and all(w < 200 for w in rows[:whole])
    assert rows[whole:] == [200] * (len(rows) - whole)


def front_args(cells=200, v_b=0.0, dt=1e-3):
    """A Newton solve from a field that is nonzero on its first 10 of
    ``cells`` cells and +0.0 past them."""
    grid = RadialGrid.uniform(geometry.euclidean(2), 4.0, cells)
    u_old = np.zeros(cells)
    u_old[:10] = np.linspace(1.0, 0.1, 10)
    return u_old, v_b, dt, grid, 2.0, 1e-10, 30


def first_call_rows(args, start=None):
    counting, rows = recorded_dgtsv(solver.dgtsv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "dgtsv", counting)
        newton_solve(*args, start=start)
    return rows[0]


def test_the_window_is_off_unless_each_condition_holds():
    args = front_args()
    assert first_call_rows(args) < 200
    assert first_call_rows(front_args(v_b=-0.0)) == 200
    signed = args[0].copy()
    signed[3] = -0.0
    assert first_call_rows(args, start=signed) == 200
    full = args[0] + 1e-3
    assert first_call_rows((full, *args[1:])) == 200
    assert first_call_rows(args, start=full) == 200
    # q = dt max(coeff) m eps above 1/4: just above, and far above
    grid = args[3]
    for q in (0.3, 10.0):
        dt = q / (float(np.max(grid.coeff_plus)) * 2.0 * solver.JACOBIAN_EPS)
        assert first_call_rows(front_args(dt=dt)) == 200


def test_an_old_field_reaching_past_the_start_widens_the_window():
    # the old field is nonzero on 120 cells, the start on 10
    u_old, *rest = front_args(cells=400)
    u_old[:120] = np.linspace(1.0, 0.1, 120)
    start = np.where(np.arange(400) < 10, u_old, 0.0)
    args = (u_old, *rest)
    assert 120 < first_call_rows(args, start=start) < 400
    got = newton_solve(*args, start=start)
    want = newton_solve(*args, start=start, kernel=plain_newton_solve)
    assert same_bytes(got[0], want[0]) and got[1] == want[1] and same_bytes(got[2], want[2])


def test_a_guess_shorter_than_the_old_field_widens_the_window():
    # the guess 2 u_old - u_prev vanishes on cells 10 to 119 of the old field
    u_old, v_b, dt, grid, m, *_ = front_args(cells=400)
    u_old[:120] = np.linspace(1.0, 0.1, 120)
    u_prev = np.where(np.arange(400) < 10, u_old, 2.0 * u_old)

    def run(kernel):
        integrator = solver.Integrator(grid, m)
        integrator.levels, integrator.support = [(dt, u_prev), (dt, u_old)], 120
        counting, rows = recorded_dgtsv(solver.dgtsv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", counting)
            mp.setattr(solver, "_newton_solve", kernel)
            out = solver.step(u_old, 0.0, dt, grid, small_cfg(1.0, m=m), integrator)
        return out, rows

    (got, rows), (want, _) = run(solver._newton_solve), run(plain_newton_solve)
    assert 120 < rows[0] < 400
    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


def test_a_window_after_a_whole_grid_solve_reports_a_zero_boundary_jump():
    args = front_args()
    work = solver.Integrator(args[3], 2.0)
    newton_solve(args[0] + 1.0, 4.0, *args[2:], work=work)
    assert work.jump[-1] != 0.0
    u, ok, _ = newton_solve(*args, work=work)
    assert ok and u[-1] == 0.0
    assert same_bytes(work.jump[-1], 0.0)


@pytest.mark.parametrize(
    "fault",
    [
        lambda d, info: (d, d.size),  # a zero last pivot, as LAPACK reports it
        lambda d, info: (np.concatenate([d[:-1], [4.0]]), info),
        lambda d, info: (np.concatenate([d[:-1], [0.25]]), info),
    ],
    ids=["zero-last-pivot", "last-pivot-above-2", "last-pivot-below-half"],
)
def test_a_window_whose_last_pivot_fails_the_check_goes_on_on_the_whole_grid(monkeypatch, fault):
    # the checks on the window's last pivot send the solve to the whole grid,
    # which gives the plain kernel's bytes
    args = front_args()
    real_dgtsv, rows = solver.dgtsv, []

    def faulty(dl, d, du, b, *flags):
        rows.append(d.size)
        dl, d, du, x, info = real_dgtsv(dl, d, du, b, *flags)
        if d.size < 200:
            d, info = fault(d, info)
        return dl, d, du, x, info

    monkeypatch.setattr(solver, "dgtsv", faulty)
    got = newton_solve(*args)
    monkeypatch.undo()
    want = newton_solve(*args, kernel=plain_newton_solve)
    assert rows[0] < 200 and rows[1:] == [200] * (len(rows) - 1)
    assert same_bytes(got[0], want[0]) and got[1] == want[1] and same_bytes(got[2], want[2])


def test_barenblatt_run_on_windows_is_bitwise_the_plain_kernel():
    # every recorded field, outflow and time of the J = 2000 oracle run, with
    # at most half the LAPACK rows of the whole-grid solves
    grid = RadialGrid.uniform(geometry.euclidean(2), 6.0, 2000)
    cfg = solver.SolverConfig(
        m=2.0, dt=solver.DtPolicy(dt0=0.5 * grid.h, growth=1.0), t_end=1.0, snapshot_stride=50
    )
    u0 = solver.barenblatt(grid.centers, 1.0, 2, 2.0, 0.25)

    def run(kernel):
        counting, rows = recorded_dgtsv(solver.dgtsv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", counting)
            mp.setattr(solver, "_newton_solve", kernel)
            return solver.solve_ball(u0, cfg, grid), sum(rows)

    (got, rows), (want, whole_rows) = run(solver._newton_solve), run(plain_newton_solve)
    assert len(got.fields) == len(want.fields) == 15
    assert got.times == want.times
    assert same_bytes(got.stacked, want.stacked)
    assert same_bytes(got.boundary_outflow, want.boundary_outflow)
    assert rows <= 0.5 * whole_rows


# -- the cell balance ---------------------------------------------------------------------


@st.composite
def balance_cases(draw):
    """The two fields and the boundary value of a step, exact zeros of both
    signs included, on a ball of each family."""
    manifold = draw(st.sampled_from(FAMILIES))
    cells = draw(st.integers(min_value=3, max_value=80))
    radius = draw(st.floats(min_value=1.0, max_value=20.0))
    value = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([0.0, -0.0]))
    u_old, u = (np.array(draw(st.lists(value, min_size=cells, max_size=cells))) for _ in range(2))
    m = draw(st.floats(min_value=1.2, max_value=4.0, exclude_min=True))
    dt = draw(st.floats(min_value=1e-5, max_value=1.0))
    return RadialGrid.uniform(manifold, radius, cells), u_old, u, m, dt, draw(value)


@given(balance_cases())
@settings(max_examples=200, deadline=None)
def test_balance_is_the_plain_cell_balance(case):
    grid, u_old, u, m, dt, v_b = case
    g = solver.Integrator(grid, m).balance(u_old, u, dt, v_b)
    want, _ = cell_balance(u_old, u, v_b, dt * grid.coeff_plus, dt * grid.coeff_minus, m)
    assert g.dtype == np.float64 and same_bytes(g, want)


@st.composite
def zero_tail_balance_cases(draw):
    """``balance_cases`` whose u is +0.0 and whose u_old is zero, of either
    sign, from a drawn cell on, and a window of w cells whose last row is
    one of those cells."""
    grid, u_old, u, m, dt, _ = draw(balance_cases())
    cells = grid.cells
    support = draw(st.integers(min_value=0, max_value=cells - 2))
    w = draw(st.integers(min_value=support + 1, max_value=cells - 1))
    u[support:] = 0.0
    zero = st.sampled_from([0.0, -0.0])
    u_old[support:] = draw(st.lists(zero, min_size=cells - support, max_size=cells - support))
    return grid, u_old, u, m, dt, w


@given(zero_tail_balance_cases())
@settings(max_examples=150, deadline=None)
def test_a_window_gives_the_first_rows_of_the_balance_and_plus_zero_past_them(case):
    # a window of w cells reads +0.0 at its outer pad, as ``_newton_solve``
    # sets it for the boundary value +0.0; where u is +0.0 and u_old zero
    # from row w - 1 on, its rows are the balance's first w rows, and the
    # balance is +0.0 past them (the solver's module docstring)
    grid, u_old, u, m, dt, w = case
    work = solver.Integrator(grid, m)
    g = work.balance(u_old, u, dt, 0.0)
    win = solver.Window(work, w)
    win.vpad[-1] = 0.0
    rows = np.empty(w)
    win.residual(u_old[:w], u[:w], np.empty(w), rows)
    assert same_bytes(rows, g[:w]) and same_bytes(g[w:], np.zeros(grid.cells - w))


@given(balance_cases())
@settings(max_examples=200, deadline=None)
def test_the_balance_conserves_mass_up_to_the_boundary_outflow(case):
    # Weighted by the scaled cell volumes w_i, the flux terms of the balance
    # telescope: w_i cp_i = w_{i+1} cm_{i+1}, both the area of the face
    # between cells i and i + 1 over the normalizing volume, and cm_0 = 0,
    # no flux through the origin.  So in exact arithmetic, for any fields,
    #   sum w g = sum w (u - u_old) - dt F (v_b - v_last),
    # F = boundary_flux_coeff = w_last cp_last, with no Newton tolerance.
    # In floats, |g_i| <= |u_i| + |u_old_i| + dt (cp_i (|v_{i+1}| + |v_i|)
    # + cm_i (|v_i| + |v_{i-1}|)), whose w-weighted sum is S = sum w (|u| +
    # |u_old|) + dt sum w (cp + cm) 2|v| + dt F |v_b| by the same identity;
    # each g_i rounds its terms by at most 4 eps of that bound, and each
    # weighted sum of at most J terms by J eps/2 of its magnitudes, both
    # at most S, so the sides differ by at most (J + 8) eps S.  The grid's
    # own floats, each the exp of a rounded logarithm, miss the face
    # identity by up to a few hundred eps on a warped ball's inner cells;
    # that miss, times the jumps of v it multiplies, adds to the bound.
    grid, u_old, u, m, dt, v_b = case
    eps = np.finfo(float).eps
    w, cp, cm, F = grid.weights_scaled, grid.coeff_plus, grid.coeff_minus, grid.boundary_flux_coeff
    assert cm[0] == 0.0
    g = solver.Integrator(grid, m).balance(u_old, u, dt, v_b)
    v = odd_power(u, m)
    defect = abs(np.dot(w, g) - (np.dot(w, u - u_old) - dt * F * (v_b - v[-1])))
    S = np.dot(w, np.abs(u) + np.abs(u_old)) + dt * np.dot(w * (cp + cm), 2.0 * np.abs(v))
    S += dt * F * abs(v_b)
    missed = np.abs(w[:-1] * cp[:-1] - w[1:] * cm[1:]) @ np.abs(np.diff(v))
    missed += abs(w[-1] * cp[-1] - F) * abs(v_b - v[-1])
    assert defect <= (grid.cells + 8) * eps * S + dt * missed


@pytest.mark.parametrize("boundary", ["barrier", "zero"])
def test_a_balance_between_steps_leaves_nothing_a_solve_reads(boundary):
    # the same six steps on one integrator, plain and with a balance at
    # another step size and boundary value after each step: the next solve
    # rescales the coefficients to its own step size, recomputing the
    # window margin on the zero-boundary run, and rewrites v and the jumps
    if boundary == "barrier":
        grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 25.0, 250)
        params = barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=2.0)
        cfg = small_cfg(1.0, boundary=solver.BarrierDirichlet(params))
        u0, dt = barriers.shifted_subsolution(params, 0.0, grid.centers), 1e-3
    else:
        grid = RadialGrid.uniform(geometry.euclidean(2), 6.0, 400)
        cfg = small_cfg(1.0)
        u0, dt = solver.barenblatt(grid.centers, 1.0, 2, 2.0, 0.25), 0.5 * grid.h

    def run(balance):
        work, u, steps = solver.Integrator(grid, 2.0), u0, []
        for k in range(6):
            u, outflow = solver.step(u, k * dt, dt, grid, cfg, work)
            steps.append((u.tobytes(), outflow.hex(), work.window.w))
            if balance:
                work.balance(u0, u, 3.0 * dt, 0.5)
        levels = [(s, f.tobytes()) for s, f in work.levels]
        return steps, levels, work.support

    plain = run(balance=False)
    assert run(balance=True) == plain
    if boundary == "zero":
        assert min(w for _, _, w in plain[0]) < grid.cells


# -- predictor start ------------------------------------------------------------------------


@given(signed_newton_cases())
@settings(max_examples=150, deadline=None)
def test_newton_solve_from_a_copy_of_the_old_field_is_the_default_start(case):
    # a predicted solve whose guess, in the integrator's ``u``, is a copy of
    # the old field: it takes |u_old| for the target from u_old itself, not
    # from the start, and gives the floats of the solve that is not predicted
    grid, u_old, m, dt, v_b, max_iter = case
    args = (u_old, v_b, dt, grid, m, 1e-10, max_iter)
    with np.errstate(all="ignore"):
        u, ok, res = newton_solve(*args, start=u_old.copy())
        u_ref, ok_ref, res_ref = newton_solve(*args)
    assert same_bytes(u, u_ref)
    assert ok == ok_ref
    assert same_bytes(res, res_ref)


@st.composite
def polynomial_levels(draw):
    """Accepted levels of a field that is a polynomial in t, oldest first,
    and the step d to the new level: five levels on one drawn step size with
    degree <= 4, or two to five levels on drawn step sizes with degree <= 1
    from two levels and <= 2 from more.  Returns the levels, d, the exact
    new field and the exact weights of the levels the guess uses, as
    Fractions."""
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
    # drawn sizes may all equal d too, and then the guess is the quartic,
    # which is exact on the lower degree as well
    uniform = len(steps) == 4 and all(step == d for step in steps)
    used = ages[-(5 if uniform else min(len(ages), 3)) :]
    new = Fraction(d)
    weights = [math.prod((new - sj) / (si - sj) for sj in used if sj != si) for si in used]
    return levels, d, field_at(new), weights


@given(polynomial_levels())
@example(  # a level of 2^-1075 rounds to 0, so the exact 2^-1074 is guessed as 0
    (
        [(0.0, np.array([0.0, 0.0, -0.0])), (0.5, np.zeros(3))],
        1.0,
        [Fraction(0), Fraction(0), Fraction(2) ** -1074],
        [Fraction(-2), Fraction(3)],
    )
)
@settings(max_examples=200, deadline=None)
def test_guess_reproduces_polynomial_fields(case):
    # The guess is exact on polynomials of its degree up to rounding: the
    # levels are rounded once each, every weight is within 8 roundings of its
    # exact value (the uniform ones are exact) and the weighted sum adds at
    # most 6 more, so 16 unit roundoffs of sum |w_i u_i| bound the error.
    # Where values underflow, a rounding also errs by up to 2^-1075 absolute
    # (half the least subnormal); sums of floats with a subnormal result are
    # exact.  The levels' roundings enter the guess times the computed
    # weights and add about sum |w_i| 2^-1075, and the at most 4 products of
    # the guess add 4 * 2^-1075; counting each at 2^-1074 leaves room for the
    # weights' own rounding.
    levels, d, exact, weights = case
    integrator = solver.Integrator(RadialGrid.uniform(geometry.euclidean(2), 1.0, len(exact)), 2.0)
    integrator.levels = levels
    integrator.support = max(integrator.end(u) for _, u in levels)
    assert integrator.guess(d)
    guess = integrator.u
    assert integrator.end(guess) <= integrator.support
    used = [u for _, u in levels[-len(weights) :]]
    underflow = (sum(map(abs, weights)) + 4) * Fraction(2) ** -1074
    for i, want in enumerate(exact):
        scale = sum(abs(w) * abs(Fraction(u[i])) for w, u in zip(weights, used))
        assert abs(Fraction(guess[i]) - want) <= 8 * np.finfo(float).eps * scale + underflow


@st.composite
def zero_tail_levels(draw):
    """Two to five levels of mixed-sign fields, each +0.0 past a drawn cell,
    with -0.0 cells now and then, and a step on which the guess takes each
    of its three forms."""
    cells = draw(st.integers(min_value=3, max_value=40))
    value = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), st.just(-0.0), st.just(5e-324)
    )
    levels = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        u = np.zeros(cells)
        k = draw(st.integers(min_value=0, max_value=cells))
        u[:k] = draw(st.lists(value, min_size=k, max_size=k))
        levels.append((draw(st.sampled_from([0.1, 0.2, 0.3])), u))
    d = draw(st.sampled_from([0.1, 0.25]))
    return levels, d


@given(zero_tail_levels())
@settings(max_examples=200, deadline=None)
def test_guess_before_the_levels_ends_is_bitwise_the_guess_on_every_cell(case):
    # the guess computes only the cells before the support, here the largest
    # end of the levels it reads; past it each form of the guess gives +0.0
    # from +0.0 levels
    levels, d = case
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, levels[0][1].size)
    windowed, whole = solver.Integrator(grid, 2.0), solver.Integrator(grid, 2.0)
    windowed.levels = whole.levels = levels
    windowed.support = max(windowed.end(u) for _, u in levels)
    assert whole.support == grid.cells  # a new integrator's
    np.copyto(windowed.u, np.nan)  # the guess writes every cell
    with np.errstate(all="ignore"):
        assert windowed.guess(d) and whole.guess(d)
    assert same_bytes(windowed.u, whole.u)
    assert windowed.end(windowed.u) <= windowed.support


def test_end_is_one_past_the_last_cell_that_is_not_plus_zero():
    integrator = solver.Integrator(RadialGrid.uniform(geometry.euclidean(2), 1.0, 6), 2.0)
    for u, end in [
        ([1.0, 0.0, 2.0, 0.0, 0.0, 0.0], 3),
        ([0.0] * 6, 0),
        ([0.0, 0.0, 0.0, 0.0, -0.0, 0.0], 5),
        ([0.0, 5e-324, 0.0, 0.0, 0.0, 0.0], 2),
        ([0.0] * 5 + [-0.0], 6),
        ([0.0] * 5 + [1.0], 6),
    ]:
        assert integrator.end(np.array(u)) == end


def test_one_level_gives_no_guess():
    integrator = solver.Integrator(RadialGrid.uniform(geometry.euclidean(2), 1.0, 4), 2.0)
    integrator.levels = [(0.0, np.ones(4))]
    assert integrator.guess(0.1) is False


def test_uniform_steps_take_the_quartic_and_fewer_newton_iterations():
    # A fixed-step Barenblatt run guesses from the quartic from its sixth step
    # on.  The quartic's error falls like dt^5 against the quadratic's dt^3,
    # so the saving grows as the grid is refined: at dt = h/2 the run makes
    # 76% of the quadratic run's LAPACK calls at J = 500, 64% at J = 2000.
    real_dgtsv, guess = solver.dgtsv, solver.Integrator.guess

    def quadratic_guess(integrator, d):
        # from three levels at most, so never the quartic
        levels = integrator.levels
        integrator.levels = levels[-3:]
        try:
            return guess(integrator, d)
        finally:
            integrator.levels = levels

    def run(quartic):
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return real_dgtsv(*args, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "dgtsv", counting)
            if not quartic:
                mp.setattr(solver.Integrator, "guess", quadratic_guess)
            err = barenblatt_l1_error(2000)[0]
        return len(calls), err

    (calls, err), (quadratic_calls, quadratic_err) = run(True), run(False)
    assert calls < 0.7 * quadratic_calls
    assert err != quadratic_err  # the quartic did change the iterates


def run_step(u, dt, grid, cfg, integrator=None):
    try:
        with np.errstate(all="ignore"):
            return solver.step(u, 0.0, dt, grid, cfg, integrator)
    except SolverError as exc:
        return str(exc)


# The solves of a step after a failed prediction: the retry from the newest
# field and the first halvings.  A zero-tail case drawn near the coupling
# q = 1/4 fails every solve, each iteration's line search running down to
# lam = 2^-30, so each run spends its whole budget; 200 solves cost a drawn
# case seconds.  Deep halvings are the part of
# test_step_through_halvings_is_bitwise_the_plain_kernel (and of its
# zero-tail twin), at a budget of 200.
RETRY_BUDGET = 8


def failed_prediction_step(case, reach):
    """``step`` from the newest field u_old of a real history, whose older
    level u_prev is 1.0 on its first ``reach`` cells and +0.0 past them, and
    the plain kernel's step from u_old with no history.  Every LAPACK call
    of a predicted solve reports a singular system, so the guess
    2 u_old - u_prev fails unless it needs no Newton iteration.  Returns
    both steps (a field and outflow, or an error), a [predicted, converged,
    LAPACK rows] list per solve of the step, and the history's support
    before it."""
    grid, u_old, m, dt = case[:4]
    cfg = small_cfg(1.0, m=m)
    u_prev = np.zeros(grid.cells)
    u_prev[:reach] = 1.0
    history = solver.Integrator(grid, m)
    history.levels = [(dt, u_prev), (dt, u_old)]
    history.support = support = max(history.end(u_prev), history.end(u_old))
    real_solve, real_dgtsv = solver._newton_solve, solver.dgtsv
    solves = []

    def lapack(dl, d, du, b, *flags):
        predicted, _, rows = solves[-1]
        rows.append(d.size)
        *out, info = real_dgtsv(dl, d, du, b, *flags)
        return (*out, 1 if predicted else info)

    def solve(work, u_old, v_b, d, tol, max_iter, bound, predicted=False):
        solves.append([predicted, None, []])
        out = real_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted)
        solves[-1][1] = out[1]
        return out

    with pytest.MonkeyPatch.context() as mp:
        # both runs face one budget of RETRY_BUDGET solves, which bounds
        # the cost of a draw whose every solve fails
        mp.setattr(solver, "MAX_SUBSTEPS", RETRY_BUDGET)
        mp.setattr(solver, "_newton_solve", plain_newton_solve)
        want = run_step(u_old, dt, grid, cfg)
        mp.setattr(solver, "_newton_solve", solve)
        mp.setattr(solver, "dgtsv", lapack)
        got = run_step(u_old, dt, grid, cfg, history)
    return got, want, solves, support


def window_rows(grid, u_old, dt, m, support):
    """The rows of a solve from ``u_old`` with the boundary value +0.0 and
    fields that are +0.0 from ``support`` on: ``support`` plus the margin of
    dt, rounded up to a multiple of WINDOW_QUANTUM short of the whole grid;
    all cells when that reaches the grid, the margin is 0 or a cell before
    ``support`` is -0.0 (solver module docstring)."""
    n, head = grid.cells, u_old[:support]
    coeff_max = float(np.max(np.concatenate([grid.coeff_plus, grid.coeff_minus])))
    margin = solver._window_margin(dt * coeff_max * (solver.JACOBIAN_EPS * m))
    w = support + margin
    if not margin or w >= n or np.any(np.signbit(head) & (head == 0.0)):
        return n
    quantum = solver.WINDOW_QUANTUM
    return min(-(-w // quantum) * quantum, n - 1)


@given(signed_newton_cases(), st.integers(min_value=0, max_value=80))
@settings(max_examples=60, deadline=None)
def test_step_after_a_failed_prediction_is_the_start_free_step(case, reach):
    # the retry from u_old, and every solve after it, are those of the step
    # that has no history to guess from
    got, want, solves, _ = failed_prediction_step(case, reach)
    assume(not solves[0][1])
    assert solves[0][0] and not solves[1][0]
    assert_same_step(got, want)


@given(zero_tail_newton_cases(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_zero_tail_retry_from_the_newest_field_is_bitwise_the_plain_kernel(case, share):
    # the retry runs on the window past the history's support, which u_prev
    # may take past u_old's own end, and still gives the plain kernel's
    # floats on the whole grid
    grid, u_old, m, dt = case[:4]
    got, want, solves, support = failed_prediction_step(case, int(share * grid.cells))
    assume(not solves[0][1])
    assert_same_step(got, want)
    retry_rows = solves[1][2]
    if retry_rows:
        assert retry_rows[0] == window_rows(grid, u_old, dt, m, support)


def test_a_retry_from_the_newest_field_runs_on_the_support_window():
    # u_old is nonzero on its first 10 of 400 cells and u_prev on its first
    # 200: the retry's first LAPACK call has support + margin rows, rounded
    # up, where a solve from u_old with no history has 10 + margin
    u_old, _, dt, grid, m, *_ = front_args(cells=400)
    got, want, solves, support = failed_prediction_step((grid, u_old, m, dt), 200)
    assert support == 200 and solves[0][:2] == [True, False]
    assert_same_step(got, want)
    assert solves[1][2][0] == window_rows(grid, u_old, dt, m, 200) < 400
    assert first_call_rows(front_args(cells=400)) == window_rows(grid, u_old, dt, m, 10) < 200


def recorded_run(u0, cfg, grid, handed="integrator", residuals=False):
    """``solve_ball``'s trajectory and, per step, its count of accepted
    solves, the moves of the accepted solves summed up to it (the bound of
    test_scaling_group) and its outflow summed from the returned fields:
    -d * boundary_flux_coeff * (v_b - |u|^(m-1) u at the last cell) over
    its accepted solves; and the integrator each solve was handed.

    ``handed`` is what each step gets of the run's integrator: the
    "integrator" itself; "nothing", so that the step takes a fresh one and
    every solve starts from the old field; or its "history" in a fresh
    integrator, so that the step makes the run's guess in new arrays.
    With ``residuals``, a move counts the residual the solve returned in
    place of its target.
    """
    eps = np.finfo(float).eps
    real_solve, step = solver._newton_solve, solver.step
    run = SimpleNamespace(solves=[], moves=[0.0], works=[], outflows=[])

    def recording_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted=False):
        out = real_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted)
        grid, m = work.grid, work.m
        run.works.append(work)
        if out[1]:
            uscale = max(1.0, float(np.max(np.abs(u_old))), abs(v_b) ** (1.0 / m))
            coeff = float(np.max(d * (grid.coeff_plus + grid.coeff_minus)))
            spent = out[2] if residuals else tol * uscale
            run.moves[-1] += spent + 8 * eps * (uscale + coeff * uscale**m)
            run.solves[-1] += 1
            jump = v_b - float(odd_power(out[0][-1:], m)[0])
            run.outflows[-1] += -d * grid.boundary_flux_coeff * jump
        return out

    def marking_step(u, t, dt, grid, cfg, integrator=None):
        run.solves.append(0)
        run.moves.append(run.moves[-1])
        run.outflows.append(0.0)
        if handed == "integrator":
            return step(u, t, dt, grid, cfg, integrator)
        if handed == "nothing":
            return step(u, t, dt, grid, cfg)
        fresh = solver.Integrator(grid, cfg.m)
        fresh.levels, fresh.support = integrator.levels, integrator.support
        out = step(u, t, dt, grid, cfg, fresh)
        integrator.levels, integrator.support = fresh.levels, fresh.support
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", recording_solve)
        mp.setattr(solver, "step", marking_step)
        run.traj = solver.solve_ball(u0, cfg, grid)
    run.moves = np.array(run.moves)
    return run


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
    got = recorded_run(u0, cfg, grid)
    want = recorded_run(u0, cfg, grid, handed="nothing")
    assert got.traj.times == want.traj.times
    assert got.solves == want.solves
    W = float(np.sum(grid.weights_scaled))
    bound = W * (got.moves + want.moves)
    diff = [
        float(grid.weights_scaled @ np.abs(a - b))
        for a, b in zip(got.traj.fields, want.traj.fields)
    ]
    assert np.all(diff <= bound)
    assert max(diff) > 0.0  # the guess did change the iterates


# -- one integrator's arrays per run -------------------------------------------------------


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


@given(workspace_runs())
@settings(max_examples=80, deadline=None)
def test_run_shares_one_workspace_and_no_field_with_it(run):
    grid, u0, cfg = run
    given_u0 = u0.tobytes()
    rec = recorded_run(u0, cfg, grid)
    traj, works, outflows = rec.traj, rec.works, rec.outflows
    work = works[0]
    assert all(w is work for w in works)
    buffers = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
    fields = traj.fields
    for i, f in enumerate(fields):
        assert not any(np.shares_memory(f, g) for g in fields[i + 1 :])
        assert not any(np.shares_memory(f, b) for b in buffers)
    assert u0.tobytes() == given_u0
    # the outflow is the one of the |u|^(m-1) u formula, bit for bit
    assert same_bytes(traj.boundary_outflow[1:], outflows)
    # reusing the integrator's arrays from step to step moves no bit
    fresh_run = recorded_run(u0, cfg, grid, handed="history")
    fresh = fresh_run.traj
    assert len({id(w) for w in fresh_run.works}) == len(fresh.times) - 1  # one per step
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


# -- one integrator across runs ---------------------------------------------------------


@st.composite
def overflow_prone_solves(draw):
    """Newton solves from finite fields scaled by 10^k, so that |u|^m runs
    from O(1) past the float range, from no start, a perturbed old field or
    any floats at all."""
    manifold = draw(st.sampled_from(FAMILIES))
    cells = draw(st.integers(min_value=3, max_value=40))
    grid = RadialGrid.uniform(manifold, draw(st.floats(min_value=1.0, max_value=20.0)), cells)
    m = draw(st.sampled_from([1.5, 2.0, 3.0]))
    k = draw(st.integers(min_value=0, max_value=int(330 / m)))
    values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    u_old = 10.0**k * np.array(draw(st.lists(values, min_size=cells, max_size=cells)))
    kind = draw(st.sampled_from(["none", "perturbed", "any"]))
    start = None
    if kind == "perturbed":
        noise = st.floats(min_value=-1e-3, max_value=1e-3)
        start = u_old * (1.0 + np.array(draw(st.lists(noise, min_size=cells, max_size=cells))))
    elif kind == "any":
        start = np.array(draw(st.lists(st.floats(), min_size=cells, max_size=cells)))
    # the PME scaling group maps a solve from u_old with dt to one from
    # 10^k u_old with 10^(k(1-m)) dt, so every scale sees mild steps as well
    dt = draw(st.floats(min_value=1e-5, max_value=1.0)) * 10.0 ** (k * (1.0 - m))
    v_b = draw(values) * 10.0 ** min(k * m, 300.0)  # v_b = |u|^(m-1) u stays finite
    return u_old, v_b, dt, grid, m, 1e-10, draw(st.integers(min_value=1, max_value=30)), start


@given(overflow_prone_solves())
@settings(max_examples=300, deadline=None)
def test_a_converged_solve_from_a_finite_field_is_finite(case):
    # the converged residual g = u - u_old - flux is finite, and an infinite
    # or NaN entry of u would make it non-finite; so the steps of a run need
    # not check their fields again
    *args, start = case
    with np.errstate(all="ignore"):
        u, ok, res = newton_solve(*args, start=start)
    if ok:
        assert np.logical_and.reduce(np.isfinite(u))
        assert math.isfinite(res)


@pytest.mark.parametrize(
    "datum",
    [lambda r: 1.0, lambda r: np.ones(r.size - 1), lambda r: np.ones((r.size, 1)), np.ones(9)],
    ids=["constant", "short", "column", "short-array"],
)
def test_a_datum_of_another_shape_is_rejected(datum):
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    with pytest.raises(DomainError, match="initial data has shape"):
        solver.solve_ball(datum, small_cfg(0.01), grid)


@pytest.mark.parametrize("shape", [(), (9,), (11,), (10, 1)], ids=str)
def test_step_rejects_a_field_of_another_shape(shape):
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    integrator = solver.Integrator(grid, 2.0)
    with pytest.raises(DomainError, match="field entering step has shape"):
        solver.step(np.ones(shape), 0.0, 0.01, grid, small_cfg(1.0), integrator)
    assert integrator.levels == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_datum_is_rejected(bad):
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    u0 = np.zeros(10)
    u0[3] = bad
    with pytest.raises(SolverError, match="non-finite"):
        solver.solve_ball(u0, small_cfg(0.01), grid)
    integrator = solver.Integrator(grid, 2.0)
    with pytest.raises(SolverError, match="non-finite"):
        solver.solve_ball(u0, small_cfg(0.01), grid, integrator=integrator)
    # a failed run leaves no history behind
    assert integrator.levels == []


def test_integrator_continues_only_from_its_own_last_field():
    grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 8.0, 60)
    cfg = small_cfg(0.05)
    u0 = np.random.default_rng(11).uniform(0.0, 1.5, grid.cells)
    integrator = solver.Integrator(grid, cfg.m)
    first = solver.solve_ball(u0, cfg, grid, integrator=integrator)
    assert integrator.levels[-1][1] is first.final
    # a copy of the last field starts a new history: a fresh run's bytes
    fresh = solver.solve_ball(first.final, cfg, grid)
    restarted = solver.solve_ball(first.final.copy(), cfg, grid, integrator=integrator)
    assert restarted.times == fresh.times
    assert same_bytes(restarted.stacked, fresh.stacked)
    # the field itself continues the history, which changes the iterates
    # only within the Newton tolerance
    integrator = solver.Integrator(grid, cfg.m)
    first = solver.solve_ball(u0, cfg, grid, integrator=integrator)
    continued = solver.solve_ball(first.final, cfg, grid, integrator=integrator)
    assert continued.fields[0] is first.final
    assert continued.times == fresh.times
    assert not same_bytes(continued.stacked, fresh.stacked)
    assert np.max(np.abs(continued.stacked - fresh.stacked)) < 1e-8


def test_integrator_rejects_another_grid_or_exponent():
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    integrator = solver.Integrator(grid, 2.0)
    with pytest.raises(DomainError, match="m=3.0"):
        solver.solve_ball(np.zeros(10), small_cfg(0.01, m=3.0), grid, integrator=integrator)
    other = RadialGrid.uniform(geometry.euclidean(2), 1.0, 10)
    with pytest.raises(DomainError, match="another grid"):
        solver.solve_ball(np.zeros(10), small_cfg(0.01), other, integrator=integrator)
    # step itself: an equal grid that is another object, a grid of another
    # cell count and another m each raise before any solve, naming the mismatch
    longer = RadialGrid.uniform(geometry.euclidean(2), 1.0, 20)
    for g, cfg, match in [
        (other, small_cfg(0.01), "another grid"),
        (longer, small_cfg(0.01), "another grid"),
        (grid, small_cfg(0.01, m=3.0), "the integrator solves m=2.0, the config has m=3.0"),
    ]:
        with pytest.raises(DomainError, match=match):
            solver.step(np.linspace(1.0, 0.1, g.cells), 0.0, 0.01, g, cfg, integrator)
    assert integrator.levels == []



def test_step_continues_only_from_the_integrators_newest_field():
    grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 8.0, 60)
    cfg = small_cfg(1.0)
    u = np.random.default_rng(3).uniform(0.0, 1.5, grid.cells)
    integrator = solver.Integrator(grid, cfg.m)
    # a step from the newest field extends the levels, at most five of them
    for k in range(7):
        u, _ = solver.step(u, 0.01 * k, 0.01, grid, cfg, integrator)
        assert len(integrator.levels) == min(k + 2, 5)
        assert integrator.levels[-1][0] == 0.01 and integrator.levels[-1][1] is u
    # an equal copy starts a new history: a fresh integrator's bytes
    fresh = solver.step(u.copy(), 0.07, 0.01, grid, cfg)
    levels, support = list(integrator.levels), integrator.support
    restarted = solver.step(u.copy(), 0.07, 0.01, grid, cfg, integrator)
    assert same_bytes(restarted[0], fresh[0]) and same_bytes(restarted[1], fresh[1])
    assert len(integrator.levels) == 2 and integrator.levels[-1][1] is restarted[0]
    # the newest field itself is predicted, which moves the iterates only
    # within the Newton tolerance
    integrator.levels, integrator.support = levels, support
    predicted, _ = solver.step(u, 0.07, 0.01, grid, cfg, integrator)
    assert not same_bytes(predicted, fresh[0])
    assert np.max(np.abs(predicted - fresh[0])) < 1e-8
    # a NaN field is checked although the integrator has a history, and the
    # history stays as it was
    levels = list(integrator.levels)
    bad = predicted.copy()
    bad[5] = math.nan
    with pytest.raises(SolverError, match="non-finite"):
        solver.step(bad, 0.08, 0.01, grid, cfg, integrator)
    assert [id(f) for _, f in integrator.levels] == [id(f) for _, f in levels]


# each field that takes a float, and how to build it; +inf means "no limit"
# for the step policy, where t_end and the barrier horizon cap every step
NON_FINITE_FIELDS = {
    "SolverConfig.m": lambda x: small_cfg(1.0, m=x),
    "SolverConfig.t_end": lambda x: small_cfg(x),
    "SolverConfig.newton_tol": lambda x: small_cfg(1.0, newton_tol=x),
    "DtPolicy.dt0": lambda x: solver.DtPolicy(dt0=x),
    "DtPolicy.growth": lambda x: solver.DtPolicy(dt0=1e-3, growth=x),
    "DtPolicy.dt_max": lambda x: solver.DtPolicy(dt0=1e-3, dt_max=x),
    "BlowupConfig.m": lambda x: blowup.BlowupConfig(m=x),
    "BlowupConfig.threshold_factor": lambda x: blowup.BlowupConfig(m=2.0, threshold_factor=x),
    "BlowupConfig.newton_tol": lambda x: blowup.BlowupConfig(m=2.0, newton_tol=x),
    "BlowupConfig.norm_r": lambda x: blowup.BlowupConfig(m=2.0, norm_r=x),
    "LogNorm.r": lambda x: xlog.LogNorm(x, 2.0),
    "LogNorm.m": lambda x: xlog.LogNorm(2.0, x),
    "step.dt": lambda x: solver.step(
        np.zeros(10), 0.0, x, RadialGrid.uniform(geometry.euclidean(2), 1.0, 10), small_cfg(1.0)
    ),
}
UNLIMITED = {"DtPolicy.dt0", "DtPolicy.growth", "DtPolicy.dt_max"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
def test_non_finite_values_are_rejected_in_the_library(name, value):
    build = NON_FINITE_FIELDS[name]
    if value == math.inf and name in UNLIMITED:
        build(value)
        return
    with pytest.raises(DomainError):
        build(value)


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


@given(tridiagonal_systems())
@settings(max_examples=100, deadline=None)
def test_positional_flags_overwrite_in_place_as_the_keywords_do(system):
    # the kernel passes overwrite_dl, overwrite_d, overwrite_du and
    # overwrite_b positionally; if the signature put another parameter
    # there, dgtsv would solve on copies and leave the inputs as they were
    arrays = [a.copy() for a in system]
    *out, info = solver.dgtsv(*arrays, 1, 1, 1, 1)
    ref_arrays = [a.copy() for a in system]
    *ref, ref_info = solver.dgtsv(
        *ref_arrays, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    assert info == ref_info
    for a, got, ref_a, want in zip(arrays, out, ref_arrays, ref):
        assert np.shares_memory(got, a) and np.shares_memory(want, ref_a)
        assert same_bytes(got, want) and same_bytes(a, ref_a)


# The numpy calls of the step kernel, by their names in ``solver``: one
# residual evaluation, and one Newton iteration from the Jacobian to the
# trial point at lam = 1 (its LAPACK call included).  A call written as
# ``np.<ufunc>(...)`` again, or one made with a keyword argument, or one
# more call, changes these lists.
RESIDUAL_CALLS = [
    "_absolute", "_power", "_multiply", "_subtract", "_multiply", "_multiply",
    "_subtract", "_subtract", "_subtract", "_absolute", "_argmax", "_item",
]
NEWTON_ITERATION_CALLS = [
    "_add", "_multiply", "_multiply", "_add", "_multiply", "_multiply",
    "_isfinite", "_argmin", "_item", "_negative", "dgtsv", "_isfinite", "_argmin", "_item",
    "_add",
]
KERNEL_NAMES = [
    "_absolute", "_add", "_argmax", "_argmin", "_copyto", "_isfinite", "_item", "_multiply",
    "_negative", "_not_equal", "_power", "_subtract", "dgtsv",
]


def counted(name, fn, calls):
    """``fn`` appending its name, and the keywords it gets, to ``calls``.  It
    fails on a positional Python float or int, which a ufunc would convert
    on every call: the kernel's scalar operands are 0-d arrays (module
    docstring).  ``dgtsv``'s overwrite flags are f2py integer arguments,
    not ufunc operands."""

    def call(*args, **kw):
        calls.append(f"{name} with {sorted(kw)}" if kw else name)
        scalars = [a for a in args if type(a) in (bool, int, float)]
        assert name == "dgtsv" or not scalars, f"{name} got Python scalars {scalars}"
        return fn(*args, **kw)

    return call


def test_a_blowup_step_makes_the_pinned_kernel_calls(monkeypatch):
    # one barrier-Dirichlet step of the blow-up run's shape (quad-critical,
    # R = 25, 250 cells) from a field that starts a history: the field is
    # checked, the coefficients scaled and the field copied in; then the
    # residual, the target's max|u_old|, and per Newton iteration the
    # Jacobian, LAPACK and the trial point with its residual
    grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 25.0, 250)
    params = barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=2.0)
    cfg = small_cfg(1.0, boundary=solver.BarrierDirichlet(params))
    u0 = barriers.shifted_subsolution(params, 0.0, grid.centers)
    want, want_outflow = solver.step(u0, 0.0, 1e-3, grid, cfg)

    calls = []
    for name in KERNEL_NAMES:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name), calls))
    got, outflow = solver.step(u0, 0.0, 1e-3, grid, cfg)
    monkeypatch.undo()
    assert same_bytes(got, want) and same_bytes(outflow, want_outflow)

    iterations = calls.count("dgtsv")
    assert iterations >= 1
    assert calls == (
        ["_isfinite", "_argmin", "_item", "_multiply", "_add", "_negative", "_copyto"]
        + RESIDUAL_CALLS
        + ["_absolute", "_argmax", "_item"]
        + (NEWTON_ITERATION_CALLS + RESIDUAL_CALLS) * iterations
    )


@pytest.mark.parametrize("steps", [1, 2, 5], ids=["linear", "quadratic", "quartic"])
def test_a_windowed_step_scans_only_its_window(monkeypatch, steps):
    # a step of the J = 4000 Barenblatt run after ``steps`` steps, so that
    # its guess takes each form: the -0.0 scan of the guess (the int64
    # argmin) reads only the cells before the history's support, and the
    # end of the returned field (``_not_equal``) only the window's cells; no
    # call of the kernel gets a Python scalar, and every float is the whole
    # grid's
    grid = RadialGrid.uniform(geometry.euclidean(2), 6.0, 4000)
    dt = 0.5 * grid.h
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=dt, growth=1.0), t_end=steps * dt)
    u0 = solver.barenblatt(grid.centers, 1.0, 2, 2.0, 0.25)
    integrator = solver.Integrator(grid, 2.0)
    u = solver.solve_ball(u0, cfg, grid, integrator=integrator).final
    support = integrator.support
    plain = solver.Integrator(grid, 2.0)
    plain.levels, plain.support = list(integrator.levels), support
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", plain_newton_solve)
        want, want_outflow = solver.step(u, steps * dt, dt, grid, cfg, plain)

    calls, scanned = [], []

    def scanning(name, fn):
        def call(*args):
            scanned.append((name, *[(a.size, a.dtype) for a in args if isinstance(a, np.ndarray)]))
            return fn(*args)

        return call

    for name in KERNEL_NAMES:
        fn = getattr(solver, name)
        if name in ("_not_equal", "_argmin"):
            fn = scanning(name, fn)
        monkeypatch.setattr(solver, name, counted(name, fn, calls))
    counting, rows = recorded_dgtsv(solver.dgtsv)
    monkeypatch.setattr(solver, "dgtsv", counting)
    got, outflow = solver.step(u, steps * dt, dt, grid, cfg, integrator)
    monkeypatch.undo()
    assert same_bytes(got, want) and same_bytes(outflow, want_outflow)

    w = rows[0]
    assert w < 4000 and w % solver.WINDOW_QUANTUM == 0 and rows == [w] * len(rows)
    bits = [a[0][0] for name, *a in scanned if name == "_argmin" and a[0][1] == np.int64]
    assert bits == [support] and support < w
    not_equal = [a for name, *a in scanned if name == "_not_equal"]
    assert len(not_equal) == 1 and {size for size, _ in not_equal[0]} <= {w, 1}
    # the support is the running maximum of the accepted fields' ends
    assert integrator.support == max(support, integrator.end(got)) < w


def test_a_new_history_is_the_only_whole_grid_scan_of_its_step(monkeypatch):
    # ``step`` scans the end of the field that starts a new history over the
    # whole grid, and every solve of the step, a halved step's second half
    # included, takes its window from the step's running support; so a new
    # history's step makes one whole-grid ``Integrator.end`` call and a
    # continuing step none, with or without halvings.  The halved steps
    # report a singular system on their first LAPACK calls: the new
    # history's first solve, and the continuing step's prediction and retry
    grid = RadialGrid.uniform(geometry.euclidean(2), 6.0, 1000)
    dt = 0.5 * grid.h
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=dt, growth=1.0), t_end=1.0)
    u0 = solver.barenblatt(grid.centers, 1.0, 2, 2.0, 0.25)
    integrator = solver.Integrator(grid, 2.0)
    real_end, real_solve, real_dgtsv = solver.Integrator.end, solver._newton_solve, solver.dgtsv
    scans, sizes = [], []

    def counting_end(self, u, win=None):
        scans[-1] += (win or self.whole).w == self.cells
        return real_end(self, u, win)

    def recording_solve(work, u_old, v_b, d, *rest):
        out = real_solve(work, u_old, v_b, d, *rest)
        sizes[-1].append((d, out[1]))
        return out

    monkeypatch.setattr(solver.Integrator, "end", counting_end)
    monkeypatch.setattr(solver, "_newton_solve", recording_solve)
    u = u0
    for k, (new, singular) in enumerate([(True, 0), (False, 0), (False, 2), (True, 1)]):
        scans.append(0)
        sizes.append([])
        monkeypatch.setattr(solver, "dgtsv", recorded_dgtsv(real_dgtsv, singular)[0])
        u, _ = solver.step(u.copy() if new else u, k * dt, dt, grid, cfg, integrator)
        assert integrator.window.w < grid.cells
    assert scans == [1, 0, 0, 1]
    halved = [(dt / 2, True), (dt / 2, True)]
    assert sizes == [[(dt, True)], [(dt, True)], [(dt, False), (dt, False), *halved], [(dt, False), *halved]]


def test_a_windowed_run_computes_its_margin_once_per_step_size(monkeypatch):
    # ``window_end`` computes the margin of a step size when a solve first
    # asks for it, from the integrator's coupling: in a fixed-step Barenblatt
    # run once for dt and once for the last step, which rounding shortens.
    # Each window is a multiple of WINDOW_QUANTUM cells, so it is rebuilt
    # only when the support crosses one
    grid = RadialGrid.uniform(geometry.euclidean(2), 6.0, 1000)
    dt = 0.5 * grid.h
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=dt, growth=1.0), t_end=40 * dt)
    calls = []
    margin = solver._window_margin
    monkeypatch.setattr(solver, "_window_margin", lambda q: calls.append(q) or margin(q))
    counting, rows = recorded_dgtsv(solver.dgtsv)
    monkeypatch.setattr(solver, "dgtsv", counting)
    integrator = solver.Integrator(grid, 2.0)
    u0 = solver.barenblatt(grid.centers, 1.0, 2, 2.0, 0.25)
    solver.solve_ball(u0, cfg, grid, integrator=integrator)
    assert len(calls) == len(set(calls)) == 2 and calls[-1] == integrator.coupling
    assert integrator.margin == margin(integrator.coupling) > 0
    windows = sorted(set(rows))
    assert windows[-1] < 1000 and all(w % solver.WINDOW_QUANTUM == 0 for w in windows)
    assert 1 < len(windows) < 10


@given(
    st.integers(min_value=3, max_value=80).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.sampled_from([0.0, 0.0, -0.0, 5e-324, 1.0, -2.5]), min_size=n, max_size=n
            ),
            st.integers(min_value=1, max_value=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
@example(([0.0] * 5, 1))
@example(([0.0] * 5, 5))
@example(([-0.0, 0.0, 0.0], 1))
def test_end_over_a_window_is_the_end_over_the_grid(case):
    # ``end`` scans only the window's cells, past which the field is +0.0:
    # all-zero fields, a window of one cell and -0.0 or subnormal last cells
    values, w = case
    u = np.array(values)
    u[w:] = 0.0
    integrator = solver.Integrator(RadialGrid.uniform(geometry.euclidean(2), 1.0, u.size), 2.0)
    want = integrator.end(u)
    assert integrator.end(u, solver.Window(integrator, w)) == want
    assert type(want) is int and want == max(np.flatnonzero(u.view(np.int64)) + 1, default=0)


# The kernel reduces by arg-index (module docstring): a maximum of entries
# |.| has cleared of -0.0, all() of bool flags and the minimum of a field's
# int64 bits.  Signed values, ties of both zeros, infinities and NaN are
# drawn, and lengths that span numpy's vector loops and their remainders.
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@given(st.lists(FLOATS, min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_arg_index_max_and_min_are_the_reductions(values):
    x = np.absolute(np.array(values))
    got, want = solver._item(x, solver._argmax(x)), float(np.maximum.reduce(x))
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(want)) or same_bytes(got, want)
    bits = np.array(values).view(np.int64)
    got = solver._item(bits, solver._argmin(bits))
    assert type(got) is int and got == int(np.minimum.reduce(bits))


@st.composite
def flag_arrays(draw):
    """Bool flags: mostly True with a few False, or drawn one by one."""
    n = draw(st.integers(min_value=1, max_value=800))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    flags = np.ones(n, dtype=bool)
    flags[draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))] = False
    return flags


@given(flag_arrays())
@settings(max_examples=300, deadline=None)
def test_arg_index_all_is_the_reduction(flags):
    got = solver._item(flags, solver._argmin(flags))
    assert type(got) is bool and got == bool(np.logical_and.reduce(flags))


def test_signed_zero_tie_keeps_the_ledger_maxima_on_the_reduction():
    # the reduction and argmax differ on a tie of +0.0 and -0.0, which
    # signed values can hold: so blowup's stage_delta hi and sandwich gaps,
    # which reach the ledger, stay on np.maximum.reduce
    x = np.array([0.0, -0.0])
    assert same_bytes(np.maximum.reduce(x), -0.0)
    assert same_bytes(solver._item(x, solver._argmax(x)), 0.0)
    assert blowup._max == np.maximum.reduce


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
    """dgtsv stand-in returning ``info`` and, if given, a constant direction;
    like the real routine, it takes the overwrite flags positionally or by
    keyword."""

    def call(dl, d, du, b, *flags, **kw):
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
    u, ok, res = newton_solve(*newton_args())
    assert not ok
    assert np.array_equal(u, u_old)  # nothing non-finite reached the iterate
    assert math.isfinite(res)


def test_newton_solve_fails_on_overflowing_field():
    u_old, v_b, dt, g, m, tol, max_iter = newton_args()
    u_old = u_old.copy()
    u_old[5] = 1e200  # |u|^2 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        u, ok, res = newton_solve(u_old, v_b, dt, g, m, tol, max_iter)
    assert not ok
    assert not math.isfinite(res)


def test_step_halves_after_a_singular_system(monkeypatch):
    u0, v_b, dt, g, m, tol, max_iter = newton_args()
    cfg = small_cfg(1.0, m=m)
    want = u0
    for k in range(2):
        want, _ = solver.step(want, k * dt / 2, dt / 2, g, cfg)

    singular_first, _ = recorded_dgtsv(solver.dgtsv, 1)
    solved = []
    real_solve = solver._newton_solve

    def recording_solve(work, u, v_b, d, *rest):
        out = real_solve(work, u, v_b, d, *rest)
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
        def stub(work, u, v_b, d, *rest):
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
    _, ok, res = newton_solve(u0, v_b, d, g, m, tol, max_iter)
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

    def fails_above_1e9(work, u, v_b, d, *rest):
        # the target a solve leaves in its integrator, as the kernel does
        work.target = 11.0 * d
        if d <= 1e-9:
            return u, True, 0.0
        failed.append((7.0 * d, work.target))
        return u, False, failed[-1][0]

    monkeypatch.setattr(solver, "_newton_solve", fails_above_1e9)
    with pytest.raises(SolverError, match="budget") as exc:
        solver.step(u0, 0.0, 1.0, g, small_cfg(1.0))
    residual, target = failed[-1]
    assert str(exc.value).endswith(
        f" (last failed solve: residual {residual:.3g}, target {target:.3g})"
    )


# -- configuration invariants ------------------------------------------------------


@pytest.mark.parametrize("dt_max", [0.0, -1e-3, math.nan])
def test_dt_policy_rejects_nonpositive_dt_max(dt_max):
    with pytest.raises(DomainError, match="dt_max"):
        solver.DtPolicy(dt0=1e-3, dt_max=dt_max)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
def test_barrier_boundary_rejects_a_shift_outside_0_inf(delta):
    # a nan shift fails every Newton solve, an infinite one clips the trace
    # to the homogeneous boundary, and a negative one has no trace: each is
    # refused when the boundary is built, before any step
    params = barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=2.0)
    with pytest.raises(DomainError, match="delta"):
        solver.BarrierDirichlet(params, delta)


@given(
    st.builds(
        barriers.BarrierParams,
        amplitude=st.floats(1e-3, 50.0),
        r=st.floats(2.0, 30.0),
        horizon=st.floats(1e-4, 100.0),
        m=st.floats(1.5, 6.0),
    ),
    st.just(0.0) | st.floats(0.0, 5.0),
    st.floats(0.5, 100.0),
    st.floats(0.0, 1.0, exclude_max=True) | st.just(1.0),
)
@settings(max_examples=300, deadline=None)
def test_a_barrier_trace_is_the_blowup_factor_times_the_shifted_subsolution(p, delta, radius, share):
    # from t = 0 up to the last float below T; the trace computes its
    # exponent and time-free factor once, and gives the same float per time
    t = math.nextafter(p.horizon, 0.0) if share == 1.0 else share * p.horizon
    bc = solver.BarrierDirichlet(p, delta)
    want = barriers.blowup_factor(p.horizon, p.m)(t) * barriers.shifted_subsolution(p, delta, radius)
    assert float_bits(bc.trace(radius)(t)) == float_bits(want)


def float_bits(x):
    return np.array([x], dtype=float).tobytes()


@given(
    st.floats(min_value=0.0) | st.sampled_from([math.nan, math.inf]),
    st.floats(-1e30, 1e30) | st.sampled_from([0.0, -0.0, math.inf]),
    st.floats(1.01, 10.0),
    st.floats(1e-14, 1e-2),
)
@settings(max_examples=300, deadline=None)
def test_the_newton_target_is_the_max_of_its_three_terms(u_old_max, v_b, m, tol):
    # the two comparisons take the maximum as ``max`` does: a NaN norm stays NaN
    want = tol * max(u_old_max, 1.0, abs(v_b) ** (1.0 / m))
    assert float_bits(solver._newton_target(u_old_max, v_b, m, tol)) == float_bits(want)


def previous_step(u, t, dt, grid, cfg, integrator):
    """``solver.step``'s halving loop written plainly, the one oracle of its
    solves: a list of pending sub-steps from the start, the boundary value
    read from the trace per solve, a failed predicted solve retried once
    from the old field, each solve bounded by the running support, and the
    levels rebuilt."""
    levels, support = integrator.levels, integrator.support
    if levels and u is levels[-1][1]:
        predicted = integrator.guess(dt)
    else:
        u = np.asarray(u, dtype=float)
        levels, predicted, support = [(0.0, u)], False, integrator.end(u)
    value, m, tol = cfg.boundary.trace(grid.radius), cfg.m, cfg.newton_tol
    max_iter, flux, jump = cfg.newton_max_iter, grid.boundary_flux_coeff, integrator.jump
    pending = [(t, dt, 0)]
    outflow, solves = 0.0, 0
    failed = None
    while pending:
        t0, d, depth = pending.pop()
        if depth > solver.MAX_HALVINGS:
            raise SolverError(
                f"Newton failed after {solver.MAX_HALVINGS} halvings at t={t0:.6g}"
                + solver._failure_note(*failed)
            )
        if solves == solver.MAX_SUBSTEPS:
            raise SolverError(
                f"step from t={t:.6g} spent its budget of {solver.MAX_SUBSTEPS} Newton solves"
                f" at t={t0:.6g}" + solver._failure_note(*failed)
            )
        solves += 1
        ub = value(t0 + d)
        v_b = math.copysign(abs(ub) ** m, ub)
        args = (integrator, u, v_b, d, tol, max_iter, support)
        u_new, ok, res = solver._newton_solve(*args, predicted)
        if not ok and predicted:
            u_new, ok, res = solver._newton_solve(*args)
        predicted = False
        if not ok:
            failed = (res, integrator.target)
            pending.append((t0 + d / 2.0, d / 2.0, depth + 1))
            pending.append((t0, d / 2.0, depth + 1))
            continue
        outflow += -d * flux * float(jump[-1])
        u = u_new
        support = max(support, integrator.end(u, integrator.window))
    u.setflags(write=False)
    integrator.levels = [*levels[-4:], (dt, u)]
    integrator.support = support
    return u, outflow


@given(
    st.lists(st.booleans(), max_size=30),
    st.booleans(),
    st.sampled_from(["homogeneous", "barrier"]),
    st.floats(1e-4, 0.05),
)
@settings(max_examples=300, deadline=None)
def test_step_makes_the_solves_of_the_previous_halving_loop(fails, continued, boundary, dt):
    # each Newton solve fails or converges as the drawn list says, in call
    # order, so the two loops meet the same outcomes only if they make the
    # same solves: same times, sizes, boundary values and starts, the same
    # field, outflow and levels, or the same error at a small depth and
    # budget (MAX_HALVINGS 3, MAX_SUBSTEPS 12)
    grid = RadialGrid.uniform(geometry.quad_critical(0.5, 3), 5.0, 12)
    params = barriers.BarrierParams(2.0, 2.0, horizon=0.2, m=2.0)
    bc = solver.BarrierDirichlet(params) if boundary == "barrier" else solver.HomogeneousDirichlet()
    cfg = small_cfg(0.1, boundary=bc)
    u_prev, u = np.linspace(1.0, 2.0, 12), np.linspace(1.1, 2.1, 12)

    def run(stepper):
        calls = []

        def solve(work, u_old, v_b, d, tol, max_iter, bound, predicted=False):
            k = len(calls)
            calls.append((float_bits(d), float_bits(v_b), predicted, tol, max_iter, bound))
            work.jump[-1], work.target = 3.0 * d + k, 5.0 * d
            return u_old + d, not (k < len(fails) and fails[k]), float(k)

        integrator = solver.Integrator(grid, 2.0)
        if continued:
            integrator.levels = [(0.01, u_prev), (0.01, u)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_newton_solve", solve)
            mp.setattr(solver, "MAX_HALVINGS", 3)
            mp.setattr(solver, "MAX_SUBSTEPS", 12)
            try:
                got, outflow = stepper(u, 0.3, dt, grid, cfg, integrator)
            except SolverError as exc:
                return calls, str(exc)
        sizes = [s for s, _ in integrator.levels]
        return calls, (got.tobytes(), float_bits(outflow), sizes, integrator.support)

    assert run(solver.step) == run(previous_step)


def previous_step_sizes(cfg, barrier_horizon):
    """The step sizes and recorded times of ``solve_ball`` written with
    ``min``, the one oracle of its step sequence: each step the least of the
    policy's size, the time left and the barrier cap."""
    horizon = min(barrier_horizon, cfg.boundary.horizon)
    stop = cfg.t_end - 1e-14 * cfg.t_end
    t, dt, k, sizes, times = 0.0, cfg.dt.dt0, 0, [], [0.0]
    while t < stop:
        d = min(dt, cfg.t_end - t, solver.BARRIER_CAP * (horizon - t))
        sizes.append(d)
        t += d
        k += 1
        if k % cfg.snapshot_stride == 0 or t >= stop:
            times.append(t)
        dt = min(dt * cfg.dt.growth, cfg.dt.dt_max)
    return sizes, times


@given(
    st.floats(1e-4, 0.1),
    st.floats(1.0, 2.0),
    st.floats(1e-4, 0.2) | st.just(math.inf),
    st.floats(0.05, 1.0),
    st.floats(1.0001, 3.0) | st.just(math.inf),
    st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_solve_ball_takes_the_step_sizes_of_the_previous_loop(dt0, growth, dt_max, t_end, over, stride):
    # a horizon just past t_end caps the last steps; none caps none
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 4)
    cfg = solver.SolverConfig(2.0, solver.DtPolicy(dt0, growth, dt_max), t_end, snapshot_stride=stride)
    sizes = []

    def counting_step(u, t, d, grid, cfg, integrator=None):
        sizes.append(d)
        return u, 0.0

    want_sizes, want_times = previous_step_sizes(cfg, over * t_end)
    assume(len(want_sizes) < 2000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", counting_step)
        traj = solver.solve_ball(np.zeros(4), cfg, grid, barrier_horizon=over * t_end)
    assert float_bits(sizes) == float_bits(want_sizes) and float_bits(traj.times) == float_bits(want_times)


def previous_guess(integrator, levels, support, d):
    """``Integrator.guess`` written plainly, with Python floats for its
    weights and constants: the one pin of the guess's bits.  The guess is
    only a Newton start, whose bits reach an output only through a solve,
    so the golden digests miss some of them: d * (1 / a) for the linear
    weight d / a moves no golden output and fails this test alone."""
    if len(levels) < 2:
        return None
    out, tmp = integrator.u, integrator.scratch
    out[support:] = 0.0
    out, tmp = out[:support], tmp[:support]
    levels = [(s, u[:support]) for s, u in levels]
    if len(levels) == 5 and all(levels[k][0] == d for k in (1, 2, 3, 4)):
        (_, u4), (_, u3), (_, u2), (_, u1), (_, u0) = levels
        np.multiply(5.0, u0, out)
        np.subtract(out, np.multiply(10.0, u1, tmp), out)
        np.add(out, np.multiply(10.0, u2, tmp), out)
        np.subtract(out, np.multiply(5.0, u3, tmp), out)
        np.add(out, u4, out)
    elif len(levels) == 2:
        (_, u1), (a, u0) = levels
        np.multiply(np.subtract(u0, u1, tmp), d / a, tmp)
        np.add(u0, tmp, out)
    else:
        (_, u2), (b, u1), (a, u0) = levels[-3:]
        ab = a + b
        da, dab = d + a, d + ab
        np.multiply(da * dab / (a * ab), u0, out)
        np.add(out, np.multiply(-d * dab / (a * b), u1, tmp), out)
        np.add(out, np.multiply(d * da / (ab * b), u2, tmp), out)
    return integrator.u


@given(
    st.integers(3, 40).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.sampled_from([0.1, 0.2, 0.3]),
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                st.integers(0, n),
            ),
            min_size=1,
            max_size=6,
        )
    ),
    st.sampled_from([0.1, 0.2, 0.3]),
)
@settings(max_examples=300, deadline=None)
def test_guess_is_the_previous_guess(drawn, d):
    # one to six levels, on one step size or several, each field +0.0 from a
    # drawn cell on, whose history's support is the levels' largest end: the
    # same start, bit for bit, and +0.0 from the support on
    n = len(drawn[0][1])
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, n)
    got, want = solver.Integrator(grid, 2.0), solver.Integrator(grid, 2.0)
    levels = []
    for s, values, cut in drawn:
        u = np.array(values) + 0.0
        u[cut:] = 0.0
        levels.append((s, u))
    got.levels = levels[-5:]
    got.support = support = max(got.end(u) for _, u in levels)
    want_start = previous_guess(want, levels[-5:], support, d)
    assert got.guess(d) == (want_start is not None)
    if want_start is not None:
        assert got.u.tobytes() == want_start.tobytes()
        assert got.end(got.u) <= support


def test_a_line_search_with_no_passing_trial_takes_the_smallest_step_as_the_plain_kernel():
    # a direction of constant sign that raises the residual: no trial from
    # lam = 1 down to 2^-29 passes, and each iteration takes lam = 2^-30
    u_old, v_b, dt, g, m, tol, _ = newton_args()
    rising = fake_dgtsv(delta_value=50.0)
    args = (u_old, v_b, dt, g, m, tol, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "dgtsv", rising)
        got = newton_solve(*args)
        want = newton_solve(*args, kernel=plain_newton_solve)
    assert not got[1] and not want[1]
    assert same_bytes(got[0], want[0]) and same_bytes(got[2], want[2])
    assert not same_bytes(got[0], u_old)


def test_solver_config_rejects_a_barrier_boundary_of_another_exponent():
    # the boundary trace would follow the m = 3 barrier while the scheme solves m = 2
    bc = solver.BarrierDirichlet(barriers.BarrierParams(1.0, 2.0, horizon=1.0, m=3.0))
    with pytest.raises(DomainError, match=r"exponent m=3\.0, the scheme's is m=2\.0"):
        small_cfg(0.01, m=2.0, boundary=bc)


@pytest.mark.parametrize("key", ["snapshot_stride", "newton_max_iter"])
@pytest.mark.parametrize("value", [0, -1, 1.5, 2.5, 3.0])
def test_solver_config_rejects_counts_below_one(key, value):
    # a float count, whole or not, is refused too: the kernel's range() raised
    # a bare TypeError on 2.5, and a stride of 1.5 recorded other steps
    with pytest.raises(DomainError, match=key):
        small_cfg(1.0, **{key: value})


def test_library_counts_accept_numpy_integers():
    # operator.index takes numpy integers, and the run is the int run's bytes
    M = geometry.euclidean(2)
    runs = []
    for count in (int, np.int64):
        cfg = small_cfg(0.01, newton_max_iter=count(30), snapshot_stride=count(2))
        grid = RadialGrid.uniform(M, 1.0, count(10))
        runs.append(solver.solve_ball(np.linspace(1.0, 0.1, 10), cfg, grid).stacked)
        radii = (4.0, 8.0, 16.0)
        rep = solver.exhaust(lambda r: np.ones_like(r), small_cfg(0.01), M, radii, count(20))
        runs.append(np.array([rep.monotonicity_gap, *rep.inner_increments]))
        blowup.BlowupConfig(m=2.0, max_stages=count(3), steps_per_stage=count(5))
    assert same_bytes(runs[0], runs[2]) and same_bytes(runs[1], runs[3])


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


def test_barenblatt_vanishes_beyond_its_support():
    # support radius sqrt(C/k) t^beta, with k = alpha(m-1)/(2mN) = 1/16 and
    # beta = 1/4 at N = m = 2: radius 2 at t = 1 and C = 1/4
    u = solver.barenblatt(np.array([1.99, 2.0 * 1.01]), 1.0, 2, 2.0, 0.25)
    assert u[0] > 0.0 and u[1] == 0.0


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
    u0 = xlog.log_growth_datum(1.0, 2.0).profile(g.centers)
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
    norm = xlog.LogNorm(xlog.NORM_R, cfg.m)
    assert b.lognorms(norm) == a.lognorms(norm)
    assert b.tail_ratios(cfg.m) == a.tail_ratios(cfg.m)


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
    real_solve, step = solver._newton_solve, solver.step

    def counting_newton_solve(*args):
        out = real_solve(*args)
        solves[-1] += out[1]
        return out

    def counting_step(*args, **kw):
        solves.append(0)
        return step(*args, **kw)

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
    real_solve = solver._newton_solve

    def recording_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted=False):
        out = real_solve(work, u_old, v_b, d, tol, max_iter, bound, predicted)
        grid, m = work.grid, work.m
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


@pytest.mark.parametrize(
    "manifold,m",
    [pytest.param(M, m, id=M.kind if m == 2.0 else f"{M.kind}-m{m:g}") for m in (2.0, 1.5, 3.0) for M in FAMILIES],
)
def test_discrete_comparison_fifty_random_pairs(manifold, m):
    # Comparison: ordered data stay ordered.  And L1 contraction, per
    # accepted step.  An accepted solve from u_old returns u whose residual
    # g = u - u_old - F(u) has max|g| <= its Newton target tol * uscale,
    # plus the rounding of its evaluation (recorded_run's move); F(u)_i =
    # cp_i (v_{i+1} - v_i) - cm_i (v_i - v_{i-1}), v = |u|^{m-1} u, with
    # the Dirichlet value past the last cell.  So u solves the exact step
    # from u_old + g.  Take weights z with z_i cp_i = z_{i+1} cm_{i+1}
    # (z_0 = w_0, then the recursion), and two exact steps u, u' from f, f'
    # with one boundary value.  Multiply the difference of their balances
    # by z_i s_i, s_i the sign of u_i - u'_i, which is that of v_i - v'_i,
    # and sum: the flux terms give sum over faces of
    # z_i cp_i (d_i - d_{i+1})(s_i - s_{i+1}) >= 0 and
    # z_last cp_last d_last s_last >= 0, d = v - v'.  So
    # sum z|u - u'| <= sum z|f - f'|, and with f = u_old + g:
    #   sum z|u - u'| <= sum z|u_old - u'_old| + sum(z) (max|g| + max|g'|).
    # In floats z is w up to the rounding of cp and cm, r_i = z_i / w_i,
    # and in the weights w of the grid, with W = sum w,
    #   D_k <= (max r / min r) (D_{k-1} + W (move + move')),
    # D = sum w|u - u'|.  The factor (1 + 8 (J + 2) eps) covers the rounding
    # of r itself (about 4 J eps), of W and of each computed D.  Several accepted solves of
    # a halved step chain the bound, which then sums their moves.  Nothing
    # here depends on m beyond v being increasing in u.
    rng = np.random.default_rng(zlib.crc32(f"{manifold.kind} {m}".encode()))
    J = 60
    g = RadialGrid.uniform(manifold, 8.0, J)
    w, cp, cm = g.weights_scaled, g.coeff_plus, g.coeff_minus
    assert np.all(cm[1:] > 0.0)
    r = np.cumprod(np.concatenate([[1.0], w[:-1] * cp[:-1] / (w[1:] * cm[1:])]))
    growth = float(r.max() / r.min()) * (1.0 + 8 * (J + 2) * np.finfo(float).eps)
    W = float(np.sum(w))
    worst = -math.inf
    for _ in range(50):
        lo = rng.uniform(-1.5, 1.5, J)
        hi = lo + rng.uniform(0.0, 1.0, J)
        cfg = small_cfg(0.1, m=m, dt0=2e-3)
        ta = recorded_run(lo, cfg, g)
        tb = recorded_run(hi, cfg, g)
        for a, b in zip(ta.traj.fields, tb.traj.fields):
            worst = max(worst, float(np.max(a - b)))
        assert len(ta.traj.fields) == len(tb.traj.fields) == len(ta.moves)
        dist = np.array([float(w @ np.abs(a - b)) for a, b in zip(ta.traj.fields, tb.traj.fields)])
        moves = np.diff(ta.moves) + np.diff(tb.moves)
        assert np.all(dist[1:] <= growth * (dist[:-1] + W * moves))
    assert worst <= 1e-12


def test_comparison_with_ordered_barrier_boundaries():
    # larger shift -> smaller boundary datum -> smaller solution, on every
    # built-in: the trace is the subsolution's where the model has a lower
    # drift bound, else the supersolution's, and the shifts are fractions of
    # its W^m at R at t = 0, so that each pair of traces differs
    m = 2.0
    for manifold in BUILTIN_MANIFOLDS:
        consts = geometry.fit_comparison_constants(manifold)
        build = barriers.supersolution_params if consts.c_double_prime is None else barriers.subsolution_params
        params = dataclasses.replace(build(consts, m), horizon=4.0)
        g = RadialGrid.uniform(manifold, 10.0, 100)
        wm_r = float(params.wm_at_horizon(params.profile_unit(g.radius)))
        u0 = xlog.log_growth_datum(1.0, m).profile(g.centers)
        worst = -math.inf
        for d_lo, d_hi in ((0.0, 0.3), (0.1, 1.0)):
            cfg_hi = small_cfg(0.05, dt0=1e-3, boundary=solver.BarrierDirichlet(params, d_lo * wm_r))
            cfg_lo = small_cfg(0.05, dt0=1e-3, boundary=solver.BarrierDirichlet(params, d_hi * wm_r))
            ta = solver.solve_ball(u0, cfg_lo, g)
            tb = solver.solve_ball(u0, cfg_hi, g)
            assert ta.fields[-1][-1] < tb.fields[-1][-1], manifold
            for a, b in zip(ta.fields, tb.fields):
                worst = max(worst, float(np.max(a - b)))
        assert worst <= 1e-12, manifold


@st.composite
def comparison_runs(draw):
    """(grid, lo, hi, cfg_lo, cfg_hi): 1-4 steps on a ball of one of
    ``BUILTIN_MANIFOLDS`` at an exponent m in [1.05, 4], from data lo <= hi
    that may vanish on a tail.  Under homogeneous Dirichlet data both runs
    have one config; under a barrier trace (the subsolution's where the
    model has C'', else the supersolution's) lo has the larger shift, so
    the smaller datum, the shifts being fractions of W^m at R.  There the
    data are drawn on the trace's scale s = (W^m at R)^(1/m), and dt times
    s^(1-m), as the PME scaling group maps it, so that every trace sees
    mild steps."""
    manifold = draw(st.sampled_from(BUILTIN_MANIFOLDS))
    m = draw(st.floats(min_value=1.05, max_value=4.0))
    cells = draw(st.integers(min_value=8, max_value=40))
    grid = RadialGrid.uniform(manifold, draw(st.floats(min_value=2.0, max_value=12.0)), cells)
    steps = draw(st.integers(min_value=1, max_value=4))
    barrier = draw(st.booleans())
    s = 1.0
    if barrier:
        consts = geometry.fit_comparison_constants(manifold)
        if consts.c_double_prime is None:
            params = barriers.supersolution_params(consts, m)
        else:
            params = barriers.subsolution_params(consts, m)
        wm_r = float(params.wm_at_horizon(params.profile_unit(grid.radius)))
        s = wm_r ** (1.0 / m)
    dt = draw(st.floats(min_value=1e-4, max_value=1e-2)) * s ** (1.0 - m)
    support = draw(st.integers(min_value=1, max_value=cells))
    fraction = st.floats(min_value=0.0, max_value=1.0)
    lo, gap = np.zeros(cells), np.zeros(cells)
    lo[:support] = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=support, max_size=support))
    gap[:support] = draw(st.lists(fraction, min_size=support, max_size=support))
    lo, hi = s * lo, s * (lo + gap)
    policy = solver.DtPolicy(dt0=dt, growth=1.0)
    if not barrier:
        cfg = solver.SolverConfig(m=m, dt=policy, t_end=steps * dt)
        return grid, lo, hi, cfg, cfg
    # a horizon far past the run, so that the trace grows by at most
    # 0.95^(-1/(m-1)) over it
    params = dataclasses.replace(params, horizon=20.0 * steps * dt)
    d_small, d_large = sorted(draw(st.lists(fraction, min_size=2, max_size=2)))
    cfg_lo, cfg_hi = (
        solver.SolverConfig(
            m=m, dt=policy, t_end=steps * dt, boundary=solver.BarrierDirichlet(params, d * wm_r)
        )
        for d in (d_large, d_small)
    )
    return grid, lo, hi, cfg_lo, cfg_hi


def _unit_bump_under_a_barrier_trace():
    """A run of ``comparison_runs`` that the default Newton tolerance orders
    only to 1.8e-10: zero and a bump at the origin of the trace's height,
    under the supersolution's trace on the euclidean ball R = 2, one step
    of six accepted solves."""
    grid = RadialGrid.uniform(geometry.euclidean(3), 2.0, 8)
    dt = 0.07517042285965203
    params = barriers.BarrierParams(0.04998000799680128, 2.0, horizon=20.0 * dt, m=2.0)
    boundary = solver.BarrierDirichlet(params)
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=dt, growth=1.0), t_end=dt, boundary=boundary)
    lo = np.zeros(8)
    hi = lo.copy()
    hi[0] = 0.10393050488203898
    return grid, lo, hi, cfg, cfg


@given(comparison_runs())
@example(_unit_bump_under_a_barrier_trace())
@settings(max_examples=60, deadline=None)
def test_comparison_and_odd_symmetry_at_any_exponent(run):
    # ROADMAP item 11 at continuous m.  Comparison: an accepted solve is the
    # exact step from its old field moved by its residual g, and an exact
    # step from ordered data under ordered boundary data is ordered, by
    # at most max(f - f')^+ (at the cell where u - u' peaks, v - v' peaks
    # too, so its flux difference is <= 0).  So max(a - b) after k steps is
    # at most the moves of both runs' first k steps, here each solve's own
    # residual plus the rounding of its evaluation (recorded_run), and
    # nothing more: item 18's discrete certificate rests on this.  The
    # residuals are not below 1e-12, and the explicit example is ordered
    # only to 1.8e-10.  Odd symmetry: under homogeneous Dirichlet data every
    # operation of a step commutes with negation on nonzero floats, so -u0
    # gives -u exactly, with the outflow negated
    grid, lo, hi, cfg_lo, cfg_hi = run
    a = recorded_run(lo, cfg_lo, grid, residuals=True)
    b = recorded_run(hi, cfg_hi, grid, residuals=True)
    assert a.traj.times == b.traj.times
    worst = np.array([float(np.max(x - y)) for x, y in zip(a.traj.fields, b.traj.fields)])
    assert np.all(worst <= a.moves + b.moves), (worst, a.moves + b.moves)
    a = a.traj
    if cfg_lo.boundary.m is None:
        odd = solver.solve_ball(-lo, cfg_lo, grid)
        assert odd.times == a.times
        assert all(np.array_equal(x, -y) for x, y in zip(odd.fields, a.fields))
        assert odd.boundary_outflow == [-f for f in a.boundary_outflow]


# -- barrier sandwich along a run ----------------------------------------------------------


def test_sign_changing_datum_bounded_by_barrier(quad_manifold, quad_constants):
    m = 2.0
    g = RadialGrid.uniform(quad_manifold, 20.0, 200)
    datum = xlog.log_growth_datum(1.0, m)
    norm0 = xlog.log_norm(datum, xlog.LogNorm(2.0, m))
    et = solver.existence_time(datum, quad_constants, m)
    prof = xlog.log_growth_datum(1.0, m).profile
    cfg = solver.SolverConfig(
        m=m, dt=solver.DtPolicy(dt0=2e-4, growth=1.2, dt_max=1e-3), t_end=0.4 * et.time
    )
    traj = solver.solve_ball(lambda r: -prof(r), cfg, g, barrier_horizon=et.time)
    assert (et.norm, et.lognorm) == (norm0, xlog.LogNorm(2.0, m))
    excess = solver.barrier_excess(traj, et)
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


@pytest.mark.parametrize("own, given", [(0.05, 0.06), (0.06, 0.05)])
def test_steps_are_capped_at_the_nearer_of_two_horizons(own, given):
    # a barrier boundary's own horizon and barrier_horizon both apply: each
    # step is the one that capping at each horizon in turn gives, bit for bit
    g = RadialGrid.uniform(geometry.euclidean(2), 2.0, 10)
    bc = solver.BarrierDirichlet(barriers.BarrierParams(1.0, 2.0, horizon=own, m=2.0))
    cfg = small_cfg(0.03, boundary=bc)
    traj = solver.solve_ball(np.zeros(10), cfg, g, barrier_horizon=given)
    want, t, dt = [0.0], 0.0, cfg.dt.dt0
    while t < cfg.t_end - 1e-14 * cfg.t_end:
        d = min(dt, cfg.t_end - t)
        for T in (given, own):
            d = min(d, solver.BARRIER_CAP * (T - t))
        t += d
        want.append(t)
        dt = min(dt * cfg.dt.growth, cfg.dt.dt_max)
    assert traj.times == want
    assert len(want) > 80  # the cap binds: without it the run takes 11 steps


@pytest.mark.parametrize("t_end", [1.0, 1.5])
@pytest.mark.parametrize("own, given", [(1.0, None), (1.0, 3.0), (3.0, 1.0), (None, 1.0)])
def test_a_t_end_reaching_either_horizon_is_rejected(own, given, t_end):
    g = RadialGrid.uniform(geometry.euclidean(2), 2.0, 10)
    bc = solver.HomogeneousDirichlet()
    if own is not None:
        bc = solver.BarrierDirichlet(barriers.BarrierParams(1.0, 2.0, horizon=own, m=2.0))
    with pytest.raises(DomainError, match=rf"^t_end={t_end:g} reaches the barrier horizon T=1$"):
        solver.solve_ball(np.ones(10), small_cfg(t_end, boundary=bc), g, barrier_horizon=given)


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


@pytest.mark.parametrize("capped_by", ["barrier_horizon", "boundary"])
def test_nested_balls_record_one_time_sequence(capped_by):
    # exhaust compares its levels' stacked fields record by record: every ball
    # runs solve_ball with one cfg and one horizon, so the nested balls record
    # one float sequence of times, under a horizon cap that binds after the
    # first steps (dt0 is below BARRIER_CAP * T) and under a barrier boundary,
    # whose datum differs from ball to ball
    M, m, T = geometry.quad_critical(0.5, 3), 2.0, 0.1
    bc, horizon = solver.HomogeneousDirichlet(), T
    if capped_by == "boundary":
        bc = solver.BarrierDirichlet(barriers.BarrierParams(1.0, 2.0, horizon=T, m=m), 0.5)
        horizon = None
    u0 = xlog.log_growth_datum(1.0, m).profile
    cfg = small_cfg(0.09, m=m, dt0=1e-4, boundary=bc, snapshot_stride=3)
    times = [
        solver.solve_ball(u0, cfg, RadialGrid.uniform(M, R, 10 * k), barrier_horizon=horizon).times
        for R, k in ((5.0, 1), (10.0, 2), (20.0, 4))
    ]
    assert times[0] == times[1] == times[2]
    # the cap binds: without it the same policy records other times
    free_cfg = small_cfg(0.09, m=m, dt0=1e-4, snapshot_stride=3)
    free = solver.solve_ball(u0, free_cfg, RadialGrid.uniform(M, 5.0, 10))
    assert len(free.times) < len(times[0])


def test_exhaust_validates_radii():
    M = geometry.euclidean(2)
    with pytest.raises(DomainError):
        solver.exhaust(lambda r: np.zeros_like(r), small_cfg(0.1), M, (4.0, 8.0), 20)
    with pytest.raises(DomainError):
        solver.exhaust(lambda r: np.zeros_like(r), small_cfg(0.1), M, (4.0, 8.1, 16.0), 20)
    # h = radii[0] / cells_first: a zero first radius or no cells used to divide
    # by zero, and R / h raised on a NaN or infinite radius
    for radii, cells in [
        ((0.0, 1.0, 2.0), 20),
        ((4.0, 8.0, 16.0), 0),
        ((4.0, math.nan, 16.0), 20),
        ((4.0, 8.0, math.inf), 20),
        ((4.0, 8.0, 16.0), 20.5),
        ((4.0, 8.0, 16.0), 20.0),
    ]:
        with pytest.raises(DomainError):
            solver.exhaust(lambda r: np.zeros_like(r), small_cfg(0.1), M, radii, cells)


def test_exhaust_report_validate_raises_on_a_gap_over_its_tolerance():
    rep = solver.ExhaustReport(
        radii=[1.0, 2.0, 4.0], monotonicity_gap=0.25, inner_increments=[0.0, 0.0], tau_h=0.125
    )
    with pytest.raises(CertificateError) as info:
        rep.validate()
    assert str(info.value) == "exhaustion monotonicity violated: gap 2.500e-01 > 1.250e-01"
    assert info.value.exit_code == 3
    assert dataclasses.replace(rep, monotonicity_gap=0.125).validate()


def test_exhaust_of_a_negative_datum_fails_its_own_check():
    # under zero boundary data, comparison runs the other way for u0 < 0: the
    # solution on a larger ball lies below, so the gap is the size of the
    # mirrored positive run's increments, far above tau_h
    cfg = solver.SolverConfig(m=2.0, dt=solver.DtPolicy(dt0=1e-2, dt_max=0.1), t_end=1.0)
    rep = solver.exhaust(lambda r: -np.ones_like(r), cfg, geometry.euclidean(3), (1.0, 2.0, 4.0), 10)
    assert rep.monotonicity_gap > 4 * rep.tau_h
    with pytest.raises(CertificateError, match="^exhaustion monotonicity violated: gap "):
        rep.validate()


# -- existence time ------------------------------------------------------------------------


def test_existence_time_closed_form():
    class FakeConsts:
        c_prime = 3.0

    # norm exactly 1: the tail limit 2 * 2^-1 of 2 log rho
    datum = xlog.log_growth_datum(2.0, 2.0)
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.time == pytest.approx(1.0 / 24, rel=1e-12)
    assert not et.global_flag


def test_existence_time_doubling_scales():
    class FakeConsts:
        c_prime = 2.0

    m = 2.0
    d1 = xlog.log_growth_datum(1.0, m)
    d2 = xlog.log_growth_datum(2.0, m)
    t1 = solver.existence_time(d1, FakeConsts(), m).time
    t2 = solver.existence_time(d2, FakeConsts(), m).time
    assert t2 / t1 == pytest.approx(2.0 ** (1 - m), rel=1e-12)


def test_existence_time_bounded_datum_global():
    class FakeConsts:
        c_prime = 2.0

    datum = xlog.bounded_datum(5.0)
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.global_flag
    assert et.limit_time == math.inf
    assert et.time < math.inf  # finite-r certificate still exists


def test_existence_time_zero_datum():
    class FakeConsts:
        c_prime = 2.0

    rho = np.geomspace(1e-3, 1e6, 2000)
    datum = xlog.table_datum(rho, np.zeros_like(rho))
    et = solver.existence_time(datum, FakeConsts(), 2.0)
    assert et.global_flag and et.time == math.inf


@pytest.mark.parametrize(
    "m, what",
    [(1.0003, "weighted norm of u0"), (1.001, "existence time")],
    ids=["norm-underflows", "time-underflows"],
)
def test_existence_time_refuses_an_m_whose_arithmetic_underflows(m, what):
    # at m = 1.0003 the norm of log-growth(1), the tail limit 2^-3333 and the
    # ramp bound, is 0.0, which read as the zero datum's would certify global
    # existence; at m = 1.001 the norm is 1.6e-144 but a^(m-1) underflows, so
    # the horizon would be 0.0
    class FakeConsts:
        c_prime = 2.0

    with pytest.raises(DomainError, match=f"^the {what} underflows to 0 at m={m!r}$"):
        solver.existence_time(xlog.log_growth_datum(1.0, m), FakeConsts(), m)


@pytest.mark.parametrize(
    "datum",
    [xlog.bounded_datum(1.0), xlog.table_datum([0.0, 1.0, 50.0], [1.0, -2.0, 0.5])],
    ids=["bounded", "table"],
)
def test_a_weight_past_the_float_range_gives_only_the_domain_error(datum):
    # at m = 1.0003 the weight log(r^2 + rho^2)^(1/(m-1)) is past the float
    # range from rho = 0 on, so every part of the norm is 0.0: the refusal
    # that names m is the one thing raised, with warnings as errors
    class FakeConsts:
        c_prime = 2.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the weighted norm of u0 underflows to 0 at m=1\.0003$"):
            solver.existence_time(datum, FakeConsts(), 1.0003)


def solve_report(excess, tol):
    return solver.SolveReport(
        times=[0.0], log_norm_series=[1.0], tail_ratio_series=[1.0], mass_series=[1.0],
        existence_time=1.0, existence_time_limit=1.0, global_existence=False,
        max_barrier_violation=excess, tau_h=tol,
    )


def test_solve_report_validate_raises_when_the_sandwich_is_left():
    with pytest.raises(CertificateError) as info:
        solve_report(0.2, 0.1).validate()
    assert str(info.value) == "barrier sandwich violated by 2.000e-01 (tolerance 1.000e-01)"
    assert info.value.exit_code == 3
    assert solve_report(0.1, 0.1).validate() and solve_report(None, 0.1).validate()


def test_solve_report_audits_only_under_a_finite_horizon(quad_manifold, quad_constants):
    m = 2.0
    g = RadialGrid.uniform(quad_manifold, 10.0, 40)
    datum = xlog.log_growth_datum(1.0, m)
    et = solver.existence_time(datum, quad_constants, m)
    assert et.horizon == et.time < math.inf
    traj = solver.solve_ball(xlog.log_growth_datum(1.0, m).profile, small_cfg(0.01), g, barrier_horizon=et.horizon)
    rep = solver.solve_report(traj, et)
    # the audit's envelope is the certificate's: its time, its norm of u0 and
    # that norm's m and weight
    w = xlog.LogNorm(2.0, m).weight(g.centers)
    bound = barriers.separable_envelopes(traj.times, et.time, m, et.norm, w)
    assert rep.max_barrier_violation == float(np.max(np.abs(traj.stacked) - bound))
    # the run's tau_h scale is its largest recorded |u|
    assert rep.tau_h == solver.tau_h(g.h, max(float(np.max(np.abs(f))) for f in traj.fields))
    # every series is in the norm that measured u0
    assert et.lognorm == xlog.LogNorm(2.0, m)
    assert (rep.times, rep.mass_series) == (traj.times, traj.masses)
    assert (rep.log_norm_series, rep.tail_ratio_series) == (traj.lognorms(et.lognorm), traj.tail_ratios(m))
    assert (rep.existence_time, rep.global_existence) == (et.time, False)
    assert rep.validate()
    global_et = dataclasses.replace(et, global_flag=True)
    assert global_et.horizon is None
    assert solver.barrier_excess(traj, global_et) is None
    assert solver.solve_report(traj, global_et).max_barrier_violation is None


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


@given(
    st.sampled_from(FAMILIES),
    st.integers(min_value=3, max_value=80),
    st.floats(min_value=1.0, max_value=20.0),
    st.lists(st.sampled_from([1e-12, 1e-5, 0.3, 1.0, 7.5]) | st.floats(1e-9, 10.0), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_scaled_coefficient_views_are_bitwise_the_five_formulas(manifold, cells, radius, dts):
    grid = RadialGrid.uniform(manifold, radius, cells)
    work = solver.Integrator(grid, 2.0)
    for dt in dts:
        work.scale(dt)
        cm, cp = dt * grid.coeff_minus, dt * grid.coeff_plus
        assert same_bytes(work.whole.cm, cm) and same_bytes(work.whole.cp, cp)
        assert same_bytes(work.c_diag, cp + cm)
        assert same_bytes(work.whole.c_upper, -cp[:-1]) and same_bytes(work.whole.c_lower, -cm[1:])


def two_steps_on_20_cells():
    grid = RadialGrid.uniform(geometry.euclidean(2), 1.0, 20)
    cfg = small_cfg(1.0)
    integrator = solver.Integrator(grid, cfg.m)
    u = np.linspace(1.0, 0.0, 20)
    for k in range(2):
        u, _ = solver.step(u, 0.01 * k, 0.01, grid, cfg, integrator)
    return u, grid, cfg, integrator


def test_a_write_into_a_returned_or_recorded_field_raises():
    u, grid, cfg, _ = two_steps_on_20_cells()
    with pytest.raises(ValueError, match="read-only"):
        u[5] = math.nan
    traj = solver.solve_ball(np.linspace(1.0, 0.0, 20), small_cfg(0.01), grid)
    assert not any(f.flags.writeable for f in traj.fields)


def test_a_nan_in_the_old_field_gives_a_nan_target():
    # a caller that takes the guard down and writes NaN into the newest
    # field steps from it unchecked; the failure names a NaN target
    u, grid, cfg, integrator = two_steps_on_20_cells()
    u.flags.writeable = True
    u[5] = math.nan
    with pytest.raises(SolverError, match=r"residual nan, target nan\)$"):
        solver.step(u, 0.02, 0.01, grid, cfg, integrator)
