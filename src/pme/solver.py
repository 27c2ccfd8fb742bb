"""Implicit finite-volume solver for the radial porous medium equation.

The conservative form on a model manifold is
u_t = psi^{1-N} (psi^{N-1} (u^m)_rho)_rho with u^m := |u|^{m-1} u; fluxes are
two-point differences of v = u^m across cell faces, so the discrete mass
balance is exact and the scheme is monotone (ordered data stay ordered).

Each step solves the nonlinear cell balance implicitly with a damped Newton
iteration on the cell values u; the flux nonlinearity enters through v(u)
with dv/du = m(|u|^{m-1} + eps) regularized at the degenerate zero set.  The
tridiagonal Newton system goes straight to LAPACK ``dgtsv`` (the routine
``scipy.linalg.solve_banded`` uses for one band on each side, without its
band copy and input checks), and the residual at the point accepted by the
Armijo line search becomes the next iterate's residual, so each Newton
iteration evaluates the residual about once.

At the grid sizes of a staged blow-up run the cost of a Newton iteration
is numpy call dispatch, not arithmetic, so the kernel makes as few calls as
it can while producing every float bit for bit as the plain form (|u|^m
and |u|^{m-1} recomputed from u, ``-g`` and ``u + lam * delta`` as new
arrays) does; ``tests/test_solver.py`` keeps that form as its oracle.
|u| is taken once per evaluated point and serves both the residual's
|u|^m and the next Jacobian's |u|^{m-1}, since ``abs`` is exact.  The
residual is written into the run's buffers (see below), in the plain form's
order of operations.  The right-hand side is negated in place and the step
is ``u + lam * delta``: solving for +g and stepping with ``u - lam * delta``
would round every nonzero entry alike, but LAPACK's ``b - fact * b`` does
not commute with negation when the result is an exact zero, so the sign of
a zero direction entry, and with it the sign of a ``-0.0`` cell (odd data
make them), could change.  At ``lam == 1`` the step skips the multiply,
because ``1.0 * x`` is exact.

Each ``solve_ball`` run owns one ``NewtonWorkspace`` and hands it to every
step.  It holds the work arrays of a solve (the Jacobian, |u|, v and its
face jumps, the residual and the line-search trial), so a solve allocates
only the copy of the field it returns; no returned or recorded field is one
of its buffers.  That copy is the one a run keeps: ``Trajectory.record``
stores the array it is given.  The workspace keeps the dt-scaled face
coefficients and Jacobian factors until the step size changes: a Barenblatt
run scales them once, a blow-up stage once per distinct step size.  And it
keeps v_b - v[-1] of the last residual evaluated, the accepted field's
boundary jump, from which ``step`` sums the boundary outflow.  The workspace changes where the
numbers are stored, never how they are computed, so every float is what a
fresh array per solve gives.  ``step`` without a workspace builds its own.

A rejected step, including a singular or non-finite system, is retried on
two half steps, recursively, so ``step`` always advances by exactly the
requested increment or raises; ``MAX_HALVINGS`` bounds the depth and
``MAX_SUBSTEPS`` the total work.

Each step of ``solve_ball`` hands ``step`` a guess at the new field, and
the step's first, unhalved solve starts Newton from it instead of from the
old field u.  The guess extrapolates the run's last accepted levels to the
new time.  When this step and the last four have exactly one size, as in a
fixed-step run or a growing one that has reached ``dt_max``, it is the
quartic through the last five levels, 5u0 - 10u1 + 10u2 - 5u3 + u4 (u0 the
newest).  Otherwise it is none on the first step, u + (d/d_prev)(u - u_prev)
on the second, and from the third on the quadratic through the last three
levels, with Lagrange weights built from the actual step sizes.  There is
no variable-step quartic: across growing steps it amplifies the
extrapolation error, and on a staged blow-up run it cost more Newton
iterations and Python time for the weights than it saved.  The guess is
written straight into the workspace's start buffer, which the solve
begins from without a copy.  On the fixed-step Barenblatt runs of the
benchmark (J = 2000 and 4000, 2,001 steps) the quartic's first residual is
mostly below the target already, and the LAPACK solves fall from 3,997 to
2,426.  The target residual stays
tol * max(1, max|u_old|, |v_b|^(1/m)) of the old field: an accepted solve
means what it meant before, so the mass-balance and scaling-group bounds
hold as they did, and results move only within the Newton tolerance.  A
predicted solve that fails is retried once from u at the same full step,
before any halving, and the two attempts count as one solve against
``MAX_SUBSTEPS``; so the guess never causes a halving that the start from
u would not make.  Halved sub-solves start from their own old field.

``dgtsv`` is the one thing taken from scipy.  It comes from scipy's own f2py
LAPACK extension ``scipy/linalg/_flapack``, the module behind
``scipy.linalg.lapack.dgtsv``, so the same binary solves every system.  The
extension is loaded straight from its file, because importing
``scipy.linalg`` pulls in ``numpy.f2py``, ``numpy.testing`` and scipy's
array-API layer and about doubles the start-up time of every ``pme``
command.

Boundary conditions at rho = R: homogeneous Dirichlet, or the time-dependent
trace of a shifted separable subsolution (used by the blow-up iteration);
values are imposed at the new time level.

A ``Trajectory`` holds only what a run produces: the recorded times and
fields and the boundary outflow of each recorded interval.  Its norm,
tail-ratio and mass series are computed from the stacked fields when read,
and ``barrier_excess`` checks the stacked fields against the separable
envelopes of ``barriers.separable_envelopes`` in one array operation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .barriers import (
    BarrierParams,
    blowup_factor,
    horizon_time,
    separable_envelopes,
    shifted_subsolution,
    supersolution_amplitude,
)
from .errors import DomainError, SolverError
from .geometry import ComparisonConstants, ModelManifold
from .grid import RadialGrid
from .xlog import LogNorm, RadialDatum, log_norm, norm_limit

JACOBIAN_EPS = 1e-12
MAX_HALVINGS = 40
# Newton solves one call to ``step`` may attempt before it gives up; bounds
# the total work, which MAX_HALVINGS alone lets grow like 2^MAX_HALVINGS
MAX_SUBSTEPS = 10_000
# near a barrier horizon T the step is capped at BARRIER_CAP * (T - t)
BARRIER_CAP = 0.01

# Discretization-error coefficient, calibrated on the Euclidean Barenblatt
# pair (tests/test_solver.py): max-norm error stays below coeff * h * max|u|
# at dt = 0.5 h for J in [250, 4000].  tau_h carries a 4x safety factor on top.
TAU_H_COEFF = 0.35
TAU_H_SAFETY = 4.0


def _load_dgtsv():
    """``dgtsv`` of scipy's ``_flapack`` extension, without running any scipy
    ``__init__`` (``find_spec`` on a top-level package imports nothing).

    The extension registers itself in ``sys.modules`` as ``_flapack``; a
    later ``import scipy.linalg`` loads the same file once more under its
    own name.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
    if spec is None:
        raise ImportError(
            "pme needs scipy: its LAPACK extension scipy.linalg._flapack"
            " solves the Newton system"
        )
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


dgtsv = _load_dgtsv()


def tau_h(h: float, scale: float = 1.0) -> float:
    """Discretization tolerance C*h, scaled by the solution magnitude."""
    return TAU_H_SAFETY * TAU_H_COEFF * h * scale


# -- boundary modes -----------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousDirichlet:
    def value(self, t: float, radius: float) -> float:
        return 0.0


@dataclass(frozen=True)
class BarrierDirichlet:
    """Trace of the shifted separable subsolution at the outer radius."""

    params: BarrierParams
    delta: float = 0.0
    # radius -> shifted subsolution there; the trace's time-free factor,
    # computed once per radius instead of on every Newton solve
    _base: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value(self, t: float, radius: float) -> float:
        p = self.params
        base = self._base.get(radius)
        if base is None:
            base = self._base[radius] = float(shifted_subsolution(p, self.delta, radius))
        return blowup_factor(t, p.horizon, p.m) * base


@dataclass(frozen=True)
class DtPolicy:
    dt0: float
    growth: float = 1.25
    dt_max: float = math.inf

    def __post_init__(self):
        if self.dt0 <= 0 or self.growth < 1.0:
            raise DomainError("dt0 must be positive and growth >= 1")
        if not self.dt_max > 0:
            raise DomainError("dt_max must be positive")


@dataclass(frozen=True)
class SolverConfig:
    m: float
    dt: DtPolicy
    t_end: float
    boundary: Union[HomogeneousDirichlet, BarrierDirichlet] = HomogeneousDirichlet()
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    norm_r: float = 2.0
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.m <= 1.0:
            raise DomainError("m must be > 1")
        if self.newton_tol <= 0 or self.t_end <= 0:
            raise DomainError("tolerances and t_end must be positive")
        if self.newton_max_iter < 1 or self.snapshot_stride < 1:
            raise DomainError("newton_max_iter and snapshot_stride must be >= 1")


@dataclass
class Trajectory:
    """What a run records: times, fields and the boundary outflow of each
    recorded interval.  The norm, tail-ratio and mass series are computed
    from the stacked fields when read."""

    grid: RadialGrid
    norm: LogNorm
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    boundary_outflow: list = field(default_factory=list)  # per recorded interval

    def record(self, t, u, outflow: float):
        """Append ``u`` itself, not a copy: the caller hands over an array
        that nothing writes to afterwards."""
        self.times.append(float(t))
        self.fields.append(u)
        self.boundary_outflow.append(float(outflow))

    @property
    def stacked(self) -> np.ndarray:
        """The recorded fields as one (records, cells) array."""
        return np.array(self.fields)

    @property
    def lognorms(self) -> list:
        """Weighted sup-norm ``norm`` of each recorded field."""
        w = self.norm.weight(self.grid.centers)
        return (np.abs(self.stacked) / w).max(axis=1).tolist()

    @property
    def tail_ratios(self) -> list:
        """Grid-window estimate of |u|/(log rho)^(1/(m-1)) over the outer half
        of the ball; a proxy for the asymptotic ratio, not a true limit."""
        rho = self.grid.centers
        outer = rho >= max(self.grid.radius / 2.0, 2.0)
        if not outer.any():
            return [0.0] * len(self.fields)
        tail = np.log(rho[outer]) ** (1.0 / (self.norm.m - 1.0))
        return (np.abs(self.stacked[:, outer]) / tail).max(axis=1).tolist()

    @property
    def masses(self) -> list:
        return [self.grid.mass(u) for u in self.fields]

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


# -- single implicit step -----------------------------------------------------


def _newton_target(u_old_max, v_b, m, tol):
    """Residual a solve from a field of sup norm ``u_old_max`` must reach."""
    return tol * max(1.0, u_old_max, abs(v_b) ** (1.0 / m))


class NewtonWorkspace:
    """The arrays of a run's Newton solves on one grid with one exponent m.

    ``scale`` sets the dt-scaled coefficients, recomputing them only when
    the step size changes.  After a solve, ``boundary_jump`` is v_b - v[-1]
    of the last residual it evaluated: the returned field's when the solve
    converged.
    """

    def __init__(self, grid: RadialGrid, m: float):
        n = grid.cells
        self.grid, self.m = grid, m
        self.dt = math.nan  # the step size of the coefficients below
        # dt * coeff_minus, dt * coeff_plus, and the fixed factors of the
        # Jacobian's three diagonals
        self.cm, self.cp = np.empty(n), np.empty(n)
        self.c_diag, self.c_upper, self.c_lower = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        # one buffer holding the Jacobian diagonals, so that a single test
        # sees any non-finite entry
        self.jac = jac = np.empty(3 * n - 2)
        self.diag, self.upper, self.lower = jac[:n], jac[n : 2 * n - 1], jac[2 * n - 1 :]
        self.dv = dv = np.empty(n)
        self.dv_upper, self.dv_lower = dv[1:], dv[:-1]
        # vpad = [0, v(u), v_b], so jump[k] = vpad[k+1] - vpad[k] is the
        # difference of v across face k: face 0 is the origin (v[0] - 0,
        # weighted by coeff_minus[0] = 0), face n the outer boundary
        self.vpad = vpad = np.zeros(n + 2)
        self.v, self.v_right, self.v_left = vpad[1:-1], vpad[1:], vpad[:-1]
        self.jump = jump = np.zeros(n + 1)
        self.jump_out, self.jump_in = jump[1:], jump[:-1]
        self.flux, self.scratch = np.empty(n), np.empty(n)
        # the current point u with |u| and its residual g, and the same three
        # for the line-search trial
        self.u, self.u_abs, self.g = np.empty(n), np.empty(n), np.empty(n)
        self.trial, self.trial_abs, self.g_trial = np.empty(n), np.empty(n), np.empty(n)
        # a solve handed this buffer as its start begins from its contents
        # without copying them; every solve begins by filling it
        self.start = self.u

    def scale(self, dt: float):
        """Scale the face coefficients and the Jacobian factors by ``dt``."""
        if dt != self.dt:
            np.multiply(dt, self.grid.coeff_minus, out=self.cm)
            np.multiply(dt, self.grid.coeff_plus, out=self.cp)
            np.add(self.cp, self.cm, out=self.c_diag)
            np.negative(self.cp[:-1], out=self.c_upper)
            np.negative(self.cm[1:], out=self.c_lower)
            self.dt = dt

    def residual(self, u_old, u, u_abs, g) -> float:
        """Write |u| to ``u_abs`` and the residual of the step from ``u_old``
        to ``g``; return max|g|."""
        v, flux, scratch = self.v, self.flux, self.scratch
        np.absolute(u, out=u_abs)
        np.power(u_abs, self.m, out=v)
        np.sign(u, out=scratch)
        np.multiply(scratch, v, out=v)
        np.subtract(self.v_right, self.v_left, out=self.jump)
        np.multiply(self.cp, self.jump_out, out=flux)
        np.multiply(self.cm, self.jump_in, out=scratch)
        np.subtract(flux, scratch, out=flux)
        np.subtract(u, u_old, out=g)
        np.subtract(g, flux, out=g)
        return float(np.maximum.reduce(np.absolute(g, out=scratch)))

    @property
    def boundary_jump(self) -> float:
        return float(self.jump[-1])


def _newton_solve(u_old, v_b, dt, grid, m, tol, max_iter, start=None, work=None):
    """Solve the implicit cell balance; returns (u, converged, residual).

    The iteration starts from ``start`` (default ``u_old``), which may be
    the workspace's own ``start`` buffer; the target residual comes from
    ``u_old`` either way.  ``work`` is the run's
    ``NewtonWorkspace`` on ``grid`` and ``m`` (a new one if None); the
    returned field is a copy, never one of its buffers.  Fails
    (``converged`` False) on a singular Jacobian or on any non-finite
    diagonal, Newton direction or residual, so that ``step`` halves the step
    instead of letting NaN or inf into the field.
    """
    if work is None:
        work = NewtonWorkspace(grid, m)
    work.scale(dt)
    c_diag, c_upper, c_lower = work.c_diag, work.c_upper, work.c_lower
    jac, diag, upper, lower = work.jac, work.diag, work.upper, work.lower
    dv, dv_upper, dv_lower = work.dv, work.dv_upper, work.dv_lower
    work.vpad[-1] = v_b
    residual = work.residual

    # an accepted trial swaps its three buffers with the current point's
    u, u_abs, g = work.u, work.u_abs, work.g
    trial, trial_abs, g_trial = work.trial, work.trial_abs, work.g_trial
    if start is not u:
        np.copyto(u, u_old if start is None else start)
    g_norm = residual(u_old, u, u_abs, g)
    # the target is set by u_old; trial_abs is free until the first trial
    old_abs = u_abs if start is None else np.absolute(u_old, out=trial_abs)
    target = _newton_target(float(np.maximum.reduce(old_abs)), v_b, m, tol)
    for _ in range(max_iter):
        if g_norm <= target:
            return u.copy(), True, g_norm
        if not math.isfinite(g_norm):
            return u.copy(), False, g_norm
        np.power(u_abs, m - 1.0, out=dv)
        dv += JACOBIAN_EPS
        dv *= m
        np.multiply(c_diag, dv, out=diag)
        diag += 1.0
        np.multiply(c_upper, dv_upper, out=upper)
        np.multiply(c_lower, dv_lower, out=lower)
        if not np.logical_and.reduce(np.isfinite(jac)):
            return u.copy(), False, g_norm
        _, _, _, delta, info = dgtsv(
            lower, diag, upper, np.negative(g, out=g),
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        if info != 0 or not np.logical_and.reduce(np.isfinite(delta)):
            return u.copy(), False, g_norm
        # Armijo backtracking; a non-finite trial norm fails the test too.
        # The accepted trial point and its residual become the next iterate.
        lam = 1.0
        while lam > 2.0**-30:
            if lam == 1.0:
                np.add(u, delta, out=trial)
            else:
                np.add(u, np.multiply(lam, delta, out=trial), out=trial)
            g_trial_norm = residual(u_old, trial, trial_abs, g_trial)
            if g_trial_norm < (1.0 - 0.25 * lam) * g_norm or g_trial_norm <= target:
                u, trial = trial, u
                u_abs, trial_abs = trial_abs, u_abs
                g, g_trial = g_trial, g
                g_norm = g_trial_norm
                break
            lam *= 0.5
        else:
            # no trial accepted: take the smallest step, not yet evaluated
            np.add(u, np.multiply(lam, delta, out=trial), out=trial)
            u, trial = trial, u
            g_norm = residual(u_old, u, u_abs, g)
    return u.copy(), g_norm <= target, g_norm


def step(
    u: np.ndarray,
    t: float,
    dt: float,
    grid: RadialGrid,
    cfg: SolverConfig,
    start: Optional[np.ndarray] = None,
    work: Optional[NewtonWorkspace] = None,
) -> tuple[np.ndarray, float]:
    """Advance exactly dt, splitting into half steps when Newton stalls.

    ``start`` is a guess at the new field.  The full-step solve starts from
    it, and from ``u`` once more if that fails, before any halving.
    ``work`` is the run's ``NewtonWorkspace`` on ``grid`` and ``cfg.m``;
    without one the step builds its own.

    Returns the new field and the accumulated boundary outflow (in the
    grid's scaled mass units) over the increment.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if not np.logical_and.reduce(np.isfinite(u)):
        raise SolverError("non-finite field entering step")
    if work is None:
        work = NewtonWorkspace(grid, cfg.m)
    pending = [(t, dt, 0)]
    outflow = 0.0
    solves = 0
    failed = None  # (field, v_b, residual) of the last failed solve
    while pending:
        t0, d, depth = pending.pop()
        if depth > MAX_HALVINGS:
            raise SolverError(
                f"Newton failed after {MAX_HALVINGS} halvings at t={t0:.6g}"
                + _failure_note(failed, cfg)
            )
        if solves == MAX_SUBSTEPS:
            raise SolverError(
                f"step from t={t:.6g} spent its budget of {MAX_SUBSTEPS} Newton solves"
                f" at t={t0:.6g}" + _failure_note(failed, cfg)
            )
        solves += 1
        ub = cfg.boundary.value(t0 + d, grid.radius)
        v_b = math.copysign(abs(ub) ** cfg.m, ub)
        args = (u, v_b, d, grid, cfg.m, cfg.newton_tol, cfg.newton_max_iter)
        u_new, ok, res = _newton_solve(*args, start, work)
        if not ok and start is not None:
            u_new, ok, res = _newton_solve(*args, None, work)
        start = None
        if not ok:
            failed = (u, v_b, res)
            pending.append((t0 + d / 2.0, d / 2.0, depth + 1))
            pending.append((t0, d / 2.0, depth + 1))
            continue
        outflow += -d * grid.boundary_flux_coeff * work.boundary_jump
        u = u_new
    return u, outflow


def _failure_note(failed, cfg: SolverConfig) -> str:
    u_old, v_b, res = failed
    target = _newton_target(float(np.max(np.abs(u_old))), v_b, cfg.m, cfg.newton_tol)
    return f" (last failed solve: residual {res:.3g}, target {target:.3g})"


def _extrapolate(
    levels: list, d: float, uniform: bool, work: NewtonWorkspace
) -> Optional[np.ndarray]:
    """The field ``d`` past the newest of ``levels``, the last accepted
    (step size, field) pairs, oldest first, written into ``work.start``
    through ``work.scratch``; None from one level.

    ``uniform`` says that ``d`` and the last four steps have one size: the
    guess is then the quartic through the last five levels, with the
    constant backward-difference weights 5, -10, 10, -5, 1.  Otherwise it
    is linear from two levels and quadratic (Lagrange weights on the actual
    steps) from three or more.  Each form is evaluated left to right, as the
    expression ``w0 * u0 + w1 * u1 + ...`` would be.
    """
    if len(levels) < 2:
        return None
    out, tmp = work.start, work.scratch
    if uniform:
        (_, u4), (_, u3), (_, u2), (_, u1), (_, u0) = levels
        np.multiply(5.0, u0, out=out)
        out -= np.multiply(10.0, u1, out=tmp)
        out += np.multiply(10.0, u2, out=tmp)
        out -= np.multiply(5.0, u3, out=tmp)
        out += u4
    elif len(levels) == 2:
        (_, u1), (a, u0) = levels
        np.subtract(u0, u1, out=tmp)
        tmp *= d / a
        np.add(u0, tmp, out=out)
    else:
        (_, u2), (b, u1), (a, u0) = levels[-3:]
        ab = a + b
        np.multiply((d + a) * (d + ab) / (a * ab), u0, out=out)
        out += np.multiply(-d * (d + ab) / (a * b), u1, out=tmp)
        out += np.multiply(d * (d + a) / (ab * b), u2, out=tmp)
    return out


# -- trajectories -------------------------------------------------------------


def _initial_values(u0, grid: RadialGrid) -> np.ndarray:
    """A copy of the datum on the grid's centers, owned by the run: a
    callable may return an array it keeps."""
    if callable(u0):
        return np.array(u0(grid.centers), dtype=float)
    arr = np.asarray(u0, dtype=float)
    if arr.shape != grid.centers.shape:
        raise DomainError("initial data shape does not match the grid")
    return arr.copy()


def solve_ball(
    u0,
    cfg: SolverConfig,
    grid: RadialGrid,
    barrier_horizon: Optional[float] = None,
) -> Trajectory:
    """Integrate on the ball up to t_end with the configured step policy.

    ``barrier_horizon`` caps the step near a barrier blow-up time T > 0 (inf
    caps nothing); when the boundary mode is a barrier, its own horizon is
    enforced as well.
    """
    if barrier_horizon is not None and not barrier_horizon > 0:
        raise DomainError(f"barrier_horizon must be positive, got {barrier_horizon!r}")
    horizons = [] if barrier_horizon is None else [barrier_horizon]
    if isinstance(cfg.boundary, BarrierDirichlet):
        horizons.append(cfg.boundary.params.horizon)
    if horizons and cfg.t_end >= min(horizons):
        raise DomainError("t_end must stay below the barrier horizon")

    u = _initial_values(u0, grid)
    traj = Trajectory(grid=grid, norm=LogNorm(cfg.norm_r, cfg.m))
    traj.record(0.0, u, 0.0)

    t = 0.0
    dt = cfg.dt.dt0
    k = 0
    pending_outflow = 0.0
    levels = [(0.0, u)]  # the last five accepted (step size, field) pairs
    same = 0  # accepted steps in a row, up to the last, of the last one's size
    work = NewtonWorkspace(grid, cfg.m)
    while t < cfg.t_end - 1e-14 * cfg.t_end:
        d = min(dt, cfg.t_end - t)
        for T in horizons:
            d = min(d, BARRIER_CAP * (T - t))
        repeat = d == levels[-1][0]
        guess = _extrapolate(levels, d, repeat and same >= 4, work)
        u, out = step(u, t, d, grid, cfg, guess, work)
        same = same + 1 if repeat else 1
        levels = [*levels[-4:], (d, u)]
        t += d
        k += 1
        pending_outflow += out
        if k % cfg.snapshot_stride == 0 or t >= cfg.t_end - 1e-14 * cfg.t_end:
            traj.record(t, u, pending_outflow)
            pending_outflow = 0.0
        dt = min(dt * cfg.dt.growth, cfg.dt.dt_max)
    return traj


@dataclass
class ExhaustReport:
    radii: list
    monotonicity_gap: float  # max over shared cells/times of u_Rk - u_R(k+1)
    inner_increments: list  # sup on the inner ball of successive differences
    tau_h: float  # discretization tolerance used


def exhaust(
    u0,
    cfg: SolverConfig,
    manifold: ModelManifold,
    radii: Sequence[float],
    cells_first: int,
) -> ExhaustReport:
    """Solve on nested balls and report the exhaustion monotonicity gap.

    All levels share the cell width of the first radius, so grids are nested
    cell-by-cell and time grids coincide (the growth policy is a function of
    the step index only; internal halvings do not alter recorded times).
    The increments are taken on the inner ball of the first ``cells_first // 2``
    cells.
    """
    radii = list(radii)
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("need at least 3 strictly increasing radii")
    h = radii[0] / cells_first
    grids = []
    for R in radii:
        n = R / h
        if abs(n - round(n)) > 1e-9:
            raise DomainError(f"radius {R} is not an integer multiple of h={h}")
        grids.append(RadialGrid.uniform(manifold, R, int(round(n))))

    trajs = [solve_ball(u0, cfg, g) for g in grids]
    times = np.array(trajs[0].times)
    for tr in trajs[1:]:
        if len(tr.times) != times.size or np.any(
            np.abs(times - tr.times) > 1e-12 * np.maximum(1.0, times)
        ):
            raise SolverError("time grids diverged across exhaustion levels")

    fields = [tr.stacked for tr in trajs]
    levels = range(len(radii) - 1)
    gap = max(
        float(np.max(fields[k] - fields[k + 1][:, grids[k + 1].restriction_slice(radii[k])]))
        for k in levels
    )
    inner = slice(0, cells_first // 2)
    increments = [
        float(np.max(np.abs(fields[k + 1][:, inner] - fields[k][:, inner]))) for k in levels
    ]

    scale = max(1.0, max(float(np.max(np.abs(tr.final))) for tr in trajs))
    return ExhaustReport(
        radii=radii,
        monotonicity_gap=gap,
        inner_increments=increments,
        tau_h=tau_h(h, scale),
    )


# -- existence time -----------------------------------------------------------


@dataclass(frozen=True)
class ExistenceTime:
    """Certified existence horizon a^{m-1} ||u0||^{1-m} and its r->inf limit."""

    time: float  # may be inf
    limit_time: float  # horizon from the norm limit (inf for bounded data)
    global_flag: bool
    norm: float  # ||u0|| in the weighted norm of offset r


def existence_time(
    u0: RadialDatum,
    consts: ComparisonConstants,
    m: float,
    r: float = 2.0,
) -> ExistenceTime:
    a = supersolution_amplitude(consts.c_prime, m)
    norm = log_norm(u0, LogNorm(r, m))
    if norm == 0.0:
        return ExistenceTime(math.inf, math.inf, True, norm)
    lim_norm = norm_limit(u0, m)
    time = horizon_time(a, norm, m)
    if lim_norm == 0.0:
        return ExistenceTime(time, math.inf, True, norm)
    return ExistenceTime(time, horizon_time(a, lim_norm, m), False, norm)


# -- barrier sandwich audit -----------------------------------------------------


def barrier_excess(
    traj: Trajectory, norm0: float, horizon: float, r: float, m: float
) -> float:
    """Worst signed excess of |u| over the separable bound along the run.

    Negative values mean the trajectory stays strictly inside the envelope
    (1 - t/T)^(-1/(m-1)) * norm0 * weight(rho).
    """
    w = LogNorm(r, m).weight(traj.grid.centers)
    bound = separable_envelopes(traj.times, horizon, m, norm0, w)
    return float(np.max(np.abs(traj.stacked) - bound))


# -- classical self-similar oracle ---------------------------------------------


def barenblatt(rho, t, dim: int, m: float, mass_const: float):
    """Euclidean self-similar source solution (external classical oracle).

    U(rho, t) = t^-alpha (C - k rho^2 t^(-2 beta))_+^(1/(m-1)) with
    alpha = N/(N(m-1)+2), beta = alpha/N, k = alpha(m-1)/(2mN).
    """
    rho = np.asarray(rho, dtype=float)
    alpha = dim / (dim * (m - 1.0) + 2.0)
    beta = alpha / dim
    k = alpha * (m - 1.0) / (2.0 * m * dim)
    core = mass_const - k * rho**2 * t ** (-2.0 * beta)
    return t ** (-alpha) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))


def barenblatt_support_radius(t, dim: int, m: float, mass_const: float) -> float:
    alpha = dim / (dim * (m - 1.0) + 2.0)
    beta = alpha / dim
    k = alpha * (m - 1.0) / (2.0 * m * dim)
    return math.sqrt(mass_const / k) * t**beta
