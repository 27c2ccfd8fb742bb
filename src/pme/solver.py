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
residual is written into the integrator's buffers (see below), in the
plain form's order of operations.  The right-hand side is negated in place
and the step is ``u + lam * delta``: solving for +g and stepping with
``u - lam * delta`` would round every nonzero entry alike, but LAPACK's
``b - fact * b`` does not commute with negation when the result is an
exact zero, so the sign of a zero direction entry, and with it the sign of
a ``-0.0`` cell (odd data make them), could change.  At ``lam == 1`` the
step skips the multiply, because ``1.0 * x`` is exact.

A run's state is one ``Integrator``, the owner of its grid and exponent m:
the Newton kernel reads both from it, and ``step`` refuses another's with
DomainError (exit code 2).  It holds the work arrays of a solve (the
Jacobian and the flags of its finite test, |u|, v and its face jumps, the
residual and the line-search trial), so a solve allocates only the copy of
the field it returns; no returned or recorded field is one of its buffers,
and ``Trajectory.record`` stores the array it is given.  It keeps the
dt-scaled face coefficients and Jacobian factors until the step size
changes, and v_b - v[-1] of the last residual evaluated, the accepted
field's boundary jump, from which ``step`` sums the boundary outflow.  The
coefficients sit in two buffers of 2n entries: dt * [coeff_plus |
coeff_minus] and its negation.  dt * coeff_plus and dt * coeff_minus are
the halves of the first, and the Jacobian's off-diagonal factors
-dt * coeff_plus[:-1] and -dt * coeff_minus[1:] are the slices [:n-1] and
[n+1:] of the second, so rescaling is three ufunc calls (multiply, the
diagonal factor's add, negate) and each product is the float that scaling
each array on its own gives.  The arrays change where the numbers are
stored, never how they are computed, so every float is what a fresh array
per solve gives.

A rejected step, including a singular or non-finite system, is retried on
two half steps, recursively, so ``step`` always advances by exactly the
requested increment or raises; ``MAX_HALVINGS`` bounds the depth and
``MAX_SUBSTEPS`` the total work.

The integrator also keeps ``levels``, the last five accepted (step size,
field) pairs, and a step's first, unhalved solve starts Newton from
``Integrator.guess``, their extrapolation to the new time, instead of from
the old field u.  When this step and the last four have
exactly one size, as in a fixed-step run or a growing one that has reached
``dt_max``, the guess is the quartic through the last five levels,
5u0 - 10u1 + 10u2 - 5u3 + u4 (u0 the newest).  Otherwise it is none from
one level, u + (d/d_prev)(u - u_prev) from two, and from three on the
quadratic through the last three levels, with Lagrange weights built from
the actual step sizes.  The guess is written straight into the
integrator's ``u``, the buffer the solve iterates in, which a solve that is
not predicted fills with a copy of u_old instead.  It is computed on the
cells before the integrator's ``support``, a cell from which every field of
the history is +0.0: the ``end`` (one past the last cell that is not +0.0,
``Integrator.end``) of the field that started the history, then the largest
end of every field a solve returned and a step accepted since.  Past it
every level is +0.0, each form gives +0.0 there (a negative weight times
+0.0 is -0.0, and +0.0 + -0.0 is +0.0), and that is written.

The guess is only a start.  The target residual stays
tol * max(1, max|u_old|, |v_b|^(1/m)) of the old field, so an accepted
solve means what it means without a guess: the mass-balance and
scaling-group bounds hold as they do from u, and results move only within
the Newton tolerance.  A predicted solve that fails is retried once from u
at the same full step, before any halving, and the two attempts count as
one solve against ``MAX_SUBSTEPS``; so the guess never causes a halving
that the start from u would not make.  Halved sub-solves start from their
own old field.  Because of both, a history may run on across new boundary
data: ``blowup.run_blowup`` runs all its stages on one integrator, and a
stage's first step is predicted from the last stage's levels.

A step continues the history only from the integrator's newest field
itself, checked by identity.  That field is one a converged solve returned
from a finite old field, so it is finite: its residual
g = u - u_old - flux is finite, and an infinite or NaN entry of u would
make it non-finite.  Every field ``step`` returns or a run records is
read-only (``flags.writeable`` False), so it stays finite: a write into it
raises at the write.  A step from any other field, a copy included, checks
it for a non-finite entry and starts a new history; the identity test
costs nothing, where comparing values would cost as much as the check.

Solving only the support.  The porous medium equation moves at finite
speed, and in floats every cell more than a few dozen cells past the front
is exactly +0.0 after a step (37 at the J = 4000 Barenblatt run).  A solve
runs on a window, the leading w cells of the grid, when its boundary value
v_b is +0.0, the old field and the start end in zeros, the start holds no
-0.0 and the zero cells' Jacobian coupling q = dt max(coeff) m
``JACOBIAN_EPS`` (``Integrator.coupling``) is at most 1/4.  w is a cell
from which both fields are +0.0 plus a margin (``_window_margin``), the
cells in which a right-hand side entry up to 2^64 decays below half the
smallest subnormal at the rate r = q/(1-q) per cell, rounded up to a
multiple of ``WINDOW_QUANTUM`` (8) cells short of the whole grid.  The
margin is computed once per step size, when ``window_end`` first needs it;
a blow-up run (v_b is never +0.0) computes none.  The residual, the
Jacobian, ``dgtsv`` and the line search then work on a ``Window``: views of
the integrator's buffers over those cells, made when w changes and kept
for the next solve; with the rounding, the benchmark's
Barenblatt runs make 55 windows in 2,001 steps instead of 389, for 0.3%
more LAPACK rows.  The returned field is +0.0 past the window.  The window
is off, at the cost of one scalar compare, when v_b is not +0.0, when the
last cell of either field is nonzero, when the start holds a -0.0 cell and
when q > 1/4.

The bookkeeping of a solve stays on its window.  The cell from which both
fields are +0.0 is the step's running ``support``, which ``step`` hands
every solve as its ``bound``: it starts at the integrator's ``support``, or
at the scanned ``end`` of the field that starts a new history, and takes
in the ``end`` of each field a solve returns and the step accepts, scanned
over the cells of that solve, past which the field is +0.0
(``Integrator.end`` scans a window's cells only).  So a new history's field
is the only one scanned over the whole grid, and the -0.0 scan of the
start reads only the cells before ``bound``.  ``support`` may exceed
either field's own end, and then so does w; any w at or above the one the
fields' own ends give keeps the whole grid's floats, since the argument
below needs only that both fields are +0.0 from the window's last row on.

The window gives the whole grid's floats, bit for bit.  Say the iterate u
and the old field are +0.0 (u) and zero (u_old) on the window's last row
and past it.  On the whole grid:

- The residual is +0.0 past the window, (+0.0 - 0.0) - (cp * (+0.0) -
  cm * (+0.0)), and the window's rows are the same floats: the last one
  reads v = +0.0 past the window from ``Window.vpad[-1]``.  So max|g| and
  the finite tests agree; the Jacobian rows past the window, of zero
  cells, are finite when q <= 1/4.
- ``dgtsv`` is Gaussian elimination with partial pivoting, one row at a
  time: step i reads and writes rows i and i + 1 only, so on rows before
  w - 1 and on the pivot and right-hand side of row w - 1 the window's
  steps are the whole grid's.  The one difference, fill-in that a row swap
  at step w - 2 writes, multiplies only the direction at row w.  At the cut
  the whole grid's step w - 1 swaps rows if |d_{w-1}| < |dl_{w-1}|; the
  subdiagonal entry is at most q <= 1/4 and the pivot d_{w-1} is the last
  diagonal entry of the window's U factor, which ``dgtsv`` returns, so a
  check 0.5 <= |d_{w-1}| < 2 rules the swap out.  Past it the rows are
  zero cells' (diagonal at least 1, off-diagonals at most q), so no row is
  swapped, every pivot stays in [7/8, 2), and the eliminated right-hand
  side is -fact * b_{k-1} with |fact| <= 1/2.
- The eliminated right-hand side underflows.  The window's direction at
  its last row is b_{w-1}/d_{w-1}; with |d_{w-1}| < 2 a nonzero b_{w-1}
  (at least the smallest subnormal) gives a nonzero quotient, so a zero
  direction there means b_{w-1} is zero.  Then each row past it receives
  -0.0 - fact * (a zero), a zero, and back substitution gives zeros past
  the window.  On the window's rows back substitution computes
  b_i - du_i x_{i+1} - dl_i x_{i+2} from the same floats, except that x at
  rows w - 1 and w may be zeros of other signs, and x - (a zero) is x for
  every nonzero x.  So the two directions are equal as numbers, and bit for
  bit where they are nonzero.
- Signed zeros.  A zero direction entry may be +0.0 on one grid and -0.0
  on the other, and u + lam * delta differs between them only where u is
  -0.0.  No iterate holds -0.0: the start holds none, and x + y is -0.0
  only when x is.  The old field's zero signs enter only u - u_old, where
  +0.0 - (-0.0) and +0.0 - (+0.0) are both +0.0.  (An old field
  [0, 0, 0, 0, 0, -0.0] as the start, by contrast, would keep its -0.0 on
  the whole grid and lose it on a window.)

What the argument cannot rule out is checked after every LAPACK call on a
window (``_window_holds``): info is 0, or a zero pivot before the window's
last row, which the whole grid meets at the same step; the direction is
zero at the last row; and 0.5 <= |d_{w-1}| < 2.  Then the next iterate is
+0.0 on the last row again, and the argument holds for the next iteration.
When a check fails, the solve goes on from the same point on the whole
grid with the iterations it has left; every float up to that point was the
whole grid's.  The margin only makes the checks pass; it is not part of
the argument, and ``tests/test_solver.py`` runs solves with tails longer
than the margin against the plain kernel on the whole grid, pivoting,
failing and falling back included.

``dgtsv`` is the one thing taken from scipy.  It comes from scipy's own f2py
LAPACK extension ``scipy/linalg/_flapack``, the module behind
``scipy.linalg.lapack.dgtsv``, so the same binary solves every system.  The
extension is loaded straight from its file, because importing
``scipy.linalg`` pulls in ``numpy.f2py``, ``numpy.testing`` and scipy's
array-API layer, which every ``pme`` command would then import at
start-up.  Its four overwrite flags (``overwrite_dl``, ``overwrite_d``,
``overwrite_du``, ``overwrite_b``, in that order in the f2py signature) are
passed positionally, because f2py parses keyword arguments on every call.

The numpy functions of the step kernel are called the same way: through
names bound once at import (``_multiply = np.multiply``), each with its
output passed positionally, the in-place operators included (``dv += eps``
is ``_add(dv, eps, dv)``).  A keyword ``out=`` is parsed on every call, and
``np.multiply`` is looked up on the module on every call.  It is the same
ufunc on the same operands with the same casting, so every float is the
same; ``tests/test_solver.py`` pins the calls of a residual evaluation and
of a Newton iteration.

Their scalar operands are 0-d float64 arrays, never Python floats or
ints: m and m - 1 (``Integrator.m_op``, ``m1_op``), ``JACOBIAN_EPS`` and
1.0 (``_EPS``, ``_ONE``), the quartic's 5 and 10, and the int64 zero
``end`` compares the field's bits with, bound once; the step size, the
line search's lam and the guess's weights, written into 0-d arrays of
the integrator before each use.  A ufunc converts a Python scalar
operand into a 0-d array on every call; a 0-d array it uses as it is.
The float64 array and the 0-d float64 array select the float64 loop that
the Python float does, under NEP 50 on numpy 2 and under value-based
casting on numpy 1.24, and the loop sees the same operand, so every float
is the same.

The kernel's reductions go by arg-index, through the methods
``_argmax = np.ndarray.argmax``, ``_argmin = np.ndarray.argmin`` and
``_item = np.ndarray.item``: max|g| and the target's max|u_old| are
``_item(x, _argmax(x))``, each finite test ``_item(flags, _argmin(flags))``,
and ``window_end``'s -0.0 scan the same argmin of the field's int64 bits.
A ufunc reduction sets up numpy's reduction machinery on every call, which
at these sizes costs more than the reduction itself.  Each gives the
float, bool or int the reduction gave, as a Python scalar:

- The entries maximized hold no -0.0, since |.| clears the sign bit.  A
  maximum of them is then one of them, and argmax selects an entry equal
  to it: the same float.  (A tie of +0.0 and -0.0 is where the two differ:
  ``np.maximum.reduce([0.0, -0.0])`` is -0.0, argmax picks the first
  maximal entry, +0.0.  So ``blowup`` keeps its signed maxima on the
  reduction.)
- A NaN entry gives NaN either way: the reduction propagates it and
  argmax takes NaN as maximal.  Only ``math.isfinite`` and the ``:.3g``
  of a failure note read it, and both see nan.
- argmin of bool flags is the first False, and 0 when every flag is True,
  so the flag there is all(flags); the minimum of integers is a
  selection, the entry argmin finds.

Around those calls a step does only what changes per step.  A config is
checked and read once, when a step is handed one other than its
integrator's last (``Integrator.configure``): m, the Newton settings and
the boundary ``trace``, whose exponent and time-free factor are taken once.
A step that does not halve stacks no pending sub-step and appends its level
in place, and no step makes a ``min``, ``max`` or keyword call: the step
sizes and the Newton target are compared out, and the field is made
read-only by ``setflags(False)``, its flag passed positionally.

Boundary conditions at rho = R: homogeneous Dirichlet, or the time-dependent
trace of a shifted separable subsolution (used by the blow-up iteration);
values are imposed at the new time level.

A ``Trajectory`` holds only what a run produces: the recorded times and
fields and the boundary outflow of each recorded interval.  Its norm,
tail-ratio and mass series are computed from the stacked fields when read.

The barrier audit takes the existence certificate whole:
``barrier_excess(traj, et)`` checks the stacked fields, in one array
operation of ``barriers.separable_envelopes``, against the separable
supersolution that ``et`` certifies, built from its norm of u0, its time
and its ``LogNorm`` (m and weight), and gives None where ``et`` has no
finite horizon.

A run's report owns its verdict.  ``solve_report`` builds a single-ball
run's ``SolveReport`` from its trajectory and existence time, in whose
norm of u0 its series are taken, and hands that certificate to the
sandwich audit as it is; the audit's ``tau_h`` is scaled by the largest
recorded |u|.
``exhaust`` builds an ``ExhaustReport``, whose ``tau_h`` is scaled by
max(1, largest final |u|).  Each report's ``validate`` raises
CertificateError (exit code 3) when its check fails.
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
from .errors import CertificateError, DomainError, SolverError, is_count
from .geometry import ComparisonConstants, ModelManifold
from .grid import RadialGrid
from .xlog import NORM_R, LogNorm, RadialDatum, log_norm, norm_limit

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

# the numpy functions of the step kernel, bound once (module docstring)
_absolute, _add, _multiply, _negative = np.absolute, np.add, np.multiply, np.negative
_power, _sign, _subtract = np.power, np.sign, np.subtract
_isfinite, _not_equal, _copyto = np.isfinite, np.not_equal, np.copyto
_finite, _copysign = math.isfinite, math.copysign
# the reductions, by arg-index: ``_item(x, _argmax(x))`` is max(x) and
# ``_item(flags, _argmin(flags))`` all(flags) (module docstring)
_argmax, _argmin, _item = np.ndarray.argmax, np.ndarray.argmin, np.ndarray.item


def _operand(x, dtype=np.float64) -> np.ndarray:
    """A read-only 0-d array holding ``x``: the kernel's constant ufunc
    operands, which a Python scalar would pass more slowly (module
    docstring)."""
    op = np.array(x, dtype=dtype)
    op.flags.writeable = False
    return op


_ONE, _FIVE, _TEN, _EPS = _operand(1.0), _operand(5.0), _operand(10.0), _operand(JACOBIAN_EPS)
_ZERO_BITS = _operand(0, np.int64)  # +0.0 read as an int64


def tau_h(h: float, scale: float = 1.0) -> float:
    """Discretization tolerance C*h, scaled by the solution magnitude."""
    return TAU_H_SAFETY * TAU_H_COEFF * h * scale


# -- boundary modes -----------------------------------------------------------


def _zero_trace(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class HomogeneousDirichlet:
    horizon = math.inf  # the boundary datum never blows up
    m = None  # zero is a boundary datum of every exponent

    def trace(self, radius: float):
        """The datum at ``radius`` as a function of t: zero."""
        return _zero_trace


@dataclass(frozen=True)
class BarrierDirichlet:
    """Trace at the outer radius of the separable barrier
    blowup_factor(T, m)(t) * (W^m - delta)_+^(1/m), W the profile of
    ``params``, a subsolution or a supersolution as its amplitude makes it
    (a solve config's ``barrier_a`` sets any amplitude).  With a
    subsolution's amplitude and a stage's shift delta_n it is a
    blow-up stage's boundary datum; with delta = 0 and the supersolution
    amplitude it is W's own trace, but for the rounding of (W^m)^(1/m)."""

    params: BarrierParams
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delta < math.inf:
            raise DomainError(f"barrier shift delta must be finite and >= 0, got {self.delta!r}")

    @property
    def horizon(self) -> float:  # the boundary datum blows up at T
        return self.params.horizon

    @property
    def m(self) -> float:  # the exponent of the barrier that gives the datum
        return self.params.m

    def trace(self, radius: float):
        """The datum at ``radius`` as a function of t: the time factor
        ``barriers.blowup_factor`` of the barrier, scaled by the float
        ``shifted_subsolution(params, delta, radius)``.  That time-free
        factor and the exponent -1/(m-1) are computed once per trace, and a
        call costs one power."""
        return blowup_factor(self.horizon, self.m, float(shifted_subsolution(self.params, self.delta, radius)))


@dataclass(frozen=True)
class DtPolicy:
    dt0: float
    growth: float = 1.25
    dt_max: float = math.inf

    def __post_init__(self):
        if not (self.dt0 > 0 and self.growth >= 1.0):
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
    snapshot_stride: int = 1

    def __post_init__(self):
        if not 1.0 < self.m < math.inf:
            raise DomainError(f"m must be finite and > 1, got {self.m!r}")
        if self.boundary.m not in (None, self.m):
            raise DomainError(
                f"the boundary datum is a barrier of exponent m={self.boundary.m!r}, "
                f"the scheme's is m={self.m!r}"
            )
        if not (0 < self.newton_tol < math.inf and 0 < self.t_end < math.inf):
            raise DomainError("newton_tol and t_end must be positive and finite")
        if not (is_count(self.newton_max_iter, 1) and is_count(self.snapshot_stride, 1)):
            raise DomainError("newton_max_iter and snapshot_stride must be integers >= 1")


@dataclass
class Trajectory:
    """What a run records: times, fields and the boundary outflow of each
    recorded interval.  The norm, tail-ratio and mass series are computed
    from the stacked fields when read."""

    grid: RadialGrid
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    boundary_outflow: list = field(default_factory=list)  # per recorded interval

    def record(self, t, u, outflow: float):
        """Append ``u`` itself, not a copy: the caller hands over an array
        that nothing writes to afterwards (``solve_ball`` records read-only
        fields)."""
        self.times.append(float(t))
        self.fields.append(u)
        self.boundary_outflow.append(float(outflow))

    @property
    def stacked(self) -> np.ndarray:
        """The recorded fields as one (records, cells) array."""
        return np.array(self.fields)

    def lognorms(self, norm: LogNorm) -> list:
        """Weighted sup-norm ``norm`` of each recorded field."""
        w = norm.weight(self.grid.centers)
        return (np.abs(self.stacked) / w).max(axis=1).tolist()

    def tail_ratios(self, m: float) -> list:
        """Grid-window estimate of |u|/(log rho)^(1/(m-1)) over the outer half
        of the ball; a proxy for the asymptotic ratio, not a true limit."""
        rho = self.grid.centers
        outer = rho >= max(self.grid.radius / 2.0, 2.0)
        if not outer.any():
            return [0.0] * len(self.fields)
        tail = np.log(rho[outer]) ** (1.0 / (m - 1.0))
        return (np.abs(self.stacked[:, outer]) / tail).max(axis=1).tolist()

    @property
    def masses(self) -> list:
        return [self.grid.mass(u) for u in self.fields]

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


# -- single implicit step -----------------------------------------------------


def _newton_target(u_old_max, v_b, m, tol):
    """Residual a solve from a field of sup norm ``u_old_max`` must reach:
    tol * max(u_old_max, 1.0, |v_b|^(1/m)).

    The maximum is taken as ``max`` takes it, keeping the first argument
    unless a later one compares greater, so a NaN norm gives a NaN target
    instead of being dropped; two comparisons cost less than the call."""
    scale = u_old_max
    if 1.0 > scale:
        scale = 1.0
    root = abs(v_b) ** (1.0 / m)
    if root > scale:
        scale = root
    return tol * scale


class Window:
    """Views of an integrator's arrays over its leading ``w`` cells, the
    cells a Newton solve runs on; ``Integrator.whole`` holds the views over
    all of them.  Each view starts at the first entry of its buffer, so
    ``view.base`` is the buffer.  The Jacobian's diagonal, superdiagonal and
    subdiagonal lie one after the other in ``jac[:3w-2]``, so that a single
    test sees any non-finite entry."""

    def __init__(self, work: "Integrator", w: int):
        n = work.grid.cells
        self.w = w
        self.cp, self.cm = work.coeffs[:w], work.coeffs[n : n + w]
        self.c_upper, self.c_lower = work.neg[: w - 1], work.neg[n + 1 : n + w]
        jac, dv = work.jac[: 3 * w - 2], work.dv[:w]
        # which entries of the Jacobian, and of a Newton direction, are finite
        jac_finite = work.finite[: 3 * w - 2]
        # what a Newton solve reads, unpacked at once: the 0-d operands m, m - 1
        # and lam, the Jacobian's factors, entries and flags, dv and its
        # shifts, and u, |u| and g of the point and trial
        self.kernel = (
            work.m_op, work.m1_op, work.lam_op, work.c_diag[:w], self.c_upper, self.c_lower,
            jac, jac[:w], jac[w : 2 * w - 1], jac[2 * w - 1 :], jac_finite, jac_finite[:w],
            dv, dv[1:], dv[:-1],
            work.u[:w], work.u_abs[:w], work.g[:w],
            work.trial[:w], work.trial_abs[:w], work.g_trial[:w],
        )
        # vpad = [0, v(u), v_b], so jump[k] = vpad[k+1] - vpad[k] is the
        # difference of v across face k: face 0 is the origin (v[0] - 0,
        # weighted by coeff_minus[0] = 0), face w the window's outer face.
        # On a window vpad[-1] is v of the first cell past it, +0.0
        self.vpad = vpad = work.vpad[: w + 2]
        jump = work.jump[: w + 1]
        # what a residual evaluation reads, unpacked at once: m, v and its
        # shifts, the face jumps and their shifts, the face coefficients,
        # the flux and a scratch row
        self.operands = (
            work.m_op, vpad[1:-1], vpad[1:], vpad[:-1], jump, jump[1:], jump[:-1],
            self.cp, self.cm, work.flux[:w], work.scratch[:w],
        )
        # which cells of a field are not +0.0, and the same from the last back
        self.nonzero = work.nonzero[:w]
        self.nonzero_from_end = self.nonzero[::-1]

    def residual(self, u_old, u, u_abs, g) -> float:
        """Write |u| to ``u_abs`` and the residual of the step from ``u_old``
        to ``g``; return max|g|."""
        m, v, v_right, v_left, jump, jump_out, jump_in, cp, cm, flux, scratch = self.operands
        _absolute(u, u_abs)
        _power(u_abs, m, v)
        _sign(u, scratch)
        _multiply(scratch, v, v)
        _subtract(v_right, v_left, jump)
        _multiply(cp, jump_out, flux)
        _multiply(cm, jump_in, scratch)
        _subtract(flux, scratch, flux)
        _subtract(u, u_old, g)
        _subtract(g, flux, g)
        _absolute(g, scratch)
        return _item(scratch, _argmax(scratch))


class Integrator:
    """The state of runs on one grid with one exponent m: the arrays of
    their Newton solves, ``levels``, the last five accepted (step size,
    field) pairs, oldest first, and ``support``, a cell from which every
    field of the history is +0.0: the ``end`` of the field that started
    it, then the largest ``end`` of the fields ``step``'s solves returned
    and it accepted since.

    ``configure`` takes a run's config: it checks its m and reads once its
    boundary ``trace`` and Newton settings, which ``step`` then finds in
    ``settings`` while the config stays the same object (``cfg``).
    ``scale`` sets the dt-scaled coefficients, recomputing them only when
    the step size changes, and ``window_end`` the zero cells' ``coupling``
    and the window ``margin`` of that step size, on first need.
    ``guess`` extrapolates ``levels`` to the next step into ``u``, the
    buffer a solve iterates in.  ``window_end`` gives the cells a solve runs
    on, and ``window`` holds the views over them after the solve.  After a
    solve, ``target`` is the residual it had to reach, and the boundary
    jump ``jump[-1]`` is v_b - v[-1] of the last residual it evaluated: the
    returned field's when the solve converged.  The fields in ``levels``
    are the ones ``step`` was handed and returned; they are read, never
    written.
    """

    def __init__(self, grid: RadialGrid, m: float):
        n = grid.cells
        self.grid, self.m, self.cells = grid, m, n
        self.cfg = self.settings = None  # the config of the last step, and what it read
        self.dt = self.coupling = math.nan  # the step size of the coefficients below
        self.margin = None  # the window margin of that step size, once computed
        # the scalar operands of the kernel's ufunc calls, as 0-d arrays: m
        # and m - 1, and the step size, the line search's lam and the
        # guess's weights, written before each use
        self.m_op, self.m1_op = _operand(m), _operand(m - 1.0)
        self.dt_op, self.lam_op = np.empty(()), np.empty(())
        self.weights = np.empty(()), np.empty(()), np.empty(())
        # [coeff_plus | coeff_minus], scaled by dt into ``coeffs`` and negated
        # into ``neg``; a ``Window``'s cp, cm and Jacobian off-diagonal
        # factors -cp[:-1] and -cm[1:] are views of those two buffers
        self.coeff_pm = np.concatenate([grid.coeff_plus, grid.coeff_minus])
        self.coeff_max = float(np.max(self.coeff_pm))
        self.coeffs, self.neg, self.c_diag = np.empty(2 * n), np.empty(2 * n), np.empty(n)
        self.jac, self.finite = np.empty(3 * n - 2), np.empty(3 * n - 2, dtype=np.bool_)
        self.dv, self.vpad, self.jump = np.empty(n), np.zeros(n + 2), np.zeros(n + 1)
        self.flux, self.scratch = np.empty(n), np.empty(n)
        # the current point u with |u| and its residual g, and the same three
        # for the line-search trial
        self.u, self.u_abs, self.g = np.empty(n), np.empty(n), np.empty(n)
        self.trial, self.trial_abs, self.g_trial = np.empty(n), np.empty(n), np.empty(n)
        self.target = math.nan  # the residual the last solve had to reach
        # which cells of a field are not +0.0 (``end``)
        self.nonzero = self.scratch.view(np.bool_)[:n]
        # the views over all cells, and those of the last solve, which the
        # next one reuses when it runs on the same cells
        self.whole = self.window = Window(self, n)
        self.levels, self.support = [], n

    def configure(self, cfg: SolverConfig):
        """Take ``cfg`` for the steps that follow (DomainError if its m is
        not the integrator's): its boundary trace at the grid's radius, m,
        the Newton tolerance and iteration cap, with the grid's boundary
        flux coefficient and the jump buffer, as ``settings``."""
        if cfg.m != self.m:
            raise DomainError(f"the integrator solves m={self.m}, the config has m={cfg.m}")
        grid = self.grid
        trace = cfg.boundary.trace(grid.radius)
        self.settings = (
            trace, self.m, cfg.newton_tol, cfg.newton_max_iter, grid.boundary_flux_coeff, self.jump,
        )
        self.cfg = cfg

    def scale(self, dt: float):
        """Scale the face coefficients and the Jacobian factors by ``dt``;
        the ``coupling`` and ``margin`` of that step size are left to
        ``window_end``, which computes them when a solve first asks."""
        if dt != self.dt:
            self.dt_op[()] = dt
            _multiply(self.dt_op, self.coeff_pm, self.coeffs)
            _add(self.whole.cp, self.whole.cm, self.c_diag)
            _negative(self.coeffs, self.neg)
            self.dt = dt
            self.margin = None

    def window_end(self, u_old, predicted, v_b, bound) -> int:
        """The number of leading cells a solve from ``u_old`` with the zero
        boundary value ``v_b`` runs on, from the guess in ``u`` if
        ``predicted``: the window margin past ``bound``, a cell from which
        both fields are +0.0 (the step's running support); all cells when
        the window is off (module docstring).  ``u_old`` is native float64,
        as ``step`` makes every field it solves from."""
        n = self.cells
        first = self.u if predicted else u_old
        if not (u_old[-1] == 0.0 and first[-1] == 0.0):
            return n
        margin = self.margin
        if margin is None:
            # the largest off-diagonal Jacobian entry of a zero cell, where
            # dv = m (0 + eps)
            self.coupling = self.dt * self.coeff_max * (JACOBIAN_EPS * self.m)
            margin = self.margin = _window_margin(self.coupling)
        if not margin or math.copysign(1.0, v_b) < 0.0:
            return n
        w = bound + margin
        if w >= n:
            return n
        if bound:  # the start is +0.0 from ``bound`` on, so -0.0 only before it
            bits = first[:bound].view(np.int64)
            if _item(bits, _argmin(bits)) == _NEGATIVE_ZERO_BITS:
                return n
        # rounded up, so that a window is rebuilt only when w crosses a
        # multiple of WINDOW_QUANTUM, but short of the whole grid
        return min(-(-w // WINDOW_QUANTUM) * WINDOW_QUANTUM, n - 1)

    def continues(self, u) -> bool:
        """Whether ``u`` is the newest level's field itself."""
        return bool(self.levels) and u is self.levels[-1][1]

    def end(self, u, win: Optional[Window] = None) -> int:
        """One past the last cell of the float64 field ``u`` whose bits are
        not those of +0.0.  Only the cells of ``win`` (default all) are
        scanned: ``u`` must be +0.0 past them."""
        if win is None:
            win = self.whole
        w = win.w
        if u[w - 1] != 0.0:
            return w
        nonzero = win.nonzero_from_end
        _not_equal(u[:w].view(np.int64), _ZERO_BITS, win.nonzero)
        k = _argmax(nonzero)  # 0 when every cell is +0.0
        return w - int(k) if _item(nonzero, k) else 0

    def guess(self, d: float) -> bool:
        """Write the field ``d`` past the newest level into ``u``, through
        ``scratch``; whether there was one to write (none from one level).

        When ``d`` and the last four steps have one size, the guess is the
        quartic through the last five levels, with the constant
        backward-difference weights 5, -10, 10, -5, 1.  Otherwise it is
        linear from two levels and quadratic (Lagrange weights on the actual
        steps) from three or more.  Each form is evaluated left to right, as
        the expression ``w0 * u0 + w1 * u1 + ...`` would be, on the cells
        before ``support``; past it every form gives +0.0, which is written
        there.  The weights are 0-d arrays (module docstring).
        """
        levels = self.levels
        k = len(levels)
        if k < 2:
            return False
        out, tmp, e = self.u, self.scratch, self.support
        if e < self.cells:
            out[e:] = 0.0
            out, tmp = out[:e], tmp[:e]
            levels = [(s, u[:e]) for s, u in levels]
        if (
            k == 5
            and levels[1][0] == d
            and levels[2][0] == d
            and levels[3][0] == d
            and levels[4][0] == d
        ):
            (_, u4), (_, u3), (_, u2), (_, u1), (_, u0) = levels
            _multiply(_FIVE, u0, out)
            _subtract(out, _multiply(_TEN, u1, tmp), out)
            _add(out, _multiply(_TEN, u2, tmp), out)
            _subtract(out, _multiply(_FIVE, u3, tmp), out)
            _add(out, u4, out)
            return True
        w0, w1, w2 = self.weights
        if k == 2:
            (_, u1), (a, u0) = levels
            w0[()] = d / a
            _multiply(_subtract(u0, u1, tmp), w0, tmp)
            _add(u0, tmp, out)
        else:
            (_, u2), (b, u1), (a, u0) = levels[-3:]
            ab = a + b
            da, dab = d + a, d + ab
            w0[()] = da * dab / (a * ab)
            w1[()] = -d * dab / (a * b)
            w2[()] = d * da / (ab * b)
            _multiply(w0, u0, out)
            _add(out, _multiply(w1, u1, tmp), out)
            _add(out, _multiply(w2, u2, tmp), out)
        return True


# -0.0 read as an int64: the smallest int64, below the bits of every other float
_NEGATIVE_ZERO_BITS = -(2**63)
# a window's cell count is a multiple of this, or one short of the grid's
WINDOW_QUANTUM = 8
# 2^-1075, half the smallest subnormal, rounds to zero; a window's margin
# lets a right-hand side entry up to 2^64 decay below it
_TAIL_BITS = 64 + 1075


def _window_margin(q: float) -> int:
    """Cells a window reaches past the support when no off-diagonal entry of
    a zero cell's Jacobian row exceeds ``q``; 0 (no window) above q = 1/4.

    Elimination through zero cells scales the right-hand side by at most
    r = q / (1 - q) per cell (module docstring)."""
    if not q <= 0.25:
        return 0
    r = q / (1.0 - q)
    return 2 + (math.ceil(_TAIL_BITS / -math.log2(r)) if r > 0.0 else 0)


def _window_holds(info, w, delta, d) -> bool:
    """Whether the whole grid's LAPACK call gives a window's ``info`` and,
    on the window's cells, its direction (module docstring).  ``delta`` and
    ``d`` are the window's direction and the diagonal of its U factor."""
    if info:
        # a zero pivot before the window's last row is the whole grid's too
        return info < w
    return delta[-1] == 0.0 and 0.5 <= abs(d[-1]) < 2.0


def _newton_solve(work, u_old, v_b, dt, tol, max_iter, bound, predicted=False):
    """Solve the implicit cell balance; returns (u, converged, residual).

    A ``predicted`` solve starts from the integrator's ``u`` as
    ``Integrator.guess`` wrote it; any other starts from a copy of
    ``u_old``.  The target residual comes from ``u_old`` either way and is
    left in ``work.target``.  ``work`` is the run's ``Integrator``, whose
    grid and m the solve reads; the returned field is a copy, never one of
    its buffers.  Fails (``converged`` False) on a singular Jacobian or on
    any non-finite diagonal, Newton direction or residual, so that ``step``
    halves the step instead of letting NaN or inf into the field.

    The solve runs on the leading ``work.window_end`` cells past ``bound``,
    a cell from which ``u_old`` and the start are +0.0 (module docstring).
    On a window every LAPACK call is checked, and when a check fails the
    solve goes on from the same point on the whole grid, with the
    iterations it has left.  ``work.window`` is left on the cells of
    the last iteration, past which the returned field is +0.0.
    """
    if dt != work.dt:
        work.scale(dt)
    n = work.cells
    w = n if v_b != 0.0 else work.window_end(u_old, predicted, v_b, bound)
    if not predicted:
        _copyto(work.u, u_old)
    while True:
        win = work.window
        if win.w != w:
            win = work.window = work.whole if w == n else Window(work, w)
        # an accepted trial swaps its three buffers (u, |u|, g) with the
        # current point's
        (
            m_op, m1_op, lam_op, c_diag, c_upper, c_lower, jac, diag, upper, lower, jac_finite,
            finite, dv, dv_upper, dv_lower, u, u_abs, g, trial, trial_abs, g_trial,
        ) = win.kernel
        win.vpad[-1] = v_b
        residual = win.residual
        old = u_old
        if w < n:
            # the cells past the window stay +0.0 in both buffers the field
            # is returned from, and the boundary jump is +0.0 - +0.0
            old = u_old[:w]
            work.trial[w:] = 0.0
            work.jump[-1] = 0.0
        g_norm = residual(old, u, u_abs, g)
        # the target is set by u_old; trial_abs is free until the first trial
        old_abs = _absolute(old, trial_abs) if predicted else u_abs
        target = work.target = _newton_target(_item(old_abs, _argmax(old_abs)), v_b, work.m, tol)
        for done in range(max_iter):
            if g_norm <= target:
                return u.base.copy(), True, g_norm
            if not _finite(g_norm):
                return u.base.copy(), False, g_norm
            _power(u_abs, m1_op, dv)
            _add(dv, _EPS, dv)
            _multiply(dv, m_op, dv)
            _multiply(c_diag, dv, diag)
            _add(diag, _ONE, diag)
            _multiply(c_upper, dv_upper, upper)
            _multiply(c_lower, dv_lower, lower)
            # arguments evaluate left to right: the flags, then their argmin
            if not _item(_isfinite(jac, jac_finite), _argmin(jac_finite)):
                return u.base.copy(), False, g_norm
            # overwrite_dl, overwrite_d, overwrite_du, overwrite_b
            _, d, _, delta, info = dgtsv(lower, diag, upper, _negative(g, g), 1, 1, 1, 1)
            if w < n and not _window_holds(info, w, delta, d):
                break
            if info != 0 or not _item(_isfinite(delta, finite), _argmin(finite)):
                return u.base.copy(), False, g_norm
            # Armijo backtracking from lam = 1, where the trial skips the
            # multiply; a non-finite trial norm fails the test too.  The
            # smallest step, lam = 2^-30, is taken whether it passes or not.
            # The accepted trial point and its residual become the next iterate.
            lam = 1.0
            _add(u, delta, trial)
            while True:
                g_trial_norm = residual(old, trial, trial_abs, g_trial)
                if (
                    g_trial_norm < (1.0 - 0.25 * lam) * g_norm
                    or g_trial_norm <= target
                    or lam == 2.0**-30
                ):
                    break
                lam *= 0.5
                lam_op[()] = lam
                _add(u, _multiply(lam_op, delta, trial), trial)
            u, trial = trial, u
            u_abs, trial_abs = trial_abs, u_abs
            g, g_trial = g_trial, g
            g_norm = g_trial_norm
        else:
            return u.base.copy(), g_norm <= target, g_norm
        # a check failed: the whole grid from the same point, whose cells
        # past the window are +0.0, in ``work.u``; like a guess, that point
        # is not u_old, so |u| is not |u_old|
        if u.base is not work.u:
            _copyto(work.u, u.base)
        w, predicted, max_iter = n, True, max_iter - done


def step(
    u: np.ndarray,
    t: float,
    dt: float,
    grid: RadialGrid,
    cfg: SolverConfig,
    integrator: Optional[Integrator] = None,
) -> tuple[np.ndarray, float]:
    """Advance exactly dt, splitting into half steps when Newton stalls.

    ``integrator`` is the run's ``Integrator``, on ``grid`` itself and
    ``cfg.m`` (DomainError otherwise); without one the step takes a fresh
    one.  A step from its newest field itself continues its history: the
    full-step solve starts from ``integrator.guess(dt)``, and from ``u``
    once more if that fails, before any halving.  A step from any other
    field checks that it is finite and starts a new history.  The returned
    field is read-only and becomes the newest level.

    A config other than the integrator's last is checked and read once
    (``Integrator.configure``); a step that does not halve stacks nothing.

    Returns the new field and the accumulated boundary outflow (in the
    grid's scaled mass units) over the increment.
    """
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    if integrator is None:
        integrator = Integrator(grid, cfg.m)
    elif integrator.grid is not grid:
        raise DomainError("the integrator runs on another grid")
    if cfg is not integrator.cfg:
        integrator.configure(cfg)
    levels = integrator.levels
    if levels and u is levels[-1][1]:  # ``integrator.continues(u)``
        predicted, support = integrator.guess(dt), integrator.support
    else:
        u = np.asarray(u, dtype=float)
        _check_shape(u, grid, "field entering step")
        _check_finite(u)
        levels, predicted, support = [(0.0, u)], False, integrator.end(u)
    trace, m, tol, max_iter, flux, jump = integrator.settings
    t0, d, depth, solves, outflow = t, dt, 0, 1, 0.0
    # the stack of pending second halves, nested (t0, d, depth, rest)
    # tuples, and the (residual, target) of the last failed solve
    pending = failed = None
    while True:
        ub = trace(t0 + d)
        v_b = _copysign(abs(ub) ** m, ub)
        u_new, ok, res = _newton_solve(integrator, u, v_b, d, tol, max_iter, support, predicted)
        if not ok and predicted:
            u_new, ok, res = _newton_solve(integrator, u, v_b, d, tol, max_iter, support)
        predicted = False
        if ok:
            outflow += -d * flux * float(jump[-1])
            u = u_new
            # u is +0.0 past the cells of the solve that returned it
            end = integrator.end(u, integrator.window)
            if end > support:
                support = end
            if pending is None:
                break
            t0, d, depth, pending = pending
        else:
            failed = (res, integrator.target)
            d, depth = d / 2.0, depth + 1
            pending = (t0 + d, d, depth, pending)
        if depth > MAX_HALVINGS:
            raise SolverError(
                f"Newton failed after {MAX_HALVINGS} halvings at t={t0:.6g}"
                + _failure_note(*failed)
            )
        if solves == MAX_SUBSTEPS:
            raise SolverError(
                f"step from t={t:.6g} spent its budget of {MAX_SUBSTEPS} Newton solves"
                f" at t={t0:.6g}" + _failure_note(*failed)
            )
        solves += 1
    u.setflags(False)  # write=False, positional: a keyword costs twice the call
    levels.append((dt, u))
    if len(levels) > 5:
        del levels[0]
    integrator.levels, integrator.support = levels, support
    return u, outflow


def _check_shape(u, grid: RadialGrid, what: str):
    if u.shape != (grid.cells,):
        raise DomainError(f"{what} has shape {u.shape}, the grid has {grid.cells} cells")


def _check_finite(u):
    finite = _isfinite(u)
    if not _item(finite, _argmin(finite)):
        raise SolverError("non-finite field entering step")


def _failure_note(residual: float, target: float) -> str:
    return f" (last failed solve: residual {residual:.3g}, target {target:.3g})"


# -- trajectories -------------------------------------------------------------


def _initial_values(u0, grid: RadialGrid) -> np.ndarray:
    """A read-only copy of the datum on the grid's centers, owned by the
    run: a callable may return an array it keeps."""
    arr = np.array(u0(grid.centers) if callable(u0) else u0, dtype=float)
    _check_shape(arr, grid, "initial data")
    arr.flags.writeable = False
    return arr


def solve_ball(
    u0,
    cfg: SolverConfig,
    grid: RadialGrid,
    barrier_horizon: Optional[float] = None,
    integrator: Optional[Integrator] = None,
) -> Trajectory:
    """Integrate on the ball up to t_end with the configured step policy.

    The run ends before T, the smaller of ``barrier_horizon`` (a barrier
    blow-up time > 0; None or inf caps nothing) and the boundary mode's own
    ``horizon``: a ``t_end`` at or past T raises DomainError naming both,
    and each step is capped at BARRIER_CAP * (T - t).  ``integrator``
    carries the arrays and the predictor's history from one call to the
    next; without one the call takes a fresh one.  A call from the
    integrator's newest field itself continues that history (see
    ``step``).  Any other datum is copied, so that the run owns every field
    it records.  Recorded fields are never written afterwards, so the next
    call may start from one of them.
    """
    if integrator is None:
        integrator = Integrator(grid, cfg.m)
    if barrier_horizon is None:
        barrier_horizon = math.inf
    elif not barrier_horizon > 0:
        raise DomainError(f"barrier_horizon must be positive, got {barrier_horizon!r}")
    horizon = min(barrier_horizon, cfg.boundary.horizon)
    if not cfg.t_end < horizon:
        raise DomainError(f"t_end={cfg.t_end:g} reaches the barrier horizon T={horizon:g}")

    u = u0 if integrator.continues(u0) else _initial_values(u0, grid)
    traj = Trajectory(grid=grid)
    record = traj.record
    record(0.0, u, 0.0)

    # each step is min(dt, t_end - t, BARRIER_CAP * (T - t)), the next dt
    # min(dt * growth, dt_max), as min takes them.  No dt exceeds max(dt0,
    # dt_max) and the rounded cap falls with t, so one at t_end above that never binds
    t_end, stride, policy = cfg.t_end, cfg.snapshot_stride, cfg.dt
    growth, dt_max = policy.growth, policy.dt_max
    capped = BARRIER_CAP * (horizon - t_end) < max(policy.dt0, dt_max)
    stop = t_end - 1e-14 * t_end
    t, dt, k, pending_outflow = 0.0, policy.dt0, 0, 0.0
    while t < stop:
        d = t_end - t
        if not d < dt:
            d = dt
        if capped and BARRIER_CAP * (horizon - t) < d:
            d = BARRIER_CAP * (horizon - t)
        u, out = step(u, t, d, grid, cfg, integrator)
        t += d
        k += 1
        pending_outflow += out
        if k % stride == 0 or t >= stop:
            record(t, u, pending_outflow)
            pending_outflow = 0.0
        dt *= growth
        if dt_max < dt:
            dt = dt_max
    return traj


@dataclass
class ExhaustReport:
    radii: list
    monotonicity_gap: float  # max over shared cells/times of u_Rk - u_R(k+1)
    inner_increments: list  # sup on the inner ball of successive differences
    tau_h: float  # discretization tolerance used

    def validate(self):
        """CertificateError unless the nested solutions increase with the
        radius up to ``tau_h``."""
        if self.monotonicity_gap > self.tau_h:
            raise CertificateError(
                f"exhaustion monotonicity violated: gap {self.monotonicity_gap:.3e} > {self.tau_h:.3e}"
            )
        return True


def exhaust(
    u0,
    cfg: SolverConfig,
    manifold: ModelManifold,
    radii: Sequence[float],
    cells_first: int,
    barrier_horizon: Optional[float] = None,
) -> ExhaustReport:
    """Solve on nested balls and report the exhaustion monotonicity gap.

    ``barrier_horizon`` caps every ball's run as it caps ``solve_ball``'s: a
    ``t_end`` at or past it is refused (DomainError).

    All levels share the cell width of the first radius, so grids are nested
    cell-by-cell (level k is the first ``grids[k].cells`` cells of level k + 1).
    Their recorded times are one float sequence by construction: every ball
    runs ``solve_ball`` with the same ``cfg`` and horizon, whose step sizes
    depend on t and the step index only, and halvings happen inside ``step``.
    The increments are taken on the inner ball of the first ``cells_first // 2``
    cells.
    """
    radii = list(radii)
    if len(radii) < 3 or any(not b > a for a, b in zip(radii, radii[1:])):
        raise DomainError("need at least 3 strictly increasing radii")
    if not (0 < radii[0] and radii[-1] < math.inf and is_count(cells_first, 3)):
        raise DomainError(
            "need finite radii, a positive first radius and an integer number of cells >= 3, "
            f"got {radii} and {cells_first}"
        )
    h = radii[0] / cells_first
    grids = []
    for R in radii:
        n = R / h
        if abs(n - round(n)) > 1e-9:
            raise DomainError(f"radius {R} is not an integer multiple of h={h}")
        grids.append(RadialGrid.uniform(manifold, R, int(round(n))))

    trajs = [solve_ball(u0, cfg, g, barrier_horizon) for g in grids]
    fields = [tr.stacked for tr in trajs]
    levels = range(len(radii) - 1)
    gap = max(
        float(np.max(fields[k] - fields[k + 1][:, : grids[k].cells])) for k in levels
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
    """Certified existence horizon a^{m-1} ||u0||^{1-m} and its r->inf limit.

    The certificate is the barrier audit's input: ``barrier_excess`` builds
    the separable supersolution (1 - t/T)^(-1/(m-1)) ||u0|| weight(rho) from
    ``time``, ``norm`` and ``lognorm`` alone, and audits nothing where
    ``horizon`` is None.  It carries ||u0||, not the amplitude a: a /
    T^(1/(m-1)) equals ||u0|| only in exact arithmetic.
    """

    time: float  # may be inf
    limit_time: float  # horizon from the norm limit (inf for bounded data)
    global_flag: bool
    norm: float  # ||u0|| in the weighted norm ``lognorm``
    lognorm: LogNorm

    @property
    def horizon(self) -> Optional[float]:
        """The finite horizon that caps a run and its sandwich audit; None
        under global existence.  A finite horizon implies a positive norm."""
        if self.global_flag or math.isinf(self.time):
            return None
        return self.time


def existence_time(
    u0: RadialDatum,
    consts: ComparisonConstants,
    m: float,
    r: float = NORM_R,
) -> ExistenceTime:
    """The horizon of ``u0`` in the norm ``LogNorm(r, m)`` and its r -> inf
    limit.  DomainError, naming m, where the arithmetic underflows (m near
    1): a norm of 0.0 for a datum that is not 0, or a horizon of 0.0, would
    report global existence or no time at all.  (The norm limit cannot
    underflow where the horizon does not: a^(m-1) underflows first.)"""
    a = supersolution_amplitude(consts.c_prime, m)
    lognorm = LogNorm(r, m)
    norm = log_norm(u0, lognorm)
    if norm == 0.0:
        if not u0.vanishes:
            raise DomainError(f"the weighted norm of u0 underflows to 0 at m={m!r}")
        return ExistenceTime(math.inf, math.inf, True, norm, lognorm)
    lim_norm = norm_limit(u0, m)
    time = horizon_time(a, norm, m)
    if time == 0.0:
        raise DomainError(f"the existence time underflows to 0 at m={m!r}")
    if lim_norm == 0.0:
        return ExistenceTime(time, math.inf, True, norm, lognorm)
    return ExistenceTime(time, horizon_time(a, lim_norm, m), False, norm, lognorm)


# -- barrier sandwich audit -----------------------------------------------------


def barrier_excess(traj: Trajectory, et: ExistenceTime) -> Optional[float]:
    """Worst signed excess of |u| over the certificate ``et``'s separable
    bound along the run; None under global existence (no finite horizon).

    Negative values mean the trajectory stays strictly inside the envelope
    (1 - t/T)^(-1/(m-1)) * ||u0|| * weight(rho), with T = ``et.time`` and
    ||u0||, m and the weight those of ``et.norm`` in ``et.lognorm``.
    """
    if et.horizon is None:
        return None
    norm = et.lognorm
    w = norm.weight(traj.grid.centers)
    bound = separable_envelopes(traj.times, et.time, norm.m, et.norm, w)
    return float(np.max(np.abs(traj.stacked) - bound))


@dataclass
class SolveReport:
    """Summary of a single-ball run: its recorded series, the existence time
    behind its horizon and the barrier sandwich audit."""

    times: list
    log_norm_series: list
    tail_ratio_series: list
    mass_series: list
    existence_time: float
    existence_time_limit: float
    global_existence: bool
    max_barrier_violation: Optional[float]  # None without a finite horizon
    tau_h: float  # tolerance of the audit, scaled by the largest recorded |u|

    def validate(self):
        """CertificateError when |u| leaves the barrier envelope by more than ``tau_h``."""
        excess, tol = self.max_barrier_violation, self.tau_h
        if excess is not None and excess > tol:
            raise CertificateError(f"barrier sandwich violated by {excess:.3e} (tolerance {tol:.3e})")
        return True


def solve_report(traj: Trajectory, et: ExistenceTime) -> SolveReport:
    """The report of a run recorded in ``traj`` up to ``et.horizon``, its
    series in the norm ``et`` measured u0 in."""
    norm = et.lognorm
    return SolveReport(
        times=traj.times,
        log_norm_series=traj.lognorms(norm),
        tail_ratio_series=traj.tail_ratios(norm.m),
        mass_series=traj.masses,
        existence_time=et.time,
        existence_time_limit=et.limit_time,
        global_existence=et.global_flag,
        max_barrier_violation=barrier_excess(traj, et),
        tau_h=tau_h(traj.grid.h, float(np.max(np.abs(traj.stacked)))),
    )


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
