"""Staged construction of a solution whose weighted norm blows up.

On models with both drift envelopes (the quadratically warped family), a
datum growing like (log rho)^(1/(m-1)) is pushed along a sequence of stages:
at stage n the field u(t_n) dominates a shifted subsolution V_n whose
separable extension blows up at horizon T_{n+1}; the ball problem is solved
for a duration S_{n+1} < T_{n+1} with that subsolution as boundary datum,
which certifies a strictly growing lower envelope while a small-amplitude
supersolution caps the growth from above.

Asymptotic bookkeeping: the tail of the solution outside the ball follows
the imposed boundary datum, so the stage-to-stage growth ratio is updated in
closed form (per-stage factor (1-eps_n)(1 - S/T)^(-1/(m-1))).  One ratio
suffices: the datum's form and amplitude fix its exact log-growth tail, so
its liminf and limsup ratios are equal and every stage multiplies both by
the same factor.  The ratio is kept in the "norm limit" normalization, i.e.
against the r -> infinity limit of the weight, [log(rho^2)]^(1/(m-1)); the
plain asymptotic ratio against (log rho)^(1/(m-1)) is 2^(1/(m-1)) times
larger.  The stage horizon and duration formulas are exact identities in
this normalization, so ``stage_schedule`` generates eps_n, T_n, S_n, t_n
and the ratio without a solve.  Total duration tau = sum S_k stays below
2 T_1 by the telescoping inequality T_{n+1} <= T_n - S_n + T_1/2^n, which
``stage_epsilon`` enforces and the ledger re-checks on its recorded values.

``run_blowup`` adds what needs the field: the shift delta_n, the stage
solve, the sandwich audit and the recorded norm.  It stops when that norm
exceeds the blow-up threshold (default 1000x the initial norm) or the
schedule ends (S_n below S_MIN_FACTOR * T_1, or the stage cap).  So that a
stage costs its Newton solves and little else, the run computes once the
amplitudes, both weights and the unit profile W_1 on the cells, and one
``solver.Integrator`` runs every stage (each stage's first step is predicted
from the last stage's levels).  Each stage computes once W_T^m from W_1
(``BarrierParams.wm_at_horizon``, the body by which
``barriers.shifted_subsolution`` forms the boundary datum), the shift
delta_n and its root V_n = (W_T^m - delta_n)_+^(1/m), which ``stage_delta``
returns and the audit reads, its config objects, the boundary trace (read by
the integrator once per stage) and its stacked fields; each envelope its
time factor, and the recorded norms in both weights share one |u|.

Each stage is audited by ``sandwich_gaps``: the stacked stage fields are
compared at once with the separable envelopes of the shifted subsolution
and of the small-amplitude supersolution (``barriers.separable_envelopes``),
giving the ledger's lower and upper gaps.  Horizons and durations come from
``barriers.horizon_time``; the growth factors of the schedule, the
envelopes' factors and the boundary trace all from the one time factor
``barriers.blowup_factor``.

``pme blowup`` writes the ledger JSON straight from the ``BlowupLedger`` and
``StageRecord`` fields, named as in the construction (T_n, S_n, eps_n, ...).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .barriers import (
    BarrierParams,
    blowup_factor,
    horizon_time,
    separable_envelopes,
    shift_root,
    subsolution_params,
    supersolution_amplitude,
)
from .errors import CertificateError, DomainError, NotApplicableError, StageError, is_count
from .geometry import MAX_RHO_MAX, ComparisonConstants
from .grid import RadialGrid
from .solver import (
    BarrierDirichlet,
    DtPolicy,
    Integrator,
    SolverConfig,
    Trajectory,
    solve_ball,
    tau_h,
)
from .xlog import NORM_R, LogNorm, RadialDatum, norm_limit

# the numpy functions of the per-stage audit, bound once as in ``solver``;
# a reduction over axis None takes every entry of a stacked array.  A
# maximum of entries that hold no -0.0 is taken by arg-index as in
# ``solver``; the signed maxima that reach the ledger (``stage_delta``'s
# ``hi`` and the sandwich gaps) stay on ``_max``, because
# ``np.maximum.reduce([0.0, -0.0])`` is -0.0 while argmax picks the first
# maximal entry, +0.0
_absolute, _divide, _subtract = np.absolute, np.divide, np.subtract
_max = np.maximum.reduce
_argmax, _argmin, _item = np.ndarray.argmax, np.ndarray.argmin, np.ndarray.item

S_MIN_FACTOR = 1e-8  # stall cutoff S_n < factor * T_1


def stage_T(liminf_est: float, eps: float, a_hat: float, m: float) -> float:
    """Next stage horizon (a_hat/(1-eps))^(m-1) liminf^(1-m)."""
    if liminf_est <= 0:
        raise NotApplicableError(
            "blow-up scheme needs a positive asymptotic growth ratio; no blow-up stage applies"
        )
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    return horizon_time(a_hat / (1.0 - eps), liminf_est, m)


def stage_epsilon(n: int, T_n: float, S_n: float, T1: float, m: float) -> float:
    """Largest eps = 2^-j <= 1/2 with [(1-eps)^(1-m) - 1](T_n - S_n) <= T1/2^n.

    The bracket is evaluated as expm1((1-m) log1p(-eps)), which keeps its
    relative accuracy for eps below the float spacing at 1, where
    (1-eps)**(1-m) - 1 rounds to 0 and any eps would pass.  Since the bracket
    is at least (m-1) eps, no eps above budget/((m-1) gap) passes: the search
    starts at twice the largest power of two below that bound.
    """
    if n < 1:
        raise DomainError("stage index must be >= 1")
    gap = T_n - S_n
    if gap < 0:
        raise DomainError("T_n must dominate S_n")
    budget = T1 / 2.0**n
    eps = 0.5
    if gap > 0 and budget > 0:
        eps = min(eps, math.ldexp(1.0, math.frexp(budget / ((m - 1.0) * gap))[1]))
    while math.expm1((1.0 - m) * math.log1p(-eps)) * gap > budget:
        eps *= 0.5
    return eps


def stage_schedule(ratio: float, a_hat: float, a_tilde: float, m: float, max_stages: int):
    """Yield (eps_n, T_n, S_n, t_n, ratio after stage n) for n = 1, 2, ...

    The recursion of the construction, with no solve: eps_1 = 1/2, then
    eps_{n+1} = stage_epsilon(n, T_n, S_n, T_1, m); T_n = stage_T(ratio,
    eps_n, a_hat, m), S_n = horizon_time(a_tilde/2, ratio, m) and t_n the sum
    of S_1 ... S_n; the ratio grows by (1-eps_n)(1 - S_n/T_n)^(-1/(m-1)).
    Ends after ``max_stages`` stages or after the first with S_n below
    S_MIN_FACTOR * T_1.
    """
    eps, t_n = 0.5, 0.0
    T1 = stage_T(ratio, eps, a_hat, m)
    for n in range(1, max_stages + 1):
        T_n = stage_T(ratio, eps, a_hat, m)
        S_n = horizon_time(a_tilde / 2.0, ratio, m)
        if not S_n < T_n:
            raise StageError(f"stage duration reached the horizon at n={n}")
        t_n += S_n
        ratio *= (1.0 - eps) * blowup_factor(T_n, m)(S_n)
        yield eps, T_n, S_n, t_n, ratio
        if S_n < S_MIN_FACTOR * T1:
            return
        eps = stage_epsilon(n, T_n, S_n, T1, m)


def stage_delta(u: np.ndarray, wm: np.ndarray, m: float) -> tuple:
    """Smallest shift delta with u >= (W^m - delta)_+^(1/m) - 1e-14 at every
    cell, given the values ``wm`` of W^m on the cells, and the accepted root
    ``shift_root(wm, delta, m)``: (0, root) if delta = 0 passes.

    A field below -1e-14 fails at every delta (the test at max W^m), a
    StageError.  Otherwise both sides of u_i + 1e-14 >= (W^m_i - delta)_+^(1/m)
    are >= 0, so cell i passes iff delta >= W^m_i - (u_i + 1e-14)^m: the
    shift is the max of these, raised by doubling steps from one ulp of max
    W^m until the test passes in floats (within about 1e-13 max W^m of the least).
    """

    def admissible(delta):
        root = shift_root(wm, delta, m)
        above = u >= root - 1e-14
        return root if _item(above, _argmin(above)) else None

    root = admissible(0.0)
    if root is not None:
        return 0.0, root
    hi = float(_max(wm))  # signed, so on _max: see the bindings above
    if admissible(hi) is None:
        raise StageError("no admissible shift: field is negative under the barrier")
    delta, step = max(float(_max(wm - (u + 1e-14) ** m)), 0.0), math.ulp(hi)
    while (root := admissible(delta)) is None:
        delta, step = min(delta + step, hi), 2.0 * step
    return delta, root


@dataclass(frozen=True)
class StageRecord:
    n: int
    T_n: float  # stage horizon
    S_n: float  # stage duration
    eps_n: float
    delta_n: float
    t_n: float  # sum of the durations S_1 + ... + S_n
    liminf_est: float  # growth ratio after the stage, norm-limit normalization
    lognorm: float
    lower_gap: float  # worst (subsolution - u) over the stage; <= tau is good
    upper_gap: float  # worst (u - supersolution) over the stage


@dataclass
class BlowupLedger:
    stages: list
    T1: float
    tau: float
    tau_bound: float  # 2 T_1
    status: str  # blown-up | stalled
    initial_lognorm: float
    threshold: float
    discretization_tol: float
    # First stage index (0-based into ``stages``) from which the recorded
    # norm increases strictly to the end.  The early stages sacrifice a
    # fixed fraction of the growth ratio (the eps_n factors start at 1/2),
    # so the norm passes through a hand-off transient of O(10) stages
    # before the certified geometric growth takes over.
    growth_onset: int = 0

    def validate(self):
        """Re-check the ledger invariants and sandwich gaps on the recorded values.

        The stage times and the total duration are checked exactly: each t_n
        is t_{n-1} + S_n as ``stage_schedule`` sums it, tau is the last t_n,
        and tau <= tau_bound = 2 T_1, a product that is exact in floats.
        """
        if not self.stages:
            raise StageError("empty ledger")
        t_prev, tol = 0.0, self.discretization_tol
        for k, s in enumerate(self.stages):
            if not (0.0 < s.eps_n < 1.0):
                raise StageError(f"eps out of range at stage {s.n}")
            if not s.S_n < s.T_n:
                raise StageError(f"S >= T at stage {s.n}")
            if not s.t_n > t_prev:
                raise StageError(f"stage times not increasing at {s.n}")
            if s.t_n != t_prev + s.S_n:
                raise StageError(f"t_n is not the sum of the stage durations at {s.n}")
            if not (s.lower_gap <= tol and s.upper_gap <= tol):
                raise CertificateError(
                    f"sandwich gaps {s.lower_gap:.3e} (lower), {s.upper_gap:.3e} (upper) "
                    f"exceed the tolerance {tol:.3e} at stage {s.n}"
                )
            t_prev = s.t_n
            if k >= 1:
                prev = self.stages[k - 1]
                bound = prev.T_n - prev.S_n + self.T1 / 2.0 ** (s.n - 1)
                if s.T_n > bound * (1.0 + 1e-12):
                    raise StageError(f"telescoping bound violated at {s.n}")
        if self.tau != t_prev:
            raise StageError("total duration is not the last stage time")
        if not self.tau <= self.tau_bound:
            raise StageError("total duration exceeds 2 T1")
        lns = [s.lognorm for s in self.stages]
        if any(b <= a for a, b in zip(lns[self.growth_onset :], lns[self.growth_onset + 1 :])):
            raise StageError("norm series not strictly increasing past the onset")
        return True


@dataclass(frozen=True)
class BlowupConfig:
    m: float
    threshold_factor: float = 1e3
    max_stages: int = 600
    steps_per_stage: int = 40
    newton_tol: float = SolverConfig.newton_tol
    norm_r: float = NORM_R

    def __post_init__(self):
        if not 1.0 < self.m < math.inf:
            raise DomainError("blow-up run needs a finite m > 1")
        if not 1.0 < self.threshold_factor < math.inf:
            raise DomainError("blow-up threshold factor must be > 1 and finite")
        if not (is_count(self.max_stages, 1) and is_count(self.steps_per_stage, 5)):
            raise DomainError("max_stages and steps_per_stage must be integers, >= 1 and >= 5")
        if not (0 < self.newton_tol < math.inf and 2.0 <= self.norm_r <= MAX_RHO_MAX):
            raise DomainError(f"newton_tol must be positive and finite, norm_r in [2, {MAX_RHO_MAX:g}]")


def _recorded_lognorms(u: np.ndarray, weight, far_weight, tail_est: float) -> tuple:
    """Norms of the extended field, grid part plus analytic tail part, in
    ``weight`` and in ``far_weight``, from one |u|."""
    u_abs = _absolute(u)
    ratio = _divide(u_abs, weight)  # |u|/w >= +0.0, with no -0.0 among them
    far = _divide(u_abs, far_weight, u_abs)
    return max(_item(ratio, _argmax(ratio)), tail_est), max(_item(far, _argmax(far)), tail_est)


def sandwich_gaps(traj: Trajectory, m, horizon, v_base, s_super, norm_far, far_weight) -> tuple:
    """Worst excess of the subsolution blowup_factor(horizon, m)(t) * v_base
    over u, and of u over the supersolution blowup_factor(s_super, m,
    norm_far)(t) * far_weight at the recorded times t < 0.95 s_super (-inf if
    there is none).

    Recorded times increase, so those early records are a prefix of the
    trajectory, and its length is a bisection of the times.  The fields are
    stacked once, each envelope is one matrix product of its factors and
    profile, and each gap a subtract in place and a signed maximum."""
    fields = traj.stacked
    low = separable_envelopes(traj.times, horizon, m, 1.0, v_base)
    # the gaps are signed maxima, so on _max: see the bindings above
    lower_gap = float(_max(_subtract(low, fields, low), None))
    early = bisect_left(traj.times, 0.95 * s_super)
    if not early:
        return lower_gap, -math.inf
    up = separable_envelopes(traj.times[:early], s_super, m, norm_far, far_weight)
    return lower_gap, float(_max(_subtract(fields[:early], up, up), None))


def run_blowup(
    u0: RadialDatum,
    grid: RadialGrid,
    consts: ComparisonConstants,
    cfg: BlowupConfig,
    stage_hook=None,
) -> BlowupLedger:
    """Run the staged blow-up construction and return the filled ledger.

    The run is solved on ``grid``, from ``u0.profile`` on its cell centers;
    the growth ratio from ``u0``'s form and amplitude.  ``stage_hook(n,
    traj)`` is called after each stage solve (used by the CLI to dump
    trajectories).
    """
    m = cfg.m
    sub = subsolution_params(consts, m)  # NotApplicableError without a lower drift bound
    a_hat, r_hat = sub.amplitude, sub.r
    a_tilde = supersolution_amplitude(consts.c_prime, m)

    ratio = norm_limit(u0, m)  # in the norm-limit normalization
    weight = LogNorm(cfg.norm_r, m).weight(grid.centers)
    # weight of the audit's upper envelope, offset far beyond the ball
    far_weight = LogNorm(20.0 * grid.radius, m).weight(grid.centers)
    u = np.asarray(u0.profile(grid.centers), dtype=float)
    unit = sub.profile_unit(grid.centers)  # once per run; each stage scales it
    integrator = Integrator(grid, m)

    # the norm of each stage's start in the run's weight and in the far
    # weight of the audit's upper envelope, both at the stage's growth ratio
    lognorm0, norm_far = _recorded_lognorms(u, weight, far_weight, ratio)
    threshold = cfg.threshold_factor * lognorm0
    stages: list = []
    status = "stalled"
    steps, newton_tol = cfg.steps_per_stage, cfg.newton_tol
    schedule = stage_schedule(ratio, a_hat, a_tilde, m, cfg.max_stages)
    for n, (eps, T_n, S_n, t_n, next_ratio) in enumerate(schedule):
        # positional fields, in the order each class declares them
        barrier = BarrierParams(a_hat, r_hat, T_n, m)
        try:
            delta, v_base = stage_delta(u, barrier.wm_at_horizon(unit), m)
        except StageError as exc:
            raise StageError(f"stage {n}: {exc}") from exc

        policy = DtPolicy(S_n / steps, 1.3, S_n / 10.0)
        scfg = SolverConfig(m, policy, S_n, BarrierDirichlet(barrier, delta), newton_tol)
        traj = solve_ball(u, scfg, grid, integrator=integrator)
        if stage_hook is not None:
            stage_hook(n, traj)

        # Sandwich audit: stage trajectory between the shifted subsolution
        # and the small-amplitude supersolution, within discretization error.
        # The upper envelope uses a weight offset far beyond the ball, where
        # the bulk contribution to the norm washes out and only the tail
        # ratio counts (the construction lets that offset grow arbitrarily).
        s_super = horizon_time(a_tilde, norm_far, m)
        lower_gap, upper_gap = sandwich_gaps(traj, m, T_n, v_base, s_super, norm_far, far_weight)

        u, ratio = traj.final, next_ratio
        lognorm, norm_far = _recorded_lognorms(u, weight, far_weight, ratio)
        stages.append(StageRecord(
            n=n + 1, T_n=T_n, S_n=S_n, eps_n=eps, delta_n=delta, t_n=t_n, liminf_est=ratio,
            lognorm=lognorm, lower_gap=lower_gap, upper_gap=upper_gap,
        ))
        if lognorm >= threshold:
            status = "blown-up"
            break

    lns = [s.lognorm for s in stages]
    descents = [i for i in range(len(lns) - 1) if lns[i + 1] <= lns[i]]
    onset = descents[-1] + 1 if descents else 0
    T1 = stages[0].T_n
    return BlowupLedger(
        stages=stages,
        T1=T1,
        tau=stages[-1].t_n,
        tau_bound=2.0 * T1,
        status=status,
        initial_lognorm=lognorm0,
        threshold=threshold,
        discretization_tol=tau_h(grid.h),
        growth_onset=onset,
    )
