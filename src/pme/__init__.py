"""Radial porous-medium-equation solver and certificate toolkit."""

from .barriers import (
    BarrierParams,
    EtaBarrierParams,
    certify_eta,
    certify_subsolution,
    certify_supersolution,
    decay_product,
    decay_regime,
    eta,
    eta_certificate,
    laplacian_wm,
    log_decay_product,
    select_K,
    shifted_subsolution,
    subsolution_params,
    supersolution_amplitude,
    uniqueness_report,
)
from .blowup import BlowupConfig, BlowupLedger, run_blowup, stage_T, stage_delta, stage_epsilon, stage_schedule
from .geometry import (
    ComparisonConstants,
    ModelManifold,
    euclidean,
    fit_comparison_constants,
    hyperbolic,
    log_critical,
    make_manifold,
    quad_critical,
)
from .grid import RadialGrid
from .solver import (
    BarrierDirichlet,
    DtPolicy,
    HomogeneousDirichlet,
    SolverConfig,
    Trajectory,
    barenblatt,
    barrier_excess,
    exhaust,
    existence_time,
    solve_ball,
    solve_report,
    step,
    tau_h,
)
from .xlog import (
    LogNorm,
    RadialDatum,
    TailDescriptor,
    bounded_datum,
    limsup_ratio,
    log_growth_datum,
    log_norm,
    norm_limit,
)

__version__ = "0.1.0"
