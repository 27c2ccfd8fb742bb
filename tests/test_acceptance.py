"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is pinned here; nothing is calibrated at
test time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pme import barriers, blowup, geometry, solver, xlog
from pme.grid import RadialGrid

RESULTS = []


@contextmanager
def criterion(num, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL [{time.monotonic() - start:.1f}s]")
        RESULTS.append((num, title, False))
        raise
    print(f"ACCEPTANCE {num} ({title}): PASS [{time.monotonic() - start:.1f}s]")
    RESULTS.append((num, title, True))


# -- 1: classical self-similar oracle -------------------------------------------------


def _barenblatt_error(cells):
    M = geometry.euclidean(2)
    R, mass_const = 6.0, 0.25
    g = RadialGrid.uniform(M, R, cells)
    u0 = solver.barenblatt(g.centers, 1.0, 2, 2.0, mass_const)
    cfg = solver.SolverConfig(
        m=2.0,
        dt=solver.DtPolicy(dt0=0.5 * g.h, growth=1.0),
        t_end=1.0,
        snapshot_stride=10**9,
    )
    traj = solver.solve_ball(u0, cfg, g)
    exact = solver.barenblatt(g.centers, 2.0, 2, 2.0, mass_const)
    err = np.dot(g.weights_scaled, np.abs(traj.final - exact))
    return err / np.dot(g.weights_scaled, exact)


def test_criterion_1_barenblatt_oracle():
    with criterion(1, "Barenblatt oracle, L1 < 2% and order >= 1.8"):
        start = time.monotonic()
        e2000 = _barenblatt_error(2000)
        e4000 = _barenblatt_error(4000)
        elapsed = time.monotonic() - start
        assert e2000 < 0.02
        assert e2000 / e4000 >= 1.8
        assert elapsed < 60.0


# -- 2: supersolution certificates ------------------------------------------------------


SUPER_MODELS = [
    geometry.euclidean(3),
    geometry.hyperbolic(2),
    geometry.quad_critical(0.5, 3),
    geometry.quad_critical(1.0, 2),
    geometry.log_critical(1.0, 2),
]


def test_criterion_2_supersolution_certificates():
    with criterion(2, "supersolution certificate on every built-in"):
        grid = geometry.probe_grid(1e3, 10**4)
        for M in SUPER_MODELS:
            start = time.monotonic()
            consts = geometry.fit_comparison_constants(M)
            a = barriers.supersolution_amplitude(consts.c_prime, 2.0)
            p = barriers.BarrierParams(amplitude=a, r=2.0, horizon=1.0, m=2.0)
            rep = barriers.certify_supersolution(p, M, consts, grid)
            elapsed = time.monotonic() - start
            assert rep.passed, f"{M.kind}: residual {rep.min_residual} at {rep.argmin_rho}"
            assert rep.min_residual >= -1e-10
            assert rep.nodes == 10**4
            assert elapsed < 5.0, f"{M.kind}: took {elapsed:.1f}s"


# -- 3: subsolution certificate ----------------------------------------------------------


def test_criterion_3_subsolution_certificate(quad_manifold, quad_constants):
    with criterion(3, "subsolution certificate on the quad-critical model"):
        m = 2.0
        p = barriers.subsolution_params(quad_constants, m)
        # amplitude condition holds exactly by construction
        assert p.amplitude == (p.r**2 / (quad_constants.c_double_prime * m)) ** (1.0 / (m - 1.0))
        grid = geometry.probe_grid(1e3, 10**4)
        rep = barriers.certify_subsolution(p, quad_manifold, grid)
        assert rep.passed
        assert rep.min_residual >= -1e-10


# -- 4: barrier sandwich along a run -----------------------------------------------------


def test_criterion_4_barrier_sandwich(quad_manifold, quad_constants):
    with criterion(4, "barrier sandwich and norm growth bound"):
        start = time.monotonic()
        m, b, R, cells = 2.0, 1.0, 50.0, 1000
        g = RadialGrid.uniform(quad_manifold, R, cells)
        datum = xlog.log_growth_datum(b, m, np.geomspace(1e-3, 1e6, 5000))
        norm0 = xlog.log_norm(datum, xlog.LogNorm(2.0, m))
        T = solver.existence_time(datum, quad_constants, m, r=2.0).time
        cfg = solver.SolverConfig(
            m=m,
            dt=solver.DtPolicy(dt0=1e-4, growth=1.25, dt_max=5e-4),
            t_end=0.5 * T,
        )
        traj = solver.solve_ball(xlog.log_growth_profile(b, m), cfg, g, barrier_horizon=T)
        scale = max(float(np.max(np.abs(f))) for f in traj.fields)
        tol = solver.tau_h(g.h, scale)
        # zero violating cells: worst excess over the envelope below tau_h
        excess = solver.barrier_excess(traj, norm0, T, 2.0, m)
        assert excess <= tol
        for t, ln in zip(traj.times, traj.lognorms):
            bound = (1.0 - t / T) ** (-1.0 / (m - 1.0)) * norm0
            assert ln <= bound * (1.0 + 1e-3)
        assert time.monotonic() - start < 120.0


# -- 5: exhaustion monotonicity -----------------------------------------------------------


def test_criterion_5_exhaustion_monotonicity():
    with criterion(5, "exhaustion monotone in R with Cauchy increments"):
        M = geometry.quad_critical(0.02, 3)
        cfg = solver.SolverConfig(
            m=2.0,
            dt=solver.DtPolicy(dt0=2e-3, growth=1.3, dt_max=2e-2),
            t_end=2.0,
        )
        rep = solver.exhaust(lambda r: np.ones_like(r), cfg, M, (25.0, 50.0, 100.0), 50)
        assert rep.monotonicity_gap <= rep.tau_h
        assert rep.inner_increments[1] <= rep.inner_increments[0] / 2.0


# -- 6: blow-up ledger ----------------------------------------------------------------------


def _blowup_ledger(b, quad_manifold, quad_constants):
    cfg = blowup.BlowupConfig(m=2.0, steps_per_stage=30)
    datum = xlog.log_growth_datum(b, 2.0, np.geomspace(1e-3, 1e6, 4000))
    prof = xlog.log_growth_profile(b, 2.0)
    grid = RadialGrid.uniform(quad_manifold, 25.0, 250)
    return blowup.run_blowup(datum, prof, grid, quad_constants, cfg)


def test_criterion_6_blowup_ledger(quad_manifold, quad_constants):
    with criterion(6, "blow-up ledger invariants and amplitude scaling"):
        led = _blowup_ledger(1.0, quad_manifold, quad_constants)
        assert led.status == "blown-up"
        # stage inequalities on recorded values (the budget term T1/2^n
        # drops below one ulp of T at late stages, so "exact" means exact
        # up to float rounding of the recorded numbers)
        for s in led.stages:
            assert s.S_n < s.T_n
        for prev, cur in zip(led.stages, led.stages[1:]):
            bound = prev.T_n - prev.S_n + led.T1 / 2.0 ** (cur.n - 1)
            assert cur.T_n <= bound * (1.0 + 1e-14)
        assert led.tau <= 2.0 * led.T1 + 1e-6
        # norm series: strict growth past the hand-off transient
        lns = [s.lognorm for s in led.stages]
        assert led.growth_onset <= 30
        assert all(a < b for a, b in zip(lns[led.growth_onset :], lns[led.growth_onset + 1 :]))
        assert lns[-1] >= 1e3 * led.initial_lognorm
        # amplitude scaling of the total duration
        led2 = _blowup_ledger(2.0, quad_manifold, quad_constants)
        assert led2.status == "blown-up"
        ratio = led2.tau / led.tau
        assert abs(ratio - 2.0 ** (1 - 2.0)) <= 0.1 * 2.0 ** (1 - 2.0)


# -- 7: uniqueness certificates ---------------------------------------------------------------


def test_criterion_7_uniqueness_certificates(quad_manifold):
    with criterion(7, "uniqueness-side decay certificates"):
        k = barriers.select_K(1.0, 2.0)
        p = barriers.EtaBarrierParams(k, 1.0, 1.0, 2.0, 1.0)
        rep = barriers.certify_eta(p, dim=2, n_rho=100, n_t=100)
        assert rep.passed and rep.nodes == 10**4

        c_m = 1.0
        critical = k / (2.0 * c_m)
        assert barriers.decay_product(c_m, k, 0.45 * critical, 2.0, 100.0) < 1e-30
        assert barriers.decay_product(c_m, k, 2.0 * critical, 2.0, 100.0) > 1e10

        # grid-refinement uniqueness proxy: halving h shrinks the change at
        # matched interior points by >= 1.8x.  Matched points exclude the
        # outer 20% of the ball where the incompatible corner between the
        # datum and the zero boundary value limits local regularity.
        m = 2.0
        diffs = []
        prev = None
        for cells in (100, 200, 400):
            g = RadialGrid.uniform(quad_manifold, 10.0, cells)
            u0 = xlog.log_growth_profile(1.0, m)(g.centers)
            cfg = solver.SolverConfig(
                m=m,
                dt=solver.DtPolicy(dt0=0.5 * g.h * 1e-2, growth=1.0),
                t_end=0.02,
                snapshot_stride=10**9,
            )
            u = solver.solve_ball(u0, cfg, g).final
            if prev is not None:
                coarse = 0.5 * (u[0::2] + u[1::2])  # conservative restriction
                inner = int(0.8 * coarse.size)
                diffs.append(float(np.max(np.abs(coarse[:inner] - prev[:inner]))))
            prev = u
        assert diffs[0] / diffs[1] >= 1.8


# -- 8: discrete comparison principle -----------------------------------------------------------


def test_criterion_8_discrete_comparison():
    with criterion(8, "discrete comparison principle, 50 pairs per model"):
        models = [
            geometry.euclidean(3),
            geometry.hyperbolic(2),
            geometry.quad_critical(0.5, 3),
            geometry.log_critical(1.0, 2),
        ]
        J = 60
        for M in models:
            rng = np.random.default_rng(int(np.frombuffer(M.kind.encode().ljust(8, b"_")[:8], dtype=np.uint64)[0] % 2**31))
            g = RadialGrid.uniform(M, 8.0, J)
            worst = -math.inf
            cfg = solver.SolverConfig(
                m=2.0, dt=solver.DtPolicy(dt0=2e-3, growth=1.2, dt_max=1e-2), t_end=0.08
            )
            for _ in range(50):
                lo = rng.uniform(-1.5, 1.5, J)
                hi = lo + rng.uniform(0.0, 1.0, J)
                ta = solver.solve_ball(lo, cfg, g)
                tb = solver.solve_ball(hi, cfg, g)
                for a, b in zip(ta.fields, tb.fields):
                    worst = max(worst, float(np.max(a - b)))
            assert worst <= 1e-12, f"{M.kind}: order violation {worst:.2e}"


def test_zzz_acceptance_summary():
    print()
    for num, title, ok in sorted(RESULTS):
        print(f"  criterion {num}: {'PASS' if ok else 'FAIL'}  ({title})")
    assert all(ok for _, _, ok in RESULTS)
