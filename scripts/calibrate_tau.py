#!/usr/bin/env python3
"""Convergence table against the Barenblatt pair, and the discretization
coefficient it calibrates.

The solver's tau_h tolerance is TAU_H_SAFETY * TAU_H_COEFF * h * scale with
TAU_H_COEFF frozen in pme.solver.  This script reruns the calibration: the
Euclidean (N=2, m=2) source solution from t=1 to t=2 at dt = h/2, for
J = 250 ... 4000 cells.  Per J it prints the L1 error relative to the exact
profile, the observed order log2(e_{J/2}/e_J), and the max-norm error
divided by h * max|u|, whose worst value must stay below TAU_H_COEFF.

    python scripts/calibrate_tau.py
"""

import math

import numpy as np

from pme import geometry, solver
from pme.grid import RadialGrid


def run(cells, radius=6.0, mass_const=0.25):
    """(L1 relative error, Linf error, h, max exact) of one Barenblatt run."""
    M = geometry.euclidean(2)
    g = RadialGrid.uniform(M, radius, cells)
    u0 = solver.barenblatt(g.centers, 1.0, 2, 2.0, mass_const)
    cfg = solver.SolverConfig(
        m=2.0,
        dt=solver.DtPolicy(dt0=0.5 * g.h, growth=1.0),
        t_end=1.0,
        snapshot_stride=10**9,
    )
    traj = solver.solve_ball(u0, cfg, g)
    exact = solver.barenblatt(g.centers, 2.0, 2, 2.0, mass_const)
    diff = np.abs(traj.final - exact)
    l1 = np.dot(g.weights_scaled, diff) / np.dot(g.weights_scaled, exact)
    return float(l1), float(np.max(diff)), g.h, float(np.max(exact))


def main():
    print(f"{'J':>6} {'h':>10} {'L1 rel err':>12} {'order':>6} {'Linf/(h*umax)':>14}")
    worst = 0.0
    prev = None
    for cells in (250, 500, 1000, 2000, 4000):
        l1, linf, h, umax = run(cells)
        coeff = linf / (h * umax)
        worst = max(worst, coeff)
        order = f"{math.log2(prev / l1):.2f}" if prev else "-"
        print(f"{cells:>6} {h:>10.4g} {l1:>12.4e} {order:>6} {coeff:>14.3f}")
        prev = l1
    print(f"\nworst observed coefficient: {worst:.3f}")
    print(f"frozen TAU_H_COEFF:         {solver.TAU_H_COEFF:.3f}")
    print(f"safety factor:              {solver.TAU_H_SAFETY:.1f}")
    if worst > solver.TAU_H_COEFF:
        print("WARNING: observed coefficient exceeds the frozen value")


if __name__ == "__main__":
    main()
