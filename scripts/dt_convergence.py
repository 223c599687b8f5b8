#!/usr/bin/env python3
"""Table of final Gauss and continuity residuals against the time step,
demonstrating clean second-order convergence of the evolver."""

import argparse

import numpy as np

from nlgauge.dynamics import evolve_temporal_gauge
from nlgauge.gaugeops import initialize_constraint
from nlgauge.grids import TensorGrid
from nlgauge.model import HamiltonianSpec, ModelParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--l", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=201)
    ap.add_argument("--time", type=float, default=0.8)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--dt0", type=float, default=0.02)
    args = ap.parse_args()

    grid = TensorGrid.cube(-8.0, 8.0, args.count, 1)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams(l=args.l)
    x = grid.axes[0].nodes
    psi = np.exp(-0.5 * (x - 1.0) ** 2) + 0j
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    g0 = initialize_constraint(grid, psi, params)

    print(f"{'dt':>10s} {'gauss':>12s} {'ratio':>7s} "
          f"{'continuity':>12s} {'ratio':>7s} {'norm drift':>12s}")
    prev = None
    dt = args.dt0
    for _ in range(args.levels):
        traj = evolve_temporal_gauge(psi, g0, spec, params, dt=dt,
                                     steps=int(round(args.time / dt)))
        d = traj.diagnostics
        gauss = d["gauss_residual"][-1]
        cont = d["continuity_residual"][-1]
        drift = np.abs(d["norm"] - 1.0).max()
        if prev is None:
            print(f"{dt:10.5f} {gauss:12.4e} {'-':>7s} {cont:12.4e} "
                  f"{'-':>7s} {drift:12.2e}")
        else:
            print(f"{dt:10.5f} {gauss:12.4e} {prev[0] / gauss:7.3f} "
                  f"{cont:12.4e} {prev[1] / cont:7.3f} {drift:12.2e}")
        prev = (gauss, cont)
        dt /= 2.0


if __name__ == "__main__":
    main()
