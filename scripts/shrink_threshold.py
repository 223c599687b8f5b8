#!/usr/bin/env python3
"""Locate the coupling above which a wave packet shrinks instead of
spreading, by bisection on sigma(T) < sigma(0)."""

import argparse

import numpy as np

from nlgauge.grids import UniformGrid1D
from nlgauge.sn import SNParams, sn_evolve_1d


def sigma_series(coupling, axis, psi0, dt, steps):
    out = sn_evolve_1d(axis, psi0, SNParams(coupling=coupling), dt=dt, steps=steps)
    return out["series"]["sigma"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=float, default=30.0)
    ap.add_argument("--count", type=int, default=1201)
    ap.add_argument("--sigma0", type=float, default=1.0)
    ap.add_argument("--time", type=float, default=3.0)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--rounds", type=int, default=8)
    args = ap.parse_args()

    axis = UniformGrid1D(-args.half_width, args.half_width, args.count)
    x = axis.nodes
    w = axis.quad_weights()
    psi0 = np.exp(-x ** 2 / (4 * args.sigma0 ** 2)) + 0j
    psi0 /= np.sqrt((w * np.abs(psi0) ** 2).sum())
    steps = int(round(args.time / args.dt))

    free = sigma_series(0.0, axis, psi0, args.dt, steps)
    print(f"coupling 0: sigma {free[0]:.4f} -> {free[-1]:.4f} "
          f"(monotone spread: {bool(np.all(np.diff(free) > 0))})")

    lo, hi = 0.0, 1.0
    while sigma_series(hi, axis, psi0, args.dt, steps)[-1] >= free[0]:
        hi *= 2.0
        if hi > 64:
            raise SystemExit("no shrinking found up to coupling 64")
    print(f"shrinks at coupling {hi}")
    for _ in range(args.rounds):
        mid = 0.5 * (lo + hi)
        s = sigma_series(mid, axis, psi0, args.dt, steps)
        print(f"  coupling {mid:.4f}: sigma(T) = {s[-1]:.4f}")
        if s[-1] < free[0]:
            hi = mid
        else:
            lo = mid
    print(f"threshold coupling ~ {0.5 * (lo + hi):.4f} "
          f"(T = {args.time}, sigma0 = {args.sigma0})")


if __name__ == "__main__":
    main()
