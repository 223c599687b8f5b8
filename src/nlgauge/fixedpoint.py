"""Anderson-accelerated fixed-point driver for the self-consistent loops.

The configuration-space stationary SCF, the radial SCF, the outer loop of
the radial shooting oracle and the 1D line SCF all solve x = G(x) for a
potential vector x, where G solves the eigenproblem in the potential x and
returns the potential its density sources, together with the eigenvalue. `fixed_point` runs that iteration
with type-II Anderson mixing (Anderson 1965, J. ACM 12, 547; Walker & Ni
2011, SIAM J. Numer. Anal. 49, 1715): the next input combines the last
`m` differences of inputs and residuals, weighted by a least-squares fit
that minimizes the extrapolated residual. With m = 0 it is plain linear
mixing, x <- (1 - beta) x + beta G(x).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ConvergenceError


def fixed_point(G, x0, *, m: int = 5, beta: float, tol: float,
                res_tol: float | None = None, max_iter: int = 200,
                name: str = "fixed-point iteration"):
    """Solve x = G(x), where `G(x)` returns `(g, energy)`.

    Stops at the first evaluated x whose energy changed by less than `tol`
    since the previous evaluation and whose residual ||G(x) - x||_inf is at
    most `res_tol` (default sqrt(tol)); the energy alone can stall while x
    still moves; an x whose residual is exactly 0 stops at once, as G would
    only repeat it. `beta` is the mixing weight of the new residual.

    Returns (x, iterations, trace): the converged input, the number of
    evaluations of G, and one (iteration, energy, residual) tuple per
    evaluation. Raises ConvergenceError carrying the trace after
    `max_iter` evaluations, and ValueError, before any evaluation, unless
    0 < beta <= 1, tol > 0 and max_iter >= 1.
    """
    # written so that a NaN fails each check
    if not 0 < beta <= 1:
        raise ValueError(f"mixing weight beta must be in (0, 1], got {beta}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if res_tol is None:
        res_tol = float(np.sqrt(tol))
    x = np.array(x0, dtype=float)
    dx: deque = deque(maxlen=m)
    df: deque = deque(maxlen=m)
    x_prev = f_prev = None
    trace = []
    for it in range(1, max_iter + 1):
        g, energy = G(x)
        f = g - x
        res = float(np.abs(f).max())
        trace.append((it, float(energy), res))
        if res == 0 or it > 1 and abs(energy - trace[-2][1]) < tol and res <= res_tol:
            return x, it, trace
        step = beta * f
        if m > 0 and f_prev is not None:
            dx.append(x - x_prev)
            df.append(f - f_prev)
            d_f = np.column_stack(df)
            gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
            step -= (np.column_stack(dx) + beta * d_f) @ gamma
        x_prev, f_prev = x, f
        x = x + step
    raise ConvergenceError(f"{name} did not converge in {max_iter} iterations",
                           residual=res, trace=trace)
