"""Independent references the tests check the package against. Nothing in
`nlgauge` calls them."""

import numpy as np

from nlgauge.grids import TensorGrid
from nlgauge.model import ModelParams, nonlinearity


def _axis_second_diff(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 along one axis, with the mirror
    ghost f[-1] = f[1] on either side: it keeps the operator symmetric
    under trapezoid weights and its nullspace equal to the constants."""
    out = np.empty_like(values)
    inner = [slice(None)] * values.ndim

    def sl(s):
        idx = list(inner)
        idx[axis] = s
        return tuple(idx)

    out[sl(slice(1, -1))] = (
        values[sl(slice(2, None))] - 2.0 * values[sl(slice(1, -1))]
        + values[sl(slice(0, -2))]
    )
    out[sl(0)] = 2.0 * (values[sl(1)] - values[sl(0)])
    out[sl(-1)] = 2.0 * (values[sl(-2)] - values[sl(-1)])
    out /= spacing ** 2
    return out


def laplacian_apply(grid: TensorGrid, values: np.ndarray) -> np.ndarray:
    """The Neumann (mirror-ghost) configuration-space Laplacian
    sum_x d^2/dphi_x^2, whose nullspace is exactly the constants.

    The reference for the Poisson solve, for link_divergence(link_diff(.))
    and for the Gauss law.
    """
    values = np.asarray(values)
    grid.check_field(values)
    out = np.zeros_like(values, dtype=np.result_type(values, float))
    for axis in range(grid.ndim):
        out += _axis_second_diff(values, axis, grid.spacings[axis])
    return out


def total_charge(grid: TensorGrid, rho: np.ndarray, params: ModelParams) -> float:
    """Q = (1/l^2) * integral of rho*N(rho); vanishes for normalized rho.
    The bitwise reference for the evolver's `charge` diagnostic."""
    src = nonlinearity(rho, grid)
    return params.inv_l2 * float(np.real(grid.integrate(src)))
