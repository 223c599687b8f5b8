"""Independent references the tests check the package against. Nothing in
`nlgauge` calls them."""

import numpy as np

from nlgauge.grids import TensorGrid, UniformGrid1D
from nlgauge.model import ModelParams, nonlinearity
from nlgauge.sn import SNParams, poisson_1d_neumann, solve_phi_grav


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


def gravity_pairing(grid: UniformGrid1D, rho: np.ndarray,
                    params: SNParams) -> np.longdouble:
    """<phi_grav, w rho> of the line Poisson problem in extended precision,
    by a route apart from the line evolver's summation by parts.

    phi_grav is `sn.solve_phi_grav`'s float64 solution refined once: the
    residual of the Neumann stencil (mirror ghosts, the source mean
    projected out) is formed in np.longdouble, its correction solved by
    the same float64 solve, and the sum, re-centred to zero mean, paired
    with w rho in np.longdouble. The float64 pairing alone carries about
    1e-13 relative roundoff, the size of the bounds it is checked at.
    """
    ld = np.longdouble
    w = grid.quad_weights().astype(ld)
    vol = w.sum()
    source = -ld(params.coupling) * (rho.astype(ld) - ld(params.background))
    source -= (w * source).sum() / vol
    phi = solve_phi_grav(grid, rho, params).astype(ld)
    resid = source - _axis_second_diff(phi, 0, ld(grid.spacing))
    phi += poisson_1d_neumann(grid, resid.astype(float))
    phi -= (w * phi).sum() / vol
    return (w * rho.astype(ld) * phi).sum()
