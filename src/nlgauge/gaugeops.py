"""Gauge transformations, the lattice Hamiltonian, and the Gauss-law
solves.

The connection lives on amplitude links (midpoints between adjacent grid
nodes). The kinetic term uses exponential link phases, which makes gauge
covariance and the discrete continuity identity exact on the lattice:
transforming psi by exp(i Lambda) and shifting each link by the Lambda
difference across it commutes with the Hamiltonian exactly, and the
current divergence below telescopes exactly against d(rho)/dt.

Sign conventions. The covariant derivatives are D_t = d_t - i*A_t and
D_phi = d/dphi - i*A_phi, and the gauge sector is oriented so that the
induced potential is attractive where the density exceeds the uniform
background (stationary equation omega*psi = H psi - A_t psi with
sum_x d^2 A_t/dphi_x^2 = -(1/l^2)(rho - 1/Omega)).  This is the
orientation under which the one-site limit reproduces self-gravitating
wave mechanics; see the decisions ledger for the full derivation.
Consistent with it:

    field equation   d_t F(.,x) = -(1/(l^2 a^3)) * J_x
    Gauss law        div F = +(1/l^2)(rho - 1/Omega)
    continuity       d_t(rho) + (1/a^3) div J = 0

with J the link current Im(psi* U psi_+)/h.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np

from .errors import UnsolvableConstraintError
from .grids import TensorGrid
from .model import GaugeState, ModelParams, _real, nonlinearity
from .numerics import poisson_solve

# largest |integral(rho) - 1| the Gauss solves accept as a unit charge
_COMPAT_TOL = 1e-8


@cache
def _sl(ndim: int, axis: int) -> tuple[tuple, ...]:
    """Index tuples (lo, hi, first, last, inner) along `axis` of an
    `ndim`-axis grid field: nodes 0..n-2, 1..n-1, 0, n-1 and 1..n-2.

    They index from the right, so leading axes of a stack of fields pass
    through. Cached on the two ints (a slice is unhashable on Python 3.11).
    """
    tail = (slice(None),) * (ndim - 1 - axis)
    return tuple((Ellipsis, s) + tail
                 for s in (slice(0, -1), slice(1, None), 0, -1, slice(1, -1)))


def link_diff(grid: TensorGrid, node_field: np.ndarray, axis: int) -> np.ndarray:
    """(f[i+1] - f[i]) / h on the links of `axis` (centered at midpoints)."""
    h = grid.spacings[axis]
    lo, hi = _sl(grid.ndim, axis)[:2]
    return (node_field[hi] - node_field[lo]) / h


def link_divergence(grid: TensorGrid, link_fields: list[np.ndarray]) -> np.ndarray:
    """Adjoint-consistent divergence of a link field family.

    Defined as minus the adjoint of link_diff under the trapezoid node
    measure, so that link_divergence(link_diff(chi)) equals the compact
    Neumann Laplacian exactly. Ghost links outside the cutoff are zero.
    Leading axes of the link fields are a stack of families, and the
    result has them too.
    """
    nd = grid.ndim
    out = None
    for axis, h in enumerate(grid.spacings):
        u = link_fields[axis]
        lo, hi, first, last, inner = _sl(nd, axis)
        d = np.empty(u.shape[:u.ndim - nd] + grid.shape)
        d[first] = u[first]
        np.subtract(u[hi], u[lo], out=d[inner])
        d[last] = -u[last]
        d /= h
        # trapezoid half-weights on the faces double the boundary rows
        d[first] *= 2.0
        d[last] *= 2.0
        if out is None:
            out = d
        else:
            out += d
    return out


def link_phases(grid: TensorGrid, a_phi: list[np.ndarray]) -> list[np.ndarray]:
    """U = exp(-i h a) per link; the parallel transporters.

    cos(-h a) and sin(-h a) are written into the real and imaginary parts
    of one complex array, which skips the complex exponential of a purely
    imaginary argument; the result agrees with `np.exp(-1j * h * a)` to
    roundoff (bitwise with numpy 2.4 on x86-64).
    """
    out = []
    for h, a in zip(grid.spacings, a_phi):
        theta = -h * a
        u = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=u.real)
        np.sin(theta, out=u.imag)
        out.append(u)
    return out


def project_dirichlet(grid: TensorGrid, values: np.ndarray) -> np.ndarray:
    return np.where(grid.boundary_mask(), values, 0.0)


def hamiltonian(grid: TensorGrid, phases: list[np.ndarray] | None,
                diag: np.ndarray, a_lat: float):
    """Prepared H for fixed links and diagonal: returns `apply(values)`.

    H = sum_x -(1/(2 a^3 h_x^2)) [U psi_+ - 2 psi + U* psi_-] + diag * psi

    The per-axis coefficients and index tuples, the folded diagonal
    diag + sum_x 1/(a^3 h_x^2) and each conj(U) are built here, once;
    each apply then scales psi by the folded diagonal and subtracts the
    two off-diagonals of every axis as coef * (U * psi).

    A neighbour outside the block counts as zero, so the form acts on any
    block whose shape `diag` has: on the whole grid it is H on states
    vanishing on the faces, and with `diag`, the phases and `values`
    restricted to the interior nodes it is that H on the interior
    unknowns, bitwise equal to the whole-grid apply restricted there.
    Leading axes of `values` and the phases are a stack of states, each
    applied on its own.
    """
    nd = grid.ndim
    coefs = [1.0 / (2.0 * a_lat ** 3 * h * h) for h in grid.spacings]
    folded = diag + 2.0 * sum(coefs)
    slices = [_sl(nd, x)[:2] for x in range(nd)]
    conj = None if phases is None else [np.conj(u) for u in phases]

    def apply(values: np.ndarray) -> np.ndarray:
        out = folded * values
        for x, (coef, (lo, hi)) in enumerate(zip(coefs, slices)):
            if phases is None:
                up = values[hi]
                down = values[lo]
            else:
                up = phases[x] * values[hi]
                down = conj[x] * values[lo]
            out[lo] -= coef * up
            out[hi] -= coef * down
        return out

    return apply


def apply_hamiltonian_raw(grid: TensorGrid, values: np.ndarray,
                          phases: list[np.ndarray] | None,
                          diag: np.ndarray, a_lat: float) -> np.ndarray:
    """H psi for psi already in the Dirichlet subspace: one apply of the
    prepared form `hamiltonian(grid, phases, diag, a_lat)`, which holds
    the stencil. Leading axes of `values` and the phases are a stack."""
    return hamiltonian(grid, phases, diag, a_lat)(values)


def gauge_transform(psi: np.ndarray, gauge: GaugeState, lam: np.ndarray,
                    lam_dot: np.ndarray) -> tuple[np.ndarray, GaugeState]:
    """(exp(i Lambda) psi, gauge'), with A_t -> A_t + dLambda/dt and each
    link of A_phi shifted by the midpoint-centered difference of Lambda
    across it, for Lambda = `lam` and dLambda/dt = `lam_dot` cast to float
    (a complex one raises ValueError naming it). The field strength is
    untouched (it is gauge invariant). psi, lam and lam_dot are node
    arrays on `gauge.grid`; a wrong shape raises GridShapeError."""
    grid = gauge.grid
    lam, lam_dot = _real("lam", lam), _real("lam_dot", lam_dot)
    for field in (np.asarray(psi), lam, lam_dot):
        grid.check_field(field)
    a_phi2 = [gauge.a_phi[x] + link_diff(grid, lam, x) for x in range(grid.ndim)]
    gauge2 = GaugeState(grid, gauge.a_t + lam_dot, a_phi2,
                        [f.copy() for f in gauge.f])
    return np.exp(1j * lam) * psi, gauge2


def link_current(grid: TensorGrid, values: np.ndarray,
                 phases: list[np.ndarray], axis: int) -> np.ndarray:
    """J_x = Im(psi_i* U psi_{i+1}) / h on links; exactly gauge invariant,
    and its adjoint divergence telescopes exactly against d(rho)/dt.
    Leading axes of `values` and the phases are a stack of states."""
    lo, hi = (values[s] for s in _sl(grid.ndim, axis)[:2])
    # conj(lo) * U * hi in that order, the second product in place
    prod = np.conj(lo) * phases[axis]
    prod *= hi
    return np.imag(prod) / grid.spacings[axis]


def gauss_solve_stationary(grid: TensorGrid, rho: np.ndarray,
                           params: ModelParams) -> np.ndarray:
    """Solve for the stationary multiplier potential A_t from the density.

    sum_x d^2 A_t / dphi_x^2 = -(1/l^2) (rho - 1/Omega), zero mean, by the
    exact cosine-transform Poisson solve; at l = inf it solves the zero
    source, to A_t = 0.

    The source integrates to zero only for a normalized density; anything
    else, NaN included, violates the vanishing-total-charge constraint
    and raises.
    """
    norm = float(np.real(grid.integrate(rho)))
    if not abs(norm - 1.0) <= _COMPAT_TOL:  # written so that a NaN fails
        raise UnsolvableConstraintError(
            f"density integrates to {norm:.6g}, not 1; total charge would not vanish")
    source = -params.inv_l2 * nonlinearity(rho, grid)
    return poisson_solve(grid, source, compat_tol=params.inv_l2 * _COMPAT_TOL + 1e-300)


def initialize_constraint(grid: TensorGrid, psi0: np.ndarray,
                          params: ModelParams) -> GaugeState:
    """Gauss-consistent temporal-gauge initial data for psi0 on `grid`:
    A_t = 0, A_phi = 0 and the field strength in gradient form,
    F(.,x) = -dA_s/dphi_x on links, with A_s the stationary Gauss solve for
    |psi0|^2; the adjoint divergence of F then satisfies the Gauss law to
    roundoff. The density must integrate to 1, and a psi0 of the wrong
    shape raises GridShapeError.
    """
    a_s = gauss_solve_stationary(grid, np.abs(psi0) ** 2, params)
    return replace(GaugeState.zero(grid),
                   f=[-link_diff(grid, a_s, x) for x in range(grid.ndim)])


def gauss_residual(grid: TensorGrid, f_links: list[np.ndarray],
                   rho: np.ndarray, params: ModelParams) -> float | np.ndarray:
    """Grid norm of div F - (1/l^2)(rho - 1/Omega).

    Leading axes of rho and the link fields are a stack of states; the
    result is then one residual per state.
    """
    g = link_divergence(grid, f_links) - params.inv_l2 * nonlinearity(rho, grid)
    return _grid_norms(grid, g)


def _grid_norms(grid: TensorGrid, values: np.ndarray) -> float | np.ndarray:
    """`grid.norm` of a real field, or of each field of a stack of them
    (leading axes). Both are one weighted sum over the trailing grid axes,
    so each norm of a stack is bitwise the norm of its field alone."""
    lead = values.ndim - grid.ndim
    grid.check_field(values[(0,) * lead])
    axes = tuple(range(lead, values.ndim))
    norms = np.sqrt((grid.quad_weights() * values * values).sum(axis=axes))
    return norms if lead else float(norms)
