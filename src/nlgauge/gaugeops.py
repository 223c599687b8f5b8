"""Gauge transformations, covariant derivatives, the lattice Hamiltonian,
and the Gauss-law solves.

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

import numpy as np

from .errors import UnsolvableConstraintError
from .grids import TensorGrid
from .model import (GaugeState, GaugeTransform, HamiltonianSpec, ModelParams,
                    WaveFunctional, check_omega_matches, nonlinearity)
from .numerics import poisson_solve

# largest |integral(rho) - 1| the Gauss solves accept as a unit charge
_COMPAT_TOL = 1e-8


def _sl(ndim: int, axis: int, s) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def link_diff(grid: TensorGrid, node_field: np.ndarray, axis: int) -> np.ndarray:
    """(f[i+1] - f[i]) / h on the links of `axis` (centered at midpoints)."""
    h = grid.spacings[axis]
    a = _sl(grid.ndim, axis, slice(1, None))
    b = _sl(grid.ndim, axis, slice(0, -1))
    return (node_field[a] - node_field[b]) / h


def link_divergence(grid: TensorGrid, link_fields: list[np.ndarray]) -> np.ndarray:
    """Adjoint-consistent divergence of a link field family.

    Defined as minus the adjoint of link_diff under the trapezoid node
    measure, so that link_divergence(link_diff(chi)) equals the compact
    Neumann Laplacian exactly. Ghost links outside the cutoff are zero.
    """
    nd = grid.ndim
    out = None
    for axis, h in enumerate(grid.spacings):
        u = link_fields[axis]
        first, last = _sl(nd, axis, 0), _sl(nd, axis, -1)
        d = np.empty(grid.shape)
        d[first] = u[first]
        np.subtract(u[_sl(nd, axis, slice(1, None))],
                    u[_sl(nd, axis, slice(0, -1))],
                    out=d[_sl(nd, axis, slice(1, -1))])
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
    """U = exp(-i h a) per link; the parallel transporters."""
    return [np.exp(-1j * grid.spacings[x] * a_phi[x]) for x in range(grid.ndim)]


def project_dirichlet(grid: TensorGrid, values: np.ndarray) -> np.ndarray:
    return np.where(grid.boundary_mask(), values, 0.0)


def apply_hamiltonian_raw(grid: TensorGrid, values: np.ndarray,
                          phases: list[np.ndarray] | None,
                          diag: np.ndarray, a_lat: float) -> np.ndarray:
    """H psi for psi already in the Dirichlet subspace.

    H = sum_x -(1/(2 a^3 h_x^2)) [U psi_+ - 2 psi + U* psi_-] + diag * psi

    The kinetic diagonal sum_x 1/(a^3 h_x^2) is added to `diag` before
    psi is scaled, once; each axis then adds only its two off-diagonals.
    """
    nd = grid.ndim
    coefs = [1.0 / (2.0 * a_lat ** 3 * h * h) for h in grid.spacings]
    out = (diag + 2.0 * sum(coefs)) * values
    for x in range(nd):
        coef = coefs[x]
        lo = _sl(nd, x, slice(0, -1))
        hi = _sl(nd, x, slice(1, None))
        if phases is None:
            up = values[hi]
            down = values[lo]
        else:
            up = phases[x] * values[hi]
            down = np.conj(phases[x]) * values[lo]
        out[lo] -= coef * up
        out[hi] -= coef * down
    return out


def hamiltonian_apply(psi: WaveFunctional, gauge: GaugeState,
                      spec: HamiltonianSpec) -> np.ndarray:
    """Minimal-coupling Hamiltonian applied to the wave functional.

    At lattice_spacing 1 and vanishing connection this is
    sum_x { -1/2 d^2/dphi_x^2 + V(phi_x) } psi plus the nearest-neighbour
    gradient term for D > 1.
    """
    grid = psi.grid
    if gauge.grid.shape != grid.shape:
        raise ValueError("gauge state lives on a different grid")
    values = project_dirichlet(grid, psi.values)
    diag = spec.site_potential_total(grid)
    phases = None
    if any(np.any(a) for a in gauge.a_phi):
        phases = link_phases(grid, gauge.a_phi)
    out = apply_hamiltonian_raw(grid, values, phases, diag, spec.lattice_spacing)
    return project_dirichlet(grid, out)


def covariant_phi_derivative(psi: WaveFunctional, gauge: GaugeState,
                             site: int) -> np.ndarray:
    """(d/dphi_site - i A_phi(.,site)) psi, centered differences.

    The connection is averaged from the two adjacent links onto nodes;
    ghost values are zero (the functional vanishes at the amplitude
    cutoff). Gauge covariant to O(spacing^2).
    """
    grid = psi.grid
    if not 0 <= site < grid.ndim:
        raise IndexError(f"site {site} out of range for {grid.ndim} axes")
    nd = grid.ndim
    h = grid.spacings[site]
    values = project_dirichlet(grid, psi.values)
    dpsi = np.zeros_like(values)
    dpsi[_sl(nd, site, slice(0, -1))] += values[_sl(nd, site, slice(1, None))]
    dpsi[_sl(nd, site, slice(1, None))] -= values[_sl(nd, site, slice(0, -1))]
    dpsi /= 2.0 * h

    a_link = gauge.a_phi[site]
    a_node = np.zeros(grid.shape)
    a_node[_sl(nd, site, slice(0, -1))] += 0.5 * a_link
    a_node[_sl(nd, site, slice(1, None))] += 0.5 * a_link
    # faces see a single link; undo the half weight there
    a_node[_sl(nd, site, 0)] *= 2.0
    a_node[_sl(nd, site, -1)] *= 2.0
    return dpsi - 1j * a_node * values


def gauge_transform(psi: WaveFunctional, gauge: GaugeState,
                    g: GaugeTransform) -> tuple[WaveFunctional, GaugeState]:
    """psi -> exp(i Lambda) psi, A_t -> A_t + dLambda/dt, and each link of
    A_phi shifted by the midpoint-centered difference of Lambda across it.
    The field strength is untouched (it is gauge invariant)."""
    grid = psi.grid
    grid.check_field(g.lam)
    grid.check_field(g.lam_dot)
    psi2 = WaveFunctional(grid, np.exp(1j * g.lam) * psi.values)
    a_phi2 = [gauge.a_phi[x] + link_diff(grid, g.lam, x) for x in range(grid.ndim)]
    gauge2 = GaugeState(grid, gauge.a_t + g.lam_dot, a_phi2,
                        [f.copy() for f in gauge.f])
    return psi2, gauge2


def link_current(grid: TensorGrid, values: np.ndarray,
                 phases: list[np.ndarray] | None, axis: int) -> np.ndarray:
    """J_x = Im(psi_i* U psi_{i+1}) / h on links; exactly gauge invariant,
    and its adjoint divergence telescopes exactly against d(rho)/dt."""
    h = grid.spacings[axis]
    nd = grid.ndim
    lo = values[_sl(nd, axis, slice(0, -1))]
    hi = values[_sl(nd, axis, slice(1, None))]
    if phases is None:
        prod = np.conj(lo) * hi
    else:
        prod = np.conj(lo) * phases[axis] * hi
    return np.imag(prod) / h


def gauss_solve_stationary(grid: TensorGrid, rho: np.ndarray,
                           params: ModelParams) -> np.ndarray:
    """Solve for the stationary multiplier potential A_t from the density.

    sum_x d^2 A_t / dphi_x^2 = -(1/l^2) (rho - 1/Omega), zero mean, by the
    exact cosine-transform Poisson solve.

    The source integrates to zero only for a normalized density; anything
    else violates the vanishing-total-charge constraint and raises.
    """
    check_omega_matches(grid, params)
    norm = float(np.real(grid.integrate(rho)))
    if abs(norm - 1.0) > _COMPAT_TOL:
        raise UnsolvableConstraintError(
            f"density integrates to {norm:.6g}, not 1; total charge would not vanish")
    if params.inv_l2 == 0.0:
        return np.zeros(grid.shape)
    source = -params.inv_l2 * nonlinearity(rho, params)
    return poisson_solve(grid, source, compat_tol=params.inv_l2 * _COMPAT_TOL + 1e-300)


def initialize_constraint(psi0: WaveFunctional,
                          params: ModelParams) -> list[np.ndarray]:
    """Gradient-form initial data for the field strength.

    Solves sum_x d^2 chi/dphi_x^2 = +(1/l^2)(rho - 1/Omega) (Neumann, zero
    mean) exactly by the cosine-transform Poisson solve and returns
    F(.,x) = dchi/dphi_x on links, so the adjoint divergence of F
    satisfies the Gauss law to roundoff.
    """
    grid = psi0.grid
    check_omega_matches(grid, params)
    rho = np.abs(psi0.values) ** 2
    norm = float(np.real(grid.integrate(rho)))
    if abs(norm - 1.0) > _COMPAT_TOL:
        raise UnsolvableConstraintError(
            f"initial density integrates to {norm:.6g}, not 1")
    if params.inv_l2 == 0.0:
        return GaugeState.zero(grid).f
    source = params.inv_l2 * nonlinearity(rho, params)
    chi = poisson_solve(grid, source, compat_tol=params.inv_l2 * _COMPAT_TOL + 1e-300)
    return [link_diff(grid, chi, x) for x in range(grid.ndim)]


def gauss_residual(grid: TensorGrid, f_links: list[np.ndarray],
                   rho: np.ndarray, params: ModelParams) -> float:
    """Grid norm of div F - (1/l^2)(rho - 1/Omega)."""
    g = link_divergence(grid, f_links) - params.inv_l2 * nonlinearity(rho, params)
    return grid.norm(g)
