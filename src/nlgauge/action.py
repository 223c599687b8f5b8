"""The invariant action on trajectory segments, and scale transformations.

The action of a recorded segment is

    Gamma = sum_k dt { sum_phi W [ N(rho) Re(psi* i Dc_t psi) - Re(psi* H psi) ]
                       - (l^2/2) sum_x sum_links W_l F^2 }

summed over the interior time slices (the time derivative is a centered
difference, dressed with half-step phases of A_t so that the expression is
exactly gauge covariant on the time lattice; in temporal gauge it is the
plain centered difference).

Scale transformations: with s = c0^(a/2) and c1 = 1 fixed, amplitudes and
the grid shrink by 1/s, time stretches by s, and

    psi' = s^(D/2) psi,   A_t' = A_t / s,   A_phi' = s A_phi,
    a' = s a (lattice spacing),   l' = s^((D-1)/2) l,

with the Hamiltonian couplings held fixed. These exponents are the unique
lattice-consistent realization of the continuum rescaling family: under
them the action of any trajectory is exactly invariant term by term
whenever the potential is a pure quartic (its coupling is the one with no
intrinsic scale), and acquires a computable deviation for couplings that
carry a scale (a mass term breaks the symmetry).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import Snapshot, Trajectory, _field_energy
from .errors import InsufficientDataError
from .gaugeops import apply_hamiltonian_raw, link_phases
from .grids import TensorGrid, UniformGrid1D
from .model import HamiltonianSpec, ModelParams


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    mask = den > 0
    out[mask] = num[mask] / den[mask]
    return out


def action_evaluate(traj: Trajectory) -> float:
    """Discretized action of a uniformly sampled trajectory segment."""
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise InsufficientDataError(
            f"need at least 3 time slices, got {len(snaps)}")
    grid = traj.grid
    spec = traj.spec
    params = traj.params
    dt = snaps[1].time - snaps[0].time
    for i in range(len(snaps) - 1):
        if not np.isclose(snaps[i + 1].time - snaps[i].time, dt):
            raise InsufficientDataError("trajectory not uniformly sampled")

    w = grid.quad_weights()
    wl = [grid.link_weights(x) for x in range(grid.ndim)]
    diag = spec.site_potential_total(grid)
    inv_omega = 1.0 / params.omega
    total = 0.0
    for k in range(1, len(snaps) - 1):
        s0, s1, s2 = snaps[k - 1], snaps[k], snaps[k + 1]
        th_plus = 0.5 * dt * (s1.a_t + s2.a_t)
        th_minus = 0.5 * dt * (s1.a_t + s0.a_t)
        dct = (np.exp(-1j * th_plus) * s2.psi
               - np.exp(1j * th_minus) * s0.psi) / (2.0 * dt)
        rho = np.abs(s1.psi) ** 2
        sym = np.real(np.conj(s1.psi) * 1j * dct)
        t1 = sym - inv_omega * _safe_ratio(sym, rho)

        phases = link_phases(grid, s1.a_phi)
        hpsi = apply_hamiltonian_raw(grid, s1.psi, phases, diag,
                                     spec.lattice_spacing)
        t2 = np.real(np.conj(s1.psi) * hpsi)

        slice_val = float((w * (t1 - t2)).sum()) + _field_energy(params, wl, s1.f_bar)
        total += dt * slice_val
    return total


def scale_factor(c0: float, a: float) -> float:
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return c0 ** (a / 2.0)


def scale_grid(grid: TensorGrid, s: float) -> TensorGrid:
    axes = tuple(UniformGrid1D(ax.lower / s, ax.upper / s, ax.count)
                 for ax in grid.axes)
    return TensorGrid(axes)


def _scaled_model(grid: TensorGrid, spec: HamiltonianSpec, params: ModelParams,
                  c0: float, a: float):
    """(s, grid', spec', params') of the scale family at (c0, a)."""
    s = scale_factor(c0, a)
    grid2 = scale_grid(grid, s)
    spec2 = replace(spec, lattice_spacing=spec.lattice_spacing * s)
    params2 = ModelParams(l=params.l * s ** ((grid.ndim - 1) / 2.0),
                          omega=grid2.volume)
    return s, grid2, spec2, params2


def scale_transform(traj: Trajectory, c0: float, a: float) -> Trajectory:
    """Image of a trajectory (with its spec and params) under the scale
    family; action_evaluate of the result equals that of the input exactly
    for scale-free Hamiltonians."""
    s, grid2, spec2, params2 = _scaled_model(traj.grid, traj.spec, traj.params,
                                             c0, a)
    psi_fac = s ** (traj.grid.ndim / 2.0)
    snaps2 = []
    for sn in traj.snapshots:
        snaps2.append(Snapshot(
            time=sn.time * s,
            psi=psi_fac * sn.psi,
            a_phi=[s * ax for ax in sn.a_phi],
            f_bar=[fx.copy() for fx in sn.f_bar],
            a_t=sn.a_t / s))
    return Trajectory(grid2, spec2, params2, traj.dt * s, snaps2,
                      dict(traj.diagnostics))


def scale_transform_state(grid: TensorGrid, psi: np.ndarray, a_t: np.ndarray,
                          spec: HamiltonianSpec, params: ModelParams,
                          c0: float, a: float):
    """State-level scale image: (grid', psi', a_t', spec', params').

    Frequencies transform as omega' = omega / s (time stretches by s)."""
    s, grid2, spec2, params2 = _scaled_model(grid, spec, params, c0, a)
    return grid2, s ** (grid.ndim / 2.0) * psi, a_t / s, spec2, params2
