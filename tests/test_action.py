import re

import numpy as np
import pytest

from nlgauge.action import (action_evaluate, scale_transform,
                            scale_transform_state)
from nlgauge.dynamics import Snapshot, Trajectory, evolve_temporal_gauge, \
    stationary_solve
from nlgauge.errors import InsufficientDataError
from nlgauge.gaugeops import initialize_constraint
from nlgauge.grids import TensorGrid
from nlgauge.model import GaugeState, HamiltonianSpec, ModelParams
from nlgauge.verify import transform_trajectory, _smooth_functional

QUARTIC = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.0, 0.0, 0.5))
HARMONIC = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.845))


def packet_traj(spec, l=1.0, steps=32, dt=0.004, count=241, half=7.0):
    grid = TensorGrid.cube(-half, half, count, 1)
    params = ModelParams(l=l)
    x = grid.axes[0].nodes
    psi = np.exp(-0.5 * (x - 1.0) ** 2) + 0j
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    g0 = initialize_constraint(grid, psi, params)
    return evolve_temporal_gauge(psi, g0, spec, params, dt=dt, steps=steps)


def test_zero_state_zero_action():
    grid = TensorGrid.cube(-3.0, 3.0, 41, 1)
    spec = HamiltonianSpec()
    params = ModelParams(l=1.0)
    z = np.zeros(grid.shape, dtype=complex)
    zf = [np.zeros(grid.shape[0] - 1)]
    snaps = [Snapshot(k * 0.1, z.copy(), [zf[0].copy()], [zf[0].copy()],
                      np.zeros(grid.shape)) for k in range(5)]
    traj = Trajectory(grid, spec, params, 0.1, snaps)
    assert action_evaluate(traj) == 0.0


def test_insufficient_slices_raises():
    grid = TensorGrid.cube(-3.0, 3.0, 41, 1)
    spec = HamiltonianSpec()
    params = ModelParams(l=1.0)
    z = np.zeros(grid.shape, dtype=complex)
    snaps = [Snapshot(0.0, z, [np.zeros(40)], [np.zeros(40)], np.zeros(41)),
             Snapshot(0.1, z, [np.zeros(40)], [np.zeros(40)], np.zeros(41))]
    with pytest.raises(InsufficientDataError):
        action_evaluate(Trajectory(grid, spec, params, 0.1, snaps))


def test_stationary_action_scales_with_segment_length():
    grid = TensorGrid.cube(-8.0, 8.0, 241, 1)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams(l=1.0)
    st = stationary_solve(spec, params, grid, tol=1e-11)
    g0 = initialize_constraint(grid, st.psi, params)
    per_slice = []
    for steps in (12, 24):
        traj = evolve_temporal_gauge(st.psi, g0, spec, params, dt=0.004,
                                     steps=steps)
        gam = action_evaluate(traj)
        per_slice.append(gam / (steps - 1))
    # time-independent integrand up to the integrator's O(dt^2) drift
    assert per_slice[0] != 0.0
    assert abs(per_slice[0] - per_slice[1]) < 1e-7


def test_action_gauge_invariance_exact():
    traj = packet_traj(QUARTIC)
    rng = np.random.default_rng(3)
    lam0 = _smooth_functional(traj.grid, rng)
    mu = _smooth_functional(traj.grid, rng)
    tr2 = transform_trajectory(traj, lam0, mu)
    gam1 = action_evaluate(traj)
    gam2 = action_evaluate(tr2)
    assert abs(gam1 - gam2) < 1e-10 * max(1.0, abs(gam1))


def test_scale_invariance_quartic_and_identity():
    traj = packet_traj(QUARTIC)
    gam = action_evaluate(traj)
    assert gam != 0.0
    for c0, a in ((1.0, 0.7), (0.5, 0.0), (0.5, 1.0), (2.0, 0.0), (2.0, 1.0)):
        tr2 = scale_transform(traj, c0, a)
        gam2 = action_evaluate(tr2)
        assert abs(gam / gam2 - 1.0) < 1e-8, (c0, a)
    # c0 = 1 is the identity for any exponent a
    tr_id = scale_transform(traj, 1.0, 0.7)
    assert tr_id.grid.axes[0].upper == traj.grid.axes[0].upper
    assert np.abs(tr_id.snapshots[0].psi - traj.snapshots[0].psi).max() == 0.0


def test_scale_transform_is_nontrivial_for_c0_not_1():
    traj = packet_traj(QUARTIC, steps=8)
    tr2 = scale_transform(traj, 2.0, 1.0)
    s = 2.0 ** 0.5
    assert tr2.grid.axes[0].upper == pytest.approx(traj.grid.axes[0].upper / s)
    assert tr2.dt == pytest.approx(traj.dt * s)
    assert tr2.spec.lattice_spacing == pytest.approx(s)


def test_scale_transform_state_rejects_a_non_positive_c0():
    grid = TensorGrid.cube(-3.0, 3.0, 41, 1)
    with pytest.raises(ValueError, match="c0 must be positive"):
        scale_transform_state(grid, np.zeros(grid.shape, dtype=complex),
                              np.zeros(grid.shape), QUARTIC, ModelParams(l=1.0),
                              c0=0.0, a=1.0)


@pytest.mark.parametrize("c0, a, name", [
    (np.nan, 1.0, "c0"), (np.inf, 0.0, "c0"), (np.inf, 1.0, "c0"),
    (1.0, np.nan, "a"), (2.0, np.inf, "a"), (2.0, -np.inf, "a")])
def test_scale_transform_state_rejects_a_non_finite_c0_or_a(c0, a, name):
    grid = TensorGrid.cube(-3.0, 3.0, 41, 1)
    with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
        scale_transform_state(grid, np.zeros(grid.shape, dtype=complex),
                              np.zeros(grid.shape), QUARTIC, ModelParams(l=1.0),
                              c0=c0, a=a)


@pytest.mark.parametrize("c0", [1e300, 1e-300])
def test_scale_transform_state_rejects_a_scale_outside_the_floats(c0):
    # s = c0^(a/2) overflows at 1e300 and underflows to 0 at 1e-300
    grid = TensorGrid.cube(-3.0, 3.0, 41, 1)
    with pytest.raises(ValueError, match=re.escape(f"c0 = {c0} and a = 10.0 give")):
        scale_transform_state(grid, np.zeros(grid.shape, dtype=complex),
                              np.zeros(grid.shape), QUARTIC, ModelParams(l=1.0),
                              c0=c0, a=10.0)


def test_scale_symmetry_breaks_for_massive_potential():
    traj = packet_traj(HARMONIC)
    gam = action_evaluate(traj)
    gam2 = action_evaluate(scale_transform(traj, 2.0, 1.0))
    assert abs(gam / gam2 - 1.0) > 1e-3


def _evolved_image_deviation(ndim, coeffs, c0):
    """(psi, F) deviations between the scale image at (c0, a = 1) of an
    evolved packet and the evolve of the image's initial data at dt * s:
    a packet with centre 0.7, width 0.8 and momentum 0.5 along each axis
    of [-6, 6]^D, l = 1, 100 steps of dt 0.004. psi's deviation is
    relative to max|psi|."""
    grid = TensorGrid.cube(-6.0, 6.0, 201 if ndim == 1 else 33, ndim)
    spec = HamiltonianSpec(potential_coeffs=coeffs,
                           gradient_coupling=0.5 if ndim > 1 else 0.0)
    params = ModelParams(l=1.0)
    psi = np.ones(grid.shape, dtype=complex)
    for x in range(ndim):
        phi = grid.coordinate(x)
        psi = psi * np.exp(-0.5 * ((phi - 0.7) / 0.8) ** 2 + 0.5j * phi)
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    traj = evolve_temporal_gauge(psi, initialize_constraint(grid, psi, params),
                                 spec, params, dt=0.004, steps=100,
                                 keep_snapshots=False)
    image = scale_transform(traj, c0, 1.0)
    start, want = image.snapshots[0], image.snapshots[-1]
    gauge0 = GaugeState(image.grid, start.a_t, start.a_phi, start.f_bar)
    got = evolve_temporal_gauge(start.psi, gauge0, image.spec, image.params,
                                dt=image.dt, steps=100,
                                keep_snapshots=False).snapshots[-1]
    dpsi = np.abs(got.psi - want.psi).max() / np.abs(want.psi).max()
    df = max(np.abs(g - w).max() for g, w in zip(got.f_bar, want.f_bar))
    return float(dpsi), float(df)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("c0", [2.0, 0.5])
def test_evolution_commutes_with_the_scale_family(ndim, c0):
    # the primed problem (grid / s, lattice spacing a s, l s^((D-1)/2),
    # dt s) leaves dt H and every field kick unchanged for a scale-free
    # potential, so the evolved image is the image of the evolution to
    # roundoff; a mass term carries a scale and breaks it
    assert max(_evolved_image_deviation(ndim, QUARTIC.potential_coeffs, c0)) <= 1e-12
    assert _evolved_image_deviation(ndim, HARMONIC.potential_coeffs, c0)[0] > 1e-2


def test_nonuniform_sampling_rejected():
    traj = packet_traj(QUARTIC, steps=6)
    traj.snapshots[2].time += 1e-3
    with pytest.raises(InsufficientDataError):
        action_evaluate(traj)
