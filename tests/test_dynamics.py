import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nlgauge.dynamics import (_cn_step_1d, _cn_step_nd, continuity_residual,
                              evolve_temporal_gauge, stationary_solve)
from nlgauge.errors import IntegratorError
from nlgauge.gaugeops import (apply_hamiltonian_raw, gauss_residual,
                              initialize_constraint, link_diff, link_phases)
from nlgauge.grids import BoundaryCondition, TensorGrid
from nlgauge.model import (GaugeState, HamiltonianSpec, ModelParams,
                           WaveFunctional, nonlinearity, total_charge)
from nlgauge.numerics import laplacian_apply

HARMONIC = HamiltonianSpec(sites=1, potential_coeffs=(0.0, 0.0, 0.5))


def normalized_packet(grid, center=0.0, width=1.0, momentum=0.0):
    x = grid.axes[0].nodes
    psi = np.exp(-((x - center) ** 2) / (4 * width ** 2) + 1j * momentum * x)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return WaveFunctional(grid, psi)


def gauss_consistent_gauge(psi, params):
    g = GaugeState.zero(psi.grid)
    g.f = initialize_constraint(psi, params)
    return g


# ----------------------------------------------------------- stationary

def test_stationary_linear_limit_harmonic():
    grid = TensorGrid.cube(-10.0, 10.0, 2001, 1)
    params = ModelParams.for_grid(grid, l=np.inf)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    assert abs(st.omega_eig - 0.5) < 1e-4
    assert np.abs(st.a_t).max() == 0.0
    assert np.abs(np.imag(st.psi.values)).max() == 0.0


def _dense_reference_scf(grid, coeffs, params, mixing=0.5, iters=300,
                         tol=1e-13):
    """Test-local fixed point: dense diagonalization plus a dense pinned
    Poisson solve per iteration; independent of the production path."""
    x = grid.axes[0].nodes
    n = grid.shape[0]
    h = grid.spacings[0]
    w = grid.quad_weights()
    vext = np.zeros_like(x)
    for k in reversed(range(len(coeffs))):
        vext = vext * x + coeffs[k]
    lap = np.zeros((n, n))
    for i in range(1, n - 1):
        lap[i, i - 1: i + 2] = (1.0, -2.0, 1.0)
    lap[0, :2] = (-2.0, 2.0)
    lap[-1, -2:] = (2.0, -2.0)
    lap /= h * h
    a_t = np.zeros(n)
    omega = None
    for _ in range(iters):
        hmat = np.zeros((n - 2, n - 2))
        kin = -0.5 * lap[1:-1, 1:-1]
        hmat = kin + np.diag((vext - a_t)[1:-1])
        vals, vecs = np.linalg.eigh(hmat)
        omega_new = vals[0]
        psi = np.zeros(n)
        psi[1:-1] = vecs[:, 0]
        psi /= np.sqrt((w * psi * psi).sum())
        rho = psi * psi
        src = -params.inv_l2 * (rho - 1.0 / params.omega)
        m = lap.copy()
        rhs = src.copy()
        m[0, :] = 0.0
        m[0, 0] = 1.0
        rhs[0] = 0.0
        a_new = np.linalg.solve(m, rhs)
        a_new -= (w * a_new).sum() / grid.volume
        a_t = 0.5 * a_t + 0.5 * a_new
        if omega is not None and abs(omega_new - omega) < tol:
            omega = omega_new
            break
        omega = omega_new
    return omega, psi


def test_stationary_coupled_matches_dense_reference():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-12)
    omega_ref, _ = _dense_reference_scf(grid, (0.0, 0.0, 0.5), params)
    assert abs(st.omega_eig - omega_ref) < 1e-6
    assert st.omega_eig < 0.5  # the induced potential binds
    assert st.eig_residual < 1e-10
    assert st.gauss_residual < 1e-10
    # the residual is the Gauss law of the static field strength F = -grad A_t,
    # and agrees with the Neumann-Laplacian form of the same equation
    rho = np.real(st.psi.values) ** 2
    f_static = [-link_diff(grid, st.a_t, x) for x in range(grid.ndim)]
    assert st.gauss_residual == gauss_residual(grid, f_static, rho, params)
    lap = laplacian_apply(grid, st.a_t, BoundaryCondition.NEUMANN_ZERO)
    assert abs(st.gauss_residual
               - grid.norm(lap + params.inv_l2 * nonlinearity(rho, params))) < 1e-13


def test_stationary_rejects_bad_mixing():
    grid = TensorGrid.cube(-6.0, 6.0, 61, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    with pytest.raises(ValueError):
        stationary_solve(HARMONIC, params, grid, mixing=1.5)


# ------------------------------------------------------------ evolution

def test_coherent_state_period():
    grid = TensorGrid.cube(-10.0, 10.0, 501, 1)
    params = ModelParams.for_grid(grid, l=np.inf)
    psi0 = normalized_packet(grid, center=1.0)
    traj = evolve_temporal_gauge(psi0, GaugeState.zero(grid), HARMONIC,
                                 params, dt=0.005, steps=1400)
    x = grid.axes[0].nodes
    w = grid.quad_weights()
    centers = np.array([float((w * x * np.abs(s.psi) ** 2).sum())
                        for s in traj.snapshots])
    times = traj.times
    # <x>(t) = cos t; locate the first return to maximum via zero crossings
    # of the discrete derivative around t = 2 pi
    sel = (times > 5.0) & (times < 7.0)
    i0 = np.argmax(centers[sel])
    period = times[sel][i0]
    assert abs(period - 2 * np.pi) / (2 * np.pi) < 0.01


def test_stationary_state_stays_stationary():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    g0 = gauss_consistent_gauge(st.psi, params)
    traj = evolve_temporal_gauge(st.psi, g0, HARMONIC, params,
                                 dt=0.002, steps=200)
    rho0 = np.abs(traj.snapshots[0].psi) ** 2
    rhoT = np.abs(traj.snapshots[-1].psi) ** 2
    assert np.abs(rhoT - rho0).max() < 1e-6
    d = traj.diagnostics
    assert np.abs(d["gauss_residual"]).max() < 1e-10


def test_norm_and_charge_conservation():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = gauss_consistent_gauge(psi0, params)
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.005,
                                 steps=500)
    d = traj.diagnostics
    assert np.abs(d["norm"] - 1.0).max() < 1e-10
    assert np.abs(d["charge"]).max() < 1e-12


def test_residuals_converge_second_order_in_dt():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    T = 0.8
    finals = []
    for dt in (0.02, 0.01, 0.005):
        g0 = gauss_consistent_gauge(psi0, params)
        traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=dt,
                                     steps=int(round(T / dt)))
        d = traj.diagnostics
        finals.append((d["gauss_residual"][-1], d["continuity_residual"][-1]))
    for i in (0, 1):
        r1 = finals[0][i] / finals[1][i]
        r2 = finals[1][i] / finals[2][i]
        assert 3.2 < r1 < 4.8
        assert 3.2 < r2 < 4.8


def test_euler_scheme_loses_norm():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams.for_grid(grid, l=2.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = gauss_consistent_gauge(psi0, params)
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                 steps=100, scheme="euler",
                                 norm_tol=np.inf, gauss_blowup=np.inf)
    d = traj.diagnostics
    drift = np.abs(d["norm"] - 1.0)
    assert drift[-1] > 1e-6
    assert drift[-1] > drift[len(drift) // 2]


def test_evolve_requires_temporal_gauge():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid)
    g0 = GaugeState.zero(grid)
    g0.a_t = np.ones(grid.shape)
    with pytest.raises(ValueError):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10)


def test_evolve_stability_precondition():
    grid = TensorGrid.cube(-8.0, 8.0, 801, 1)
    params = ModelParams.for_grid(grid, l=np.inf)
    psi0 = normalized_packet(grid)
    with pytest.raises(IntegratorError):
        evolve_temporal_gauge(psi0, GaugeState.zero(grid), HARMONIC, params,
                              dt=5.0, steps=10)


def test_evolve_commutes_with_static_gauge_transform():
    # with a time-independent gauge functional the temporal gauge is
    # preserved, and the link scheme makes evolve-then-transform equal
    # transform-then-evolve to machine precision
    from nlgauge.gaugeops import gauge_transform, link_diff
    from nlgauge.model import GaugeTransform

    grid = TensorGrid.cube(-8.0, 8.0, 161, 1)
    params = ModelParams.for_grid(grid, l=1.2)
    psi0 = normalized_packet(grid, center=0.8)
    g0 = gauss_consistent_gauge(psi0, params)
    x = grid.axes[0].nodes
    lam = 0.4 * np.tanh(x) + 0.2 * np.sin(x)

    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=40)
    evolved_then = np.exp(1j * lam) * traj.snapshots[-1].psi

    psi1, g1 = gauge_transform(psi0, g0, GaugeTransform(lam, np.zeros_like(lam)))
    traj2 = evolve_temporal_gauge(psi1, g1, HARMONIC, params, dt=0.01, steps=40)
    then_evolved = traj2.snapshots[-1].psi

    assert np.abs(evolved_then - then_evolved).max() < 1e-12
    d1 = traj.diagnostics
    d2 = traj2.diagnostics
    assert np.abs(d1["gauss_residual"] - d2["gauss_residual"]).max() < 1e-12
    assert np.abs(d1["continuity_residual"]
                  - d2["continuity_residual"]).max() < 1e-12


def test_stationary_solve_in_three_dimensions():
    # desk-scale D=3 grid: the linear limit separates into three axes
    grid = TensorGrid.cube(-4.5, 4.5, 19, 3)
    spec3 = HamiltonianSpec(sites=3, potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams.for_grid(grid, l=np.inf)
    st = stationary_solve(spec3, params, grid, tol=1e-10)
    g1 = TensorGrid.cube(-4.5, 4.5, 19, 1)
    spec1 = HamiltonianSpec(sites=1, potential_coeffs=(0.0, 0.0, 0.5))
    st1 = stationary_solve(spec1, ModelParams.for_grid(g1, l=np.inf), g1,
                           tol=1e-10)
    assert abs(st.omega_eig - 3 * st1.omega_eig) < 1e-9


def test_superposed_stationary_states_do_not_stay_stationary():
    # a sum of two overlapping stationary solutions is not a solution:
    # its density moves, unlike the single state's
    grid = TensorGrid.cube(-8.0, 8.0, 241, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    single = np.real(st.psi.values)
    shifted = np.roll(single, 30)
    shifted[:30] = 0.0
    combo = single + shifted
    combo[0] = combo[-1] = 0.0
    combo /= np.sqrt(np.real(grid.integrate(combo * combo)))
    psum = WaveFunctional(grid, combo.astype(complex))
    gs = gauss_consistent_gauge(psum, params)
    traj_sum = evolve_temporal_gauge(psum, gs, HARMONIC, params,
                                     dt=0.002, steps=200)
    g1 = gauss_consistent_gauge(st.psi, params)
    traj_one = evolve_temporal_gauge(st.psi, g1, HARMONIC, params,
                                     dt=0.002, steps=200)
    move_sum = np.abs(np.abs(traj_sum.snapshots[-1].psi) ** 2
                      - np.abs(traj_sum.snapshots[0].psi) ** 2).max()
    move_one = np.abs(np.abs(traj_one.snapshots[-1].psi) ** 2
                      - np.abs(traj_one.snapshots[0].psi) ** 2).max()
    assert move_sum > 100 * move_one


def test_evolve_2d_conserves():
    grid = TensorGrid.cube(-5.0, 5.0, 33, 2)
    spec = HamiltonianSpec(sites=2, potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    params = ModelParams.for_grid(grid, l=2.0)
    X = grid.meshes()
    psi = np.exp(-0.5 * ((X[0] - 0.4) ** 2 + X[1] ** 2)) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    pw = WaveFunctional(grid, psi)
    g0 = gauss_consistent_gauge(pw, params)
    traj = evolve_temporal_gauge(pw, g0, spec, params, dt=0.01, steps=50)
    d = traj.diagnostics
    assert np.abs(d["norm"] - 1.0).max() < 1e-9
    assert np.abs(d["charge"]).max() < 1e-12


def test_sigma_is_rms_width_on_two_sites():
    grid = TensorGrid.cube(-5.0, 5.0, 25, 2)
    spec = HamiltonianSpec(sites=2, potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    params = ModelParams.for_grid(grid, l=2.0)
    X = grid.meshes()
    # squeezed packet: its width breathes in the harmonic wells
    psi = np.exp(-(X[0] - 0.8) ** 2 - X[1] ** 2) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    pw = WaveFunctional(grid, psi)
    traj = evolve_temporal_gauge(pw, gauss_consistent_gauge(pw, params), spec,
                                 params, dt=0.02, steps=40, record_every=5)
    sigma = traj.diagnostics["sigma"]
    for snap, sig in zip(traj.snapshots, sigma, strict=True):
        rho = np.abs(snap.psi) ** 2
        n = np.real(grid.integrate(rho))
        var = sum(np.real(grid.integrate(c * c * rho)) / n
                  - (np.real(grid.integrate(c * rho)) / n) ** 2 for c in X)
        assert sig == pytest.approx(np.sqrt(var), rel=1e-10)
    assert np.ptp(sigma) > 1e-2


# forward-back cases: (grid, with link phases). The 1D step without links
# is the one the sn line evolver takes.
CN_REVERSIBLE = {
    "1d": (TensorGrid.cube(-8.0, 8.0, 81, 1), False),
    "1d_links": (TensorGrid.cube(-8.0, 8.0, 81, 1), True),
    "2d_links": (TensorGrid.cube(-4.0, 4.0, 9, 2), True),
}


@pytest.mark.parametrize("case", sorted(CN_REVERSIBLE))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), dt=st.floats(1e-3, 0.2))
def test_cn_step_forward_then_back_returns_psi(case, seed, dt):
    grid, links = CN_REVERSIBLE[case]
    rng = np.random.default_rng(seed)
    psi = np.where(grid.boundary_mask(), rng.standard_normal(grid.shape)
                   + 1j * rng.standard_normal(grid.shape), 0.0)
    diag = rng.uniform(0.0, 2.0, grid.shape)
    phases = None
    if links:
        phases = link_phases(grid, [rng.standard_normal(
            tuple(n - (k == x) for k, n in enumerate(grid.shape)))
            for x in range(grid.ndim)])
    step = _cn_step_1d if grid.ndim == 1 else _cn_step_nd
    fwd = step(grid, psi, phases, diag, 1.0, dt)
    back = step(grid, fwd, phases, diag, 1.0, -dt)
    assert np.abs(fwd - psi).max() > 1e-3
    assert np.abs(back - psi).max() < 1e-10


def test_cn_nd_step_matches_banded_step_on_one_site():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    psi = normalized_packet(grid, center=1.0, momentum=0.5).values
    x = grid.axes[0].nodes
    phases = link_phases(grid, [0.3 * np.sin(0.5 * (x[1:] + x[:-1]))])
    diag = HARMONIC.site_potential_total(grid)
    banded = _cn_step_1d(grid, psi, phases, diag, 1.0, 0.01)
    nd = _cn_step_nd(grid, psi, phases, diag, 1.0, 0.01)
    assert np.abs(nd - banded).max() < 1e-10
    assert np.abs(nd - psi).max() > 1e-3


def test_cn_nd_step_matches_dense_reference():
    grid = TensorGrid.cube(-4.0, 4.0, 13, 2)
    spec = HamiltonianSpec(sites=2, potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    rng = np.random.default_rng(5)
    interior = grid.boundary_mask()
    psi = np.where(interior, rng.standard_normal(grid.shape)
                   + 1j * rng.standard_normal(grid.shape), 0.0)
    a_phi = [0.4 * rng.standard_normal(s) for s in ((12, 13), (13, 12))]
    phases = link_phases(grid, a_phi)
    diag = spec.site_potential_total(grid)
    dt = 0.05
    idx = np.flatnonzero(interior)
    hmat = np.zeros((idx.size, idx.size), dtype=complex)
    for j, col in enumerate(idx):
        e = np.zeros(grid.shape, dtype=complex)
        e.flat[col] = 1.0
        hmat[:, j] = apply_hamiltonian_raw(grid, e, phases, diag, 1.0).ravel()[idx]
    step = 0.5j * dt * hmat
    eye = np.eye(idx.size)
    dense = np.zeros(grid.shape, dtype=complex)
    dense.flat[idx] = scipy.linalg.solve(eye + step,
                                         (eye - step) @ psi.ravel()[idx])
    nd = _cn_step_nd(grid, psi, phases, diag, 1.0, dt)
    assert np.abs(nd - dense).max() < 1e-10
    assert np.abs(nd - psi).max() > 1e-2


def _two_site_packet(count=9):
    grid = TensorGrid.cube(-4.0, 4.0, count, 2)
    spec = HamiltonianSpec(sites=2, potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    X = grid.meshes()
    psi = np.exp(-(X[0] - 0.6) ** 2 - X[1] ** 2) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return grid, spec, WaveFunctional(grid, psi)


def test_continuity_residual_is_computed_at_every_recorded_step():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = gauss_consistent_gauge(psi0, params)
    full = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                 steps=35)
    every = full.diagnostics
    sparse = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                   steps=35, record_every=10).diagnostics
    picked = [10, 20, 30, 35]
    assert np.array_equal(sparse["time"], every["time"][[0] + picked])
    cres = sparse["continuity_residual"][1:]
    assert np.all(cres > 0.0)
    np.testing.assert_allclose(cres, every["continuity_residual"][picked],
                               rtol=1e-12, atol=0.0)
    # with record_every = 1 every recorded value is exactly the one of the
    # public formulas applied to the snapshots, although the evolver squares
    # each psi once and shares the density between them; finite l moves the
    # links, so the currents carry link phases
    grid2, spec2, psi2 = _two_site_packet()
    params2 = ModelParams.for_grid(grid2, l=1.0)
    two = evolve_temporal_gauge(psi2, gauss_consistent_gauge(psi2, params2),
                                spec2, params2, dt=0.01, steps=12)
    for traj, g, spec, p in ((full, grid, HARMONIC, params),
                             (two, grid2, spec2, params2)):
        snaps = traj.snapshots
        rec = traj.diagnostics
        w = g.quad_weights()
        assert np.abs(snaps[-1].a_phi[0]).max() > 1e-6
        assert rec["continuity_residual"][0] == 0.0
        for k, s in enumerate(snaps):
            if k > 0:
                assert rec["continuity_residual"][k] == continuity_residual(
                    g, snaps[k - 1], s, spec, p)
            rho = np.abs(s.psi) ** 2
            # the norm is the integral of rho, i.e. grid.norm(psi) ** 2 up
            # to the rounding of the square root
            nrm = float(g.integrate(rho))
            assert rec["norm"][k] == nrm
            assert rec["norm"][k] == pytest.approx(g.norm(s.psi) ** 2,
                                                   rel=1e-14, abs=0.0)
            assert rec["charge"][k] == total_charge(g, rho, p)
            assert rec["gauss_residual"][k] == gauss_residual(g, s.f_bar, rho, p)
            # sigma = sqrt(sum_x Var phi_x) of the density
            var = 0.0
            for x in range(g.ndim):
                xs = g.coordinate(x)
                mean = float((w * xs * rho).sum()) / nrm
                var += (w * (xs - mean) ** 2 * rho).sum() / nrm
            assert rec["sigma"][k] == float(np.sqrt(max(var, 0.0)))


def _solve_banded_cn_reference(grid, psi, phases, diag, a_lat, dt):
    """The CN step as it was written on `scipy.linalg.solve_banded`."""
    n = grid.shape[0]
    h = grid.spacings[0]
    coef = 1.0 / (2.0 * a_lat ** 3 * h * h)
    alpha = 0.5j * dt
    rhs = psi - alpha * apply_hamiltonian_raw(grid, psi, phases, diag, a_lat)
    U = np.ones(n - 1, dtype=complex) if phases is None else phases[0]
    ab = np.zeros((3, n - 2), dtype=complex)
    ab[0, 1:] = alpha * (-coef * U[1:-1])
    ab[1, :] = 1.0 + alpha * (2.0 * coef + diag[1:-1])
    ab[2, :-1] = alpha * (-coef * np.conj(U[1:-1]))
    out = np.zeros_like(psi)
    out[1:-1] = scipy.linalg.solve_banded((1, 1), ab, rhs[1:-1])
    return out


@pytest.mark.parametrize("links", [False, True])
@pytest.mark.parametrize("count", [201, 1201])
def test_cn_step_1d_equals_solve_banded_bitwise(count, links):
    grid = TensorGrid.cube(-8.0, 8.0, count, 1)
    rng = np.random.default_rng(count)
    psi = np.where(grid.boundary_mask(), rng.standard_normal(count)
                   + 1j * rng.standard_normal(count), 0.0)
    diag = rng.uniform(0.0, 2.0, count)
    phases = link_phases(grid, [rng.standard_normal(count - 1)]) if links else None
    step = _cn_step_1d(grid, psi, phases, diag, 1.0, 0.01)
    ref = _solve_banded_cn_reference(grid, psi, phases, diag, 1.0, 0.01)
    assert np.array_equal(step, ref)
    assert np.abs(step - psi).max() > 1e-3


def test_snapshots_are_read_only_and_do_not_alias_the_inputs():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = gauss_consistent_gauge(psi0, params)
    g0.a_phi = [0.01 * np.sin(np.arange(grid.shape[0] - 1.0))]
    inputs = [psi0.values, g0.a_t, *g0.a_phi, *g0.f]
    before = [v.copy() for v in inputs]
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                 steps=6, record_every=2)
    snaps = traj.snapshots
    for snap in snaps:
        for arr in (snap.psi, snap.a_phi[0], snap.f_bar[0], snap.a_t):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 1.0
            assert not any(np.shares_memory(arr, v) for v in inputs)
        assert snap.a_t is snaps[0].a_t
        assert not snap.a_t.any()
    for old, new in zip(snaps, snaps[1:]):
        assert not np.shares_memory(old.psi, new.psi)
        assert np.abs(new.psi - old.psi).max() > 0.0
    for v, b in zip(inputs, before):
        assert v.flags.writeable
        assert np.array_equal(v, b)


def test_evolve_rejects_a_nan_state_with_integrator_error():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams.for_grid(grid, l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = gauss_consistent_gauge(psi0, params)
    bad = psi0.values.copy()
    bad[40] = np.nan
    with pytest.raises(IntegratorError, match="step 1 "):
        evolve_temporal_gauge(WaveFunctional(grid, bad), g0, HARMONIC, params,
                              dt=0.01, steps=5)
