import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import nlgauge.dynamics as dynamics
from nlgauge.dynamics import (_block_rows, _cn_band, _cn_step_1d, _cn_step_nd,
                              continuity_residual, evolve_temporal_gauge,
                              stationary_solve)
from nlgauge.errors import (ConstraintViolationError, ConvergenceError,
                            GridShapeError, InsufficientDataError,
                            IntegratorError)
from nlgauge.gaugeops import (apply_hamiltonian_raw, gauss_residual,
                              initialize_constraint, link_current, link_diff,
                              link_phases)
from nlgauge.grids import TensorGrid
from nlgauge.model import GaugeState, HamiltonianSpec, ModelParams, nonlinearity
from nlgauge.sn import limit_equivalence_check
from references import laplacian_apply, total_charge

HARMONIC = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))


def normalized_packet(grid, center=0.0, width=1.0, momentum=0.0):
    x = grid.axes[0].nodes
    psi = np.exp(-((x - center) ** 2) / (4 * width ** 2) + 1j * momentum * x)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return psi


# ----------------------------------------------------------- stationary

def test_stationary_linear_limit_harmonic():
    grid = TensorGrid.cube(-10.0, 10.0, 2001, 1)
    params = ModelParams(l=np.inf)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    assert abs(st.omega_eig - 0.5) < 1e-4
    assert np.abs(st.a_t).max() == 0.0
    assert st.psi.dtype == np.float64


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
        # the lowest pair alone (dsyevr with an index range); both LAPACK
        # calls go through scipy, so the loop uses one BLAS thread pool
        vals, vecs = scipy.linalg.eigh(hmat, subset_by_index=[0, 0])
        omega_new = vals[0]
        psi = np.zeros(n)
        psi[1:-1] = vecs[:, 0]
        psi /= np.sqrt((w * psi * psi).sum())
        rho = psi * psi
        src = -params.inv_l2 * (rho - 1.0 / grid.volume)
        m = lap.copy()
        rhs = src.copy()
        m[0, :] = 0.0
        m[0, 0] = 1.0
        rhs[0] = 0.0
        a_new = scipy.linalg.solve(m, rhs)
        a_new -= (w * a_new).sum() / grid.volume
        a_t = 0.5 * a_t + 0.5 * a_new
        if omega is not None and abs(omega_new - omega) < tol:
            omega = omega_new
            break
        omega = omega_new
    return omega, psi


def test_stationary_coupled_matches_dense_reference():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    params = ModelParams(l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-12)
    omega_ref, _ = _dense_reference_scf(grid, (0.0, 0.0, 0.5), params)
    assert abs(st.omega_eig - omega_ref) < 1e-6
    assert st.omega_eig < 0.5  # the induced potential binds
    assert st.eig_residual < 1e-10
    assert st.gauss_residual < 1e-10
    # the residual is the Gauss law of the static field strength F = -grad A_t,
    # and agrees with the Neumann-Laplacian form of the same equation
    rho = st.psi ** 2
    f_static = [-link_diff(grid, st.a_t, x) for x in range(grid.ndim)]
    assert st.gauss_residual == gauss_residual(grid, f_static, rho, params)
    lap = laplacian_apply(grid, st.a_t)
    assert abs(st.gauss_residual
               - grid.norm(lap + params.inv_l2 * nonlinearity(rho, grid))) < 1e-13


def test_stationary_raises_when_the_converged_loop_leaves_a_residual(monkeypatch):
    # the loop converges; the final Gauss residual is then forced above 10*tol
    monkeypatch.setattr(dynamics, "gauss_residual", lambda *args: 1.0)
    grid = TensorGrid.cube(-6.0, 6.0, 61, 1)
    with pytest.raises(ConvergenceError,
                       match=r"^converged loop left residuals eig=.* gauss=1\.000e\+00 "
                             r"above 10\*tol=1\.000e-09$") as info:
        stationary_solve(HARMONIC, ModelParams(l=1.0), grid, tol=1e-10)
    assert info.value.residual == 1.0
    trace = info.value.trace
    assert [t[0] for t in trace] == list(range(1, len(trace) + 1))
    assert trace[-1][2] <= 1e-10


def test_stationary_rejects_bad_mixing():
    grid = TensorGrid.cube(-6.0, 6.0, 61, 1)
    params = ModelParams(l=1.0)
    with pytest.raises(ValueError):
        stationary_solve(HARMONIC, params, grid, mixing=1.5)


@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
def test_stationary_rejects_a_guess_that_is_zero_or_not_finite(fill):
    grid = TensorGrid.cube(-6.0, 6.0, 61, 1)
    guess = np.zeros(grid.shape)
    guess[30] = fill
    with pytest.raises(ValueError, match="^guess must be finite and nonzero"):
        stationary_solve(HARMONIC, ModelParams(l=1.0), grid, guess=guess)


@pytest.mark.parametrize("phase", [1 + 1j, 1j])
def test_stationary_rejects_a_complex_guess(phase):
    # a cast to float would drop the imaginary part with only a warning:
    # (1+1j) psi would solve as psi, and 1j psi would be called zero
    grid = TensorGrid.cube(-6.0, 6.0, 61, 1)
    guess = phase * np.exp(-0.5 * grid.coordinate(0) ** 2)
    with pytest.raises(ValueError, match="^guess must be real, not complex$"):
        stationary_solve(HARMONIC, ModelParams(l=1.0), grid, guess=guess)


def test_stationary_guess_scale_is_exact_over_the_float_range():
    # the guess is scaled by a power of two first, so its square neither
    # overflows nor underflows, and a power of two changes nothing
    grid = TensorGrid.cube(-6.0, 6.0, 41, 1)
    params = ModelParams(l=1.0)
    ref = stationary_solve(HARMONIC, params, grid, guess=np.ones(grid.shape))
    for k in (700, -700):
        st = stationary_solve(HARMONIC, params, grid,
                              guess=np.ldexp(np.ones(grid.shape), k))
        assert st.omega_eig == ref.omega_eig
        assert st.iterations == ref.iterations
        assert np.array_equal(st.psi, ref.psi)
        assert np.array_equal(st.a_t, ref.a_t)
    for scale in (1e200, 1e-200):
        st = stationary_solve(HARMONIC, params, grid,
                              guess=scale * np.ones(grid.shape))
        assert abs(st.omega_eig - ref.omega_eig) <= 1e-10
        assert st.eig_residual <= 1e-9


@pytest.mark.parametrize("entry", ["limit_check", "line", "square"])
def test_a_huge_finite_potential_overflows_no_square(entry):
    # V = 1e300 phi^2 on [-8, 8]: the 1-D eigen solve scales T by a power
    # of two and each residual norm scales before it squares, so the line
    # solves land on the one node where V = 0; on 21^2 the absolute eigen
    # tolerance is below the roundoff of an operator of norm 1e302, and
    # the solve fails with that residual, finite, not with an overflow
    huge = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 1e300))
    params = ModelParams(l=1.0)
    line = TensorGrid.cube(-8.0, 8.0, 161, 1)
    if entry == "square":
        with pytest.raises(ConvergenceError) as info:
            stationary_solve(huge, params, TensorGrid.cube(-8.0, 8.0, 21, 2))
        assert 0 < info.value.residual < np.inf
        return
    if entry == "limit_check":
        rep = limit_equivalence_check(huge, params, line)
        assert rep.omega_functional == pytest.approx(rep.omega_line, rel=1e-12)
        assert rep.max_psi_diff < 1e-12
        return
    st = stationary_solve(huge, params, line)
    assert st.eig_residual <= 1e-9
    assert np.argmax(st.psi) == 80
    assert st.psi[80] ** 2 * line.axes[0].spacing == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------ evolution

def test_coherent_state_period():
    grid = TensorGrid.cube(-10.0, 10.0, 501, 1)
    params = ModelParams(l=np.inf)
    psi0 = normalized_packet(grid, center=1.0)
    traj = evolve_temporal_gauge(psi0, GaugeState.zero(grid), HARMONIC,
                                 params, dt=0.005, steps=1400)
    x = grid.axes[0].nodes
    w = grid.quad_weights()
    centers = np.array([float((w * x * np.abs(s.psi) ** 2).sum())
                        for s in traj.snapshots])
    times = np.array([s.time for s in traj.snapshots])
    # <x>(t) = cos t; locate the first return to maximum via zero crossings
    # of the discrete derivative around t = 2 pi
    sel = (times > 5.0) & (times < 7.0)
    i0 = np.argmax(centers[sel])
    period = times[sel][i0]
    assert abs(period - 2 * np.pi) / (2 * np.pi) < 0.01


def test_stationary_state_stays_stationary():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    params = ModelParams(l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    g0 = initialize_constraint(grid, st.psi, params)
    traj = evolve_temporal_gauge(st.psi, g0, HARMONIC, params,
                                 dt=0.002, steps=200)
    rho0 = np.abs(traj.snapshots[0].psi) ** 2
    rhoT = np.abs(traj.snapshots[-1].psi) ** 2
    assert np.abs(rhoT - rho0).max() < 1e-6
    d = traj.diagnostics
    assert np.abs(d["gauss_residual"]).max() < 1e-10


def test_norm_and_charge_conservation():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.005,
                                 steps=500)
    d = traj.diagnostics
    assert np.abs(d["norm"] - 1.0).max() < 1e-10
    assert np.abs(d["charge"]).max() < 1e-12


def test_residuals_converge_second_order_in_dt():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    T = 0.8
    finals = []
    for dt in (0.02, 0.01, 0.005):
        g0 = initialize_constraint(grid, psi0, params)
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
    params = ModelParams(l=2.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                 steps=100, scheme="euler")
    d = traj.diagnostics
    drift = np.abs(d["norm"] - 1.0)
    assert drift[-1] > 1e-6
    assert drift[-1] > drift[len(drift) // 2]
    with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=5,
                              scheme="rk4")


def test_evolve_requires_temporal_gauge():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid)
    g0 = GaugeState.zero(grid)
    g0.a_t = np.ones(grid.shape)
    with pytest.raises(ValueError):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10)


@pytest.mark.parametrize("shape", [(50,), (52,), (51, 1)])
def test_evolve_rejects_a_psi_of_the_wrong_shape_for_the_gauge_grid(shape):
    grid = TensorGrid.cube(-5.0, 5.0, 51, 1)
    params = ModelParams(l=1.0)
    g0 = initialize_constraint(grid, normalized_packet(grid), params)
    with pytest.raises(GridShapeError, match=r"^field shape"):
        evolve_temporal_gauge(np.ones(shape, dtype=complex), g0, HARMONIC, params,
                              dt=0.01, steps=5)


@pytest.mark.parametrize("kwargs, name", [
    ({"dt": 0.0}, "dt"), ({"dt": -0.01}, "dt"), ({"dt": np.nan}, "dt"),
    ({"record_every": 0}, "record_every"), ({"record_every": -1}, "record_every"),
    ({"steps": 0}, "steps")])
def test_evolve_rejects_bad_step_arguments(kwargs, name):
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid)
    args = {"dt": 0.01, "steps": 6, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        evolve_temporal_gauge(psi0, initialize_constraint(grid, psi0, params),
                              HARMONIC, params, **args)


def test_evolve_stability_precondition():
    grid = TensorGrid.cube(-8.0, 8.0, 801, 1)
    params = ModelParams(l=np.inf)
    psi0 = normalized_packet(grid)
    with pytest.raises(IntegratorError):
        evolve_temporal_gauge(psi0, GaugeState.zero(grid), HARMONIC, params,
                              dt=5.0, steps=10)


def test_evolve_commutes_with_static_gauge_transform():
    # with a time-independent gauge functional the temporal gauge is
    # preserved, and the link scheme makes evolve-then-transform equal
    # transform-then-evolve to machine precision
    from nlgauge.gaugeops import gauge_transform, link_diff

    grid = TensorGrid.cube(-8.0, 8.0, 161, 1)
    params = ModelParams(l=1.2)
    psi0 = normalized_packet(grid, center=0.8)
    g0 = initialize_constraint(grid, psi0, params)
    x = grid.axes[0].nodes
    lam = 0.4 * np.tanh(x) + 0.2 * np.sin(x)

    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=40)
    evolved_then = np.exp(1j * lam) * traj.snapshots[-1].psi

    psi1, g1 = gauge_transform(psi0, g0, lam, np.zeros_like(lam))
    traj2 = evolve_temporal_gauge(psi1, g1, HARMONIC, params, dt=0.01, steps=40)
    then_evolved = traj2.snapshots[-1].psi

    assert np.abs(evolved_then - then_evolved).max() < 1e-12
    d1 = traj.diagnostics
    d2 = traj2.diagnostics
    assert np.abs(d1["gauss_residual"] - d2["gauss_residual"]).max() < 1e-12
    # the first value is NaN: no step precedes the initial snapshot
    assert np.abs(d1["continuity_residual"][1:]
                  - d2["continuity_residual"][1:]).max() < 1e-12


def test_stationary_solve_in_three_dimensions():
    # desk-scale D=3 grid: the linear limit separates into three axes
    grid = TensorGrid.cube(-4.5, 4.5, 19, 3)
    spec3 = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams(l=np.inf)
    st = stationary_solve(spec3, params, grid, tol=1e-10)
    g1 = TensorGrid.cube(-4.5, 4.5, 19, 1)
    spec1 = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    st1 = stationary_solve(spec1, ModelParams(l=np.inf), g1,
                           tol=1e-10)
    assert abs(st.omega_eig - 3 * st1.omega_eig) < 1e-9


@pytest.mark.parametrize("dim", [1, 2])
def test_stationary_solve_on_one_interior_unknown(dim):
    # 3 nodes per axis leave one unknown, the smallest grid validate accepts
    grid = TensorGrid.cube(-8.0, 8.0, 3, dim)
    centre = (1,) * dim
    # linear limit: V(0) = 0, so omega is the kinetic 1/h^2 = 1/64 per site
    st = stationary_solve(HARMONIC, ModelParams(l=np.inf), grid, tol=1e-12)
    assert st.omega_eig == pytest.approx(dim / 64.0, rel=1e-15)
    st = stationary_solve(HARMONIC, ModelParams(l=1.0), grid, tol=1e-12)
    assert max(st.eig_residual, st.gauss_residual) <= 1e-15
    psi = st.psi
    assert psi[centre] > 0 and np.count_nonzero(psi) == 1
    assert abs(grid.norm(psi) - 1.0) < 1e-15
    if dim == 1:
        rep = limit_equivalence_check(HARMONIC, ModelParams(l=1.0), grid, tol=1e-12)
        assert abs(rep.omega_diff) < 1e-15
        assert rep.max_psi_diff == 0.0 and rep.max_at_diff == 0.0


def test_two_site_packet_follows_the_coherent_state_orbit():
    # uncoupled linear sites in V = phi^2/2: by Ehrenfest <phi_0> = c cos t
    # exactly, so what is left is the O(h^2) error of the lattice
    params = ModelParams(l=np.inf)
    c, dt, steps = 1.0, 0.02, 157  # to t = 3.14, half a period
    errors = []
    for n in (33, 41):
        grid = TensorGrid.cube(-6.0, 6.0, n, 2)
        X = grid.meshes()
        # axis 0 displaced by c, axis 1 in the ground packet
        psi = np.exp(-0.5 * ((X[0] - c) ** 2 + X[1] ** 2)) + 0j
        psi[~grid.boundary_mask()] = 0.0
        psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
        traj = evolve_temporal_gauge(psi, initialize_constraint(grid, psi, params),
                                     HARMONIC, params, dt=dt, steps=steps)
        t = np.array([snap.time for snap in traj.snapshots])
        mean = np.array([[np.real(grid.integrate(X[k] * np.abs(snap.psi) ** 2))
                          for snap in traj.snapshots] for k in (0, 1)])
        errors.append(np.abs(mean[0] - c * np.cos(t)).max())
        assert np.abs(mean[1]).max() <= 1e-13
        norm = traj.diagnostics["norm"]
        assert np.abs(norm - norm[0]).max() <= 2e-14
    assert errors[0] < 0.06 and errors[1] < 0.04, errors
    # second order in h predicts (0.375/0.3)^2 = 1.5625
    assert 1.45 <= errors[0] / errors[1] <= 1.75, errors


# The free lattice field: at l = inf with V = phi^2/2, gradient coupling
# g = 0.5 and a = 1, the sites are oscillators coupled by K = I + g L, with
# L the open-chain Laplacian, and the normal modes are exact.
FREE_FIELD = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5), gradient_coupling=0.5)


def free_field_modes(dim):
    """(kappa_k, eigenvectors) of K = I + 0.5 L on `dim` sites."""
    lap = 2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0
    return np.linalg.eigh(np.eye(dim) + 0.5 * lap)


@pytest.mark.parametrize("dim, bound, counts, rich_bound", [
    (2, 5.0, (21, 41, 81), 2e-5),
    # [-4, 4] truncates below the h^4 error; 13^3 -> 25^3 is pre-asymptotic
    (3, 4.0, (17, 33), 5e-4)], ids=["D2", "D3"])
def test_stationary_omega_converges_to_the_normal_modes(dim, bound, counts,
                                                        rich_bound):
    kappa, _ = free_field_modes(dim)
    exact = 0.5 * np.sqrt(kappa).sum()  # 1.207107 at D = 2, 1.902942 at D = 3
    omega = np.array([
        stationary_solve(FREE_FIELD, ModelParams(l=np.inf),
                         TensorGrid.cube(-bound, bound, n, dim), tol=1e-11).omega_eig
        for n in counts])
    err = omega - exact
    ratios = err[:-1] / err[1:]  # h halves between grids: 4 at O(h^2)
    assert np.all(np.abs(ratios - 4.0) <= 0.15), ratios
    richardson = (4.0 * omega[-1] - omega[-2]) / 3.0
    assert abs(richardson - exact) < rich_bound, (richardson - exact, err)


def test_coupled_two_site_orbit_follows_the_normal_modes():
    # the exact coupled Gaussian exp(-(phi-d)^T sqrt(K) (phi-d)/2) is a
    # coherent state: <phi>(t) = V cos(Omega t) V^T d, with the coupling
    # carrying the displacement into site 1
    kappa, vecs = free_field_modes(2)
    sqrt_k = vecs @ np.diag(np.sqrt(kappa)) @ vecs.T
    d = np.array([1.0, 0.0])
    params = ModelParams(l=np.inf)
    errors = []
    for n in (33, 49):
        grid = TensorGrid.cube(-7.0, 7.0, n, 2)
        X = np.stack(grid.meshes())
        Y = X - d[:, None, None]
        psi = np.exp(-0.5 * np.einsum("i...,ij,j...->...", Y, sqrt_k, Y)) + 0j
        psi[~grid.boundary_mask()] = 0.0
        psi /= grid.norm(psi)
        traj = evolve_temporal_gauge(psi, initialize_constraint(grid, psi, params),
                                     FREE_FIELD, params, dt=0.005, steps=400,
                                     record_every=20)
        t = np.array([snap.time for snap in traj.snapshots])
        mean = np.array([[np.real(grid.integrate(X[k] * np.abs(snap.psi) ** 2))
                          for k in (0, 1)] for snap in traj.snapshots])
        exact = (np.cos(np.outer(t, np.sqrt(kappa))) * (vecs.T @ d)) @ vecs.T
        assert np.abs(exact[:, 1]).max() > 0.25  # site 1 moves by coupling alone
        errors.append(np.abs(mean - exact).max())
    assert errors[0] < 0.12 and errors[1] < 0.05, errors
    # second order in h predicts (48/32)^2 = 2.25; first order 1.5, third 3.375
    assert 2.0 <= errors[0] / errors[1] <= 2.6, errors


def test_superposed_stationary_states_do_not_stay_stationary():
    # a sum of two overlapping stationary solutions is not a solution:
    # its density moves, unlike the single state's
    grid = TensorGrid.cube(-8.0, 8.0, 241, 1)
    params = ModelParams(l=1.0)
    st = stationary_solve(HARMONIC, params, grid, tol=1e-11)
    single = st.psi
    shifted = np.roll(single, 30)
    shifted[:30] = 0.0
    combo = single + shifted
    combo[0] = combo[-1] = 0.0
    combo /= np.sqrt(np.real(grid.integrate(combo * combo)))
    gs = initialize_constraint(grid, combo, params)
    traj_sum = evolve_temporal_gauge(combo, gs, HARMONIC, params,
                                     dt=0.002, steps=200)
    g1 = initialize_constraint(grid, st.psi, params)
    traj_one = evolve_temporal_gauge(st.psi, g1, HARMONIC, params,
                                     dt=0.002, steps=200)
    move_sum = np.abs(np.abs(traj_sum.snapshots[-1].psi) ** 2
                      - np.abs(traj_sum.snapshots[0].psi) ** 2).max()
    move_one = np.abs(np.abs(traj_one.snapshots[-1].psi) ** 2
                      - np.abs(traj_one.snapshots[0].psi) ** 2).max()
    assert move_sum > 100 * move_one


def test_evolve_2d_conserves():
    grid = TensorGrid.cube(-5.0, 5.0, 33, 2)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    X = grid.meshes()
    psi = np.exp(-0.5 * ((X[0] - 0.4) ** 2 + X[1] ** 2)) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    # (l, dt, steps). The norm bound is at roundoff: on the second case,
    # a stronger field and a longer step, GMRES at rtol 1e-12 in place of
    # the CG inner solve drifts 7.7e-14
    for l, dt, steps in ((2.0, 0.01, 50), (1.0, 0.05, 100)):
        params = ModelParams(l=l)
        g0 = initialize_constraint(grid, psi, params)
        traj = evolve_temporal_gauge(psi, g0, spec, params, dt=dt, steps=steps)
        d = traj.diagnostics
        assert np.abs(d["norm"] - 1.0).max() < 2e-14
        assert np.abs(d["charge"]).max() < 1e-12


def test_field_strength_takes_the_trapezoid_kick_of_the_current():
    # the kick-drift-kick step: F_k - F_{k-1} = -(dt/2)/(l^2 a^3) (J_{k-1} + J_k),
    # with J from each snapshot's own psi and links
    grid = TensorGrid.cube(-6.0, 6.0, 25, 2)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.5, lattice_spacing=1.1)
    params = ModelParams(l=0.9)
    X = grid.meshes()
    psi = np.exp(-0.5 * ((X[0] - 0.5) ** 2 + X[1] ** 2) + 0.7j * X[0])
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    dt = 0.01
    traj = evolve_temporal_gauge(psi, initialize_constraint(grid, psi, params), spec,
                                 params, dt=dt, steps=50)
    kick = 0.5 * dt * params.inv_l2 / spec.lattice_spacing ** 3

    def currents(snap):
        ph = link_phases(grid, snap.gauge.a_phi)
        return [link_current(grid, snap.psi, ph, x) for x in range(2)]

    js = [currents(snap) for snap in traj.snapshots]
    worst = 0.0
    for k in range(1, len(js)):
        for x in range(2):
            df = traj.snapshots[k].gauge.f[x] - traj.snapshots[k - 1].gauge.f[x]
            worst = max(worst, np.abs(df + kick * (js[k - 1][x] + js[k][x])).max())
    f_first, f_last = traj.snapshots[0].gauge.f[0], traj.snapshots[-1].gauge.f[0]
    assert np.abs(f_last - f_first).max() > 1e-4
    assert worst < 1e-15


def test_sigma_is_rms_width_on_two_sites():
    grid = TensorGrid.cube(-5.0, 5.0, 25, 2)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    params = ModelParams(l=2.0)
    X = grid.meshes()
    # squeezed packet: its width breathes in the harmonic wells
    psi = np.exp(-(X[0] - 0.8) ** 2 - X[1] ** 2) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    traj = evolve_temporal_gauge(psi, initialize_constraint(grid, psi, params), spec,
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
    if grid.ndim == 1:
        fwd = _cn_step_1d(grid, psi, phases, _cn_band(grid, diag, 1.0, dt), 1.0, dt)
        back = _cn_step_1d(grid, fwd, phases, _cn_band(grid, diag, 1.0, -dt), 1.0, -dt)
    else:
        fwd = _cn_step_nd(grid, psi, phases, diag, 1.0, dt)
        back = _cn_step_nd(grid, fwd, phases, diag, 1.0, -dt)
    assert np.abs(fwd - psi).max() > 1e-3
    assert np.abs(back - psi).max() < 1e-10


def test_cn_nd_step_matches_banded_step_on_one_site():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    psi = normalized_packet(grid, center=1.0, momentum=0.5)
    x = grid.axes[0].nodes
    phases = link_phases(grid, [0.3 * np.sin(0.5 * (x[1:] + x[:-1]))])
    diag = HARMONIC.site_potential_total(grid)
    banded = _cn_step_1d(grid, psi, phases, _cn_band(grid, diag, 1.0, 0.01), 1.0, 0.01)
    nd = _cn_step_nd(grid, psi, phases, diag, 1.0, 0.01)
    assert np.abs(nd - banded).max() < 1e-10
    assert np.abs(nd - psi).max() > 1e-3


def test_cn_nd_step_matches_dense_reference():
    grid = TensorGrid.cube(-4.0, 4.0, 13, 2)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
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


def test_cn_nd_step_at_its_iteration_cap_raises_with_the_residual(monkeypatch):
    grid = TensorGrid.cube(-4.0, 4.0, 13, 2)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    rng = np.random.default_rng(5)
    psi = np.where(grid.boundary_mask(), rng.standard_normal(grid.shape)
                   + 1j * rng.standard_normal(grid.shape), 0.0)
    phases = link_phases(grid, [0.4 * rng.standard_normal(s)
                                for s in ((12, 13), (13, 12))])
    monkeypatch.setattr(dynamics, "_CN_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="CN inner solve") as info:
        _cn_step_nd(grid, psi, phases, spec.site_potential_total(grid), 1.0, 0.05)
    assert np.isfinite(info.value.residual)
    assert dynamics._CN_RTOL < info.value.residual < 1.0


def _site_packet(count=9, sites=2):
    grid = TensorGrid.cube(-4.0, 4.0, count, sites)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.2)
    X = grid.meshes()
    psi = np.exp(-(X[0] - 0.6) ** 2 - sum(x ** 2 for x in X[1:])) + 0j
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return grid, spec, psi


def test_continuity_residual_is_computed_at_every_recorded_step():
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
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
    grid2, spec2, psi2 = _site_packet()
    params2 = ModelParams(l=1.0)
    two = evolve_temporal_gauge(psi2, initialize_constraint(grid2, psi2, params2),
                                spec2, params2, dt=0.01, steps=12)
    for traj in (full, two):
        _assert_recorded_values_are_the_public_formulas(traj)


def test_continuity_residual_needs_two_distinct_times():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    snap = evolve_temporal_gauge(psi0, initialize_constraint(grid, psi0, params),
                                 HARMONIC, params, dt=0.01, steps=1).snapshots[0]
    with pytest.raises(InsufficientDataError, match="consecutive"):
        continuity_residual(snap, snap, HARMONIC)


def test_continuity_residual_rejects_snapshots_on_two_grids():
    # two grids of one shape: the arrays would combine without an error
    grid, other = (TensorGrid.cube(-h, h, 101, 1) for h in (8.0, 7.0))
    psi = normalized_packet(grid, center=1.0)
    s0 = dynamics.Snapshot(0.0, psi, GaugeState.zero(grid))
    s1 = dynamics.Snapshot(0.01, psi, GaugeState.zero(other))
    with pytest.raises(ValueError, match="^snapshots must be on one grid$"):
        continuity_residual(s0, s1, HARMONIC)


@pytest.mark.parametrize("sites", [1, 2])
def test_a_recorded_snapshot_restarts_the_run_bitwise(sites):
    # a snapshot is complete state: 12 steps, then 18 more from the last
    # snapshot's psi and gauge, are bitwise the 30-step run
    grid = TensorGrid.cube(-6.0, 6.0, 101 if sites == 1 else 17, sites)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                           gradient_coupling=0.5 if sites > 1 else 0.0)
    params = ModelParams(l=1.0)
    X = grid.meshes()
    psi = np.exp(-0.5 * sum((x - 0.7) ** 2 for x in X) + 0.5j * X[0])
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))

    def run(psi0, gauge0, steps):
        return evolve_temporal_gauge(psi0, gauge0, spec, params, dt=0.01, steps=steps,
                                     keep_snapshots=False).snapshots[-1]

    whole = run(psi, initialize_constraint(grid, psi, params), 30)
    first = run(psi, initialize_constraint(grid, psi, params), 12)
    rest = run(first.psi, first.gauge, 18)
    assert np.abs(first.gauge.a_phi[0]).max() > 1e-6
    assert np.array_equal(rest.psi, whole.psi)
    for x in range(sites):
        assert np.array_equal(rest.gauge.a_phi[x], whole.gauge.a_phi[x])
        assert np.array_equal(rest.gauge.f[x], whole.gauge.f[x])


def _assert_recorded_values_are_the_public_formulas(traj):
    """Every diagnostic of a record_every = 1 run, bitwise, from its
    snapshots by the public per-state formulas."""
    g, spec, p = traj.grid, traj.spec, traj.params
    snaps = traj.snapshots
    rec = traj.diagnostics
    w = g.quad_weights()
    diag = spec.site_potential_total(g)
    assert np.abs(snaps[-1].gauge.a_phi[0]).max() > 1e-6
    assert np.isnan(rec["continuity_residual"][0])
    for k, s in enumerate(snaps):
        assert rec["time"][k] == s.time
        if k > 0:
            assert rec["continuity_residual"][k] == continuity_residual(
                snaps[k - 1], s, spec)
        rho = np.abs(s.psi) ** 2
        # the norm is the integral of rho, i.e. grid.norm(psi) ** 2 up
        # to the rounding of the square root
        nrm = float(g.integrate(rho))
        assert rec["norm"][k] == nrm
        assert rec["norm"][k] == pytest.approx(g.norm(s.psi) ** 2,
                                               rel=1e-14, abs=0.0)
        assert rec["charge"][k] == total_charge(g, rho, p)
        assert rec["gauss_residual"][k] == gauss_residual(g, s.gauge.f, rho, p)
        # matter energy Re<psi, H psi> on the step's links, plus the field
        # energy -(l^2/2) sum_x <F_x, F_x> on the link lattice
        hpsi = apply_hamiltonian_raw(g, s.psi, link_phases(g, s.gauge.a_phi), diag,
                                     spec.lattice_spacing)
        e_field = sum(float((g.link_weights(x) * s.gauge.f[x] ** 2).sum())
                      for x in range(g.ndim))
        assert rec["energy"][k] == (float(np.real((w * np.conj(s.psi) * hpsi).sum()))
                                    - 0.5 * p.l ** 2 * e_field)
        # sigma = sqrt(sum_x Var phi_x) of the density
        var = 0.0
        for x in range(g.ndim):
            xs = g.coordinate(x)
            mean = float((w * xs * rho).sum()) / nrm
            var += (w * (xs - mean) ** 2 * rho).sum() / nrm
        assert rec["sigma"][k] == float(np.sqrt(max(var, 0.0)))


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("sites", [1, 2, 3])
def test_diagnostics_across_block_boundaries(sites, record_every):
    # the diagnostics are reduced in blocks of recorded steps; runs over
    # more than two blocks, ending on a step off the record_every grid
    if sites == 1:
        grid, spec = TensorGrid.cube(-8.0, 8.0, 201, 1), HARMONIC
        psi0 = normalized_packet(grid, center=1.0, momentum=0.5)
    else:
        grid, spec, psi0 = _site_packet({2: 17, 3: 7}[sites], sites)
    params = ModelParams(l=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    block = _block_rows(grid.quad_weights().size)
    steps = record_every * (2 * block + 1) + 2
    dense = evolve_temporal_gauge(psi0, g0, spec, params, dt=0.01, steps=steps)
    _assert_recorded_values_are_the_public_formulas(dense)
    picked = sorted(set(range(0, steps + 1, record_every)) | {steps})
    assert len(picked) > 2 * block
    sparse = evolve_temporal_gauge(psi0, g0, spec, params, dt=0.01,
                                   steps=steps, record_every=record_every)
    for key, series in dense.diagnostics.items():
        assert np.array_equal(sparse.diagnostics[key], series[picked],
                              equal_nan=True), key
    for snap, k in zip(sparse.snapshots, picked, strict=True):
        assert np.array_equal(snap.psi, dense.snapshots[k].psi)
        for x in range(grid.ndim):
            assert np.array_equal(snap.gauge.a_phi[x], dense.snapshots[k].gauge.a_phi[x])
            assert np.array_equal(snap.gauge.f[x], dense.snapshots[k].gauge.f[x])


def test_keep_snapshots_false_keeps_the_end_states_and_the_diagnostics():
    grid, spec, psi0 = _site_packet()
    params = ModelParams(l=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    steps = _block_rows(grid.quad_weights().size) + 7
    dense = evolve_temporal_gauge(psi0, g0, spec, params, dt=0.01, steps=steps,
                                  record_every=2)
    ends = evolve_temporal_gauge(psi0, g0, spec, params, dt=0.01, steps=steps,
                                 record_every=2, keep_snapshots=False)
    assert len(ends.snapshots) == 2
    for snap, ref in zip(ends.snapshots, dense.snapshots[::len(dense.snapshots) - 1],
                         strict=True):
        assert snap.time == ref.time
        for a, b in ((snap.psi, ref.psi), (snap.gauge.a_phi[1], ref.gauge.a_phi[1]),
                     (snap.gauge.f[1], ref.gauge.f[1])):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
    assert ends.snapshots[-1].time == steps * 0.01
    assert ends.diagnostics.keys() == dense.diagnostics.keys()
    for key, series in dense.diagnostics.items():
        assert np.array_equal(ends.diagnostics[key], series, equal_nan=True)


def _cn_bands(grid, phases, diag, a_lat, dt):
    """The banded matrix (I + i a H) of the interior nodes, a = dt/2, in
    the layout of `scipy.linalg.solve_banded((1, 1), ...)`."""
    n = grid.shape[0]
    h = grid.spacings[0]
    coef = 1.0 / (2.0 * a_lat ** 3 * h * h)
    alpha = 0.5j * dt
    U = np.ones(n - 1, dtype=complex) if phases is None else phases[0]
    ab = np.zeros((3, n - 2), dtype=complex)
    ab[0, 1:] = alpha * (-coef * U[1:-1])
    ab[1, :] = 1.0 + alpha * (2.0 * coef + diag[1:-1])
    ab[2, :-1] = alpha * (-coef * np.conj(U[1:-1]))
    return ab


def _solve_banded_cn_reference(grid, psi, phases, diag, a_lat, dt):
    """The CN step in its one-solve form 2 (I + i a H)^-1 psi - psi, on
    `scipy.linalg.solve_banded`."""
    ab = _cn_bands(grid, phases, diag, a_lat, dt)
    out = np.zeros_like(psi)
    out[1:-1] = 2.0 * scipy.linalg.solve_banded((1, 1), ab, psi[1:-1]) - psi[1:-1]
    return out


def _two_sided_cn_reference(grid, psi, phases, diag, a_lat, dt):
    """The CN step as (I + i a H)^-1 (I - i a H) psi, on
    `scipy.linalg.solve_banded`."""
    ab = _cn_bands(grid, phases, diag, a_lat, dt)
    rhs = psi - 0.5j * dt * apply_hamiltonian_raw(grid, psi, phases, diag, a_lat)
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
    band = _cn_band(grid, diag, 1.0, 0.01)
    saved = band.copy()
    saved_phases = None if phases is None else phases[0].copy()
    step = _cn_step_1d(grid, psi, phases, band, 1.0, 0.01)
    ref = _solve_banded_cn_reference(grid, psi, phases, diag, 1.0, 0.01)
    assert np.array_equal(step, ref)
    # the band is left for the next step: the evolver builds it once; the
    # off-diagonals are built in place, but never in the phases
    assert np.array_equal(band, saved)
    if links:
        assert np.array_equal(phases[0], saved_phases)
    assert np.abs(step - psi).max() > 1e-3
    # the one-solve form and the two-sided one agree to roundoff
    two_sided = _two_sided_cn_reference(grid, psi, phases, diag, 1.0, 0.01)
    assert np.abs(step - two_sided).max() <= 1e-14 * np.abs(psi).max()


def test_cn_step_1d_on_one_unknown_is_the_scalar_cayley_factor():
    # 3 nodes: one interior unknown and empty off-diagonals
    grid = TensorGrid.cube(-1.0, 1.0, 3, 1)
    psi = np.array([0.0, 0.6 - 0.8j, 0.0])
    diag = np.array([5.0, 0.3, 7.0])
    dt = 0.1
    step = _cn_step_1d(grid, psi, None, _cn_band(grid, diag, 1.0, dt), 1.0, dt)
    e = 2.0 / (2.0 * grid.spacings[0] ** 2) + diag[1]
    expect = psi[1] * (1 - 0.5j * dt * e) / (1 + 0.5j * dt * e)
    assert step[0] == step[2] == 0.0
    assert abs(step[1] - expect) <= 1e-15
    assert abs(step[1] - psi[1]) > 1e-2


def test_snapshots_are_read_only_and_do_not_alias_the_inputs():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    g0.a_phi = [0.01 * np.sin(np.arange(grid.shape[0] - 1.0))]
    inputs = [psi0, g0.a_t, *g0.a_phi, *g0.f]
    before = [v.copy() for v in inputs]
    traj = evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01,
                                 steps=6, record_every=2)
    snaps = traj.snapshots
    for snap in snaps:
        for arr in (snap.psi, snap.gauge.a_phi[0], snap.gauge.f[0], snap.gauge.a_t):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 1.0
            assert not any(np.shares_memory(arr, v) for v in inputs)
        assert snap.gauge.a_t is snaps[0].gauge.a_t
        assert not snap.gauge.a_t.any()
    for old, new in zip(snaps, snaps[1:]):
        assert not np.shares_memory(old.psi, new.psi)
        assert np.abs(new.psi - old.psi).max() > 0.0
    for v, b in zip(inputs, before):
        assert v.flags.writeable
        assert np.array_equal(v, b)


def test_evolve_rejects_a_nan_state_with_integrator_error():
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    bad = psi0.copy()
    bad[40] = np.nan
    # the guards are checked per block of recorded steps; the run goes on
    # past step 1 on NaN states, but the error still names step 1
    for steps in (5, 2 * _block_rows(grid.shape[0]) + 5):
        with pytest.raises(IntegratorError, match="step 1 "):
            evolve_temporal_gauge(bad, g0, HARMONIC,
                                  params, dt=0.01, steps=steps)


def test_evolve_rejects_a_nan_two_site_state_with_integrator_error():
    # the nD CN step skips the inner solve of a non-finite state, so the
    # state reaches the norm guard instead of spinning the solver to its
    # iteration cap
    grid, spec, psi = _site_packet()
    params = ModelParams(l=1.0)
    g0 = initialize_constraint(grid, psi, params)
    bad = psi.copy()
    bad[4, 4] = np.nan
    with pytest.raises(IntegratorError, match="step 1 "):
        evolve_temporal_gauge(bad, g0, spec, params,
                              dt=0.01, steps=5)


def test_guards_name_the_first_failing_step_norm_guard_first(monkeypatch):
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    real_gauss = dynamics.gauss_residual

    def blown_up_from_row_4(*args):
        res = real_gauss(*args)
        res[4:] = 2.0
        return res

    monkeypatch.setattr(dynamics, "gauss_residual", blown_up_from_row_4)
    assert _block_rows(grid.shape[0]) > 11  # one block holds steps 0..10
    with pytest.raises(ConstraintViolationError,
                       match=r"^Gauss residual 2\.000e\+00 blew up at step 4$"):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10)
    with pytest.raises(ConstraintViolationError, match="at step 8$"):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10,
                              record_every=2)
    # where both guards fail on a row, the norm guard is the one raised
    bad = np.where(np.arange(101) == 40, np.nan, psi0)
    with pytest.raises(IntegratorError, match="step 1 "):
        evolve_temporal_gauge(bad, g0, HARMONIC, params, dt=0.01, steps=10)


def test_a_step_that_raises_after_a_guard_failure_reports_the_guard(monkeypatch):
    # the NaN state fails the norm guard at step 1, which is only checked
    # when its block is reduced; a later step that raises on its own must
    # not hide that failure
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    bad = np.where(np.arange(101) == 40, np.nan, psi0)
    calls = []

    def failing_third_step(*args):
        calls.append(args)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("zgtsv failed in the CN step (info=7)")
        return _cn_step_1d(*args)

    monkeypatch.setattr(dynamics, "_cn_step_1d", failing_third_step)
    with pytest.raises(IntegratorError, match="step 1 "):
        evolve_temporal_gauge(bad, g0, HARMONIC, params, dt=0.01, steps=10)
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError, match="info=7"):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10)


def test_a_failed_cn_solve_raises_from_the_evolver_after_its_rows(monkeypatch):
    # zgtsv reports a singular system at the third step; the evolver
    # reduces the rows recorded before it, then re-raises
    grid = TensorGrid.cube(-8.0, 8.0, 101, 1)
    params = ModelParams(l=1.0)
    psi0 = normalized_packet(grid, center=1.0)
    g0 = initialize_constraint(grid, psi0, params)
    real = dynamics._lapack
    calls = []

    def zgtsv(*args):
        calls.append(args)
        if len(calls) == 3:
            return (None,) * 4 + (7,)
        return real("zgtsv")(*args)

    monkeypatch.setattr(dynamics, "_lapack",
                        lambda name: zgtsv if name == "zgtsv" else real(name))
    flushed = []
    real_gauss = dynamics.gauss_residual

    def gauss(*args):
        res = real_gauss(*args)
        flushed.append(res.size)
        return res

    monkeypatch.setattr(dynamics, "gauss_residual", gauss)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^zgtsv failed in the CN step \(info=7\)$"):
        evolve_temporal_gauge(psi0, g0, HARMONIC, params, dt=0.01, steps=10)
    assert len(calls) == 3 and flushed == [3]
