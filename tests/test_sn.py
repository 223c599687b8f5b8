import numpy as np
import pytest
import scipy.linalg

import nlgauge.sn as sn
from nlgauge.dynamics import stationary_solve
from nlgauge.errors import ConvergenceError, IntegratorError
from nlgauge.grids import RadialGrid, TensorGrid, UniformGrid1D
from nlgauge.model import HamiltonianSpec, ModelParams
from nlgauge.sn import (Line1DState, SNParams, _rk4_shoot_u,
                        limit_equivalence_check, line_ground_scf,
                        poisson_1d_neumann,
                        shoot_node_count, sn_evolve_1d, sn_ground_radial_scf,
                        sn_ground_radial_shoot, solve_phi_grav)

HARM3D = SNParams(coupling=0.0, external_potential_coeffs=(0.0, 0.0, 0.5))
CUBE9 = TensorGrid.cube(-5.0, 5.0, 9, 3)


def line_weights(grid):
    w = np.full(grid.count, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def test_radial_oscillator_both_methods():
    rg = RadialGrid(1e-6, 12.0, 3000)
    st = sn_ground_radial_scf(HARM3D, rg, tol=1e-11)
    sh = sn_ground_radial_shoot(HARM3D, rg, tol=1e-11)
    assert abs(st.energy - 1.5) < 1e-4
    assert abs(sh.energy - 1.5) < 1e-4
    assert abs(sh.u[-1]) < 1e-8  # clean tail from the two-sided assembly
    assert shoot_node_count(sh.u) == 0


def test_shooting_oracle_energy_and_shot_count(monkeypatch):
    shots = []

    def counted(r, veff, energy):
        shots.append(energy)
        return _rk4_shoot_u(r, veff, energy)
    monkeypatch.setattr(sn, "_rk4_shoot_u", counted)
    sh = sn_ground_radial_shoot(SNParams(coupling=1.0),
                                RadialGrid(1e-6, 20.0, 2000), tol=1e-12)
    # bisection on the node count under linear mixing gave this energy
    # with 2986 shots
    assert abs(sh.energy - (-0.16277699891135855)) < 1e-10
    assert shoot_node_count(sh.u) == 0
    assert len(shots) <= 900


@pytest.mark.parametrize("solve", [
    lambda: sn_ground_radial_scf(SNParams(coupling=1.0),
                                 RadialGrid(1e-6, 20.0, 400), tol=1e-12,
                                 max_scf=3),
    lambda: sn_ground_radial_shoot(SNParams(coupling=1.0),
                                   RadialGrid(1e-6, 20.0, 400), tol=1e-12,
                                   max_outer=3),
    lambda: line_ground_scf(UniformGrid1D(-8.0, 8.0, 161), (0.0, 0.0, 0.5),
                            1.0, 1.0 / 16.0, tol=1e-12, max_scf=3),
    lambda: stationary_solve(HamiltonianSpec(sites=3, potential_coeffs=(0.0, 0.0, 0.5)),
                             ModelParams.for_grid(CUBE9, l=1.0), CUBE9,
                             tol=1e-12, max_scf=3),
], ids=["radial_scf", "radial_shoot", "line_scf", "stationary"])
def test_unconverged_solvers_raise_with_trace(solve):
    with pytest.raises(ConvergenceError) as err:
        solve()
    assert len(err.value.trace) == 3
    assert [t[0] for t in err.value.trace] == [1, 2, 3]
    assert err.value.residual == err.value.trace[-1][2] > 0


def test_cross_method_oracle_at_unit_coupling():
    rg = RadialGrid(1e-6, 20.0, 3000)
    p = SNParams(coupling=1.0)
    st = sn_ground_radial_scf(p, rg, tol=1e-12)
    sh = sn_ground_radial_shoot(p, rg, tol=1e-12)
    assert abs(st.energy - sh.energy) / abs(st.energy) < 1e-4
    assert np.abs(st.u - sh.u).max() < 1e-5
    # sanity band for the self-bound ground level in these units
    assert -0.17 < st.energy < -0.155


def test_scaling_symmetry_exact_on_image_grid():
    c, b = 1.0, 2.0
    rg = RadialGrid(1e-6, 20.0, 3000)
    st = sn_ground_radial_scf(SNParams(coupling=c), rg, tol=1e-12)
    rg2 = RadialGrid(rg.r_min / b, rg.r_max / b, rg.count)
    r2 = rg2.nodes
    h2 = rg2.spacing
    u2 = np.sqrt(b) * st.u
    v2 = b * st.v
    e2 = b * b * st.energy
    # eigen-residual of the rescaled pair under the doubled coupling
    hu = np.zeros_like(u2)
    hu[1:-1] = -(u2[2:] - 2 * u2[1:-1] + u2[:-2]) / (2 * h2 * h2)
    hu += (v2 / r2) * u2
    hu[0] = hu[-1] = 0.0
    w2 = np.full(rg2.count, h2)
    w2[0] *= 0.5
    w2[-1] *= 0.5
    res_eig = np.sqrt((w2 * (hu - e2 * u2) ** 2)[1:-1].sum())
    assert res_eig < 1e-6
    # Poisson consistency: the rescaled v is what the rescaled u sources
    from nlgauge.sn import _potential_from_u_quadrature
    v_check = _potential_from_u_quadrature(r2, u2, b * c)
    assert np.abs(v_check - v2).max() < 1e-9
    # norm is preserved by the rescaling
    assert abs(4 * np.pi * np.trapezoid(u2 * u2, r2) - 1.0) < 1e-12
    # energy scales with the square of the coupling
    st2 = sn_ground_radial_scf(SNParams(coupling=b * c), rg2, tol=1e-12)
    assert abs(st2.energy - e2) / abs(e2) < 1e-6


def test_node_count_monotone_in_energy():
    rg = RadialGrid(1e-6, 12.0, 2000)
    r = rg.nodes
    veff = 0.5 * r ** 2
    below = _rk4_shoot_u(r, veff, 1.0)   # below the ground level 1.5
    above = _rk4_shoot_u(r, veff, 2.5)   # above it
    assert shoot_node_count(below) == 0
    assert abs(below[-1]) > 0  # divergence without a crossing
    assert shoot_node_count(above) >= 1


def test_free_gaussian_spreading_law():
    grid = UniformGrid1D(-24.0, 24.0, 961)
    x = grid.nodes
    w = line_weights(grid)
    sig0 = 1.0
    psi = np.exp(-x ** 2 / (4 * sig0 ** 2)) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    out = sn_evolve_1d(Line1DState(grid, psi, np.zeros_like(x)),
                       SNParams(coupling=0.0), dt=0.01, steps=400)
    s = out["series"]
    T = s["t"][-1]
    predicted = np.sqrt(sig0 ** 2 + T ** 2 / (4 * sig0 ** 2))
    assert abs(s["sigma"][-1] / predicted - 1.0) < 0.01
    assert np.all(np.diff(s["sigma"]) > 0)
    assert np.abs(s["norm"] - 1.0).max() < 1e-10


def test_uniform_density_gives_zero_potential():
    grid = UniformGrid1D(-5.0, 5.0, 201)
    p = SNParams(coupling=1.0, background=0.1)
    rho = np.full(grid.count, 0.1)
    phi = solve_phi_grav(grid, rho, p)
    assert np.abs(phi).max() < 1e-13


def test_background_zero_acts_as_compat_projection():
    # with background 0 the source mean is projected out, matching the
    # compact-universe constraint (equivalent to background = 1/volume)
    grid = UniformGrid1D(-5.0, 5.0, 201)
    x = grid.nodes
    w = line_weights(grid)
    rho = np.exp(-x ** 2)
    rho /= (w * rho).sum()
    phi0 = solve_phi_grav(grid, rho, SNParams(coupling=1.0, background=0.0))
    phi1 = solve_phi_grav(grid, rho,
                          SNParams(coupling=1.0, background=1.0 / grid.extent))
    assert np.abs(phi0 - phi1).max() < 1e-12


def test_shrinking_at_strong_coupling():
    grid = UniformGrid1D(-30.0, 30.0, 1201)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-x ** 2 / 4.0) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    strong = sn_evolve_1d(Line1DState(grid, psi.copy(), np.zeros_like(x)),
                          SNParams(coupling=2.0), dt=0.005, steps=400)
    weak = sn_evolve_1d(Line1DState(grid, psi.copy(), np.zeros_like(x)),
                        SNParams(coupling=0.0), dt=0.005, steps=400)
    assert strong["series"]["sigma"].min() < 1.0
    assert np.all(np.diff(weak["series"]["sigma"]) > 0)


def test_energy_drift_second_order():
    grid = UniformGrid1D(-20.0, 20.0, 801)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-x ** 2 / 4.0) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    p = SNParams(coupling=2.0)
    drifts = []
    for dt in (0.02, 0.01, 0.005):
        out = sn_evolve_1d(Line1DState(grid, psi.copy(), np.zeros_like(x)), p,
                           dt=dt, steps=int(2.0 / dt))
        e = out["series"]["energy"]
        drifts.append(np.abs(e - e[0]).max())
    assert 2.7 < drifts[0] / drifts[1] < 6.0
    assert 2.7 < drifts[1] / drifts[2] < 6.0

    # each recorded energy is <psi, -1/2 psi'' + V psi> - 1/2 <phi, rho>
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.0, 0.0, 0.01))
    state = Line1DState(grid, psi.copy(), np.zeros_like(x))
    state.psi[0] = state.psi[-1] = 0.0
    for _ in range(3):
        out = sn_evolve_1d(state, p, dt=0.02, steps=1)
        for psi_k, e_k in zip((state.psi, out["final"].psi), out["series"]["energy"]):
            lap = np.zeros_like(psi_k)
            lap[1:-1] = (psi_k[2:] - 2 * psi_k[1:-1] + psi_k[:-2]) / grid.spacing ** 2
            rho = np.abs(psi_k) ** 2
            expect = (float(np.real((w * np.conj(psi_k) * (-0.5 * lap + 0.01 * x * x
                                                            * psi_k)).sum()))
                      - 0.5 * float((w * solve_phi_grav(grid, rho, p) * rho).sum()))
            assert abs(e_k - expect) <= 1e-13 * abs(expect)
        state = out["final"]


def test_poisson_1d_neumann_matches_cg_path():
    from nlgauge.grids import TensorGrid
    from nlgauge.numerics import poisson_solve
    grid = UniformGrid1D(-3.0, 3.0, 161)
    tg = TensorGrid((grid,))
    rng = np.random.default_rng(7)
    src = rng.standard_normal(grid.count)
    w = line_weights(grid)
    src -= (w * src).sum() / grid.extent
    direct = poisson_1d_neumann(grid, src)
    cg = poisson_solve(tg, src)
    assert np.abs(direct - cg).max() < 1e-10


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5),
                                    (0.0, 0.0, 0.0, 0.0, 0.25)])
def test_limit_equivalence(coeffs):
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    spec = HamiltonianSpec(sites=1, potential_coeffs=coeffs)
    params = ModelParams.for_grid(grid, l=1.0)
    rep = limit_equivalence_check(spec, params, grid, tol=1e-13)
    assert rep.omega_diff < 1e-8
    assert rep.max_psi_diff < 1e-7
    assert rep.source_curvature_consistent


def test_limit_equivalence_linear_limit():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    spec = HamiltonianSpec(sites=1, potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams.for_grid(grid, l=np.inf)
    rep = limit_equivalence_check(spec, params, grid, tol=1e-13)
    assert rep.omega_diff < 1e-10
    assert abs(rep.omega_functional - 0.5) < 1e-3
    assert rep.max_at_diff < 1e-14


def test_sn_params_validation():
    with pytest.raises(ValueError):
        SNParams(coupling=-1.0)
    with pytest.raises(ValueError):
        SNParams(background=-0.5)
    with pytest.raises(ValueError):
        SNParams(coupling=np.nan)
    with pytest.raises(ValueError):
        SNParams(background=np.nan)
    with pytest.raises(ValueError):
        sn_ground_radial_scf(SNParams(coupling=1.0, background=0.2),
                             RadialGrid(1e-6, 10.0, 100))


@pytest.mark.parametrize("count", [201, 1201])
def test_poisson_1d_neumann_equals_solve_banded_bitwise(count):
    grid = UniformGrid1D(-30.0, 30.0, count)
    rng = np.random.default_rng(count)
    source = rng.standard_normal(count)
    # reference: the pinned Neumann system on scipy.linalg.solve_banded
    w = line_weights(grid)
    src = source - (w * source).sum() / grid.extent
    h2 = grid.spacing ** 2
    ab = np.zeros((3, count))
    ab[0, 1:] = 1.0 / h2
    ab[1, :] = -2.0 / h2
    ab[2, :-1] = 1.0 / h2
    ab[2, -2] = 2.0 / h2
    ab[0, 1] = 0.0
    ab[1, 0] = 1.0
    rhs = src.copy()
    rhs[0] = 0.0
    ref = scipy.linalg.solve_banded((1, 1), ab, rhs)
    ref -= (w * ref).sum() / grid.extent
    assert np.array_equal(poisson_1d_neumann(grid, source), ref)


@pytest.mark.parametrize("coupling", [0.0, 2.0])
def test_sn_evolve_rejects_a_nan_state_with_integrator_error(coupling):
    grid = UniformGrid1D(-10.0, 10.0, 201)
    x = grid.nodes
    psi = np.exp(-x ** 2 / 4) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    psi[60] = np.nan
    with pytest.raises(IntegratorError, match="step 1$"):
        sn_evolve_1d(Line1DState(grid, psi, np.zeros_like(x)),
                     SNParams(coupling=coupling), dt=0.01, steps=5)
