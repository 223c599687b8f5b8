import dataclasses
import inspect

import numpy as np
import pytest
import scipy.linalg

import nlgauge.sn as sn
from nlgauge.dynamics import _block_rows, evolve_temporal_gauge, stationary_solve
from nlgauge.errors import ConvergenceError, GridShapeError, IntegratorError
from nlgauge.gaugeops import initialize_constraint
from nlgauge.grids import RadialGrid, TensorGrid, UniformGrid1D
from nlgauge.model import HamiltonianSpec, ModelParams
from nlgauge.sn import (SNParams, _rk4_shoot_u,
                        limit_equivalence_check, line_ground_scf,
                        poisson_1d_neumann,
                        shoot_node_count, sn_evolve_1d, sn_ground_radial_scf,
                        sn_ground_radial_shoot, solve_phi_grav)
from references import gravity_pairing

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


# a coupled radial problem: with coupling 0 the zero potential is already
# the fixed point, and any mixing weight would return it
COUPLED = dataclasses.replace(HARM3D, coupling=1.0)
# the coupled line problem of the harmonic trap on [-8, 8]
LINE16 = dataclasses.replace(COUPLED, background=1.0 / 16.0)


@pytest.mark.parametrize("solve", [
    lambda: sn_ground_radial_scf(COUPLED, RadialGrid(1e-6, 12.0, 200), mixing=0.0),
    lambda: sn_ground_radial_scf(COUPLED, RadialGrid(1e-6, 12.0, 200), tol=-1.0),
    lambda: sn_ground_radial_scf(COUPLED, RadialGrid(1e-6, 12.0, 200), tol=np.nan),
    lambda: line_ground_scf(UniformGrid1D(-8.0, 8.0, 161), LINE16, tol=-1.0),
    # the oracle's own entry checks reject these before it calls fixed_point,
    # at coupling 0 as at coupling 1
    lambda: sn_ground_radial_shoot(HARM3D, RadialGrid(1e-6, 12.0, 200), tol=-1.0),
    lambda: sn_ground_radial_shoot(HARM3D, RadialGrid(1e-6, 12.0, 200), mixing=0.0),
    lambda: sn_ground_radial_shoot(HARM3D, RadialGrid(1e-6, 12.0, 200), tol=np.nan),
    lambda: sn_ground_radial_shoot(COUPLED, RadialGrid(1e-6, 12.0, 200), tol=-1.0),
], ids=["scf-mixing-0", "scf-tol-negative", "scf-tol-nan", "line-tol-negative",
        "shoot-tol-negative", "shoot-mixing-0", "shoot-tol-nan",
        "shoot-coupled-tol-negative"])
def test_loops_reject_bad_mixing_and_tol_up_front(solve):
    # not a ConvergenceError at the iteration cap: no tolerance can be met
    with pytest.raises(ValueError):
        solve()


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
    lambda: line_ground_scf(UniformGrid1D(-8.0, 8.0, 161), LINE16, tol=1e-12,
                            max_scf=3),
    lambda: stationary_solve(HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5)),
                             ModelParams(l=1.0), CUBE9,
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


def test_radial_ground_energy_richardson_limit():
    # both methods converge as h^2: each halving cuts the error by 4, and
    # their extrapolated energies agree far more tightly than at any n
    p = SNParams(coupling=1.0)
    limits = []
    for solve in (sn_ground_radial_scf, sn_ground_radial_shoot):
        e = [solve(p, RadialGrid(1e-6, 30.0, n), tol=1e-13).energy
             for n in (1000, 2000, 4000)]
        assert (e[0] - e[1]) / (e[1] - e[2]) == pytest.approx(4.0, abs=0.1)
        limits.append(e[2] + (e[2] - e[1]) / 3.0)
    assert limits[0] == pytest.approx(limits[1], rel=1e-9, abs=0.0)
    assert limits == pytest.approx([-0.16276910] * 2, rel=0.0, abs=1e-7)


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


def _scalar_rk4_shoot_u(r, veff, energy):
    """Reference: the step-by-step RK4 shot on plain floats, rescaling
    whenever the amplitude exceeds 1e12. Returns (u, rescale count)."""
    n = r.size
    h = float(r[1] - r[0])
    kk = (2.0 * (veff - energy)).tolist()
    u_out = np.empty(n)
    u_out[0] = 0.0
    u, up = 0.0, 1.0
    h6 = h / 6.0
    rescales = 0
    for i in range(n - 1):
        k0 = kk[i]
        k1 = kk[i + 1]
        km = 0.5 * (k0 + k1)
        a1u, a1p = up, k0 * u
        y2u = u + 0.5 * h * a1u
        y2p = up + 0.5 * h * a1p
        a2u, a2p = y2p, km * y2u
        y3u = u + 0.5 * h * a2u
        y3p = up + 0.5 * h * a2p
        a3u, a3p = y3p, km * y3u
        y4u = u + h * a3u
        y4p = up + h * a3p
        a4u, a4p = y4p, k1 * y4u
        u = u + h6 * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)
        up = up + h6 * (a1p + 2.0 * a2p + 2.0 * a3p + a4p)
        m = max(abs(u), abs(up))
        if m > 1e12:
            u /= m
            up /= m
            u_out[: i + 1] /= m
            rescales += 1
        u_out[i + 1] = u
    return u_out, rescales


@pytest.fixture(scope="module")
def sn_effective_potential():
    """veff = v/r of the coupling-1 SN ground state on 2000 nodes, and
    its ground level."""
    rg = RadialGrid(1e-6, 20.0, 2000)
    st = sn_ground_radial_scf(SNParams(coupling=1.0), rg, tol=1e-12)
    return rg.nodes, st.v / rg.nodes, st.energy


CHUNK = sn._SHOT_CHUNK


@pytest.mark.parametrize("kind, arg", [
    ("sn", -0.05), ("sn", 0.0), ("sn", 0.05),  # energy offset from the level
    ("sn-reversed", 0.0),
    # node counts; CHUNK nodes are a chunk less one step
    ("harmonic", 3), ("harmonic", 65), ("harmonic", 66), ("harmonic", CHUNK),
    ("harmonic", CHUNK + 1), ("harmonic", CHUNK + 2), ("harmonic", 2000),
    ("harmonic-reversed", 2000), ("harmonic-r40", 2000),
])
def test_blocked_shot_matches_the_scalar_loop(kind, arg, sn_effective_potential):
    if kind.startswith("sn"):
        r, veff, level = sn_effective_potential
        energy = level + arg
    else:
        r_max = 40.0 if kind == "harmonic-r40" else 12.0
        r = np.linspace(1e-6, r_max, arg)  # RadialGrid rejects 3 nodes
        veff, energy = 0.5 * r ** 2, -1.0
    if kind.endswith("reversed"):
        # the inward pass of `_assemble_two_sided`: a negative step
        r, veff = r[::-1].copy(), veff[::-1].copy()
    ref, rescales = _scalar_rk4_shoot_u(r, veff, energy)
    u = _rk4_shoot_u(r, veff, energy)
    assert u[0] == 0.0
    assert shoot_node_count(u) == shoot_node_count(ref)
    assert np.abs(u / np.linalg.norm(u) - ref / np.linalg.norm(ref)).max() < 1e-13
    if kind == "harmonic" and arg > 3:
        assert rescales >= 2  # the amplitude crosses the rescale threshold
    if kind == "harmonic-r40":
        # each rescale divides by more than 1e12: the total growth passes
        # 1e308, so one pass with no rescale would overflow
        assert rescales * 12 > 308


def test_shot_far_outside_rk4_stability_raises():
    # k h^2 ~ 1e6: the per-step loop stays finite by rescaling every
    # step, but the growth within one chunk of steps overflows; either
    # answer is noise
    r = np.arange(1, 401) * 0.01
    with pytest.raises(ConvergenceError, match="energy 0.5"):
        _rk4_shoot_u(r, np.full(r.size, 5e9), 0.5)


def test_ground_level_raises_when_the_bracket_does_not_close(monkeypatch):
    # a shooting function that is 0 everywhere leaves only bisection, and
    # 200 halvings of a 2e60 bracket stay far wider than the tolerance
    monkeypatch.setattr(sn, "_shoot",
                        lambda r, veff, e: (int(e > 0.123), 0.0))
    r = np.linspace(0.1, 1.0, 10)
    with pytest.raises(ConvergenceError, match="bracket") as err:
        sn._ground_level(r, r, -1e60, 0.0, 1e60, 0.0, 1e-12)
    assert err.value.residual > 1.0


def _scalar_rk4_poisson_v(r, u, coupling):
    """Reference: RK4 for v'' = 4 pi coupling u^2 / r step by step."""
    n = r.size
    h = float(r[1] - r[0])
    src = (4.0 * np.pi * coupling * u * u / r).tolist()
    part = np.empty(n)
    part[0] = 0.0
    vv, vp = 0.0, 0.0
    h6 = h / 6.0
    for i in range(n - 1):
        s0 = src[i]
        s1 = src[i + 1]
        sm = 0.5 * (s0 + s1)
        a1v, a1p = vp, s0
        a2v = vp + 0.5 * h * a1p
        a3v = vp + 0.5 * h * sm
        a4v = vp + h * sm
        vv = vv + h6 * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        vp = vp + h6 * (s0 + 4.0 * sm + s1)
        part[i + 1] = vv
    target = -coupling * sn._radial_norm(r, u)
    slope = (target - part[-1]) / r[-1]
    return part + slope * r


@pytest.mark.parametrize("count", [400, 2000, 4000])
def test_rk4_poisson_v_is_the_scalar_loop_bitwise(count):
    r = RadialGrid(1e-6, 20.0, count).nodes
    rng = np.random.default_rng(count)
    for _ in range(5):
        u = r * np.exp(-rng.uniform(0.2, 2.0) * r) * (1 + 0.1 * rng.standard_normal(count))
        coupling = rng.uniform(0.1, 3.0)
        assert np.array_equal(sn._rk4_poisson_v(r, u, coupling),
                              _scalar_rk4_poisson_v(r, u, coupling))


def test_free_gaussian_spreading_law():
    grid = UniformGrid1D(-24.0, 24.0, 961)
    x = grid.nodes
    w = line_weights(grid)
    sig0 = 1.0
    psi = np.exp(-x ** 2 / (4 * sig0 ** 2)) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    out = sn_evolve_1d(grid, psi, SNParams(coupling=0.0), dt=0.01, steps=400)
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
    strong = sn_evolve_1d(grid, psi, SNParams(coupling=2.0), dt=0.005, steps=400)
    weak = sn_evolve_1d(grid, psi, SNParams(coupling=0.0), dt=0.005, steps=400)
    assert strong["series"]["sigma"].min() < 1.0
    assert np.all(np.diff(weak["series"]["sigma"]) > 0)


def test_line_evolver_conserves_norm_when_coupled():
    grid = UniformGrid1D(-15.0, 15.0, 401)
    x = grid.nodes
    psi = np.exp(-x ** 2 / 4.0) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    norm = sn_evolve_1d(grid, psi, SNParams(coupling=1.0),
                        dt=0.01, steps=100)["series"]["norm"]
    assert np.abs(norm - norm[0]).max() < 1e-8


def test_sn_evolve_takes_grid_and_psi_with_keyword_only_record_every():
    params = inspect.signature(sn_evolve_1d).parameters
    assert list(params) == ["grid", "psi", "params", "dt", "steps", "record_every"]
    assert params["record_every"].kind is inspect.Parameter.KEYWORD_ONLY
    grid = UniformGrid1D(-1.0, 1.0, 5)
    psi = np.ones(5, complex)
    # a stale call with one state argument in place of grid and psi
    with pytest.raises(TypeError):
        sn_evolve_1d((grid, psi), SNParams(), dt=0.01, steps=1)
    # the run starts at t = 0 and works on a copy of psi
    out = sn_evolve_1d(grid, psi, SNParams(), dt=0.01, steps=2)
    assert out["series"]["t"].tolist() == [0.0, 0.01, 0.02]
    assert out["psi"][0] == 0.0 and psi[0] == 1.0


def test_energy_drift_second_order():
    grid = UniformGrid1D(-20.0, 20.0, 801)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-x ** 2 / 4.0) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    p = SNParams(coupling=2.0)
    drifts = []
    for dt in (0.02, 0.01, 0.005):
        out = sn_evolve_1d(grid, psi, p,
                           dt=dt, steps=int(2.0 / dt))
        e = out["series"]["energy"]
        drifts.append(np.abs(e - e[0]).max())
    assert 2.7 < drifts[0] / drifts[1] < 6.0
    assert 2.7 < drifts[1] / drifts[2] < 6.0

    # each recorded energy is <psi, -1/2 psi'' + V psi> - 1/2 <phi, rho>
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.0, 0.0, 0.01))
    psi_0 = psi.copy()
    psi_0[0] = psi_0[-1] = 0.0
    for _ in range(3):
        out = sn_evolve_1d(grid, psi_0, p, dt=0.02, steps=1)
        for psi_k, e_k in zip((psi_0, out["psi"]), out["series"]["energy"]):
            lap = np.zeros_like(psi_k)
            lap[1:-1] = (psi_k[2:] - 2 * psi_k[1:-1] + psi_k[:-2]) / grid.spacing ** 2
            rho = np.abs(psi_k) ** 2
            expect = (float(np.real((w * np.conj(psi_k) * (-0.5 * lap + 0.01 * x * x
                                                            * psi_k)).sum()))
                      - 0.5 * float(gravity_pairing(grid, rho, p)))
            assert abs(e_k - expect) <= 1e-13 * abs(expect)
        psi_0 = out["psi"]


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


def test_poisson_1d_neumann_rejects_a_complex_source():
    # a cast to float would drop the imaginary part with only a warning
    grid = UniformGrid1D(-8.0, 8.0, 101)
    rho = (1 + 1j) * np.ones(grid.count) / 16
    for solve in (lambda: poisson_1d_neumann(grid, rho),
                  lambda: solve_phi_grav(grid, rho, SNParams())):
        with pytest.raises(ValueError, match="^source must be real, not complex$"):
            solve()


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5),
                                    (0.0, 0.0, 0.0, 0.0, 0.25)])
def test_limit_equivalence(coeffs):
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    spec = HamiltonianSpec(potential_coeffs=coeffs)
    params = ModelParams(l=1.0)
    rep = limit_equivalence_check(spec, params, grid, tol=1e-13)
    assert rep.omega_diff < 1e-8
    assert rep.max_psi_diff < 1e-7
    assert rep.source_curvature_consistent


def test_limit_equivalence_linear_limit():
    grid = TensorGrid.cube(-8.0, 8.0, 321, 1)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams(l=np.inf)
    rep = limit_equivalence_check(spec, params, grid, tol=1e-13)
    assert rep.omega_diff < 1e-10
    assert abs(rep.omega_functional - 0.5) < 1e-3
    assert rep.max_at_diff < 1e-14


def test_limit_check_runs_the_coupled_solves_at_l_inf():
    # coupling 0 takes both potential solves, each of a zero source
    rep = limit_equivalence_check(HamiltonianSpec(), ModelParams(l=np.inf),
                                  TensorGrid.cube(-8.0, 8.0, 201, 1), tol=1e-12)
    assert rep.omega_diff < 1e-12
    assert rep.max_psi_diff < 1e-12
    assert rep.max_at_diff == 0.0
    assert rep.source_curvature_consistent


@pytest.mark.parametrize("a", [0.7, 2.0])
def test_limit_check_scales_the_line_problem_by_the_lattice_spacing(a):
    # a^3 times the functional equation is the line problem at coupling
    # a^3/l^2 and potential a^6 V; unscaled, the two sides differ by ~0.2
    rep = limit_equivalence_check(HamiltonianSpec(lattice_spacing=a),
                                  ModelParams(l=1.0),
                                  TensorGrid.cube(-8.0, 8.0, 201, 1))
    assert rep.omega_diff < 1e-12
    assert rep.max_psi_diff < 1e-12
    assert rep.max_at_diff < 1e-12


@pytest.mark.parametrize("flip", [False, True])
def test_limit_check_sign_test_fails_on_a_negated_potential(monkeypatch, flip):
    # negative control: -A_t curves against the source wherever the test
    # looks, so the sign test must report it
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    solved = []

    def solve(*args, **kwargs):
        st = stationary_solve(*args, **kwargs)
        solved.append(st)
        return dataclasses.replace(st, a_t=-st.a_t) if flip else st

    monkeypatch.setattr(sn, "stationary_solve", solve)
    rep = limit_equivalence_check(HamiltonianSpec(), ModelParams(l=1.0), grid)
    assert rep.source_curvature_consistent is not flip
    # the interior share of nodes below the uniform background 1/Omega
    rho = solved[0].psi ** 2
    assert rep.repulsive_fraction == np.mean(rho[1:-1] < 1.0 / grid.volume)
    assert rep.repulsive_fraction == pytest.approx(0.8241, abs=1e-4)


def test_limit_check_rejects_a_multi_site_grid():
    with pytest.raises(ValueError, match="single-site"):
        limit_equivalence_check(HamiltonianSpec(), ModelParams(l=1.0),
                                TensorGrid.cube(-4.0, 4.0, 9, 2))


def _line_operator(count, coeffs):
    grid = UniformGrid1D(-8.0, 8.0, count)
    return grid.spacing, SNParams(external_potential_coeffs=coeffs).external_potential(
        grid.nodes)


def _radial_operator():
    rg = RadialGrid(1e-6, 20.0, 2000)
    return rg.spacing, sn_ground_radial_scf(SNParams(coupling=1.0), rg, tol=1e-12).v / rg.nodes


# (h, diag) of -1/2 u'' + diag u on a few thousand nodes, where bisection's
# eigenvalue error, about eps * ||T||, was 4.7e-13 to 3.6e-12
ORACLE_OPERATORS = {
    "harmonic-2001": lambda: _line_operator(2001, (0.0, 0.0, 0.5)),
    "harmonic-3001": lambda: _line_operator(3001, (0.0, 0.0, 0.5)),
    "tilted-double-well-4001": lambda: _line_operator(
        4001, (81.0 / 72.0, 0.1, -0.25, 0.0, 1.0 / 72.0)),
    "radial-2000": _radial_operator,
}


@pytest.mark.parametrize("operator", ORACLE_OPERATORS.values(), ids=ORACLE_OPERATORS)
def test_line_oracle_eigenvalue_is_the_rayleigh_quotient_of_its_vector(operator):
    h, diag = operator()
    lam, u = sn._tridiag_ground(h, diag)
    ul = u.astype(np.longdouble)
    du = np.diff(ul)
    exact = ((np.sum(diag.astype(np.longdouble) * ul * ul)
              + np.sum(du * du) / (2 * np.longdouble(h) ** 2)) / np.sum(ul * ul))
    assert abs(lam - exact) <= 1e-14 * max(1.0, abs(lam))


def test_uncoupled_radial_solves_stop_at_the_exact_fixed_point():
    # v = 0 is returned exactly, so one evaluation of each loop is enough
    rg = RadialGrid(1e-6, 12.0, 400)
    assert sn_ground_radial_scf(HARM3D, rg).iterations == 1
    assert sn_ground_radial_shoot(HARM3D, rg).iterations == 1


def test_shooting_oracle_rejects_a_background():
    with pytest.raises(ValueError, match="background-free"):
        sn_ground_radial_shoot(SNParams(background=0.1),
                               RadialGrid(1e-6, 12.0, 200))


def test_sn_params_validation():
    with pytest.raises(ValueError):
        SNParams(coupling=-1.0)
    with pytest.raises(ValueError):
        SNParams(background=-0.5)
    with pytest.raises(ValueError):
        SNParams(coupling=np.nan)
    with pytest.raises(ValueError):
        SNParams(background=np.nan)
    # non-finite values would surface as a norm drift to nan at step 1
    for field, value in (("coupling", np.inf), ("background", np.inf),
                         ("external_potential_coeffs", (0.0, np.nan)),
                         ("external_potential_coeffs", (0.0, 0.0, np.inf))):
        with pytest.raises(ValueError, match=field):
            SNParams(**{field: value})
    with pytest.raises(ValueError):
        sn_ground_radial_scf(SNParams(coupling=1.0, background=0.2),
                             RadialGrid(1e-6, 10.0, 100))


def _packet_1d(grid):
    x = grid.axes[0].nodes
    psi = np.exp(-0.5 * x * x) + 0j
    psi[0] = psi[-1] = 0.0
    return psi / np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))


# coefficient 1e307 on x^2: the potential overflows to inf at |x| >= 1.35
HUGE = (0.0, 0.0, 1e307)
LINE8 = TensorGrid.cube(-8.0, 8.0, 161, 1)


@pytest.mark.parametrize("solve", [
    lambda: stationary_solve(HamiltonianSpec(potential_coeffs=HUGE),
                             ModelParams(l=1.0), LINE8),
    lambda: stationary_solve(HamiltonianSpec(potential_coeffs=HUGE),
                             ModelParams(l=1.0), TensorGrid.cube(-8.0, 8.0, 9, 2)),
    lambda: evolve_temporal_gauge(
        _packet_1d(LINE8), initialize_constraint(LINE8, _packet_1d(LINE8), ModelParams(l=1.0)),
        HamiltonianSpec(potential_coeffs=HUGE), ModelParams(l=1.0), dt=0.01, steps=2),
    lambda: sn_ground_radial_scf(SNParams(external_potential_coeffs=HUGE),
                                 RadialGrid(1e-6, 8.0, 200)),
    lambda: sn_ground_radial_shoot(SNParams(external_potential_coeffs=HUGE),
                                   RadialGrid(1e-6, 8.0, 200)),
    lambda: sn_evolve_1d(LINE8.axes[0], _packet_1d(LINE8),
                         SNParams(external_potential_coeffs=HUGE), 0.01, 2),
], ids=["stationary-1d", "stationary-9x9", "evolve", "radial-scf", "radial-shoot",
        "sn-evolve-1d"])
def test_a_potential_that_overflows_raises_a_value_error_naming_the_coefficients(solve):
    with pytest.raises(ValueError, match=r"potential_coeffs \(0\.0, 0\.0, 1e\+307\).*"
                                         "non-finite potential"):
        solve()


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
    # the guard is checked at each recorded step, so a short run and one
    # longer than two of `evolve_temporal_gauge`'s blocks both name step 1
    for steps in (5, 2 * _block_rows(grid.count) + 5):
        with pytest.raises(IntegratorError, match="step 1$"):
            sn_evolve_1d(grid, psi, SNParams(coupling=coupling), dt=0.01, steps=steps)


@pytest.mark.parametrize("kwargs, name", [
    ({"dt": 0.0}, "dt"), ({"dt": -0.01}, "dt"), ({"dt": np.nan}, "dt"),
    ({"record_every": 0}, "record_every"), ({"record_every": -1}, "record_every"),
    ({"steps": -1}, "steps")])
def test_sn_evolve_rejects_bad_step_arguments(kwargs, name):
    grid = UniformGrid1D(-10.0, 10.0, 101)
    psi = np.exp(-grid.nodes ** 2 / 4) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    args = {"dt": 0.01, "steps": 6, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sn_evolve_1d(grid, psi, SNParams(coupling=1.0), **args)


def test_sn_evolve_rejects_a_psi_off_its_grid(monkeypatch):
    grid = UniformGrid1D(-10.0, 10.0, 101)
    psi = np.exp(-np.linspace(-10.0, 10.0, 100) ** 2 / 4) + 0j

    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(sn, "_cn_step_1d", no_step)
    with pytest.raises(GridShapeError, match=r"\(100,\) != grid shape \(101,\)"):
        sn_evolve_1d(grid, psi, SNParams(coupling=1.0),
                     dt=0.01, steps=5)


def test_sn_step_that_raises_after_the_guard_failed_reports_the_guard(monkeypatch):
    # the guard stops the run at step 1, so a later step that would raise
    # on its own cannot hide the norm failure of step 1
    grid = UniformGrid1D(-10.0, 10.0, 201)
    x = grid.nodes
    psi = np.exp(-x ** 2 / 4) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    real_step = sn._cn_step_1d
    calls = []

    def failing_fourth_call(*args):
        calls.append(args)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("zgtsv failed in the CN step (info=7)")
        return real_step(*args)

    monkeypatch.setattr(sn, "_cn_step_1d", failing_fourth_call)
    bad = np.where(np.arange(201) == 60, np.nan, psi)
    with pytest.raises(IntegratorError, match="step 1$"):
        sn_evolve_1d(grid, bad, SNParams(coupling=2.0), dt=0.01,
                     steps=10)
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError, match="info=7"):
        sn_evolve_1d(grid, psi, SNParams(coupling=2.0), dt=0.01,
                     steps=10)

def test_sn_series_across_block_boundaries():
    # runs over more than two of `evolve_temporal_gauge`'s blocks, which
    # this evolver used to share, ending on a step off the stride
    grid = UniformGrid1D(-20.0, 20.0, 401)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-(x - 0.5) ** 2 / 4.0) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.0, 0.0, 0.01))
    block = _block_rows(grid.count)
    steps = 3 * (2 * block + 1) + 2
    dense = sn_evolve_1d(grid, psi, p, dt=0.005, steps=steps)
    sparse = sn_evolve_1d(grid, psi, p, dt=0.005, steps=steps, record_every=3)
    picked = sorted(set(range(0, steps + 1, 3)) | {steps})
    assert len(picked) > 2 * block
    for key, series in dense["series"].items():
        assert len(series) == steps + 1
        assert np.array_equal(sparse["series"][key], series[picked])
    assert np.array_equal(sparse["psi"], dense["psi"])
    # no step: the series is the initial row alone
    none = sn_evolve_1d(grid, psi, p, dt=0.005, steps=0)
    for key, series in dense["series"].items():
        assert np.array_equal(none["series"][key], series[:1])
    # the last row, of the final state, by the per-state formulas
    fin = dense["psi"]
    rho = np.abs(fin) ** 2
    nrm = (w * rho).sum()
    lap = np.zeros_like(fin)
    lap[1:-1] = (fin[2:] - 2 * fin[1:-1] + fin[:-2]) / grid.spacing ** 2
    energy = (np.real((w * np.conj(fin) * (-0.5 * lap + 0.01 * x * x * fin)).sum())
              - 0.5 * float(gravity_pairing(grid, rho, p)))
    mean = (w * x * rho).sum() / nrm
    sigma = np.sqrt((w * (x - mean) ** 2 * rho).sum() / nrm)
    s = dense["series"]
    assert s["t"][-1] == steps * 0.005
    assert s["norm"][-1] == nrm
    assert s["sigma"][-1] == sigma
    assert abs(s["energy"][-1] - energy) <= 1e-13 * abs(energy)
    assert np.ptp(s["sigma"]) > 1e-3


def test_sn_evolve_stops_at_the_first_failing_step(monkeypatch):
    grid = UniformGrid1D(-10.0, 10.0, 201)
    x = grid.nodes
    psi = np.exp(-x ** 2 / 4) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    psi[60] = np.nan
    real_step = sn._cn_step_1d
    calls = []

    def counted(*args):
        calls.append(args)
        return real_step(*args)

    monkeypatch.setattr(sn, "_cn_step_1d", counted)
    with pytest.raises(IntegratorError, match="step 1$"):
        sn_evolve_1d(grid, psi, SNParams(coupling=2.0), dt=0.01,
                     steps=50)
    # the one CN solve of step 1, and no step after it
    assert len(calls) == 1


def test_sn_recorded_rows_are_the_per_state_formulas_on_a_moving_packet():
    grid = UniformGrid1D(-30.0, 30.0, 1201)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-x ** 2 / 4.0 + 1.5j * x)
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    psi[0] = psi[-1] = 0.0  # as the evolver pins them
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.0, 0.0, 0.01))
    steps = 20
    s = sn_evolve_1d(grid, psi, p, dt=0.005, steps=steps)["series"]
    # the states of the run, one step at a time (bitwise the same steps)
    states = [psi]
    for _ in range(steps):
        states.append(sn_evolve_1d(grid, states[-1], p, dt=0.005, steps=1)["psi"])
    for k, psi_k in enumerate(states):
        rho = np.abs(psi_k) ** 2
        nrm = (w * rho).sum()
        mean = (w * x * rho).sum() / nrm
        lap = np.zeros_like(psi_k)
        lap[1:-1] = (psi_k[2:] - 2 * psi_k[1:-1] + psi_k[:-2]) / grid.spacing ** 2
        energy = (np.real((w * np.conj(psi_k) * (-0.5 * lap + 0.01 * x * x
                                                  * psi_k)).sum())
                  - 0.5 * float(gravity_pairing(grid, rho, p)))
        assert s["norm"][k] == nrm
        assert s["sigma"][k] == np.sqrt((w * (x - mean) ** 2 * rho).sum() / nrm)
        assert abs(s["energy"][k] - energy) <= 1e-13 * abs(energy)
    # the packet has moved: <x> went from 0 to about 1.5 t = 0.15
    assert (w * x * np.abs(states[-1]) ** 2).sum() > 0.1


@pytest.mark.parametrize("record_every", [1, 3])
def test_sn_evolve_makes_one_poisson_solve_per_step(monkeypatch, record_every):
    # the recorded gravity energy takes no solve: only each step's
    # midpoint potential does
    grid = UniformGrid1D(-10.0, 10.0, 201)
    psi = np.exp(-grid.nodes ** 2 / 4) + 0j
    psi /= np.sqrt((line_weights(grid) * np.abs(psi) ** 2).sum())
    real_solve = sn.solve_phi_grav
    calls = []

    def counted(*args):
        calls.append(args)
        return real_solve(*args)

    monkeypatch.setattr(sn, "solve_phi_grav", counted)
    sn_evolve_1d(grid, psi, SNParams(coupling=2.0), dt=0.01, steps=7,
                 record_every=record_every)
    assert len(calls) == 7


def test_sn_gravity_energy_at_coupling_zero_and_with_a_background():
    grid = UniformGrid1D(-15.0, 15.0, 301)
    x, h = grid.nodes, grid.spacing
    w = line_weights(grid)
    psi = np.exp(-(x - 1.0) ** 2 / 4.0 + 0.5j * x)
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    vext = 0.02 * x * x
    for p in (SNParams(coupling=0.0, external_potential_coeffs=(0.0, 0.0, 0.02)),
              SNParams(coupling=1.5, background=0.05,
                       external_potential_coeffs=(0.0, 0.0, 0.02))):
        out = sn_evolve_1d(grid, psi, p, dt=0.01, steps=6)
        state = psi.copy()
        state[0] = state[-1] = 0.0
        for e_k in out["series"]["energy"]:
            dpsi = state[1:] - state[:-1]
            rho = np.abs(state) ** 2
            free = np.vdot(dpsi, dpsi).real / (2.0 * h) + np.dot(w * rho, vext)
            if p.coupling == 0.0:
                # the gravity term is exactly 0
                assert e_k == free
            else:
                expect = free - 0.5 * float(gravity_pairing(grid, rho, p))
                assert abs(e_k - expect) <= 1e-13 * abs(expect)
                assert abs(e_k - free) > 1e-3
            state = sn_evolve_1d(grid, state, p, dt=0.01, steps=1)["psi"]


def test_density_rate_is_the_continuity_equation_of_the_cn_hamiltonian():
    grid = UniformGrid1D(-6.0, 6.0, 61)
    x, h = grid.nodes, grid.spacing
    w = line_weights(grid)
    rng = np.random.default_rng(23)
    psi = rng.standard_normal(61) + 1j * rng.standard_normal(61)
    psi[0] = psi[-1] = 0.0
    vext = 0.3 + 0.2 * x * x
    # dense H = -1/2 d^2 + V on the interior unknowns, the CN step's stencil
    m = grid.count - 2
    ham = (np.diag(1.0 / h ** 2 + vext[1:-1])
           - 0.5 / h ** 2 * (np.eye(m, k=1) + np.eye(m, k=-1)))
    expect = np.zeros(grid.count)
    expect[1:-1] = 2.0 * np.imag(np.conj(psi[1:-1]) * (ham @ psi[1:-1]))
    rate = sn._density_rate(psi, h)
    assert np.abs(rate - expect).max() <= 1e-12 * np.abs(expect).max()
    # the predictor conserves charge
    assert abs((w * rate).sum()) <= 1e-13 * (w * np.abs(rate)).sum()
    # one evolver step takes its potential at rho + dt/2 * rate
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.3, 0.0, 0.2))
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    dt = 0.01
    rho_mid = np.abs(psi) ** 2 + 0.5 * dt * sn._density_rate(psi, h)
    tgrid = TensorGrid((grid,))
    band = sn._cn_band(tgrid, vext - solve_phi_grav(grid, rho_mid, p), 1.0, dt)
    step = sn._cn_step_1d(tgrid, psi, None, band, 1.0, dt)
    out = sn_evolve_1d(grid, psi, p, dt=dt, steps=1)
    assert np.array_equal(out["psi"], step)


def test_line_evolver_density_error_is_second_order():
    grid = UniformGrid1D(-15.0, 15.0, 401)
    x = grid.nodes
    w = line_weights(grid)
    psi = np.exp(-x ** 2 / 4.0 + 1j * x)
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    p = SNParams(coupling=2.0, external_potential_coeffs=(0.0, 0.0, 0.01))

    def density(dt):
        out = sn_evolve_1d(grid, psi, p, dt=dt, steps=round(1.0 / dt),
                           record_every=10 ** 6)
        return np.abs(out["psi"]) ** 2

    ref = density(6.25e-4)
    errs = [np.sqrt((w * (density(dt) - ref) ** 2).sum()) for dt in (0.02, 0.01, 0.005)]
    assert 3.8 < errs[0] / errs[1] < 4.2
    assert 3.8 < errs[1] / errs[2] < 4.2


# coefficients as a numpy array are the equal tuple; empty ones are V = 0
@pytest.mark.parametrize("coeffs", [(0.5, -0.25, 0.1), (0.0, 0.0), ()])
def test_sn_params_potential_takes_array_coefficients(coeffs):
    r = np.linspace(-3.0, 3.0, 13)
    as_tuple = SNParams(external_potential_coeffs=coeffs).external_potential(r)
    as_array = SNParams(
        external_potential_coeffs=np.array(coeffs)).external_potential(r)
    assert np.array_equal(as_array, as_tuple)
    if not coeffs:
        assert np.array_equal(as_tuple, np.zeros_like(r))


@pytest.mark.parametrize("coeffs", [(0.1, 0.0, 0.5), ()])
def test_line_ground_scf_takes_array_coefficients(coeffs):
    grid = UniformGrid1D(-6.0, 6.0, 61)
    omega, psi, phi = line_ground_scf(grid, SNParams(external_potential_coeffs=coeffs))
    got = line_ground_scf(grid, SNParams(external_potential_coeffs=np.array(coeffs)))
    assert got[0] == omega
    assert np.array_equal(got[1], psi) and np.array_equal(got[2], phi)
