import numpy as np
import pytest

from nlgauge.errors import GridShapeError, UnsolvableConstraintError
from nlgauge.gaugeops import (apply_hamiltonian_raw, gauge_transform,
                              gauss_residual, gauss_solve_stationary,
                              hamiltonian, initialize_constraint, link_current,
                              link_diff, link_divergence, link_phases)
from nlgauge.grids import TensorGrid, UniformGrid1D
from nlgauge.model import GaugeState, HamiltonianSpec, ModelParams


def make_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    xs = grid.meshes()
    r2 = sum(x ** 2 for x in xs)
    c = rng.uniform(-0.3, 0.3, 3)
    psi = np.exp(-0.5 * r2) * (1.0 + c[0] * np.sin(xs[0]) + c[1] * xs[0])
    psi = psi * np.exp(1j * (0.3 + c[2]) * xs[0])
    psi[~grid.boundary_mask()] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return psi


def smooth_lambda(grid, seed=1):
    rng = np.random.default_rng(seed)
    xs = grid.meshes()
    lam = np.zeros(grid.shape)
    for x in xs:
        c = rng.uniform(-1, 1, 3)
        lam = lam + c[0] * np.tanh(x) + c[1] * np.sin(x) + c[2] * x / 10.0
    return lam


# ---------------------------------------------------- gauge transforms

def test_constant_lambda_is_global_phase():
    grid = TensorGrid.cube(-5.0, 5.0, 101, 1)
    psi = make_state(grid)
    gauge = GaugeState.zero(grid)
    psi2, gauge2 = gauge_transform(psi, gauge, np.full(grid.shape, 0.7),
                                   np.zeros(grid.shape))
    assert np.abs(psi2 - np.exp(0.7j) * psi).max() < 1e-15
    assert np.abs(gauge2.a_phi[0]).max() == 0.0
    assert np.abs(gauge2.a_t).max() == 0.0


def test_zero_lambda_is_identity():
    grid = TensorGrid.cube(-5.0, 5.0, 101, 1)
    psi = make_state(grid)
    gauge = GaugeState.zero(grid)
    psi2, gauge2 = gauge_transform(psi, gauge, np.zeros(grid.shape),
                                   np.zeros(grid.shape))
    assert np.abs(psi2 - psi).max() == 0.0
    assert np.abs(gauge2.a_phi[0]).max() == 0.0


def test_density_invariance_and_covariant_transform():
    grid = TensorGrid.cube(-5.0, 5.0, 201, 1)
    psi = make_state(grid)
    gauge = GaugeState.zero(grid)
    psi2, _ = gauge_transform(psi, gauge, smooth_lambda(grid), np.zeros(grid.shape))
    rho1 = np.abs(psi) ** 2
    rho2 = np.abs(psi2) ** 2
    assert np.abs(rho1 - rho2).max() < 1e-14


def test_field_strength_untouched_by_transform():
    grid = TensorGrid.cube(-5.0, 5.0, 101, 1)
    psi = make_state(grid)
    gauge = GaugeState.zero(grid)
    gauge.f = [np.sin(np.linspace(0, 1, grid.shape[0] - 1))]
    _, gauge2 = gauge_transform(psi, gauge, smooth_lambda(grid), np.zeros(grid.shape))
    assert np.abs(gauge2.f[0] - gauge.f[0]).max() == 0.0


def test_transform_casts_lambda_to_float_arrays():
    grid = TensorGrid.cube(-5.0, 5.0, 11, 1)
    psi = make_state(grid)
    # lists of integers, as a caller may pass them
    psi2, gauge2 = gauge_transform(psi, GaugeState.zero(grid), [1] * 11, list(range(11)))
    assert np.array_equal(psi2, np.exp(1j * np.ones(11)) * psi)
    assert gauge2.a_t.dtype == float and np.array_equal(gauge2.a_t, np.arange(11.0))


@pytest.mark.parametrize("which", ["lam", "lam_dot"])
def test_transform_rejects_a_complex_lambda(which):
    grid = TensorGrid.cube(-5.0, 5.0, 11, 1)
    lams = {"lam": np.zeros(11), "lam_dot": np.zeros(11)}
    lams[which] = 1j * np.ones(11)
    with pytest.raises(ValueError, match=f"^{which} must be real, not complex$"):
        gauge_transform(make_state(grid), GaugeState.zero(grid), **lams)


@pytest.mark.parametrize("count", [50, 52])
def test_transform_rejects_a_psi_of_the_wrong_shape_for_the_gauge_grid(count):
    psi = make_state(TensorGrid.cube(-5.0, 5.0, count, 1))
    grid = TensorGrid.cube(-5.0, 5.0, 51, 1)
    with pytest.raises(GridShapeError, match=r"^field shape"):
        gauge_transform(psi, GaugeState.zero(grid), np.zeros(51), np.zeros(51))


# -------------------------------------------------------- hamiltonian

def _free_h(grid, values, spec):
    """H psi with no connection, for psi zero on the cutoff faces."""
    return apply_hamiltonian_raw(grid, values, None,
                                 spec.site_potential_total(grid),
                                 spec.lattice_spacing)


def test_hamiltonian_harmonic_ground_action():
    errs = []
    for n in (501, 1001):
        grid = TensorGrid.cube(-9.0, 9.0, n, 1)
        x = grid.axes[0].nodes
        psi0 = np.exp(-0.5 * x ** 2) / np.pi ** 0.25
        psi0[[0, -1]] = 0.0
        spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
        h = _free_h(grid, psi0 + 0j, spec)
        errs.append(np.abs(h - 0.5 * psi0)[1:-1].max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-4


def test_hamiltonian_zero_state():
    grid = TensorGrid.cube(-2.0, 2.0, 31, 1)
    psi = np.zeros(grid.shape, dtype=complex)
    assert np.abs(_free_h(grid, psi, HamiltonianSpec())).max() == 0.0


def test_hamiltonian_2d_separability():
    g1 = TensorGrid.cube(-5.0, 5.0, 61, 1)
    x = g1.axes[0].nodes
    f = np.exp(-0.5 * x ** 2)
    f[[0, -1]] = 0.0
    f /= np.sqrt(np.real(g1.integrate(f * f)))
    spec1 = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    e1 = np.real(g1.inner(f, _free_h(g1, f + 0j, spec1)))
    g2 = TensorGrid.cube(-5.0, 5.0, 61, 2)
    spec2 = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5),
                            gradient_coupling=0.0)
    prod = np.outer(f, f)
    e2 = np.real(g2.inner(prod, _free_h(g2, prod + 0j, spec2)))
    assert abs(e2 - 2 * e1) < 1e-11


def _stencil_matrix(grid, phases, diag, a_lat):
    """Dense H over all nodes, entry by entry from the stencil
    -(1/(2 a^3 h_x^2)) [U psi_+ - 2 psi + U* psi_-] + diag psi with zero
    ghosts beyond the grid; U on axis x is the phase of the link from a
    node to its + neighbour."""
    n = int(np.prod(grid.shape))
    mat = np.zeros((n, n), dtype=complex)
    for node in np.ndindex(grid.shape):
        row = np.ravel_multi_index(node, grid.shape)
        mat[row, row] += diag[node]
        for x, h in enumerate(grid.spacings):
            coef = 1.0 / (2.0 * a_lat ** 3 * h * h)
            mat[row, row] += 2.0 * coef
            up = list(node)
            up[x] += 1
            if up[x] < grid.shape[x]:
                u = 1.0 if phases is None else phases[x][node]
                mat[row, np.ravel_multi_index(up, grid.shape)] -= coef * u
            down = list(node)
            down[x] -= 1
            if down[x] >= 0:
                u = 1.0 if phases is None else phases[x][tuple(down)]
                mat[row, np.ravel_multi_index(down, grid.shape)] -= coef * np.conj(u)
    return mat


@pytest.mark.parametrize("with_phases", [False, True], ids=["no-phases", "phases"])
@pytest.mark.parametrize("axes", [((-2.0, 2.0, 9),),
                                  ((-2.0, 2.0, 6), (-1.0, 3.0, 5)),
                                  ((-2.0, 2.0, 5), (-1.0, 1.5, 4), (0.0, 3.0, 6))],
                         ids=["1d", "2d", "3d"])
def test_apply_hamiltonian_raw_matches_stencil_matrix(axes, with_phases):
    grid = TensorGrid(tuple(UniformGrid1D(*ax) for ax in axes))
    rng = np.random.default_rng(11)
    diag = rng.standard_normal(grid.shape)
    phases = None
    if with_phases:
        a_phi = []
        for x in range(grid.ndim):
            s = list(grid.shape)
            s[x] -= 1
            a_phi.append(rng.standard_normal(s))
        phases = link_phases(grid, a_phi)
    a_lat = 0.8
    mat = _stencil_matrix(grid, phases, diag, a_lat)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    ref = (mat @ psi.ravel()).reshape(grid.shape)
    out = apply_hamiltonian_raw(grid, psi, phases, diag, a_lat)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("stack", [(), (2,)], ids=["one", "stack"])
@pytest.mark.parametrize("with_phases", [False, True], ids=["no-phases", "phases"])
@pytest.mark.parametrize("axes", [((-2.0, 2.0, 9),),
                                  ((-2.0, 2.0, 6), (-1.0, 3.0, 5)),
                                  ((-2.0, 2.0, 5), (-1.0, 1.5, 4), (0.0, 3.0, 6))],
                         ids=["1d", "2d", "3d"])
def test_prepared_hamiltonian_is_bitwise_the_raw_apply_on_grid_and_interior(
        axes, with_phases, stack):
    grid = TensorGrid(tuple(UniformGrid1D(*ax) for ax in axes))
    rng = np.random.default_rng(17)
    diag = rng.standard_normal(grid.shape)
    phases = None
    if with_phases:
        links = [stack + GaugeState._link_shape(grid, x) for x in range(grid.ndim)]
        phases = link_phases(grid, [rng.standard_normal(s) for s in links])
    a_lat = 0.8
    psi = (rng.standard_normal(stack + grid.shape)
           + 1j * rng.standard_normal(stack + grid.shape))
    psi[..., ~grid.boundary_mask()] = 0.0
    h = hamiltonian(grid, phases, diag, a_lat)
    full = apply_hamiltonian_raw(grid, psi, phases, diag, a_lat)
    assert np.array_equal(h(psi), full)
    assert np.array_equal(h(psi), full)  # an apply leaves the form unchanged
    # the same form on the interior block: neighbours on the faces are zero
    inner = (Ellipsis,) + (slice(1, -1),) * grid.ndim
    h_inner = hamiltonian(grid, None if phases is None else [p[inner] for p in phases],
                          diag[inner], a_lat)
    assert np.array_equal(h_inner(psi[inner]), full[inner])
    real = np.ascontiguousarray(psi.real[inner])
    assert np.array_equal(hamiltonian(grid, None, diag[inner], a_lat)(real),
                          apply_hamiltonian_raw(grid, psi.real, None, diag, a_lat)[inner])


# ----------------------------------------------------- gauss law

def test_gauss_uniform_density_gives_zero_potential():
    grid = TensorGrid.cube(-3.0, 3.0, 121, 1)
    p = ModelParams(l=1.0)
    rho = np.full(grid.shape, 1.0 / grid.volume)
    a_t = gauss_solve_stationary(grid, rho, p)
    assert np.abs(a_t).max() < 1e-14


def test_gauss_cosine_density_analytic():
    # rho = (1 + cos(pi phi / L_half)) / Omega on a symmetric grid; the
    # attractive orientation gives A_t = +(L/pi)^2 cos(...) / (l^2 Omega)
    errs = []
    for n in (201, 401):
        grid = TensorGrid.cube(-2.0, 2.0, n, 1)
        p = ModelParams(l=1.5)
        x = grid.axes[0].nodes
        rho = (1.0 + np.cos(np.pi * x / 2.0)) / grid.volume
        a_t = gauss_solve_stationary(grid, rho, p)
        exact = p.inv_l2 * (2.0 / np.pi) ** 2 * np.cos(np.pi * x / 2.0) / grid.volume
        errs.append(np.abs(a_t - exact).max())
        assert abs(grid.integrate(a_t)) < 1e-12
    assert errs[0] / errs[1] > 3.0


def test_gauss_unnormalized_density_raises():
    grid = TensorGrid.cube(-3.0, 3.0, 121, 1)
    p = ModelParams(l=1.0)
    x = grid.axes[0].nodes
    rho = np.exp(-x ** 2)
    rho *= 1.5 / np.real(grid.integrate(rho))
    with pytest.raises(UnsolvableConstraintError):
        gauss_solve_stationary(grid, rho, p)
    # a NaN norm fails the check too, rather than giving a NaN A_t
    rho[60] = np.nan
    with pytest.raises(UnsolvableConstraintError, match="integrates to nan"):
        gauss_solve_stationary(grid, rho, p)


def test_gauss_linear_limit_returns_zero():
    grid = TensorGrid.cube(-3.0, 3.0, 61, 1)
    p = ModelParams(l=np.inf)
    x = grid.axes[0].nodes
    rho = np.exp(-x ** 2)
    rho /= np.real(grid.integrate(rho))
    assert np.abs(gauss_solve_stationary(grid, rho, p)).max() == 0.0


# --------------------------------------------- constraint initialization

def test_initialize_constraint_uniform_is_zero():
    grid = TensorGrid.cube(-3.0, 3.0, 121, 1)
    p = ModelParams(l=1.0)
    psi = np.full(grid.shape, np.sqrt(1.0 / grid.volume), dtype=complex)
    f = initialize_constraint(grid, psi, p).f
    assert np.abs(f[0]).max() < 1e-14


def test_initialize_constraint_cosine_profile():
    errs = []
    for n in (201, 401):
        grid = TensorGrid.cube(-2.0, 2.0, n, 1)
        p = ModelParams(l=1.0)
        x = grid.axes[0].nodes
        psi = np.sqrt((1.0 + np.cos(np.pi * x / 2.0)) / grid.volume).astype(complex)
        f = initialize_constraint(grid, psi, p).f
        mid = 0.5 * (x[1:] + x[:-1])
        exact = p.inv_l2 * (2.0 / np.pi) * np.sin(np.pi * mid / 2.0) / grid.volume
        errs.append(np.abs(f[0] - exact).max())
    assert errs[0] / errs[1] > 3.0


def test_initialize_constraint_defining_property():
    grid = TensorGrid.cube(-4.0, 4.0, 161, 1)
    p = ModelParams(l=0.8)
    x = grid.axes[0].nodes
    psi = (np.exp(-0.5 * (x - 0.7) ** 2) + 0j)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    gauge = initialize_constraint(grid, psi, p)
    rho = np.abs(psi) ** 2
    assert gauss_residual(grid, gauge.f, rho, p) < 1e-11
    # the temporal-gauge start: A_t = 0 and A_phi = 0 on psi's grid
    assert gauge.grid is grid
    assert not gauge.a_t.any() and not gauge.a_phi[0].any()
    assert gauge.a_phi[0].shape == gauge.f[0].shape == (grid.shape[0] - 1,)


def test_initialize_constraint_requires_normalization():
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    p = ModelParams(l=1.0)
    x = grid.axes[0].nodes
    psi = np.exp(-0.5 * x ** 2) + 0j
    with pytest.raises(UnsolvableConstraintError):
        initialize_constraint(grid, psi, p)
    psi[:] = np.nan
    with pytest.raises(UnsolvableConstraintError, match="integrates to nan"):
        initialize_constraint(grid, psi, p)


def test_initialize_constraint_rejects_a_psi_of_the_wrong_shape():
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    psi = np.full(80, np.sqrt(1.0 / grid.volume))
    with pytest.raises(GridShapeError, match=r"^field shape"):
        initialize_constraint(grid, psi, ModelParams(l=1.0))


def test_div_grad_is_compact_laplacian():
    from references import laplacian_apply
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        grid = TensorGrid.cube(-1.0, 1.0, 9, dim)
        chi = rng.standard_normal(grid.shape)
        f = [link_diff(grid, chi, x) for x in range(dim)]
        lap = laplacian_apply(grid, chi)
        assert np.abs(link_divergence(grid, f) - lap).max() < 1e-12


@pytest.mark.parametrize("axes", [(11,), (7, 5)])
def test_stacked_states_equal_the_single_state_calls(axes):
    # leading axes pass through the stencils: each entry of a stack is
    # bitwise the call on that state alone
    grid = TensorGrid(tuple(UniformGrid1D(-2.0, 2.0 + k, n)
                            for k, n in enumerate(axes)))
    rng = np.random.default_rng(len(axes))
    stack = 3
    link_shapes = [(stack,) + GaugeState._link_shape(grid, x)
                   for x in range(grid.ndim)]
    psi = (rng.standard_normal((stack,) + grid.shape)
           + 1j * rng.standard_normal((stack,) + grid.shape))
    phases = link_phases(grid, [rng.standard_normal(s) for s in link_shapes])
    f = [rng.standard_normal(s) for s in link_shapes]
    diag = rng.uniform(0.0, 2.0, grid.shape)
    rho = np.abs(psi) ** 2
    params = ModelParams(l=0.7)
    hpsi = apply_hamiltonian_raw(grid, psi, phases, diag, 0.8)
    div = link_divergence(grid, f)
    gres = gauss_residual(grid, f, rho, params)
    saved = [psi.copy()] + [u.copy() for u in phases]
    currents = [link_current(grid, psi, phases, x) for x in range(grid.ndim)]
    # the current's product is formed in place, never in its inputs
    for arr, before in zip([psi] + phases, saved, strict=True):
        assert np.array_equal(arr, before)
    for b in range(stack):
        ph_b, f_b = [p[b] for p in phases], [fx[b] for fx in f]
        assert np.array_equal(hpsi[b], apply_hamiltonian_raw(grid, psi[b], ph_b,
                                                             diag, 0.8))
        assert np.array_equal(div[b], link_divergence(grid, f_b))
        assert gres[b] == gauss_residual(grid, f_b, rho[b], params)
        for x in range(grid.ndim):
            assert np.array_equal(currents[x][b],
                                  link_current(grid, psi[b], ph_b, x))


@pytest.mark.parametrize("axes", [(201,), (9, 13)])
def test_link_phases_are_the_complex_exponential(axes):
    grid = TensorGrid(tuple(UniformGrid1D(-3.0, 3.0 + k, n)
                            for k, n in enumerate(axes)))
    rng = np.random.default_rng(len(axes))
    a_phi = [5.0 * rng.standard_normal(GaugeState._link_shape(grid, x))
             for x in range(grid.ndim)]
    phases = link_phases(grid, a_phi)
    assert len(phases) == grid.ndim
    for h, a, u in zip(grid.spacings, a_phi, phases):
        assert u.dtype == complex and u.shape == a.shape
        assert np.abs(u - np.exp(-1j * h * a)).max() <= 1e-15
