import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlgauge.grids import TensorGrid
from nlgauge.model import (GaugeState, HamiltonianSpec, ModelParams,
                           nonlinearity)
from references import total_charge


@pytest.fixture
def grid():
    return TensorGrid.cube(-4.0, 4.0, 81, 1)


def test_uniform_density_kills_nonlinearity(grid):
    rho = np.full(grid.shape, 1.0 / grid.volume)
    assert np.abs(nonlinearity(rho, grid)).max() < 1e-15


def test_nonlinearity_half_and_half(grid):
    rho = np.zeros(grid.shape)
    rho[: grid.shape[0] // 2] = 2.0 / grid.volume
    out = nonlinearity(rho, grid)
    assert np.allclose(out[: grid.shape[0] // 2], 1.0 / grid.volume)
    assert np.allclose(out[grid.shape[0] // 2:], -1.0 / grid.volume)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_normalized_density_has_zero_charge_integral(seed):
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    p = ModelParams()
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi[0] = psi[-1] = 0.0
    rho = np.abs(psi) ** 2
    rho /= np.real(grid.integrate(rho))
    assert abs(grid.integrate(nonlinearity(rho, grid))) < 1e-12
    assert abs(total_charge(grid, rho, p)) < 1e-12


def test_total_charge_examples(grid):
    p = ModelParams(l=2.0)
    x = grid.axes[0].nodes
    rho = np.exp(-x ** 2)
    rho /= np.real(grid.integrate(rho))
    assert abs(total_charge(grid, rho, p)) < 1e-12
    assert total_charge(grid, 2.0 * rho, p) == pytest.approx(1.0 / p.l ** 2,
                                                             abs=1e-12)
    assert total_charge(grid, np.zeros(grid.shape), p) == pytest.approx(
        -1.0 / p.l ** 2, abs=1e-12)


def test_linear_limit_params():
    p = ModelParams(l=np.inf)
    assert p.inv_l2 == 0.0


@pytest.mark.parametrize("l", [1e-300, 1e-160, np.nan, 0.0, -1.0])
def test_l_whose_inverse_square_is_not_finite_is_rejected(l):
    # 1e-300 squares to 0, and 1/l^2 of 1e-160 overflows to inf
    with pytest.raises(ValueError, match="l must be"):
        ModelParams(l=l)
    assert np.isfinite(ModelParams(l=1e-154).inv_l2)


def test_hamiltonian_spec_potential_and_gradient():
    spec = HamiltonianSpec(potential_coeffs=(1.0, 0.0, 0.5),
                           gradient_coupling=2.0)
    grid = TensorGrid.cube(-1.0, 1.0, 5, 2)
    diag = spec.site_potential_total(grid)
    x = grid.axes[0].nodes
    expected = (1.0 + 0.5 * x[:, None] ** 2) + (1.0 + 0.5 * x[None, :] ** 2) \
        + 1.0 * (x[None, :] - x[:, None]) ** 2
    assert np.abs(diag - expected).max() < 1e-14
    phi = np.linspace(-3.0, 3.0, 41)
    assert np.array_equal(HamiltonianSpec(potential_coeffs=()).potential(phi),
                          np.zeros_like(phi))
    coeffs = tuple(np.random.default_rng(5).standard_normal(5))
    horner = np.zeros_like(phi)
    for c in reversed(coeffs):
        horner = horner * phi + c
    assert np.array_equal(HamiltonianSpec(potential_coeffs=coeffs).potential(phi),
                          horner)


@pytest.mark.parametrize("coeffs", [(1.0, -0.5, 0.25, 0.125), (0.0, 0.0), ()])
def test_hamiltonian_spec_potential_takes_array_coefficients(coeffs):
    # a numpy array is the equal tuple; empty coefficients are V = 0
    phi = np.linspace(-3.0, 3.0, 41)
    as_tuple = HamiltonianSpec(potential_coeffs=coeffs).potential(phi)
    as_array = HamiltonianSpec(potential_coeffs=np.array(coeffs)).potential(phi)
    assert np.array_equal(as_array, as_tuple)
    if not coeffs:
        assert np.array_equal(as_tuple, np.zeros_like(phi))


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(gradient_coupling=-1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(lattice_spacing=0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(gradient_coupling=np.nan)
    with pytest.raises(ValueError):
        HamiltonianSpec(lattice_spacing=np.nan)
    with pytest.raises(ValueError):
        HamiltonianSpec(lattice_spacing=np.inf)
    # non-finite values would reach ARPACK as an infinite Hamiltonian
    with pytest.raises(ValueError, match="gradient_coupling"):
        HamiltonianSpec(gradient_coupling=np.inf)
    for coeffs in ((0.0, np.nan, 0.5), (0.0, 0.0, np.inf), (-np.inf,)):
        with pytest.raises(ValueError, match="potential_coeffs"):
            HamiltonianSpec(potential_coeffs=coeffs)


def test_gauge_state_names_the_link_shape_it_wants():
    grid = TensorGrid.cube(-1.0, 1.0, 9, 2)
    good = GaugeState.zero(grid)
    with pytest.raises(ValueError) as info:
        GaugeState(grid, good.a_t, [np.zeros((9, 9)), good.a_phi[1]], good.f)
    assert str(info.value) == "link field along axis 0 must have shape (8, 9)"


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("which", ["a_phi", "f"])
def test_gauge_state_names_the_link_field_count_it_wants(which, count):
    # one link field per grid axis: too few or too many is a ValueError
    grid = TensorGrid.cube(-1.0, 1.0, 9, 2)
    good = GaugeState.zero(grid)
    links = {"a_phi": good.a_phi, "f": good.f}
    links[which] = (links[which] * 2)[:count]
    with pytest.raises(ValueError) as info:
        GaugeState(grid, good.a_t, links["a_phi"], links["f"])
    assert str(info.value) == (f"{which} must hold 2 link fields, one per grid "
                               f"axis; got {count}")
