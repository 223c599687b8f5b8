import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlgauge.grids import TensorGrid
from nlgauge.model import (HamiltonianSpec, ModelParams, WaveFunctional,
                           density, nonlinearity, total_charge)


@pytest.fixture
def grid():
    return TensorGrid.cube(-4.0, 4.0, 81, 1)


def params_for(grid, l=1.0):
    return ModelParams.for_grid(grid, l=l)


def test_density_zero_state(grid):
    psi = WaveFunctional(grid, np.zeros(grid.shape, dtype=complex))
    assert np.abs(density(psi)).max() == 0.0


def test_density_is_phase_blind(grid):
    x = grid.axes[0].nodes
    g = np.exp(-x ** 2)
    psi = WaveFunctional(grid, np.exp(1.3j) * g)
    assert np.abs(density(psi) - g ** 2).max() < 1e-15


def test_uniform_density_kills_nonlinearity(grid):
    p = params_for(grid)
    rho = np.full(grid.shape, 1.0 / p.omega)
    assert np.abs(nonlinearity(rho, p)).max() < 1e-15


def test_nonlinearity_half_and_half(grid):
    p = params_for(grid)
    rho = np.zeros(grid.shape)
    rho[: grid.shape[0] // 2] = 2.0 / p.omega
    out = nonlinearity(rho, p)
    assert np.allclose(out[: grid.shape[0] // 2], 1.0 / p.omega)
    assert np.allclose(out[grid.shape[0] // 2:], -1.0 / p.omega)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_normalized_density_has_zero_charge_integral(seed):
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    p = params_for(grid)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi[0] = psi[-1] = 0.0
    rho = np.abs(psi) ** 2
    rho /= np.real(grid.integrate(rho))
    assert abs(grid.integrate(nonlinearity(rho, p))) < 1e-12
    assert abs(total_charge(grid, rho, p)) < 1e-12


def test_total_charge_examples(grid):
    p = params_for(grid, l=2.0)
    x = grid.axes[0].nodes
    rho = np.exp(-x ** 2)
    rho /= np.real(grid.integrate(rho))
    assert abs(total_charge(grid, rho, p)) < 1e-12
    assert total_charge(grid, 2.0 * rho, p) == pytest.approx(1.0 / p.l ** 2,
                                                             abs=1e-12)
    assert total_charge(grid, np.zeros(grid.shape), p) == pytest.approx(
        -1.0 / p.l ** 2, abs=1e-12)


def test_linear_limit_params():
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    p = ModelParams.for_grid(grid, l=np.inf)
    assert p.inv_l2 == 0.0


def test_hamiltonian_spec_potential_and_gradient():
    spec = HamiltonianSpec(sites=2, potential_coeffs=(1.0, 0.0, 0.5),
                           gradient_coupling=2.0)
    grid = TensorGrid.cube(-1.0, 1.0, 5, 2)
    diag = spec.site_potential_total(grid)
    x = grid.axes[0].nodes
    expected = (1.0 + 0.5 * x[:, None] ** 2) + (1.0 + 0.5 * x[None, :] ** 2) \
        + 1.0 * (x[None, :] - x[:, None]) ** 2
    assert np.abs(diag - expected).max() < 1e-14
    phi = np.linspace(-3.0, 3.0, 41)
    assert np.array_equal(HamiltonianSpec(sites=1, potential_coeffs=()).potential(phi),
                          np.zeros_like(phi))
    coeffs = tuple(np.random.default_rng(5).standard_normal(5))
    horner = np.zeros_like(phi)
    for c in reversed(coeffs):
        horner = horner * phi + c
    assert np.array_equal(HamiltonianSpec(sites=1, potential_coeffs=coeffs).potential(phi),
                          horner)


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(sites=0)
    with pytest.raises(ValueError):
        HamiltonianSpec(sites=1, gradient_coupling=-1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(sites=1, lattice_spacing=0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(sites=1, gradient_coupling=np.nan)
    with pytest.raises(ValueError):
        HamiltonianSpec(sites=1, lattice_spacing=np.nan)
    with pytest.raises(ValueError):
        ModelParams(omega=np.nan)


def test_omega_must_match_grid_volume():
    grid = TensorGrid.cube(-4.0, 4.0, 81, 1)
    bad = ModelParams(l=1.0, omega=grid.volume * 2.0)
    rho = np.full(grid.shape, 1.0 / grid.volume)
    with pytest.raises(ValueError):
        total_charge(grid, rho, bad)
