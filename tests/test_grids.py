import numpy as np
import pytest

from nlgauge.grids import (MAX_POINTS, BoundaryCondition, RadialGrid,
                           TensorGrid, UniformGrid1D)
from nlgauge.errors import GridShapeError


def test_axis_invariants():
    ax = UniformGrid1D(-2.0, 3.0, 11)
    assert ax.spacing == pytest.approx(0.5)
    assert ax.nodes[0] == -2.0 and ax.nodes[-1] == 3.0
    with pytest.raises(ValueError):
        UniformGrid1D(-2.0, 3.0, 2)
    with pytest.raises(ValueError):
        UniformGrid1D(3.0, -2.0, 11)


def test_volume_is_product_of_extents():
    g = TensorGrid((UniformGrid1D(-1.0, 1.0, 11), UniformGrid1D(0.0, 3.0, 7)))
    assert g.volume == pytest.approx(2.0 * 3.0)


def test_quadrature_integrates_constants_exactly():
    g = TensorGrid.cube(-1.5, 2.5, 31, 2)
    w = g.quad_weights()
    assert w.sum() == pytest.approx(g.volume, rel=0, abs=1e-13)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(g.volume, abs=1e-13)
    ax = UniformGrid1D(-1.5, 2.5, 31)
    assert np.array_equal(ax.quad_weights(), TensorGrid((ax,)).quad_weights())
    ay = UniformGrid1D(0.0, 3.0, 7)
    g2 = TensorGrid((ax, ay))
    assert np.array_equal(g2.quad_weights(),
                          np.multiply.outer(ax.quad_weights(), ay.quad_weights()))
    assert np.array_equal(g2.link_weights(0), np.multiply.outer(
        np.full(30, ax.spacing), ay.quad_weights()))
    assert np.array_equal(g2.link_weights(1), np.multiply.outer(
        ax.quad_weights(), np.full(6, ay.spacing)))
    assert ax.quad_weights().sum() == pytest.approx(ax.extent, rel=0, abs=1e-13)
    rg = RadialGrid(1e-6, 20.0, 400)
    assert rg.quad_weights().sum() == pytest.approx(20.0 - 1e-6, rel=0, abs=1e-12)
    assert rg.quad_weights() @ rg.nodes == pytest.approx(
        0.5 * (20.0 ** 2 - 1e-12), rel=1e-14)


def test_dimension_and_budget_limits():
    with pytest.raises(ValueError):
        TensorGrid(tuple(UniformGrid1D(0, 1, 5) for _ in range(5)))
    with pytest.raises(ValueError):
        TensorGrid(tuple(UniformGrid1D(0, 1, 2000) for _ in range(4)))
    assert 2000 ** 4 > MAX_POINTS


def test_field_shape_check():
    g = TensorGrid.cube(0.0, 1.0, 5, 2)
    with pytest.raises(GridShapeError):
        g.integrate(np.zeros((5, 6)))


def test_boundary_mask():
    g = TensorGrid.cube(0.0, 1.0, 5, 2)
    m = g.boundary_mask()
    assert not m[0, 2] and not m[2, -1] and m[2, 2]
    assert m.sum() == 9


def test_radial_grid_validation():
    RadialGrid(1e-6, 10.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 10.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 10.0, 100)  # r_min not << r_max


def test_boundary_condition_kinds():
    assert BoundaryCondition("dirichlet_zero") is BoundaryCondition.DIRICHLET_ZERO
    assert BoundaryCondition("neumann_zero") is BoundaryCondition.NEUMANN_ZERO
