import inspect

import numpy as np
import pytest

from nlgauge.grids import MAX_POINTS, RadialGrid, TensorGrid, UniformGrid1D
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


@pytest.mark.parametrize("dim", [0, 5])
def test_cube_checks_dim_first(dim):
    with pytest.raises(ValueError, match=rf"^dim must be in 1\.\.4 \(got {dim}\)$"):
        TensorGrid.cube(-1.0, 1.0, 5, dim)


def test_field_shape_check():
    g = TensorGrid.cube(0.0, 1.0, 5, 2)
    with pytest.raises(GridShapeError):
        g.integrate(np.zeros((5, 6)))
    # a field that would broadcast against the weights is still rejected
    for bad in (np.ones(5), np.ones((5, 1)), np.zeros((5, 6))):
        with pytest.raises(GridShapeError):
            g.norm(bad)
        with pytest.raises(GridShapeError):
            g.inner(bad, np.ones(g.shape))
        with pytest.raises(GridShapeError):
            g.inner(np.ones(g.shape), bad)
    assert g.norm(np.ones(g.shape)) == pytest.approx(1.0, abs=1e-15)


def test_inner_conjugates_only_complex_input():
    g = TensorGrid((UniformGrid1D(-1.0, 2.0, 7), UniformGrid1D(0.0, 1.0, 5)))
    rng = np.random.default_rng(3)
    a = rng.standard_normal(g.shape)
    z = a + 1j * rng.standard_normal(g.shape)
    w = g.quad_weights()
    assert g.inner(a, z) == (w * np.conj(a) * z).sum()
    assert g.inner(z, a) == (w * np.conj(z) * a).sum()
    assert g.norm(a) == float(np.sqrt((w * np.conj(a) * a).sum()))
    assert g.norm(z) == float(np.sqrt(np.real((w * np.conj(z) * z).sum())))


_UNEQUAL_AXES = (UniformGrid1D(-1.0, 2.0, 7), UniformGrid1D(0.0, 3.0, 5),
                 UniformGrid1D(-2.5, 0.5, 4))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_metadata_is_built_once_and_read_only(dim):
    axes = _UNEQUAL_AXES[:dim]
    g = TensorGrid(axes)
    # references built here: outer products of the axis weights, and a loop
    # over the cutoff faces
    ws = [ax.quad_weights() for ax in axes]
    w_ref = ws[0]
    for wx in ws[1:]:
        w_ref = np.multiply.outer(w_ref, wx)
    mask_ref = np.ones(g.shape, dtype=bool)
    for k in range(dim):
        mask_ref[(slice(None),) * k + (0,)] = False
        mask_ref[(slice(None),) * k + (-1,)] = False
    assert g.shape == tuple(ax.count for ax in axes)
    assert g.spacings == tuple(ax.spacing for ax in axes)
    assert np.array_equal(g.quad_weights(), w_ref)
    assert np.array_equal(g.boundary_mask(), mask_ref)
    cached = [g.quad_weights(), g.boundary_mask()]
    for x in range(dim):
        lw = [np.full(ax.count - 1, ax.spacing) if k == x else ws[k]
              for k, ax in enumerate(axes)]
        lw_ref = lw[0]
        for part in lw[1:]:
            lw_ref = np.multiply.outer(lw_ref, part)
        assert np.array_equal(g.link_weights(x), lw_ref)
        cached.append(g.link_weights(x))
    for arr in cached + ws:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    with pytest.raises(ValueError):
        RadialGrid(1e-6, 20.0, 400).quad_weights()[0] = 1.0
    # the metadata is built once: the same arrays come back every time
    assert g.quad_weights() is cached[0] and g.boundary_mask() is cached[1]
    assert all(g.link_weights(x) is cached[2 + x] for x in range(dim))
    # equal axes still give equal grids, whatever metadata has been built
    twin = TensorGrid(tuple(UniformGrid1D(ax.lower, ax.upper, ax.count)
                            for ax in axes))
    assert twin == g and hash(twin) == hash(g)
    assert repr(twin) == repr(g) == f"TensorGrid(axes={axes!r})"


def test_a_list_of_axes_gives_the_same_immutable_grid():
    axes = list(_UNEQUAL_AXES[:2])
    g = TensorGrid(axes)
    assert isinstance(g.axes, tuple)
    assert g == TensorGrid(tuple(axes)) and hash(g) == hash(TensorGrid(tuple(axes)))
    # the caller's list can no longer reach the grid behind its metadata
    axes.append(_UNEQUAL_AXES[2])
    assert g.ndim == 2 == len(g.shape)


def test_grid_members_stay_class_level_for_wrappers():
    # a profiler or tracer wraps the class members; a cached_property or an
    # instance attribute under a public name would bypass the wrapper
    assert isinstance(TensorGrid.__dict__["spacings"], property)
    for name in ("quad_weights", "link_weights", "boundary_mask"):
        assert inspect.isfunction(TensorGrid.__dict__[name])
    g = TensorGrid.cube(-1.0, 1.0, 5, 2)
    g.link_weights(0)
    assert not {"spacings", "quad_weights", "link_weights",
                "boundary_mask"} & set(vars(g))


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
    with pytest.raises(ValueError, match="too coarse"):
        RadialGrid(1e-6, 10.0, 15)
