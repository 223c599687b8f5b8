"""Grid types and quadrature for discretized configuration space.

The space of field configurations is a tensor product of uniform 1D
amplitude axes, one per lattice site, each truncated at a finite cutoff.
Integrals over configuration space are trapezoid sums, so the integral of
the constant 1 equals the geometric volume exactly; that identity is what
makes the discrete charge identity hold to machine precision.

Grids are immutable, so their metadata (shape, spacings, volume,
quadrature weights, boundary mask) is built once per grid and returned
read-only.
It is kept in private instance attributes set with `object.__setattr__`,
outside the dataclass fields, so equality, hashing and `repr` still see
only the axes. The public members stay plain methods and properties,
not `functools.cached_property`: a cached value would move into the
instance dict and bypass anything that wraps the class member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GridShapeError

# Preallocation budget: hard cap on total grid points (D <= 4 at desk scale).
MAX_POINTS = 4_000_000


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_finite(obj, *names: str) -> None:
    """Reject a non-finite bound; written so that a NaN fails too."""
    for name in names:
        value = getattr(obj, name)
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite (got {value})")


@dataclass(frozen=True)
class UniformGrid1D:
    """Uniform amplitude axis on [lower, upper] with `count` nodes."""

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if self.count < 3:
            raise ValueError(f"count must be >= 3, got {self.count}")
        _require_finite(self, "lower", "upper")
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")
        if self.count > MAX_POINTS:  # before the allocation
            raise ValueError(f"{self.count} nodes exceeds budget {MAX_POINTS}")
        w = np.full(self.count, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        object.__setattr__(self, "_weights", _read_only(w))

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)

    @property
    def extent(self) -> float:
        return self.upper - self.lower

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights (read-only); they sum to `extent`."""
        return self._weights


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of D uniform amplitude axes (1 <= D <= 4)."""

    axes: tuple[UniformGrid1D, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 4:
            raise ValueError(f"need 1..4 axes, got {len(self.axes)}")
        shape = tuple(ax.count for ax in self.axes)
        npts = math.prod(shape)
        if npts > MAX_POINTS:
            raise ValueError(f"{npts} grid points exceeds budget {MAX_POINTS}")
        mask = np.zeros(shape, dtype=bool)
        mask[(slice(1, -1),) * len(shape)] = True
        weights = reduce(np.multiply.outer, [ax.quad_weights() for ax in self.axes])
        for name, value in (
                ("_shape", shape),
                ("_spacings", tuple(ax.spacing for ax in self.axes)),
                ("_volume", float(np.prod([ax.extent for ax in self.axes]))),
                ("_weights", _read_only(weights)),
                ("_mask", _read_only(mask)),
                # built on first request: the stationary path never asks
                ("_link_weights", {})):
            object.__setattr__(self, name, value)

    @classmethod
    def cube(cls, lower: float, upper: float, count: int, dim: int) -> "TensorGrid":
        if not 1 <= dim <= 4:  # before any axis is built
            raise ValueError(f"dim must be in 1..4 (got {dim})")
        return cls(tuple(UniformGrid1D(lower, upper, count) for _ in range(dim)))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def spacings(self) -> tuple[float, ...]:
        return self._spacings

    @property
    def volume(self) -> float:
        """Geometric volume of the amplitude box; the discretized Omega."""
        return self._volume

    def coordinate(self, axis: int) -> np.ndarray:
        """Broadcastable node coordinates along one axis."""
        shape = [1] * self.ndim
        shape[axis] = self.axes[axis].count
        return self.axes[axis].nodes.reshape(shape)

    def meshes(self) -> list[np.ndarray]:
        """Full-shape coordinate arrays. Only tests call it; it stays because
        perfbench/tracing.py traces it and fails on a missing member."""
        return [np.broadcast_to(self.coordinate(k), self.shape) for k in range(self.ndim)]

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights (read-only); sum equals `volume` exactly."""
        return self._weights

    def link_weights(self, axis: int) -> np.ndarray:
        """Quadrature weights on the link lattice (midpoints along `axis`),
        read-only."""
        lw = self._link_weights.get(axis)
        if lw is None:
            ws = [ax.quad_weights() for ax in self.axes]
            ws[axis] = np.full(self.axes[axis].count - 1, self.axes[axis].spacing)
            lw = self._link_weights[axis] = _read_only(reduce(np.multiply.outer, ws))
        return lw

    def check_field(self, values: np.ndarray) -> None:
        if values.shape != self._shape:
            raise GridShapeError(f"field shape {values.shape} != grid shape {self._shape}")

    def integrate(self, values: np.ndarray) -> complex | float:
        self.check_field(np.asarray(values))
        return (self._weights * values).sum()

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex | float:
        """Weighted sum of conj(a) * b; only complex `a` is conjugated."""
        a = np.asarray(a)
        b = np.asarray(b)
        self.check_field(a)
        if b is not a:
            self.check_field(b)
        return (self._weights * (np.conj(a) if np.iscomplexobj(a) else a) * b).sum()

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(a, a))))

    def boundary_mask(self) -> np.ndarray:
        """True on interior points, False on the cutoff faces (read-only)."""
        return self._mask


@dataclass(frozen=True)
class RadialGrid(UniformGrid1D):
    """Radial axis [r_min, r_max] for u = r*psi substitutions; r_min > 0
    regularizes u/r. The fields are `lower`, `upper` and `count`."""

    def __post_init__(self):
        _require_finite(self, "r_min", "r_max")
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if self.r_min > 1e-2 * self.r_max:
            raise ValueError("r_min must be small compared to r_max")
        if self.count < 16:
            raise ValueError("radial grid too coarse")
        super().__post_init__()

    @property
    def r_min(self) -> float:
        return self.lower

    @property
    def r_max(self) -> float:
        return self.upper
