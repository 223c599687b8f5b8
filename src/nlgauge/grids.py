"""Grid types and quadrature for discretized configuration space.

The space of field configurations is a tensor product of uniform 1D
amplitude axes, one per lattice site, each truncated at a finite cutoff.
Integrals over configuration space are trapezoid sums, so the integral of
the constant 1 equals the geometric volume exactly; that identity is what
makes the discrete charge identity hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

from .errors import GridShapeError

# Preallocation budget: hard cap on total grid points (D <= 4 at desk scale).
MAX_POINTS = 4_000_000


def _trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    w = np.full(count, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class BoundaryCondition(Enum):
    DIRICHLET_ZERO = "dirichlet_zero"
    NEUMANN_ZERO = "neumann_zero"


@dataclass(frozen=True)
class UniformGrid1D:
    """Uniform amplitude axis on [lower, upper] with `count` nodes."""

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if self.count < 3:
            raise ValueError(f"count must be >= 3, got {self.count}")
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")

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
        """Trapezoid weights; they sum to `extent`."""
        return _trapezoid_weights(self.count, self.spacing)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of D uniform amplitude axes (1 <= D <= 4)."""

    axes: tuple[UniformGrid1D, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 4:
            raise ValueError(f"need 1..4 axes, got {len(self.axes)}")
        npts = 1
        for ax in self.axes:
            npts *= ax.count
        if npts > MAX_POINTS:
            raise ValueError(f"{npts} grid points exceeds budget {MAX_POINTS}")

    @classmethod
    def cube(cls, lower: float, upper: float, count: int, dim: int) -> "TensorGrid":
        return cls(tuple(UniformGrid1D(lower, upper, count) for _ in range(dim)))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(ax.spacing for ax in self.axes)

    @property
    def volume(self) -> float:
        """Geometric volume of the amplitude box; the discretized Omega."""
        return float(np.prod([ax.extent for ax in self.axes]))

    def coordinate(self, axis: int) -> np.ndarray:
        """Broadcastable node coordinates along one axis."""
        shape = [1] * self.ndim
        shape[axis] = self.axes[axis].count
        return self.axes[axis].nodes.reshape(shape)

    def meshes(self) -> list[np.ndarray]:
        return [np.broadcast_to(self.coordinate(k), self.shape) for k in range(self.ndim)]

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights; sum equals `volume` exactly."""
        return reduce(np.multiply.outer, [ax.quad_weights() for ax in self.axes])

    def link_weights(self, axis: int) -> np.ndarray:
        """Quadrature weights on the link lattice (midpoints along `axis`)."""
        ws = [ax.quad_weights() for ax in self.axes]
        ws[axis] = np.full(self.axes[axis].count - 1, self.axes[axis].spacing)
        return reduce(np.multiply.outer, ws)

    def check_field(self, values: np.ndarray) -> None:
        if values.shape != self.shape:
            raise GridShapeError(f"field shape {values.shape} != grid shape {self.shape}")

    def integrate(self, values: np.ndarray) -> complex | float:
        self.check_field(np.asarray(values))
        return (self.quad_weights() * values).sum()

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex | float:
        return (self.quad_weights() * np.conj(a) * b).sum()

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(a, a))))

    def boundary_mask(self) -> np.ndarray:
        """True on interior points, False on the cutoff faces."""
        mask = np.ones(self.shape, dtype=bool)
        for k in range(self.ndim):
            idx = [slice(None)] * self.ndim
            idx[k] = 0
            mask[tuple(idx)] = False
            idx[k] = -1
            mask[tuple(idx)] = False
        return mask


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid for u = r*psi substitutions; r_min > 0 regularizes u/r."""

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if self.r_min > 1e-2 * self.r_max:
            raise ValueError("r_min must be small compared to r_max")
        if self.count < 16:
            raise ValueError("radial grid too coarse")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.count - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.count)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights; they sum to `r_max - r_min`."""
        return _trapezoid_weights(self.count, self.spacing)
