"""Model parameters, state containers, and the pointwise charge algebra.

The nonlinearity is the unique choice compatible with both a conserved
normalization and a vanishing total charge: the combination

    rho*N(rho) = rho - 1/Omega

whose grid integral is identically zero for a normalized density, because
the trapezoid integral of 1 equals the grid volume Omega exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .grids import TensorGrid


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the gauge sector.

    l is the fundamental length; 1/l^2 multiplies every charge source, and
    l = inf switches the gauge coupling off (the linear limit). The
    solvers implement the normalized theory, in which both normalization
    constants equal 1. The regularized volume Omega is not a parameter:
    it is the volume of the grid a state lives on.

    Raises ValueError unless l > 0 (NaN fails) and 1/l^2 is a finite
    float, which rules out l below about 7.5e-155.
    """

    l: float = 1.0

    def __post_init__(self):
        # inv_l2 divides by l * l, which underflows to 0 below about 1.6e-162
        if not (self.l > 0 and self.l * self.l > 0 and math.isfinite(self.inv_l2)):
            raise ValueError(f"l must be > 0 with 1/l^2 finite, i.e. >= about "
                             f"7.5e-155 (inf allowed) (got {self.l})")

    @property
    def inv_l2(self) -> float:
        return 0.0 if math.isinf(self.l) else 1.0 / (self.l * self.l)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Lattice Hamiltonian: polynomial on-site potential and an optional
    nearest-neighbour (phi_{x+1} - phi_x)^2 coupling. The site count D is
    the dimension of the grid it is applied on.

    The kinetic, potential, and gradient terms carry lattice_spacing
    factors (1/a^3, a^3, a) inherited from the spatial measure; at the
    default a = 1 the Hamiltonian is

        sum_x { -1/2 d^2/dphi_x^2 + V(phi_x) } + (g/2) sum_x (phi_{x+1}-phi_x)^2

    Raises ValueError, naming the field, unless gradient_coupling is
    finite and >= 0, lattice_spacing is finite and > 0 and every
    potential coefficient is finite (NaN fails each check).
    """

    potential_coeffs: tuple[float, ...] = (0.0, 0.0, 0.5)  # default V = phi^2/2
    gradient_coupling: float = 0.0
    lattice_spacing: float = 1.0

    def __post_init__(self):
        # written so that a NaN fails each check
        if not 0 <= self.gradient_coupling < math.inf:
            raise ValueError("gradient_coupling must be finite and >= 0 "
                             f"(got {self.gradient_coupling})")
        if not 0 < self.lattice_spacing < math.inf:
            raise ValueError("lattice_spacing must be finite and positive")
        if not np.isfinite(self.potential_coeffs).all():
            raise ValueError(f"potential_coeffs must be finite (got {self.potential_coeffs})")

    def potential(self, phi: np.ndarray) -> np.ndarray:
        # len, not truth: coefficients may come as a numpy array
        c = self.potential_coeffs
        return polyval(phi, c if len(c) else (0.0,))

    def site_potential_total(self, grid: TensorGrid) -> np.ndarray:
        """a^3 * sum_x V(phi_x) plus the gradient term, as a diagonal field.

        Raises ValueError naming the coefficients if a value overflows."""
        a = self.lattice_spacing
        out = np.zeros(grid.shape)
        # an overflow is reported below, by name, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for x in range(grid.ndim):
                out += a ** 3 * self.potential(np.broadcast_to(grid.coordinate(x), grid.shape))
            if self.gradient_coupling > 0 and grid.ndim > 1:
                for x in range(grid.ndim - 1):
                    d = grid.coordinate(x + 1) - grid.coordinate(x)
                    out += 0.5 * a * self.gradient_coupling * np.broadcast_to(d * d, grid.shape)
        if not np.isfinite(out).all():
            raise ValueError(f"potential_coeffs {self.potential_coeffs} give a non-finite "
                             f"potential on this grid (lattice_spacing {a})")
        return out


@dataclass
class GaugeState:
    """Connection components on the configuration grid.

    a_t lives on nodes. a_phi and f live on amplitude links (along axis x
    the array is one shorter in that axis); a link value sits at the
    midpoint between adjacent nodes, which is what makes the covariant
    structure exactly gauge covariant on the lattice.
    """

    grid: TensorGrid
    a_t: np.ndarray
    a_phi: list[np.ndarray]
    f: list[np.ndarray]

    def __post_init__(self):
        self.a_t = np.asarray(self.a_t, dtype=float)
        self.grid.check_field(self.a_t)
        self.a_phi = [np.asarray(a, dtype=float) for a in self.a_phi]
        self.f = [np.asarray(a, dtype=float) for a in self.f]
        for name, links in (("a_phi", self.a_phi), ("f", self.f)):
            if len(links) != self.grid.ndim:
                raise ValueError(f"{name} must hold {self.grid.ndim} link fields, "
                                 f"one per grid axis; got {len(links)}")
        for x in range(self.grid.ndim):
            want = self._link_shape(self.grid, x)
            if self.a_phi[x].shape != want or self.f[x].shape != want:
                raise ValueError(f"link field along axis {x} must have shape {want}")

    @staticmethod
    def _link_shape(grid: TensorGrid, axis: int) -> tuple[int, ...]:
        s = list(grid.shape)
        s[axis] -= 1
        return tuple(s)

    @classmethod
    def zero(cls, grid: TensorGrid) -> "GaugeState":
        shapes = [cls._link_shape(grid, x) for x in range(grid.ndim)]
        return cls(grid, np.zeros(grid.shape), [np.zeros(s) for s in shapes],
                   [np.zeros(s) for s in shapes])


@dataclass
class StationaryState:
    """Self-consistent separable solution psi(t) = exp(-i omega t) psi,
    with psi the solver's real array on the grid it solved on."""

    omega_eig: float
    psi: np.ndarray
    a_t: np.ndarray
    iterations: int
    eig_residual: float
    gauss_residual: float


def nonlinearity(rho: np.ndarray, grid: TensorGrid) -> np.ndarray:
    """The charge density rho*N(rho) = rho - 1/Omega (normalized theory),
    with Omega the grid volume."""
    return rho - 1.0 / grid.volume
