"""Model parameters, state containers, and the pointwise charge algebra.

The nonlinearity is the unique choice compatible with both a conserved
normalization and a vanishing total charge: the combination

    rho*N(rho) = rho - 1/Omega

whose grid integral is identically zero for a normalized density, because
the trapezoid integral of 1 equals the grid volume Omega exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .grids import TensorGrid


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the gauge sector.

    l is the fundamental length; 1/l^2 multiplies every charge source, and
    l = inf switches the gauge coupling off (the linear limit). The
    solvers implement the normalized theory, in which both normalization
    constants equal 1.
    """

    l: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not self.l > 0:
            raise ValueError("l must be positive (l = inf allowed)")
        if not self.omega > 0:
            raise ValueError("omega must be positive")

    @classmethod
    def for_grid(cls, grid: TensorGrid, l: float = 1.0) -> "ModelParams":
        return cls(l=l, omega=grid.volume)

    @property
    def inv_l2(self) -> float:
        return 0.0 if math.isinf(self.l) else 1.0 / (self.l * self.l)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Lattice Hamiltonian: D sites, polynomial on-site potential, and an
    optional nearest-neighbour (phi_{x+1} - phi_x)^2 coupling.

    The kinetic, potential, and gradient terms carry lattice_spacing
    factors (1/a^3, a^3, a) inherited from the spatial measure; at the
    default a = 1 the Hamiltonian is

        sum_x { -1/2 d^2/dphi_x^2 + V(phi_x) } + (g/2) sum_x (phi_{x+1}-phi_x)^2
    """

    sites: int
    potential_coeffs: tuple[float, ...] = (0.0, 0.0, 0.5)  # default V = phi^2/2
    gradient_coupling: float = 0.0
    lattice_spacing: float = 1.0

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("need at least one site")
        # written so that a NaN fails each check
        if not self.gradient_coupling >= 0:
            raise ValueError("gradient_coupling must be >= 0")
        if not self.lattice_spacing > 0:
            raise ValueError("lattice_spacing must be positive")

    def potential(self, phi: np.ndarray) -> np.ndarray:
        return polyval(phi, self.potential_coeffs or (0.0,))

    def site_potential_total(self, grid: TensorGrid) -> np.ndarray:
        """a^3 * sum_x V(phi_x) plus the gradient term, as a diagonal field."""
        if grid.ndim != self.sites:
            raise ValueError(f"spec has {self.sites} sites, grid has {grid.ndim}")
        a = self.lattice_spacing
        out = np.zeros(grid.shape)
        for x in range(grid.ndim):
            out += a ** 3 * self.potential(np.broadcast_to(grid.coordinate(x), grid.shape))
        if self.gradient_coupling > 0 and grid.ndim > 1:
            for x in range(grid.ndim - 1):
                d = grid.coordinate(x + 1) - grid.coordinate(x)
                out += 0.5 * a * self.gradient_coupling * np.broadcast_to(d * d, grid.shape)
        return out


@dataclass
class WaveFunctional:
    """Complex amplitudes over the configuration grid."""

    grid: TensorGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.grid.check_field(self.values)

    @property
    def norm(self) -> float:
        """The conserved normalization integral(|psi|^2)."""
        return float(np.real(self.grid.integrate(np.abs(self.values) ** 2)))

    def normalized(self) -> "WaveFunctional":
        n = self.norm
        if n <= 0:
            raise ValueError("cannot normalize a null state")
        return WaveFunctional(self.grid, self.values / np.sqrt(n))


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

    def copy(self) -> "GaugeState":
        return GaugeState(self.grid, self.a_t.copy(),
                          [a.copy() for a in self.a_phi],
                          [a.copy() for a in self.f])


@dataclass
class GaugeTransform:
    """A real functional Lambda[phi] at one time, plus its time derivative."""

    lam: np.ndarray
    lam_dot: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.lam_dot = np.asarray(self.lam_dot, dtype=float)


@dataclass
class StationaryState:
    """Self-consistent separable solution psi(t) = exp(-i omega t) psi."""

    omega_eig: float
    psi: WaveFunctional
    a_t: np.ndarray
    iterations: int = 0
    eig_residual: float = 0.0
    gauss_residual: float = 0.0


def check_omega_matches(grid: TensorGrid, params: ModelParams) -> None:
    """The regularized volume in the params must be the grid volume."""
    if abs(params.omega - grid.volume) > 1e-12 * grid.volume:
        raise ValueError(
            f"params.omega = {params.omega} does not match the grid volume "
            f"{grid.volume}; build params with ModelParams.for_grid")


def density(psi: WaveFunctional) -> np.ndarray:
    """rho = |psi|^2 pointwise."""
    return np.abs(psi.values) ** 2


def nonlinearity(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """The charge density rho*N(rho) = rho - 1/Omega (normalized theory)."""
    return rho - 1.0 / params.omega


def total_charge(grid: TensorGrid, rho: np.ndarray, params: ModelParams) -> float:
    """Q = (1/l^2) * integral of rho*N(rho); vanishes for normalized rho."""
    check_omega_matches(grid, params)
    src = nonlinearity(rho, params)
    return params.inv_l2 * float(np.real(grid.integrate(src)))
