"""Self-gravitating wave mechanics: the one-site limit of the gauge theory.

Three solvers live here:

* a radial ground-state solver (3D, u = r psi substitution) built on the
  alternating eigen-solve / potential-solve loop, each eigen solve the
  warm-started inverse iteration of `numerics.tridiagonal_ground`;
* an independent shooting-method oracle for the same radial problem,
  integrating the ODEs with RK4, bracketing the ground level by the node
  count and converging on the node transition by safeguarded Illinois
  steps; each shot is linear in (u, u'), so its RK4 steps are 2x2
  matrices, and the shot is a unit lower-triangular banded system that
  LAPACK solves in chunks of steps (with the amplitude rescaled between
  them);
* a 1D line evolver with the self-consistent potential, sourced by
  |psi|^2 - 1/volume as in the parent theory; its Crank-Nicolson step
  is the banded step of `dynamics` with the links switched off, taken
  once per step in the potential of a midpoint density that the
  discrete continuity equation predicts to O(dt^2) (so the step stays
  second order), and it records each step as it is taken, the energy
  by summation by parts with no Hamiltonian apply and no Poisson solve.

The radial SCF, the oracle's outer loop and the independent line SCF all
run on the Anderson fixed-point driver of `fixedpoint`.

Dimensionless units hbar = m = 1 throughout; `coupling` is the single
gravitational parameter (G*m^2 after rescaling; the 4*pi belongs to the
Poisson equation). The attractive orientation is

    E u = -1/2 u'' + [V_ext + v/r] u,     v'' = 4*pi*coupling * u^2 / r,

with v = r*Phi, v(0) = 0, and v(r_max) = -coupling * enclosed norm, so Phi
has the -coupling/r far field of a unit mass. On the line,

    phi_grav'' = -coupling (|psi|^2 - 1/volume),  V_eff = V_ext - phi_grav,

Neumann with zero mean. The volume is the grid's, as Omega is on the
functional path: the solve projects out the source mean, which for a unit
norm is exactly the compact-universe background 1/volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .dynamics import (_NORM_TOL, _check_step_args, _cn_band, _cn_step_1d,
                       _rms_width, stationary_solve)
from .errors import ConvergenceError, GridShapeError, IntegratorError
from .fixedpoint import fixed_point
from .gaugeops import link_diff, link_divergence
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import (HamiltonianSpec, ModelParams, _check_coeffs, _real,
                    nonlinearity)
from .numerics import _lapack, tridiagonal_ground

# RK4 steps per banded solve of a shot; the amplitude is rescaled only
# between chunks, so a chunk bounds how far it grows unchecked
_SHOT_CHUNK = 512


@dataclass(frozen=True)
class SNParams:
    """Schrodinger-Newton coupling and external potential polynomial in r
    (or x on the line).

    Raises ValueError, naming the field, unless coupling is finite and
    >= 0 and every coefficient is finite and real (NaN fails).
    """

    coupling: float = 1.0
    external_potential_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 <= self.coupling < np.inf:
            raise ValueError(f"coupling must be finite and >= 0 (got {self.coupling})")
        _check_coeffs("external_potential_coeffs", self.external_potential_coeffs)

    def external_potential(self, r: np.ndarray) -> np.ndarray:
        """The polynomial at r; a value that overflows raises ValueError."""
        # len, not truth: coefficients may come as a numpy array
        c = self.external_potential_coeffs
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            out = polyval(r, c if len(c) else (0.0,))
        if not np.isfinite(out).all():
            raise ValueError(f"external_potential_coeffs {c} give a non-finite "
                             "potential on this grid")
        return out


@dataclass
class RadialState:
    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray
    energy: float
    iterations: int
    residual: float


# ---------------------------------------------------------------- radial

def _radial_norm(r: np.ndarray, u: np.ndarray) -> float:
    """integral 4 pi u^2 dr (trapezoid), the 3D normalization of psi=u/r."""
    return float(4.0 * np.pi * np.trapezoid(u * u, r))


def _potential_from_u_quadrature(r, u, coupling):
    """Solve v'' = 4 pi coupling u^2/r by double trapezoid quadrature with
    v(0) = 0 and the monopole value at r_max."""
    src = 4.0 * np.pi * coupling * u * u / r
    # integrate from r=0, extending with u ~ r (src ~ r) -> src(0) = 0
    rr = np.concatenate(([0.0], r))
    ss = np.concatenate(([0.0], src))
    vp = np.concatenate(([0.0], np.cumsum(0.5 * (ss[1:] + ss[:-1]) * np.diff(rr))))
    part = np.concatenate(([0.0], np.cumsum(0.5 * (vp[1:] + vp[:-1]) * np.diff(rr))))
    part = part[1:]
    target = -coupling * _radial_norm(r, u)
    slope = (target - part[-1]) / r[-1]
    return part + slope * r


def _tridiag_ground(h: float, diag_full: np.ndarray):
    """Ground pair of -1/2 u'' + diag u with pinned endpoints (LAPACK
    `eigh_tridiagonal`): the eigen solve of the `line_ground_scf` oracle. Its
    eigenvalue is the Rayleigh quotient of the unit vector u by summation by
    parts, accurate to roundoff; bisection's is off by about eps * ||T||."""
    from scipy.linalg import eigh_tridiagonal

    d = diag_full[1:-1] + 1.0 / h ** 2
    off = np.full(d.size - 1, -0.5 / h ** 2)
    _, vecs = eigh_tridiagonal(d, off, select="i", select_range=(0, 0))
    u = np.zeros_like(diag_full)
    u[1:-1] = vecs[:, 0]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    du = np.diff(u)
    return float(np.dot(diag_full, u * u) + np.dot(du, du) / (2.0 * h * h)), u


def sn_ground_radial_scf(params: SNParams, grid: RadialGrid, tol: float = 1e-10,
                         *, mixing: float = 0.5, max_scf: int = 300) -> RadialState:
    """Ground state of the coupled radial system by alternating solves,
    Anderson-mixed on the potential v.

    Each eigen solve is the inverse iteration of
    `numerics.tridiagonal_ground` on the interior nodes, warm from the
    last iterate's u (the first call has none and starts from the
    bisected ground level); the energy is the summation-by-parts Rayleigh
    quotient of the converged u.
    """
    r = grid.nodes
    h = grid.spacing
    vext = params.external_potential(r)
    last = {}

    def update(v):
        # warm from the last iterate's u; the first call has none
        u = np.zeros_like(r)
        energy, u[1:-1] = tridiagonal_ground((vext + v / r)[1:-1], 0.5 / h ** 2,
                                             last["u"][1:-1] if last else None)
        u = u / np.sqrt(_radial_norm(r, u))
        last["u"] = u
        last["v"] = _potential_from_u_quadrature(r, u, params.coupling)
        return last["v"], energy

    _, iterations, trace = fixed_point(update, np.zeros_like(r), beta=mixing,
                                       tol=tol, max_iter=max_scf,
                                       name="radial SCF")
    energy = trace[-1][1]
    # self-consistency residual: eigen-residual with the unmixed potential
    u, v = last["u"], last["v"]
    diag = vext + v / r
    hu = np.zeros_like(u)
    hu[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / (2.0 * h * h)
    hu += diag * u
    hu[0] = hu[-1] = 0.0
    res = float(np.sqrt((grid.quad_weights() * (hu - energy * u) ** 2).sum()))
    return RadialState(grid, u, v, energy, iterations=iterations, residual=res)


def _rk4_shoot_u(r, veff, energy):
    """Integrate u'' = 2 (veff - E) u outward from (u, u') = (0, 1);
    returns u on the grid, u[0] = 0, up to a positive factor.

    Coefficient values at RK4 half steps are linear interpolants of the
    tabulated effective potential. The ODE is linear, so each RK4 step is
    a 2x2 matrix M on (u, u'), in closed form with k = 2 (veff - E) at the
    step's ends, km their mean and a = h^2/6:

        m00 = 1 + a (k0 + 2 km) + h^4 km k0 / 24,   m01 = h (1 + a km),
        m10 = km m01 (as k0 + k1 = 2 km),   m11 = m00 with k0 and k1 swapped.

    With the unknowns interleaved as (u_0, u'_0, u_1, u'_1, ...), the shot
    is forward substitution in a unit lower-triangular system with three
    sub-diagonals, -M per step, and right-hand side e_1. LAPACK `dtbtrs`
    solves it in chunks of `_SHOT_CHUNK` steps, each starting from the
    (u, u') the last one ended with. Between chunks, when max(|u|, |u'|)
    exceeds 1e12, the values already integrated are divided by it (zeros
    are unaffected). A chunk that is not finite raises ConvergenceError:
    the step is then far outside RK4's stability range.
    """
    n = r.size
    h = float(r[1] - r[0])
    a = h * h / 6.0
    # band row i, column j holds the entry (j + i, j); step s fills the
    # columns of u_s (2s) and u'_s (2s + 1)
    ab = np.zeros((4, 2 * n), order="F")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        k = 2.0 * (veff - energy)
        k0, k1 = k[:-1], k[1:]
        km = 0.5 * (k0 + k1)
        m01 = h * (1.0 + a * km)
        ab[1, 1:-2:2] = -m01
        ab[3, 0:-2:2] = -km * m01  # -m10
        ab[2, 0:-2:2] = -1.0 - a * (k0 + km * (2.0 + 1.5 * a * k0))  # -m00
        ab[2, 1:-2:2] = -1.0 - a * (k1 + km * (2.0 + 1.5 * a * k1))  # -m11
    u_out = np.zeros(n)
    u, up = 0.0, 1.0
    for s0 in range(0, n - 1, _SHOT_CHUNK):
        s1 = min(s0 + _SHOT_CHUNK, n - 1)
        rhs = np.zeros(2 * (s1 - s0 + 1))
        rhs[:2] = u, up
        x, _ = _lapack("dtbtrs")(ab[:, 2 * s0:2 * s1 + 2], rhs, uplo="L",
                                 diag="U", overwrite_b=1)
        if not np.isfinite(x).all():
            raise ConvergenceError(f"RK4 shot at energy {energy!r} overflowed "
                                   "within a chunk of steps")
        u_out[s0 + 1:s1 + 1] = x[2::2]
        u, up = x[-2:]
        big = max(abs(u), abs(up))
        if big > 1e12:
            u, up = u / big, up / big
            u_out[:s1 + 1] /= big
    return u_out


def shoot_node_count(u: np.ndarray) -> int:
    s = np.sign(u[1:-1])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def _assemble_two_sided(r, veff, energy):
    """Final wave function at a converged shooting energy: outward
    integration to the outer turning point, stable inward integration
    from r_max, amplitudes matched there. Returns (u, logderiv mismatch)."""
    n = r.size
    allowed = np.where(veff <= energy)[0]
    i_match = int(allowed[-1]) if allowed.size else n // 2
    i_match = min(max(i_match, 2), n - 3)
    uo = _rk4_shoot_u(r, veff, energy)
    # inward pass: same integrator on the reversed axis (negative step),
    # which follows the decaying solution stably
    ui = _rk4_shoot_u(r[::-1].copy(), veff[::-1].copy(), energy)[::-1]
    scale = uo[i_match] / ui[i_match]
    ui = ui * scale
    u = np.concatenate([uo[:i_match], ui[i_match:]])
    h = r[1] - r[0]
    ldo = (uo[i_match + 1] - uo[i_match - 1]) / (2 * h * uo[i_match])
    ldi = (ui[i_match + 1] - ui[i_match - 1]) / (2 * h * ui[i_match])
    u = u / np.sqrt(_radial_norm(r, u))
    return u, abs(ldo - ldi)


def _rk4_poisson_v(r, u, coupling):
    """v'' = 4 pi coupling u^2 / r via RK4 with the monopole outer value.

    The source does not depend on v, so each RK4 increment of v' is known
    up front and v' is their running sum; the increments of v then follow
    from that prefix. Both sums run in step order (`np.cumsum`), which is
    bitwise the step-by-step loop.
    """
    h = float(r[1] - r[0])
    src = 4.0 * np.pi * coupling * u * u / r
    h6 = h / 6.0
    s0, s1 = src[:-1], src[1:]
    sm = 0.5 * (s0 + s1)
    vp = np.zeros(r.size)
    np.cumsum(h6 * (s0 + 4.0 * sm + s1), out=vp[1:])
    vp = vp[:-1]  # v' at the start of each step
    a1v = vp
    a2v = vp + 0.5 * h * s0
    a3v = vp + 0.5 * h * sm
    a4v = vp + h * sm
    part = np.zeros(r.size)
    np.cumsum(h6 * (a1v + 2.0 * a2v + 2.0 * a3v + a4v), out=part[1:])
    target = -coupling * _radial_norm(r, u)
    slope = (target - part[-1]) / r[-1]
    return part + slope * r


def _shoot(r, veff, energy):
    """One outward shot: its node count and the shooting function
    u[-2] / |u|, which is continuous in the energy (the amplitude
    rescaling inside the shot cancels) and changes sign where the node
    count goes from 0 to 1."""
    u = _rk4_shoot_u(r, veff, energy)
    return shoot_node_count(u), float(u[-2] / np.linalg.norm(u))


def _ground_bracket(r, veff, hist):
    """(lo, f_lo, hi, f_hi): shots with 0 nodes at lo and >= 1 node at hi.

    Starts around the previous energy and widens that bracket
    geometrically, reusing every shot as the end it is valid for; falls
    back to the cold bracket [min veff - 1, max veff].
    """
    if hist:
        if len(hist) >= 2:
            span = max(10 * abs(hist[-1] - hist[-2]), 1e-9)
        else:
            span = max(0.25 * abs(hist[-1]), 0.05)
        lo, hi = hist[-1] - span, hist[-1] + span
        (n_lo, f_lo), (n_hi, f_hi) = _shoot(r, veff, lo), _shoot(r, veff, hi)
        for _ in range(4):
            if n_lo == 0 and n_hi >= 1:
                return lo, f_lo, hi, f_hi
            span *= 8.0
            if n_lo > 0:  # the ground level lies below lo
                hi, n_hi, f_hi = lo, n_lo, f_lo
                lo = hist[-1] - span
                n_lo, f_lo = _shoot(r, veff, lo)
            else:  # ... or above hi
                lo, n_lo, f_lo = hi, n_hi, f_hi
                hi = hist[-1] + span
                n_hi, f_hi = _shoot(r, veff, hi)
    lo, hi = float(veff.min()) - 1.0, float(veff.max())
    # grow hi until at least one node appears
    for _ in range(60):
        n_hi, f_hi = _shoot(r, veff, hi)
        if n_hi >= 1:
            break
        hi += max(1.0, abs(hi))
    else:
        raise ConvergenceError("no node appeared while raising the bracket")
    n_lo, f_lo = _shoot(r, veff, lo)
    if n_lo != 0:
        raise ConvergenceError("bracket floor already has nodes; "
                               "no ground state in bracket")
    return lo, f_lo, hi, f_hi


def _ground_level(r, veff, lo, f_lo, hi, f_hi, tol):
    """Energy of the 0 -> 1 node transition inside a node-count bracket.

    Illinois (modified regula falsi) steps on the shooting function while
    its end values change sign, bisection otherwise; the node count of
    each shot decides which end it replaces, so the bracket always holds
    the ground level. A step closer than half the stopping width to an
    end is pushed to that distance, so the bracket closes from both sides.
    A bracket still wider than that after 200 steps raises
    ConvergenceError with the width as its residual.
    """
    side = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        width = max(tol, 1e-13) * max(1.0, abs(mid))
        if hi - lo < width:
            break
        energy = mid
        if f_lo > 0.0 > f_hi:
            s = lo + f_lo * (hi - lo) / (f_lo - f_hi)
            if lo <= s <= hi:
                energy = min(max(s, lo + 0.5 * width), hi - 0.5 * width)
        n, f = _shoot(r, veff, energy)
        if n == 0:
            lo, f_lo = energy, f
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = energy, f
            if side == 1:
                f_lo *= 0.5
            side = 1
    else:
        raise ConvergenceError(f"ground level not bracketed to {width:.3g} in "
                               f"200 steps: bracket [{lo!r}, {hi!r}]",
                               residual=hi - lo)
    return 0.5 * (lo + hi)


def sn_ground_radial_shoot(params: SNParams, grid: RadialGrid,
                           tol: float = 1e-10, *, max_outer: int = 200,
                           mixing: float = 0.5) -> RadialState:
    """Shooting oracle, coded independently of `sn_ground_radial_scf`.

    For a given potential, the node count of the outward RK4 integration
    brackets the ground level (no node below it, at least one above), and
    a safeguarded Illinois iteration on the continuous shooting function
    converges on the 0 -> 1 node transition inside that bracket. The
    potential is refreshed from the two-sided u under the Anderson
    fixed-point driver until the energy settles. Raises ValueError unless
    tol > 0 and 0 < mixing <= 1, whatever the coupling.
    """
    # written so that a NaN fails each check
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0 < mixing <= 1:
        raise ValueError(f"mixing must be in (0, 1], got {mixing}")
    r = grid.nodes
    vext = params.external_potential(r)
    hist = []
    last = {}

    def update(v):
        veff = vext + v / r
        energy = _ground_level(r, veff, *_ground_bracket(r, veff, hist), tol)
        hist.append(energy)
        u, mismatch = _assemble_two_sided(r, veff, energy)
        last.update(u=u, mismatch=mismatch,
                    v=_rk4_poisson_v(r, u, params.coupling))
        return last["v"], energy

    _, iterations, _ = fixed_point(update, np.zeros_like(r), beta=mixing,
                                   tol=10 * tol, res_tol=np.sqrt(tol),
                                   max_iter=max_outer, name="shooting outer loop")
    return RadialState(grid, last["u"], last["v"], float(hist[-1]),
                       iterations=iterations, residual=float(last["mismatch"]))


# ---------------------------------------------------------------- 1D line

def _neumann_fluxes(grid: UniformGrid1D, source: np.ndarray) -> np.ndarray:
    """The fluxes F_{j+1/2} = sum_{i<=j} w_i (s_i - s_bar), j < count - 1,
    of the compact Neumann solve u of u'' = source: F = diff(u)/h, as the
    stencil's weighted row j is F_{j+1/2} - F_{j-1/2} = w_j (s_j - s_bar),
    s_bar the source's weighted mean, with no flux past either end."""
    w = grid.quad_weights()
    f = source - np.dot(w, source) / grid.extent
    f *= w
    return np.cumsum(f[:-1])


def poisson_1d_neumann(grid: UniformGrid1D, source: np.ndarray) -> np.ndarray:
    """Direct solve of u'' = source, zero-gradient ends, zero mean, on the
    compact Neumann stencil (mirror-ghost end rows): u is h times the
    cumulative sum of the fluxes of `_neumann_fluxes`, minus its mean.

    This is the solver of the independent `line_ground_scf` oracle and of
    the line evolver; it is kept apart from `numerics.poisson_solve` and
    from the Laplacian of `gaugeops` so that they can be checked against
    each other.

    The source mean is projected out first (compact-universe
    compatibility). Row 0 then fixes F_{1/2}, each interior row the next
    flux, and the last row is sum w (s - s_bar) = 0, which the projection
    makes hold; so the sums solve the stencil exactly, with roundoff that
    grows about like the node count (an LU solve's grows like its square).
    A complex source raises ValueError, and one that is not one value per
    node raises GridShapeError.
    """
    source = _real("source", source)
    if source.shape != (grid.count,):
        raise GridShapeError(f"source shape {source.shape} != grid shape {(grid.count,)}")
    u = np.zeros(grid.count)
    np.cumsum(_neumann_fluxes(grid, source), out=u[1:])
    u *= grid.spacing
    u -= np.dot(grid.quad_weights(), u) / grid.extent
    return u


def solve_phi_grav(grid: UniformGrid1D, rho: np.ndarray,
                   params: SNParams) -> np.ndarray:
    """phi'' = -coupling (rho - 1/volume), zero mean: the solve of the
    source -coupling rho projects out its mean, which is the background
    1/volume for a unit norm. GridShapeError unless rho has one value per
    node."""
    return poisson_1d_neumann(grid, -params.coupling * rho)


def _density_rate(psi: np.ndarray, h: float) -> np.ndarray:
    """d|psi|^2/dt = 2 Im(conj psi H psi) under i psi_t = H psi, for psi
    zero at both ends and H = -1/2 d^2 + V on the CN step's stencil.

    The diagonal of H is real and drops out, leaving the hopping terms:
    -(1/h^2) Im(conj psi_j (psi_{j+1} + psi_{j-1})) at interior nodes,
    0 at the ends. Its weighted sum is zero (charge is conserved).
    """
    rate = np.zeros(psi.size)
    rate[1:-1] = (psi[1:-1].conj() * (psi[2:] + psi[:-2])).imag
    rate *= -1.0 / (h * h)
    return rate


def sn_evolve_1d(grid: UniformGrid1D, psi: np.ndarray, params: SNParams,
                 dt: float, steps: int, *, record_every: int = 1) -> dict:
    """Crank-Nicolson evolution of psi on the nodes of `grid` with the
    self-consistent potential, from t = 0.

    Each step predicts the midpoint density from the discrete continuity
    equation, rho + dt/2 * rho_t with rho_t = 2 Im(conj psi H psi) of the
    current psi (`_density_rate`), solves the potential there, and takes one CN
    step with it (linearly implicit CN, Akrivis, Dougalis & Karakashian
    1991). The predicted density is off by O(dt^2), so the step's
    potential is too, which moves psi by O(dt^3) per step: second order,
    as the CN step itself, and norm conserving per step. At coupling 0
    the potential solves are of a zero source, so phi_grav = 0.

    Records t, norm, energy, and width sigma every `record_every` steps
    and at the last one, each written into the preallocated series as
    the step is taken; returns those series ("series") and the final psi
    ("psi"), a new array.

    The energy is Re<psi, H psi> - 1/2 <phi_grav, rho> with H = -1/2 d^2 +
    V_ext on the stencil of the CN step. With psi zero at both ends and
    interior weights h, summation by parts turns the kinetic term into
    sum_j |psi_{j+1} - psi_j|^2 / (2h), so the energy is that sum plus
    sum w V_ext rho - 1/2 coupling h sum_j G_j^2, with G the fluxes of
    rho (`_neumann_fluxes`): no Hamiltonian apply, and no cancellation of
    the diagonal against the hopping terms. The gravity term needs no
    Poisson solve: the fluxes diff(phi_grav)/h are -coupling G, and since
    phi_grav has zero mean, summation by parts gives <phi_grav, w rho> =
    coupling h sum G^2; coupling 0 gives exactly 0. Each step thus makes
    one Poisson solve, that of its midpoint density.

    The norm guard (drift above 1e-6 raises IntegratorError) is checked
    at each recorded step, so the run stops at the first one that fails
    and the error names it. Raises ValueError naming the argument unless
    dt > 0, steps >= 0 and record_every >= 1; steps = 0 records the
    initial state alone. Raises GridShapeError unless psi has one entry
    per node of the grid.
    """
    _check_step_args(dt, record_every)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    tgrid = TensorGrid((grid,))
    tgrid.check_field(psi)
    w = grid.quad_weights()
    x = grid.nodes
    wx = w * x
    two_h = 2.0 * grid.spacing
    vext = params.external_potential(x)
    grav_h = params.coupling * grid.spacing
    psi = psi.astype(complex)
    psi[0] = psi[-1] = 0.0

    n_rec = len(range(0, steps, record_every)) + 1
    out = {k: np.empty(n_rec) for k in ("t", "norm", "energy", "sigma")}

    def record(k, psi, rho):
        # k / record_every on the stride; a last step off it takes the next row
        row = -(-k // record_every)
        w_rho = w * rho
        nrm = w_rho.sum()
        dpsi = psi[1:] - psi[:-1]
        flux = _neumann_fluxes(grid, rho)
        out["t"][row] = k * dt
        out["norm"][row] = nrm
        out["energy"][row] = (np.vdot(dpsi, dpsi).real / two_h + np.dot(w_rho, vext)
                              - 0.5 * grav_h * np.dot(flux, flux))
        out["sigma"][row] = _rms_width(w, (x,), (wx,), rho, nrm)
        # written so that a NaN norm fails the guard
        if k > 0 and not abs(nrm - out["norm"][0]) <= _NORM_TOL:
            raise IntegratorError(f"norm drifted to {nrm:.12f} at step {k}")

    rho = np.abs(psi) ** 2
    record(0, psi, rho)
    for k in range(1, steps + 1):
        rho_mid = rho + (0.5 * dt) * _density_rate(psi, grid.spacing)
        phi_mid = solve_phi_grav(grid, rho_mid, params)
        psi = _cn_step_1d(tgrid, psi, None, _cn_band(tgrid, vext - phi_mid, 1.0, dt),
                          1.0, dt)
        rho = np.abs(psi) ** 2
        if k % record_every == 0 or k == steps:
            record(k, psi, rho)
    return {"series": out, "psi": psi}


def line_ground_scf(grid: UniformGrid1D, params: SNParams, tol: float = 1e-12,
                    *, max_scf: int = 400):
    """Stationary 1D oracle, independently coded against the functional
    path: dense tridiagonal eigensolve plus the cumulative-sum Poisson
    solve of `solve_phi_grav`, which it shares with the line evolver, not
    with the functional path it checks.

    Solves  omega psi = -1/2 psi'' + V_ext psi - phi psi,
            phi'' = -coupling (|psi|^2 - 1/volume),   both zero-mean/Neumann,
    on the same discrete operators as the configuration-space module, so
    the two fixed points coincide to solver tolerance. Returns
    (omega, psi, phi).
    """
    w = grid.quad_weights()
    vext = params.external_potential(grid.nodes)
    last = {}

    def update(phi):
        omega, psi = _tridiag_ground(grid.spacing, vext - phi)
        psi /= np.sqrt((w * psi * psi).sum())
        last["psi"] = psi
        last["phi"] = solve_phi_grav(grid, psi * psi, params)
        return last["phi"], omega

    _, _, trace = fixed_point(update, np.zeros_like(vext), beta=0.5, tol=tol,
                              max_iter=max_scf, name="line SCF")
    return trace[-1][1], last["psi"], last["phi"]


@dataclass
class LimitReport:
    omega_functional: float
    omega_line: float
    max_psi_diff: float
    max_at_diff: float
    source_curvature_consistent: bool
    repulsive_fraction: float

    @property
    def omega_diff(self) -> float:
        return abs(self.omega_functional - self.omega_line)


def limit_equivalence_check(spec: HamiltonianSpec, params: ModelParams,
                            grid: TensorGrid, tol: float = 1e-12) -> LimitReport:
    """One-site reduction: the configuration-space stationary solver and
    the independent 1D solver must hit the same fixed point. At lattice
    spacing a, a^3 times the functional equation is the line problem with
    coupling a^3/l^2 and potential a^6 V, solved by a^3 omega and a^3 A_t.

    Also inspects the sign structure: wherever the density falls below the
    uniform background 1/Omega the constraint source `nonlinearity` flips
    sign and the potential curvature turns locally repulsive.
    """
    if grid.ndim != 1:
        raise ValueError("the limit check is the single-site case")
    st = stationary_solve(spec, params, grid, tol=tol * 100)
    a3 = spec.lattice_spacing ** 3
    line = SNParams(coupling=a3 * params.inv_l2,
                    external_potential_coeffs=tuple(
                        a3 * a3 * c for c in spec.potential_coeffs))
    omega_line, psi_line, phi_line = line_ground_scf(grid.axes[0], line, tol=tol)
    omega_line, phi_line = omega_line / a3, phi_line / a3
    dpsi = float(np.abs(st.psi - psi_line).max())
    dat = float(np.abs(st.a_t - phi_line).max())

    # sign experiment: curvature of A_t vs sign of rho - 1/Omega
    curv = link_divergence(grid, [link_diff(grid, st.a_t, 0)])
    src = nonlinearity(st.psi * st.psi, grid)
    sel = np.abs(src[1:-1]) > 1e-6 * np.abs(src).max()
    agree = np.sign(curv[1:-1][sel]) == -np.sign(src[1:-1][sel])
    # with no coupling A_t = 0, and there is no curvature to test
    consistent = bool(np.all(agree)) if line.coupling > 0 else True
    repulsive = float(np.mean(src[1:-1] < 0))
    return LimitReport(st.omega_eig, omega_line, dpsi, dat, consistent, repulsive)
