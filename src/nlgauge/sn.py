"""Self-gravitating wave mechanics: the one-site limit of the gauge theory.

Three solvers live here:

* a radial ground-state solver (3D, u = r psi substitution) built on the
  alternating eigen-solve / potential-solve loop;
* an independent shooting-method oracle for the same radial problem,
  integrating the ODEs with RK4, bracketing the ground level by the node
  count and converging on the node transition by safeguarded Illinois
  steps; each shot is linear in (u, u'), so its RK4 steps are 2x2
  matrices, and the shot is a unit lower-triangular banded system that
  LAPACK solves in chunks of steps (with the amplitude rescaled between
  them);
* a 1D line evolver with the self-consistent potential, including the
  uniform background term of the parent theory; its Crank-Nicolson step
  is the banded step of `dynamics` with the links switched off, and it
  records each step as it is taken, the energy by summation by parts
  with no Hamiltonian apply.

The radial SCF, the oracle's outer loop and the independent line SCF all
run on the Anderson fixed-point driver of `fixedpoint`.

Dimensionless units hbar = m = 1 throughout; `coupling` is the single
gravitational parameter (G*m^2 after rescaling; the 4*pi belongs to the
Poisson equation). The attractive orientation is

    E u = -1/2 u'' + [V_ext + v/r] u,     v'' = 4*pi*coupling * u^2 / r,

with v = r*Phi, v(0) = 0, and v(r_max) = -coupling * enclosed norm, so Phi
has the -coupling/r far field of a unit mass. On the line,

    phi_grav'' = -coupling (|psi|^2 - background),  V_eff = V_ext - phi_grav,

Neumann with zero mean; the source mean is projected out, which is what
the compact-universe constraint demands (background = 0 behaves as
background = 1/volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from numpy.polynomial.polynomial import polyval
from scipy.linalg.lapack import dgttrf as _dgttrf
from scipy.linalg.lapack import dgttrs as _dgttrs
from scipy.linalg.lapack import dtbtrs as _dtbtrs

from .dynamics import (_NORM_TOL, _check_step_args, _cn_step_1d, _rms_width,
                       stationary_solve)
from .errors import ConvergenceError, IntegratorError
from .fixedpoint import fixed_point
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import HamiltonianSpec, ModelParams
from .numerics import laplacian_apply

# RK4 steps per banded solve of a shot; the amplitude is rescaled only
# between chunks, so a chunk bounds how far it grows unchecked
_SHOT_CHUNK = 512


@dataclass(frozen=True)
class SNParams:
    coupling: float = 1.0
    background: float = 0.0
    external_potential_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        # written so that a NaN fails
        if not (self.coupling >= 0 and self.background >= 0):
            raise ValueError("coupling and background must be >= 0")

    def external_potential(self, r: np.ndarray) -> np.ndarray:
        return polyval(r, self.external_potential_coeffs or (0.0,))


@dataclass
class RadialState:
    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray
    energy: float
    iterations: int
    residual: float


@dataclass
class Line1DState:
    grid: UniformGrid1D
    psi: np.ndarray
    time: float = field(default=0.0, kw_only=True)


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
    """Ground pair of -1/2 u'' + diag u with pinned endpoints (LAPACK)."""
    d = diag_full[1:-1] + 1.0 / h ** 2
    off = np.full(d.size - 1, -0.5 / h ** 2)
    vals, vecs = scipy.linalg.eigh_tridiagonal(d, off, select="i",
                                               select_range=(0, 0))
    u = np.zeros_like(diag_full)
    u[1:-1] = vecs[:, 0]
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    return float(vals[0]), u


def sn_ground_radial_scf(params: SNParams, grid: RadialGrid, tol: float = 1e-10,
                         *, mixing: float = 0.5, max_scf: int = 300) -> RadialState:
    """Ground state of the coupled radial system by alternating solves,
    Anderson-mixed on the potential v."""
    if params.background != 0.0:
        raise ValueError("radial solver is the background-free case")
    r = grid.nodes
    h = grid.spacing
    vext = params.external_potential(r)
    last = {}

    def update(v):
        energy, u = _tridiag_ground(h, vext + v / r)
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
        x, _ = _dtbtrs(ab[:, 2 * s0:2 * s1 + 2], rhs, uplo="L", diag="U",
                       overwrite_b=1)
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
    if params.background != 0.0:
        raise ValueError("radial solver is the background-free case")
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

    v0 = np.zeros_like(r)
    if params.coupling == 0:
        update(v0)
        iterations = 1
    else:
        _, iterations, _ = fixed_point(update, v0, beta=mixing, tol=10 * tol,
                                       res_tol=np.sqrt(tol), max_iter=max_outer,
                                       name="shooting outer loop")
    return RadialState(grid, last["u"], last["v"], float(hist[-1]),
                       iterations=iterations, residual=float(last["mismatch"]))


# ---------------------------------------------------------------- 1D line

@lru_cache(maxsize=8)
def _neumann_factors(n: int, h2: float) -> tuple[np.ndarray, ...]:
    """LU factors (`dgttrf`, read-only) of the pinned compact Neumann
    Laplacian on n nodes of squared spacing h2.

    Its rows are the mirror-ghost ones, with the last row's lower entry
    doubled; the first row is replaced by the pin u[0] = 0.
    """
    d = np.full(n, -2.0) / h2
    up = np.ones(n - 1) / h2
    lo = np.ones(n - 1) / h2
    lo[-1] = 2.0 / h2
    d[0] = 1.0
    up[0] = 0.0
    *factors, info = _dgttrf(lo, d, up)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgttrf failed on the Poisson matrix (info={info})")
    for a in factors:
        a.flags.writeable = False
    return tuple(factors)


def poisson_1d_neumann(grid: UniformGrid1D, source: np.ndarray) -> np.ndarray:
    """Direct tridiagonal solve of u'' = source, zero-gradient ends, zero
    mean, by LAPACK `dgttrs` on the `dgttrf` factors of the grid's matrix,
    factored once per grid; bitwise the `dgtsv` solve behind
    `scipy.linalg.solve_banded((1, 1), ...)`.

    This is the solver of the independent `line_ground_scf` oracle and of
    the line evolver; it is kept apart from `numerics.poisson_solve` so
    that the two can be checked against each other.

    The source mean is projected out first (compact-universe
    compatibility); the singular system is pinned at the first node and
    the mean subtracted afterwards.
    """
    w = grid.quad_weights()
    vol = grid.extent
    rhs = source - (w * source).sum() / vol
    rhs[0] = 0.0
    u, info = _dgttrs(*_neumann_factors(grid.count, grid.spacing ** 2), rhs,
                      overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgttrs failed in the Poisson solve (info={info})")
    u -= (w * u).sum() / vol
    return u


def solve_phi_grav(grid: UniformGrid1D, rho: np.ndarray,
                   params: SNParams) -> np.ndarray:
    """phi'' = -coupling (rho - background), mean-projected, zero mean."""
    return poisson_1d_neumann(grid, -params.coupling * (rho - params.background))


def sn_evolve_1d(state: Line1DState, params: SNParams, dt: float, steps: int,
                 *, record_every: int = 1) -> dict:
    """Crank-Nicolson evolution with the self-consistent potential.

    The potential is solved from |psi|^2 of the initial state, so a
    state carries only the grid, psi and its time. Each step predicts the
    midpoint density with a half step, rebuilds the potential there, and
    takes the full step with it (second order, norm conserving per step).
    Records t, norm, energy, and width sigma every `record_every` steps
    and at the last one, each written into the preallocated series as
    the step is taken; returns those series and the final state.

    The energy is Re<psi, H psi> - 1/2 <phi_grav, rho> with H = -1/2 d^2 +
    V_ext on the stencil of the CN step. With psi zero at both ends and
    interior weights h, summation by parts turns the kinetic term into
    sum_j |psi_{j+1} - psi_j|^2 / (2h), so the energy is that sum plus
    sum w (V_ext - phi_grav/2) rho: no Hamiltonian apply, and no
    cancellation of the diagonal against the hopping terms.

    The norm guard (drift above 1e-6 raises IntegratorError) is checked
    at each recorded step, so the run stops at the first one that fails
    and the error names it. Raises ValueError naming the argument unless
    dt > 0, steps >= 0 and record_every >= 1; steps = 0 records the
    initial state alone.
    """
    _check_step_args(dt, record_every)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    grid = state.grid
    tgrid = TensorGrid((grid,))
    w = grid.quad_weights()
    x = grid.nodes
    wx = w * x
    two_h = 2.0 * grid.spacing
    vext = params.external_potential(x)
    psi = state.psi.astype(complex).copy()
    psi[0] = psi[-1] = 0.0

    n_rec = len(range(0, steps, record_every)) + 1
    out = {k: np.empty(n_rec) for k in ("t", "norm", "energy", "sigma")}

    def record(k, psi, rho, phi):
        # k / record_every on the stride; a last step off it takes the next row
        row = -(-k // record_every)
        w_rho = w * rho
        nrm = w_rho.sum()
        dpsi = psi[1:] - psi[:-1]
        out["t"][row] = state.time + k * dt
        out["norm"][row] = nrm
        out["energy"][row] = (np.vdot(dpsi, dpsi).real / two_h + np.dot(w_rho, vext)
                              - 0.5 * np.dot(w_rho, phi))
        out["sigma"][row] = _rms_width(w, (x,), (wx,), rho, nrm)
        # written so that a NaN norm fails the guard
        if k > 0 and not abs(nrm - out["norm"][0]) <= _NORM_TOL:
            raise IntegratorError(f"norm drifted to {nrm:.12f} at step {k}")

    rho = np.abs(psi) ** 2
    phi = solve_phi_grav(grid, rho, params) if params.coupling > 0 \
        else np.zeros_like(x)
    record(0, psi, rho, phi)
    for k in range(1, steps + 1):
        if params.coupling > 0:
            half = _cn_step_1d(tgrid, psi, None, vext - phi, 1.0, 0.5 * dt)
            phi_mid = solve_phi_grav(grid, np.abs(half) ** 2, params)
        else:
            phi_mid = phi
        psi = _cn_step_1d(tgrid, psi, None, vext - phi_mid, 1.0, dt)
        rho = np.abs(psi) ** 2
        if params.coupling > 0:
            phi = solve_phi_grav(grid, rho, params)
        if k % record_every == 0 or k == steps:
            record(k, psi, rho, phi)
    return {"series": out,
            "final": Line1DState(grid, psi, time=state.time + steps * dt)}


def line_ground_scf(grid: UniformGrid1D, vext_coeffs: tuple[float, ...],
                    coupling: float, background: float, tol: float = 1e-12,
                    *, max_scf: int = 400):
    """Stationary 1D solver, independently coded against the functional
    path: dense tridiagonal eigensolve plus direct banded Poisson.

    Solves  omega psi = -1/2 psi'' + V_ext psi - phi psi,
            phi'' = -coupling (|psi|^2 - background),   both zero-mean/Neumann,
    on the same discrete operators as the configuration-space module, so
    the two fixed points coincide to solver tolerance.
    """
    x = grid.nodes
    w = grid.quad_weights()
    vext = polyval(x, vext_coeffs or (0.0,))
    last = {}

    def update(phi):
        omega, psi = _tridiag_ground(grid.spacing, vext - phi)
        psi /= np.sqrt((w * psi * psi).sum())
        last["psi"] = psi
        if coupling > 0:
            last["phi"] = poisson_1d_neumann(grid, -coupling * (psi * psi - background))
        else:
            last["phi"] = np.zeros_like(x)
        return last["phi"], omega

    _, _, trace = fixed_point(update, np.zeros_like(x), beta=0.5, tol=tol,
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
    the independent 1D solver must hit the same fixed point.

    Also inspects the sign structure: wherever the density falls below the
    uniform background the constraint source flips sign and the potential
    curvature turns locally repulsive.
    """
    if grid.ndim != 1:
        raise ValueError("the limit check is the single-site case")
    st = stationary_solve(spec, params, grid, tol=tol * 100)
    axis = grid.axes[0]
    coupling = params.inv_l2
    background = 1.0 / grid.volume
    omega_line, psi_line, phi_line = line_ground_scf(
        axis, spec.potential_coeffs, coupling, background, tol=tol)
    psi_f = np.real(st.psi.values)
    dpsi = float(np.abs(psi_f - psi_line).max())
    dat = float(np.abs(st.a_t - phi_line).max())

    # sign experiment: curvature of A_t vs sign of (rho - background)
    curv = laplacian_apply(grid, st.a_t)
    src = psi_f * psi_f - background
    sel = np.abs(src[1:-1]) > 1e-6 * np.abs(src).max()
    agree = np.sign(curv[1:-1][sel]) == -np.sign(src[1:-1][sel])
    consistent = bool(np.all(agree)) if coupling > 0 else True
    repulsive = float(np.mean(src[1:-1] < 0))
    return LimitReport(st.omega_eig, omega_line, dpsi, dat, consistent, repulsive)
