"""Self-gravitating wave mechanics: the one-site limit of the gauge theory.

Three solvers live here:

* a radial ground-state solver (3D, u = r psi substitution) built on the
  alternating eigen-solve / potential-solve loop;
* an independent shooting-method oracle for the same radial problem,
  integrating the ODEs with RK4, bracketing the ground level by the node
  count and converging on the node transition by safeguarded Illinois
  steps;
* a 1D line evolver with the self-consistent potential, including the
  uniform background term of the parent theory; its Crank-Nicolson step
  is the banded step of `dynamics` with the links switched off.

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

import numpy as np
import scipy.linalg
from numpy.polynomial.polynomial import polyval
from scipy.linalg.lapack import dgtsv as _dgtsv

from .dynamics import _cn_step_1d, _rms_width, stationary_solve
from .errors import ConvergenceError, IntegratorError
from .fixedpoint import fixed_point
from .gaugeops import apply_hamiltonian_raw
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import HamiltonianSpec, ModelParams


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
    iterations: int = 0
    residual: float = 0.0


@dataclass
class Line1DState:
    grid: UniformGrid1D
    psi: np.ndarray
    phi_grav: np.ndarray
    time: float = 0.0


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
    """Integrate u'' = 2 (veff - E) u outward; returns u on the grid.

    Coefficient values at RK4 half steps are linear interpolants of the
    tabulated effective potential. Scalar loop on plain floats; the
    amplitude is rescaled when it grows huge (zeros are unaffected).
    """
    n = r.size
    h = float(r[1] - r[0])
    kk = (2.0 * (veff - energy)).tolist()
    u_out = np.empty(n)
    u_out[0] = 0.0
    u, up = 0.0, 1.0
    h6 = h / 6.0
    for i in range(n - 1):
        k0 = kk[i]
        k1 = kk[i + 1]
        km = 0.5 * (k0 + k1)
        a1u, a1p = up, k0 * u
        y2u = u + 0.5 * h * a1u
        y2p = up + 0.5 * h * a1p
        a2u, a2p = y2p, km * y2u
        y3u = u + 0.5 * h * a2u
        y3p = up + 0.5 * h * a2p
        a3u, a3p = y3p, km * y3u
        y4u = u + h * a3u
        y4p = up + h * a3p
        a4u, a4p = y4p, k1 * y4u
        u = u + h6 * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)
        up = up + h6 * (a1p + 2.0 * a2p + 2.0 * a3p + a4p)
        m = max(abs(u), abs(up))
        if m > 1e12:
            u /= m
            up /= m
            u_out[: i + 1] /= m
        u_out[i + 1] = u
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
    """v'' = 4 pi coupling u^2 / r via RK4 with the monopole outer value."""
    n = r.size
    h = float(r[1] - r[0])
    src = (4.0 * np.pi * coupling * u * u / r).tolist()
    part = np.empty(n)
    part[0] = 0.0
    vv, vp = 0.0, 0.0
    h6 = h / 6.0
    for i in range(n - 1):
        s0 = src[i]
        s1 = src[i + 1]
        sm = 0.5 * (s0 + s1)
        a1v, a1p = vp, s0
        a2v = vp + 0.5 * h * a1p
        a3v = vp + 0.5 * h * sm
        a4v = vp + h * sm
        vv = vv + h6 * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        vp = vp + h6 * (s0 + 4.0 * sm + s1)
        part[i + 1] = vv
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
    fixed-point driver until the energy settles.
    """
    if params.background != 0.0:
        raise ValueError("radial solver is the background-free case")
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

def poisson_1d_neumann(grid: UniformGrid1D, source: np.ndarray) -> np.ndarray:
    """Direct tridiagonal solve of u'' = source, zero-gradient ends, zero
    mean, by one LAPACK `dgtsv` call (the routine behind
    `scipy.linalg.solve_banded((1, 1), ...)`, without its input checks).

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
    n = grid.count
    h2 = grid.spacing ** 2
    # compact Neumann Laplacian rows (mirror ghosts): the last row's lower
    # entry is doubled; the first row is replaced by the pin u[0] = 0
    d = np.full(n, -2.0) / h2
    up = np.ones(n - 1) / h2
    lo = np.ones(n - 1) / h2
    lo[-1] = 2.0 / h2
    d[0] = 1.0
    up[0] = 0.0
    rhs[0] = 0.0
    _, _, _, u, info = _dgtsv(lo, d, up, rhs, 1, 1, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgtsv failed in the Poisson solve (info={info})")
    u -= (w * u).sum() / vol
    return u


def solve_phi_grav(grid: UniformGrid1D, rho: np.ndarray,
                   params: SNParams) -> np.ndarray:
    """phi'' = -coupling (rho - background), mean-projected, zero mean."""
    return poisson_1d_neumann(grid, -params.coupling * (rho - params.background))


def sn_evolve_1d(state: Line1DState, params: SNParams, dt: float, steps: int,
                 *, record_every: int = 1, norm_tol: float = 1e-6) -> dict:
    """Crank-Nicolson evolution with the self-consistent potential.

    Each step predicts the midpoint density with a half step, rebuilds the
    potential there, and takes the full step with it (second order, norm
    conserving per step). Records t, norm, energy, and width sigma every
    `record_every` steps; returns those series and the final state. The
    energy is Re<psi, H psi> - 1/2 <phi_grav, rho> with H = -1/2 d^2 + V_ext
    on the stencil of the CN step.
    """
    grid = state.grid
    tgrid = TensorGrid((grid,))
    w = grid.quad_weights()
    x = grid.nodes
    wx = w * x
    vext = params.external_potential(x)
    psi = state.psi.astype(complex).copy()
    psi[0] = psi[-1] = 0.0

    out = {k: [] for k in ("t", "norm", "energy", "sigma")}

    def record(t, psi_v, rho, phi_v):
        nrm = float((w * rho).sum())
        hpsi = apply_hamiltonian_raw(tgrid, psi_v, None, vext, 1.0)
        en = (float(np.real((w * np.conj(psi_v) * hpsi).sum()))
              - 0.5 * float((w * phi_v * rho).sum()))
        sig = _rms_width(w, (x,), (wx,), rho, nrm)
        for key, val in (("t", t), ("norm", nrm), ("energy", en), ("sigma", sig)):
            out[key].append(val)
        return nrm

    rho = np.abs(psi) ** 2
    phi = solve_phi_grav(grid, rho, params) if params.coupling > 0 \
        else np.zeros_like(x)
    norm0 = record(state.time, psi, rho, phi)
    for k in range(1, steps + 1):
        if params.coupling > 0:
            half = _cn_step_1d(tgrid, psi, None, vext - phi, 1.0, 0.5 * dt)
            phi_mid = solve_phi_grav(grid, np.abs(half) ** 2, params)
        else:
            phi_mid = phi
        psi = _cn_step_1d(tgrid, psi, None, vext - phi_mid, 1.0, dt)
        t = state.time + k * dt
        rho = np.abs(psi) ** 2
        if params.coupling > 0:
            phi = solve_phi_grav(grid, rho, params)
        if k % record_every == 0 or k == steps:
            nrm = record(t, psi, rho, phi)
            # written so that a NaN norm fails the guard
            if not abs(nrm - norm0) <= norm_tol:
                raise IntegratorError(f"norm drifted to {nrm:.12f} at step {k}")
    return {"series": {k: np.array(v) for k, v in out.items()},
            "final": Line1DState(grid, psi, phi, state.time + steps * dt)}


def line_ground_scf(grid: UniformGrid1D, vext_coeffs: tuple[float, ...],
                    coupling: float, background: float, tol: float = 1e-12,
                    *, mixing: float = 0.5, max_scf: int = 400):
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

    _, _, trace = fixed_point(update, np.zeros_like(x), beta=mixing, tol=tol,
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
    if grid.ndim != 1 or spec.sites != 1:
        raise ValueError("the limit check is the single-site case")
    st = stationary_solve(spec, params, grid, tol=tol * 100)
    axis = grid.axes[0]
    coupling = params.inv_l2
    background = 1.0 / params.omega
    omega_line, psi_line, phi_line = line_ground_scf(
        axis, spec.potential_coeffs, coupling, background, tol=tol)
    psi_f = np.real(st.psi.values)
    dpsi = float(np.abs(psi_f - psi_line).max())
    dat = float(np.abs(st.a_t - phi_line).max())

    # sign experiment: curvature of A_t vs sign of (rho - background)
    rho = psi_f * psi_f
    h = axis.spacing
    curv = np.zeros_like(rho)
    curv[1:-1] = (st.a_t[2:] - 2 * st.a_t[1:-1] + st.a_t[:-2]) / h ** 2
    src = rho - background
    sel = np.abs(src[1:-1]) > 1e-6 * np.abs(src).max()
    agree = np.sign(curv[1:-1][sel]) == -np.sign(src[1:-1][sel])
    consistent = bool(np.all(agree)) if coupling > 0 else True
    repulsive = float(np.mean(src[1:-1] < 0))
    return LimitReport(st.omega_eig, omega_line, dpsi, dat, consistent, repulsive)
