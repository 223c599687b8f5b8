"""Self-consistent stationary states and real-time evolution in temporal
gauge.

The stationary loop alternates the ground eigenproblem

    omega psi = H psi - A_t psi        (psi real, links off)

with the Gauss solve for A_t, iterated on A_t by the Anderson
fixed-point driver of `fixedpoint`. Real time uses Crank-Nicolson for psi
with the midpoint connection, and leapfrog for the (A_phi, F) pair with

    d_t A_phi = F,      d_t F(.,x) = -(1/(l^2 a^3)) J_x .

Crank-Nicolson is norm-preserving up to the linear-solve tolerance, and
the link discretization conserves the Gauss constraint up to pure time-
discretization error, so both residual diagnostics shrink like dt^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgtsv as _zgtsv

from .errors import (ConstraintViolationError, ConvergenceError,
                     InsufficientDataError, IntegratorError)
from .fixedpoint import fixed_point
from .gaugeops import (apply_hamiltonian_raw, gauss_residual,
                       gauss_solve_stationary, link_current, link_diff,
                       link_divergence, link_phases, project_dirichlet)
from .grids import TensorGrid
from .model import (GaugeState, HamiltonianSpec, ModelParams, StationaryState,
                    WaveFunctional, nonlinearity)
from .numerics import smallest_eigenpair

# eigen-solve tolerance inside the stationary SCF
_EIG_TOL = 1e-9
# relative residual and iteration cap of the CG solve in the nD CN step
_CN_RTOL = 1e-12
_CN_MAX_ITER = 500
# largest dt * spectral-radius estimate the evolver accepts
_STABILITY_MARGIN = 20.0


def default_gaussian_guess(grid: TensorGrid) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for x in range(grid.ndim):
        c = 0.5 * (grid.axes[x].lower + grid.axes[x].upper)
        r2 = r2 + np.broadcast_to((grid.coordinate(x) - c) ** 2, grid.shape)
    return np.exp(-0.5 * r2)


def stationary_solve(spec: HamiltonianSpec, params: ModelParams,
                     grid: TensorGrid, mixing: float = 0.5,
                     tol: float = 1e-10, *, max_scf: int = 200,
                     guess: np.ndarray | None = None) -> StationaryState:
    """Ground-state solution of the coupled eigenvalue/constraint system.

    The Anderson fixed-point driver iterates on A_t, with `mixing` as its
    weight: each step solves the ground eigenproblem in the current A_t
    and returns the A_t that its density sources. The eigen solve starts
    from the previous psi. That fixes ARPACK's start vector but saves no
    operator applies: ARPACK converges to machine precision whatever the
    start. Stops when successive omega values differ by < tol and
    max|A_t update| <= tol; the returned state carries both coupled
    residuals, each required to be <= 10*tol.
    """
    if not 0.0 < mixing <= 1.0:
        raise ValueError("mixing must be in (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = grid.quad_weights()
    interior = grid.boundary_mask()
    diag0 = spec.site_potential_total(grid)
    psi = default_gaussian_guess(grid) if guess is None else np.asarray(guess, dtype=float)
    # warm-start the multiplier from the guess density; breaks ties
    # deterministically when wells are degenerate
    rho_g = psi * psi
    rho_g = rho_g / float(np.real(grid.integrate(rho_g)))
    a_t0 = gauss_solve_stationary(grid, rho_g, params)
    last = {"psi": psi}

    def update(a_flat):
        diag = diag0 - a_flat.reshape(grid.shape)

        def op(v):
            return apply_hamiltonian_raw(grid, v, None, diag, spec.lattice_spacing)

        omega, psi_new = smallest_eigenpair(op, last["psi"], tol=_EIG_TOL,
                                            weights=w, mask=interior)
        last.update(psi=psi_new,
                    a_t=gauss_solve_stationary(grid, psi_new * psi_new, params))
        return last["a_t"].ravel(), omega

    _, iterations, trace = fixed_point(update, a_t0.ravel(), beta=mixing,
                                       tol=tol, res_tol=tol, max_iter=max_scf,
                                       name="stationary SCF")
    omega = trace[-1][1]
    psi, a_t = last["psi"], last["a_t"]
    rho = psi * psi
    hpsi = apply_hamiltonian_raw(grid, psi + 0j, None, diag0 - a_t,
                                 spec.lattice_spacing)
    hpsi = project_dirichlet(grid, hpsi)
    eig_res = grid.norm(np.real(hpsi) - omega * psi)
    # Gauss law for the static field strength F = -grad A_t
    gres = gauss_residual(grid, [-link_diff(grid, a_t, x) for x in range(grid.ndim)],
                          rho, params)
    state = StationaryState(
        omega_eig=float(omega),
        psi=WaveFunctional(grid, psi.astype(complex)),
        a_t=a_t, iterations=iterations,
        eig_residual=float(eig_res), gauss_residual=float(gres))
    if eig_res > 10 * tol or gres > 10 * tol:
        raise ConvergenceError(
            f"converged loop left residuals eig={eig_res:.3e} gauss={gres:.3e} "
            f"above 10*tol={10 * tol:.3e}", residual=max(eig_res, gres),
            trace=trace)
    return state


@dataclass
class Snapshot:
    """One recorded instant of a temporal-gauge trajectory.

    Snapshots recorded by `evolve_temporal_gauge` hold read-only arrays.
    """

    time: float
    psi: np.ndarray
    a_phi: list[np.ndarray]
    f_bar: list[np.ndarray]   # field strength averaged onto the integer step
    a_t: np.ndarray


@dataclass
class Trajectory:
    grid: TensorGrid
    spec: HamiltonianSpec
    params: ModelParams
    dt: float
    snapshots: list[Snapshot] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


def _cn_step_1d(grid, psi, phases, diag, a_lat, dt):
    """Direct tridiagonal Crank-Nicolson step (interior unknowns).

    The system is handed straight to LAPACK `zgtsv`, the routine that
    `scipy.linalg.solve_banded((1, 1), ...)` calls after validating its
    inputs; the result is bitwise the same.
    """
    n = grid.shape[0]
    h = grid.spacings[0]
    coef = 1.0 / (2.0 * a_lat ** 3 * h * h)
    alpha = 0.5j * dt
    rhs_full = psi - alpha * apply_hamiltonian_raw(grid, psi, phases, diag, a_lat)
    U = np.ones(n - 1, dtype=complex) if phases is None else phases[0]
    # interior nodes 1..n-2; link j connects nodes j and j+1
    d = 1.0 + alpha * (2.0 * coef + diag[1:-1])
    upper = alpha * (-coef * U[1:-1])
    lower = alpha * (-coef * np.conj(U[1:-1]))
    _, _, _, sol, info = _zgtsv(lower, d, upper, rhs_full[1:-1], 1, 1, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgtsv failed in the CN step (info={info})")
    out = np.zeros_like(psi)
    out[1:-1] = sol
    return out


def _cn_step_nd(grid, psi, phases, diag, a_lat, dt):
    """Matrix-free CN step: CG on the Hermitian system (I + a^2 H^2)."""
    alpha = 0.5 * dt
    interior = grid.boundary_mask()

    def apply_h(v):
        return np.where(interior,
                        apply_hamiltonian_raw(grid, np.where(interior, v, 0.0),
                                              phases, diag, a_lat), 0.0)

    b = psi - 1j * alpha * apply_h(psi)
    b2 = b - 1j * alpha * apply_h(b)  # (I - i a H)^2 psi

    def apply_A(v):
        return v + alpha * alpha * apply_h(apply_h(v))

    x = psi.copy()
    r = b2 - apply_A(x)
    p = r.copy()
    rr = float(np.real(np.vdot(r, r)))
    bnorm = float(np.real(np.vdot(b2, b2)))
    tol2 = (_CN_RTOL ** 2) * bnorm
    for _ in range(_CN_MAX_ITER):
        if rr <= tol2:
            break
        Ap = apply_A(p)
        denom = float(np.real(np.vdot(p, Ap)))
        al = rr / denom
        x += al * p
        r -= al * Ap
        rr_new = float(np.real(np.vdot(r, r)))
        p = r + (rr_new / rr) * p
        rr = rr_new
    else:
        raise ConvergenceError("CN inner solve did not converge",
                               residual=np.sqrt(rr / bnorm))
    return np.where(interior, x, 0.0)


def evolve_temporal_gauge(psi0: WaveFunctional, gauge0: GaugeState,
                          spec: HamiltonianSpec, params: ModelParams,
                          dt: float, steps: int, *, record_every: int = 1,
                          scheme: str = "cn", norm_tol: float = 1e-6,
                          gauss_blowup: float = 1.0) -> Trajectory:
    """Advance (psi, A_phi, F) from Gauss-consistent initial data.

    Records a snapshot every `record_every` steps (the initial state is
    snapshot 0). Diagnostics per recorded step: norm, total charge, Gauss
    residual, continuity residual (between this step and the one before
    it, by the formula of `continuity_residual`; 0 at the initial
    snapshot), matter and field energy, and the root-mean-square width
    sigma = sqrt(sum_x Var phi_x) of the density.

    Snapshots hold the step's own arrays, not copies: psi, the links and
    f_bar are flagged read-only, and every snapshot shares one read-only
    zero a_t. The caller's psi0 and gauge0 arrays are copied first and
    never written. The link phases and currents of each step are computed
    once and serve the field update, the energy and the continuity
    residual. The density rho = |psi|^2 of a recorded step is computed
    once and serves the norm, the charge, the Gauss source, sigma and the
    continuity residual (of this step and, at record_every = 1, of the
    next); the products w * phi_x of the sigma means are formed once per
    evolve. Every recorded value is bitwise the one of the public
    formulas applied to the snapshot.
    """
    grid = psi0.grid
    if np.any(gauge0.a_t):
        raise ValueError("temporal gauge requires a_t = 0")
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    diag = spec.site_potential_total(grid)
    a_lat = spec.lattice_spacing
    # crude spectral radius bound for the accuracy precondition
    specrad = float(np.max(np.abs(diag))) + sum(
        2.0 / (a_lat ** 3 * h * h) for h in grid.spacings)
    if dt * specrad > _STABILITY_MARGIN:
        raise IntegratorError(
            f"dt * spectral-radius estimate = {dt * specrad:.2f} exceeds "
            f"{_STABILITY_MARGIN}; reduce dt")

    nd = grid.ndim
    w = grid.quad_weights()
    lw = [grid.link_weights(x) for x in range(nd)]
    coords = [grid.coordinate(x) for x in range(nd)]
    w_coords = [w * xs for xs in coords]
    inv_l2a3 = params.inv_l2 / a_lat ** 3
    zero_a_t = np.zeros(grid.shape)
    zero_a_t.flags.writeable = False
    psi = project_dirichlet(grid, psi0.values.astype(complex))
    a = [ax.copy() for ax in gauge0.a_phi]
    f0 = [fx.copy() for fx in gauge0.f]

    def phases_and_currents(psi_v, a_links):
        ph = link_phases(grid, a_links)
        return ph, [link_current(grid, psi_v, ph, x) for x in range(nd)]

    ph, j = phases_and_currents(psi, a)
    f_half = [f0[x] + 0.5 * dt * (-inv_l2a3 * j[x]) for x in range(nd)]
    f_half_prev = None

    traj = Trajectory(grid, spec, params, dt * record_every)
    diags = {k: [] for k in ("time", "norm", "charge", "gauss_residual",
                             "continuity_residual", "energy", "sigma")}

    def record(k, psi_v, rho, a_links, ph, j, f_bar, prev=None):
        t = k * dt
        nrm = float((w * rho).sum())
        charge = params.inv_l2 * float((w * nonlinearity(rho, params)).sum())
        gres = gauss_residual(grid, f_bar, rho, params)
        hpsi = apply_hamiltonian_raw(grid, psi_v, ph, diag, a_lat)
        e_mat = float(np.real((w * np.conj(psi_v) * hpsi).sum()))
        if prev is not None:
            rho_p, j_p = prev
            cres = _continuity_residual(grid, rho_p, j_p, rho, j,
                                        t - (k - 1) * dt, a_lat)
        else:
            cres = 0.0
        sigma = _rms_width(w, coords, w_coords, rho, nrm)
        for key, val in (("time", t), ("norm", nrm), ("charge", charge),
                         ("gauss_residual", gres), ("continuity_residual", cres),
                         ("energy", e_mat + _field_energy(params, lw, f_bar)),
                         ("sigma", sigma)):
            diags[key].append(val)
        for arr in (psi_v, *a_links, *f_bar):
            arr.flags.writeable = False
        traj.snapshots.append(Snapshot(t, psi_v, a_links, f_bar, zero_a_t))
        return nrm, gres

    rho = np.abs(psi) ** 2
    norm0, gres0 = record(0, psi, rho, a, ph, j, f0)
    gauss_floor = max(gres0, 1e-12)
    cn_step = _cn_step_1d if nd == 1 else _cn_step_nd
    rho_step = 0  # the step whose density `rho` holds

    for k in range(1, steps + 1):
        # psi and the links are rebound below, never mutated in place
        psi_prev, j_prev = psi, j
        a_mid = [a[x] + 0.5 * dt * f_half[x] for x in range(nd)]
        phases_mid = link_phases(grid, a_mid)
        if scheme == "cn":
            psi = cn_step(grid, psi, phases_mid, diag, a_lat, dt)
        elif scheme == "euler":
            hpsi = apply_hamiltonian_raw(grid, psi, phases_mid, diag, a_lat)
            psi = project_dirichlet(grid, psi - 1j * dt * hpsi)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        a = [a_mid[x] + 0.5 * dt * f_half[x] for x in range(nd)]
        ph, j = phases_and_currents(psi, a)
        f_half_prev = f_half
        f_half = [f_half[x] + dt * (-inv_l2a3 * j[x]) for x in range(nd)]

        if k % record_every == 0 or k == steps:
            f_bar = [0.5 * (f_half_prev[x] + f_half[x]) for x in range(nd)]
            rho_prev = rho if rho_step == k - 1 else np.abs(psi_prev) ** 2
            rho, rho_step = np.abs(psi) ** 2, k
            nrm, gres = record(k, psi, rho, a, ph, j, f_bar, (rho_prev, j_prev))
            # written so that a NaN fails each guard
            if not abs(nrm - norm0) <= norm_tol:
                raise IntegratorError(
                    f"norm drifted to {nrm:.12f} at step {k} (tol {norm_tol})")
            if not (gres <= gauss_blowup or gres <= 1e4 * gauss_floor):
                raise ConstraintViolationError(
                    f"Gauss residual {gres:.3e} blew up at step {k}")

    traj.diagnostics = {k: np.array(v) for k, v in diags.items()}
    return traj


def _field_energy(params, link_w, f_links):
    """-(l^2/2) sum_x sum_links W_l F_x^2; 0 in the linear limit."""
    if params.inv_l2 == 0:
        return 0.0
    return -0.5 * params.l ** 2 * sum(float((lw * fx ** 2).sum())
                                      for lw, fx in zip(link_w, f_links))


def _rms_width(w, coords, w_coords, rho, nrm):
    """sigma = sqrt(sum_x Var phi_x) of rho; w_coords holds w * phi_x."""
    var = 0.0
    for xs, wxs in zip(coords, w_coords):
        mean = float((wxs * rho).sum()) / nrm
        var += (w * (xs - mean) ** 2 * rho).sum() / nrm
    return float(np.sqrt(max(var, 0.0)))


def _continuity_residual(grid, rho0, j0, rho1, j1, dt, a_lat):
    """The residual of `continuity_residual` from the two states' densities
    rho = |psi|^2 and link currents; the evolver passes the ones it has
    already computed."""
    ddt = (rho1 - rho0) / dt
    div = link_divergence(grid, [0.5 * (j0[x] + j1[x])
                                 for x in range(grid.ndim)]) / a_lat ** 3
    return grid.norm(ddt + div)


def continuity_residual(grid: TensorGrid, snap0: Snapshot, snap1: Snapshot,
                        spec: HamiltonianSpec, params: ModelParams) -> float:
    """Grid norm of d_t(rho N) + (1/a^3) div J between two snapshots.

    The time derivative is the forward difference of the charge density;
    the divergence uses the average of the link currents of the two
    endpoint states, which is gauge invariant and second-order accurate at
    the midpoint.
    """
    dt = snap1.time - snap0.time
    if dt <= 0:
        raise InsufficientDataError("snapshots must be consecutive in time")
    js = []
    for snap in (snap0, snap1):
        ph = link_phases(grid, snap.a_phi)
        js.append([link_current(grid, snap.psi, ph, x)
                   for x in range(grid.ndim)])
    return _continuity_residual(grid, np.abs(snap0.psi) ** 2, js[0],
                                np.abs(snap1.psi) ** 2, js[1], dt,
                                spec.lattice_spacing)
