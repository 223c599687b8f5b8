"""Self-consistent stationary states and real-time evolution in temporal
gauge.

The stationary loop alternates the ground eigenproblem

    omega psi = H psi - A_t psi        (psi real, links off)

with the Gauss solve for A_t, iterated on A_t by the Anderson
fixed-point driver of `fixedpoint`. Real time uses Crank-Nicolson for psi
with the midpoint connection, and kick-drift-kick leapfrog (Stormer-Verlet;
Hairer, Lubich & Wanner 2003, Acta Numer. 12, 399) for the (A_phi, F) pair,
with F carried at the integer steps:

    d_t A_phi = F,      d_t F(.,x) = -(1/(l^2 a^3)) J_x .

Crank-Nicolson is norm-preserving up to the linear-solve tolerance, and
the link discretization conserves the Gauss constraint up to pure time-
discretization error, so both residual diagnostics shrink like dt^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstraintViolationError, ConvergenceError,
                     InsufficientDataError, IntegratorError)
from .fixedpoint import fixed_point
from .gaugeops import (_grid_norms, apply_hamiltonian_raw, gauss_residual,
                       gauss_solve_stationary, hamiltonian, link_current,
                       link_diff, link_divergence, link_phases,
                       project_dirichlet)
from .grids import TensorGrid
from .model import (GaugeState, HamiltonianSpec, ModelParams, StationaryState,
                    nonlinearity)
from .numerics import (_checked_eigenpair, _lapack, _weighted_norm,
                       smallest_eigenpair, tridiagonal_ground)

# eigen-solve tolerance inside the stationary SCF
_EIG_TOL = 1e-9
# relative residual and iteration cap of the CG solve in the nD CN step
_CN_RTOL = 1e-12
_CN_MAX_ITER = 500
# largest dt * spectral-radius estimate the evolver accepts
_STABILITY_MARGIN = 20.0
# largest drift of the norm from its initial value that this evolver and
# sn.sn_evolve_1d accept
_NORM_TOL = 1e-6
# Gauss residual above which the evolver fails, unless it stays within
# 1e4 times the initial residual
_GAUSS_BLOWUP = 1.0


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
    and returns the A_t that its density sources. The eigen solve runs on
    the interior unknowns alone, with the Hamiltonian prepared once per
    step from the interior of diag0 - A_t, and psi is embedded back with
    zero faces. It starts from the previous psi. On a line (D = 1) the
    Hamiltonian is tridiagonal, and the solve is the inverse iteration
    of `numerics.tridiagonal_ground`; for D >= 2 it is ARPACK's
    `smallest_eigenpair`, where the warm start about halves the operator
    applies of a converging loop. Either eigenvector is normalized under
    the quadrature weights with its largest entry positive, and a
    residual above the eigen-solve tolerance raises ConvergenceError.
    Stops when successive omega
    values differ by < tol and max|A_t update| <= tol; `fixed_point`
    raises ValueError unless 0 < mixing <= 1 and tol > 0. The returned
    state carries both coupled residuals, each required to be <= 10*tol:
    the eigen residual on the interior unknowns, with the Hamiltonian of
    the final A_t, and the Gauss residual on the whole grid. Raises
    ValueError naming `guess` unless it is finite and nonzero. The guess
    is first scaled by the power of two that puts its largest magnitude
    in [1/2, 1), which is exact, so its square neither overflows nor
    underflows and guesses that differ by a power of two give the same
    state.
    """
    psi = default_gaussian_guess(grid) if guess is None else np.asarray(guess, dtype=float)
    if not (np.isfinite(psi).all() and psi.any()):
        raise ValueError("guess must be finite and nonzero")
    psi = np.ldexp(psi, -np.frexp(np.abs(psi).max())[1])
    inner = (slice(1, -1),) * grid.ndim
    w_inner = grid.quad_weights()[inner]
    diag0 = spec.site_potential_total(grid)
    # warm-start the multiplier from the guess density; breaks ties
    # deterministically when wells are degenerate
    rho_g = psi * psi
    rho_g = rho_g / float(np.real(grid.integrate(rho_g)))
    a_t0 = gauss_solve_stationary(grid, rho_g, params)
    last = {"psi": psi}

    def update(a_flat):
        pot = (diag0 - a_flat.reshape(grid.shape))[inner]
        op = hamiltonian(grid, None, pot, spec.lattice_spacing)
        if grid.ndim == 1:
            lam, vec = tridiagonal_ground(pot, _cn_coef(grid, spec.lattice_spacing),
                                          last["psi"][inner])
            omega, psi_inner = _checked_eigenpair(op, lam, vec, _EIG_TOL, w_inner)
        else:
            omega, psi_inner = smallest_eigenpair(op, last["psi"][inner],
                                                  tol=_EIG_TOL, weights=w_inner)
        psi_new = np.zeros(grid.shape)
        psi_new[inner] = psi_inner
        last.update(psi=psi_new,
                    a_t=gauss_solve_stationary(grid, psi_new * psi_new, params))
        return last["a_t"].ravel(), omega

    _, iterations, trace = fixed_point(update, a_t0.ravel(), beta=mixing,
                                       tol=tol, res_tol=tol, max_iter=max_scf,
                                       name="stationary SCF")
    omega = trace[-1][1]
    psi, a_t = last["psi"], last["a_t"]
    rho = psi * psi
    op = hamiltonian(grid, None, (diag0 - a_t)[inner], spec.lattice_spacing)
    eig_res = _weighted_norm(op(psi[inner]) - omega * psi[inner], w_inner)
    # Gauss law for the static field strength F = -grad A_t
    gres = gauss_residual(grid, [-link_diff(grid, a_t, x) for x in range(grid.ndim)],
                          rho, params)
    state = StationaryState(
        omega_eig=float(omega), psi=psi, a_t=a_t, iterations=iterations,
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
    f_bar: list[np.ndarray]   # field strength F at this snapshot's time
    a_t: np.ndarray


@dataclass
class Trajectory:
    grid: TensorGrid
    spec: HamiltonianSpec
    params: ModelParams
    dt: float
    snapshots: list[Snapshot] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _cn_coef(grid, a_lat):
    """Hopping coefficient 1/(2 a^3 h^2) of the 1D Hamiltonian stencil."""
    h = grid.spacings[0]
    return 1.0 / (2.0 * a_lat ** 3 * h * h)


def _cn_band(grid, diag, a_lat, dt):
    """Main band 1 + i(dt/2)(2 coef + diag) of the 1D CN matrix on the
    interior nodes, for `_cn_step_1d`; a run with fixed diag and dt
    builds it once."""
    d = 0.5j * dt * (2.0 * _cn_coef(grid, a_lat) + diag[1:-1])
    d += 1.0
    return d


def _cn_step_1d(grid, psi, phases, band, a_lat, dt):
    """Direct tridiagonal Crank-Nicolson step (interior unknowns), with
    the main band `band` of `_cn_band`, which it does not write.

    Uses the identity (I + i a H)^-1 (I - i a H) = 2 (I + i a H)^-1 - I,
    a = dt/2 (Goldberg, Schey & Schwartz 1967): one tridiagonal solve
    with psi itself as the right-hand side, then psi' = 2 y - psi, so the
    step applies no Hamiltonian. The system is handed straight to LAPACK
    `zgtsv`, which solves in place in the output's interior; that is the
    routine `scipy.linalg.solve_banded((1, 1), ...)` calls after
    validating its inputs, so the result is bitwise the `solve_banded`
    solve of this one-solve form with the same bands. The lower band is
    -conj(upper), bitwise alpha * (-coef * conj(U)) for the purely
    imaginary alpha.
    """
    n = grid.shape[0]
    alpha = 0.5j * dt
    coef = _cn_coef(grid, a_lat)
    # interior nodes 1..n-2; link j connects nodes j and j+1. zgtsv
    # overwrites all three bands, so each is its own array
    d = band.copy()
    if phases is None:
        # unit links: both off-diagonals hold the one value alpha * (-coef)
        upper = np.full(n - 3, alpha * (-coef))
        lower = upper.copy()
    else:
        upper = -coef * phases[0][1:-1]
        upper *= alpha
        lower = np.conj(upper)
        np.negative(lower, out=lower)
    out = np.empty_like(psi)
    out[0] = out[-1] = 0.0
    y = out[1:-1]
    y[:] = psi[1:-1]
    if n == 3:  # one unknown, and zgtsv takes no empty off-diagonals
        y /= d
    else:
        info = _lapack("zgtsv")(lower, d, upper, y, 1, 1, 1, 1)[4]
        if info != 0:
            raise np.linalg.LinAlgError(f"zgtsv failed in the CN step (info={info})")
    y *= 2.0
    y -= psi[1:-1]
    return out


def _cn_step_nd(grid, psi, phases, diag, a_lat, dt):
    """Matrix-free CN step by the identity of `_cn_step_1d`, on the interior
    unknowns: scipy's CG on the normal equations (I + a^2 H^2) y =
    (I - i a H) psi of (I + i a H) y = psi, started from psi, then
    psi' = 2 y - psi, returned with zero faces.

    H is `hamiltonian` on the interior block; the interior slice of each
    link field is exactly the links between interior nodes. A
    non-finite state skips the solve and comes back non-finite, so the
    evolver's norm guard names the step. Raises ConvergenceError with the
    relative residual when CG reaches its cap.
    """
    from scipy.sparse.linalg import LinearOperator, cg

    alpha = 0.5 * dt
    inner = (slice(1, -1),) * grid.ndim
    # built once: the phases stay fixed through the CG solve
    h = hamiltonian(grid, [u[inner] for u in phases], diag[inner], a_lat)
    psi_in = psi[inner]

    def apply_A(v):
        # in place: fewer temporaries per CG iteration
        out = h(h(v.reshape(psi_in.shape))).ravel()
        out *= alpha * alpha
        out += v
        return out

    out = np.zeros(grid.shape, dtype=complex)
    b = psi_in - 1j * alpha * h(psi_in)
    if not np.isfinite(b).all():
        out[inner] = b
        return out
    A = LinearOperator((b.size,) * 2, matvec=apply_A, dtype=complex)
    y, info = cg(A, b.ravel(), x0=psi_in.ravel(), rtol=_CN_RTOL, atol=0.0,
                 maxiter=_CN_MAX_ITER)
    if info:
        raise ConvergenceError(
            "CN inner solve did not converge",
            residual=np.linalg.norm(b.ravel() - apply_A(y)) / np.linalg.norm(b))
    out[inner] = 2.0 * y.reshape(psi_in.shape) - psi_in
    return out


def _check_step_args(dt, record_every):
    """The evolvers' shared checks; written so that a NaN dt fails."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")


def _block_rows(size: int) -> int:
    """Recorded steps whose diagnostics `evolve_temporal_gauge` computes
    together, for states of `size` grid values: at most 256, and at most
    2**12 values per stacked array. The block's temporaries set the
    evolver's peak memory: when the sn line evolver used these blocks
    too, 2**16 values raised its 1201-node peak 12% above per-step
    diagnostics; 2**12 did not."""
    return max(1, min(256, 2 ** 12 // size))


def evolve_temporal_gauge(psi0: np.ndarray, gauge0: GaugeState,
                          spec: HamiltonianSpec, params: ModelParams,
                          dt: float, steps: int, *, record_every: int = 1,
                          scheme: str = "cn",
                          keep_snapshots: bool = True) -> Trajectory:
    """Advance (psi, A_phi, F) from Gauss-consistent initial data, psi0 on
    `gauge0.grid` (`gaugeops.initialize_constraint` builds such a gauge0).

    Records the diagnostics every `record_every` steps, and at the last
    step (the initial state is row 0): norm, total charge, Gauss residual,
    continuity residual (between this step and the one before it, by the
    formula of `continuity_residual`; NaN at the initial state, which no
    step precedes), matter and field energy, and the root-mean-square
    width sigma = sqrt(sum_x Var phi_x) of the density. A snapshot is kept
    at every recorded step, or, with `keep_snapshots=False`, only of the
    initial and the final state; the diagnostics are the same either way.

    The diagnostics are computed in blocks of recorded steps (`_block_rows`
    of the grid size). Each recorded step writes one row of the block
    arrays, allocated once per run: its k and psi, psi of the step before,
    and per axis the link phases, currents, F and the currents of the step
    before. A full block, or the last rows of the run, is reduced at once:
    each diagnostic is one reduction over the trailing grid axes of the
    filled rows, bitwise the value of the public formula applied to each
    state alone.

    `scheme` is "cn" (Crank-Nicolson) or "euler", the deliberately
    non-unitary step of the conservation negative control. A "cn" run
    fails when the norm drifts by more than 1e-6 (IntegratorError) or the
    Gauss residual blows up (ConstraintViolationError); an "euler" run
    records without either guard. The guards are checked when a block is
    complete, row by row in step order, the norm guard first, so the run
    may go on up to one block past the first failing step; the error
    names that step. A step that raises first has the rows before it
    checked, so a guard failure that came earlier is the one reported.

    Each step is kick-drift-kick: F - kick * J with the current at the
    step's start, kick = dt / (2 l^2 a^3), the two half drifts of A_phi
    around the CN solve, and F - kick * J with the new current. Snapshots
    hold the step's own arrays, never copies and never views of the block
    arrays: psi, the links and F (f_bar) are read-only, and all share one
    read-only zero a_t. The caller's psi0 and gauge0 arrays are copied
    first and never written. Each step's link phases and currents are
    computed once and serve both kicks, the energy and the continuity
    residual. Each half step updates the axes in one loop: the first
    forms F - kick * J, its half drift and both new A_phi, the second the
    current and the F kick. The densities
    rho = |psi|^2 of each recorded step and of the step before it are
    computed in the diagnostic block from the block arrays, elementwise,
    so each row is bitwise the value of its step alone. rho serves the
    norm, the charge, the Gauss source, sigma and the continuity residual;
    the products w * phi_x of the sigma means are formed once per evolve.

    Raises ValueError naming the argument unless dt > 0, steps >= 1 and
    record_every >= 1, and GridShapeError unless psi0 has the grid's shape.
    """
    grid = gauge0.grid
    grid.check_field(np.asarray(psi0))
    if np.any(gauge0.a_t):
        raise ValueError("temporal gauge requires a_t = 0")
    _check_step_args(dt, record_every)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if scheme not in ("cn", "euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
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
    axes = tuple(range(1, nd + 1))  # the grid axes of a block of states
    w = grid.quad_weights()
    lw = [grid.link_weights(x) for x in range(nd)]
    coords = [grid.coordinate(x) for x in range(nd)]
    w_coords = [w * xs for xs in coords]
    kick = 0.5 * dt * params.inv_l2 / a_lat ** 3
    zero_a_t = np.zeros(grid.shape)
    zero_a_t.flags.writeable = False
    psi = project_dirichlet(grid, np.asarray(psi0, dtype=complex))
    a = [ax.copy() for ax in gauge0.a_phi]
    f = [fx.copy() for fx in gauge0.f]
    ph = link_phases(grid, a)
    j = [link_current(grid, psi, ph, x) for x in range(nd)]

    traj = Trajectory(grid, spec, params, dt * record_every)
    n_rec = len(range(0, steps, record_every)) + 1
    diags = traj.diagnostics = {
        k: np.empty(n_rec) for k in ("time", "norm", "charge", "gauss_residual",
                                     "continuity_residual", "energy", "sigma")}
    done = 0  # rows of diags filled
    # the recorded steps not yet reduced, one row each, written in place:
    # k, psi, the link phases, currents and F of step k, and psi and the
    # currents of step k - 1
    block = _block_rows(w.size)
    ks_b = np.empty(block, dtype=int)
    psi_b = np.empty((block,) + grid.shape, dtype=complex)
    psi_p = np.empty_like(psi_b)
    link_shapes = [(block,) + ax.shape for ax in a]
    ph_b = [np.empty(s, dtype=complex) for s in link_shapes]
    j_b, f_b, j_p = ([np.empty(s) for s in link_shapes] for _ in range(3))
    filled = 0  # rows of the block arrays written

    def record(k, psi_v, ph_v, j_v, f_v, psi_pv, j_pv):
        nonlocal filled
        ks_b[filled] = k
        psi_b[filled] = psi_v
        psi_p[filled] = psi_pv
        for x in range(nd):
            ph_b[x][filled] = ph_v[x]
            j_b[x][filled] = j_v[x]
            f_b[x][filled] = f_v[x]
            j_p[x][filled] = j_pv[x]
        filled += 1

    def snapshot(k, psi_v, a_links, f_bar):
        for arr in (psi_v, *a_links, *f_bar):
            arr.flags.writeable = False
        traj.snapshots.append(Snapshot(k * dt, psi_v, a_links, f_bar, zero_a_t))

    def flush():
        nonlocal done, filled
        if not filled:
            return
        n, filled = filled, 0
        new = slice(done, done + n)
        done = new.stop
        ks, psi_n = ks_b[:n], psi_b[:n]
        ph_n, j_n, f_n, jp_n = ([c[:n] for c in links]
                                for links in (ph_b, j_b, f_b, j_p))
        rho, rho_p = np.abs(psi_n) ** 2, np.abs(psi_p[:n]) ** 2
        t = ks * dt
        nrm = (w * rho).sum(axis=axes)
        charge = params.inv_l2 * (w * nonlinearity(rho, grid)).sum(axis=axes)
        gres = gauss_residual(grid, f_n, rho, params)
        hpsi = apply_hamiltonian_raw(grid, psi_n, ph_n, diag, a_lat)
        e_mat = np.real((w * np.conj(psi_n) * hpsi).sum(axis=axes))
        # row 0 of the run has no step before it: its own (rho, J) stand in
        # for the previous ones, and its residual is NaN
        step_dt = (t - (ks - 1) * dt).reshape(-1, *(1,) * nd)
        cres = _continuity_residual(grid, rho_p, jp_n, rho, j_n, step_dt, a_lat)
        cres[ks == 0] = np.nan
        for key, val in (("time", t), ("norm", nrm), ("charge", charge),
                         ("gauss_residual", gres), ("continuity_residual", cres),
                         ("energy", e_mat + _field_energy(params, lw, f_n)),
                         ("sigma", _rms_width(w, coords, w_coords, rho, nrm))):
            diags[key][new] = val
        if scheme != "cn":  # the Euler step is unguarded
            return
        norm0 = diags["norm"][0]
        gauss_floor = max(diags["gauss_residual"][0], 1e-12)
        # written so that a NaN fails each guard
        norm_bad = ~(np.abs(nrm - norm0) <= _NORM_TOL)
        gauss_bad = ~((gres <= _GAUSS_BLOWUP) | (gres <= 1e4 * gauss_floor))
        for i in np.flatnonzero((norm_bad | gauss_bad) & (ks > 0))[:1]:
            if norm_bad[i]:
                raise IntegratorError(f"norm drifted to {nrm[i]:.12f} at step "
                                      f"{ks[i]} (tol {_NORM_TOL})")
            raise ConstraintViolationError(
                f"Gauss residual {gres[i]:.3e} blew up at step {ks[i]}")

    record(0, psi, ph, j, f, psi, j)
    snapshot(0, psi, a, f)
    # the 1D step takes its main band, fixed for the run, built once here
    if nd == 1:
        cn_step, cn_diag = _cn_step_1d, _cn_band(grid, diag, a_lat, dt)
    else:
        cn_step, cn_diag = _cn_step_nd, diag

    for k in range(1, steps + 1):
        try:
            # psi, the links and F are rebound below, never mutated in place:
            # snapshots hold them
            psi_prev, j_prev = psi, j
            f_half, a_mid, a_new = [], [], []
            for x in range(nd):
                fh = kick * j[x]
                np.subtract(f[x], fh, out=fh)
                drift = 0.5 * dt * fh
                am = a[x] + drift
                f_half.append(fh)
                a_mid.append(am)
                a_new.append(am + drift)
            phases_mid = link_phases(grid, a_mid)
            if scheme == "cn":
                psi = cn_step(grid, psi, phases_mid, cn_diag, a_lat, dt)
            else:
                hpsi = apply_hamiltonian_raw(grid, psi, phases_mid, diag, a_lat)
                psi = project_dirichlet(grid, psi - 1j * dt * hpsi)
            a = a_new
            ph = link_phases(grid, a)
            j, f = [], []
            for x in range(nd):
                jx = link_current(grid, psi, ph, x)
                fx = kick * jx
                np.subtract(f_half[x], fx, out=fx)
                j.append(jx)
                f.append(fx)

            if k % record_every == 0 or k == steps:
                record(k, psi, ph, j, f, psi_prev, j_prev)
                if keep_snapshots or k == steps:
                    snapshot(k, psi, a, f)
        except Exception:
            # a step taken from a state that already failed a guard may
            # raise on its own; the guard failure is the one to report
            flush()
            raise
        if filled == block:
            flush()
    flush()
    return traj


def _field_energy(params, link_w, f_links):
    """-(l^2/2) sum_x sum_links W_l F_x^2; 0 in the linear limit. Leading
    axes of the link fields are a stack, with one energy per entry."""
    if params.inv_l2 == 0:  # l^2 * F^2 would be inf * 0 = NaN at l = inf
        return 0.0
    axes = tuple(range(-link_w[0].ndim, 0))
    return -0.5 * params.l ** 2 * sum((lw * fx ** 2).sum(axis=axes)
                                      for lw, fx in zip(link_w, f_links))


def _rms_width(w, coords, w_coords, rho, nrm):
    """sigma = sqrt(sum_x Var phi_x) of a density rho with norm nrm, or of
    each density of a stack (leading axes); w_coords holds w * phi_x."""
    axes = tuple(range(-w.ndim, 0))
    tail = (1,) * w.ndim
    var = 0.0
    for xs, wxs in zip(coords, w_coords):
        mean = (wxs * rho).sum(axis=axes) / nrm
        var += (w * (xs - mean.reshape(mean.shape + tail)) ** 2
                * rho).sum(axis=axes) / nrm
    return np.sqrt(np.maximum(var, 0.0))


def _continuity_residual(grid, rho0, j0, rho1, j1, dt, a_lat):
    """The residual of `continuity_residual` from the two states' densities
    rho = |psi|^2 and link currents; the evolver passes the ones it has
    already computed. Leading axes are a stack of state pairs, with dt
    broadcast against the densities."""
    ddt = (rho1 - rho0) / dt
    div = link_divergence(grid, [0.5 * (j0[x] + j1[x])
                                 for x in range(grid.ndim)]) / a_lat ** 3
    return _grid_norms(grid, ddt + div)


def continuity_residual(grid: TensorGrid, snap0: Snapshot, snap1: Snapshot,
                        spec: HamiltonianSpec) -> float:
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
