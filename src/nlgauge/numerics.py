"""An exact Neumann Poisson solver and two smallest-eigenpair solvers:
ARPACK for an operator given by its apply, and inverse iteration for the
symmetric tridiagonal operators of one dimension.

The Poisson solve inverts the compact Neumann Laplacian
link_divergence(link_diff(.)) of `gaugeops`: the second-order stencil
with mirror ghosts, exactly symmetric under the trapezoid inner product
and with exactly the constants as its nullspace. The type-I cosine
transform diagonalizes it, so the solve is direct, with no iteration.
Dirichlet problems are not posed here: every one is solved on the
interior unknowns, with the stencil of `gaugeops.hamiltonian`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, UnsolvableConstraintError
from .grids import TensorGrid
from .model import _real

# relative size of the perturbation added to an eigen-solve guess
_PERTURB = 1e-8
# inverse-iteration steps of `tridiagonal_ground` before it gives up
_INVERSE_MAX_ITER = 100


@functools.cache
def _lapack(name: str):
    """The LAPACK routine `name` of `scipy.linalg.lapack`, looked up once.

    Importing the package loads no SciPy module; each SciPy routine is
    imported the first time a solve needs it. `scipy.linalg` loads at the
    first call here or the first tridiagonal eigen solve by bisection, and
    `scipy.sparse.linalg` only for the eigen solves and Crank-Nicolson
    steps of grids of D >= 2. The routines fetched here run once per step
    or iteration, so each is looked up once rather than imported at
    every call.
    """
    from scipy.linalg import lapack
    return getattr(lapack, name)


def _dct1(values: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized type-I cosine transform along one axis: the real FFT
    of the even extension of length 2(n-1). Applying it twice multiplies
    by 2(n-1)."""
    n = values.shape[axis]
    ext = np.concatenate([values, values.take(np.arange(n - 2, 0, -1), axis=axis)],
                         axis=axis)
    return np.fft.rfft(ext, axis=axis).real


def poisson_solve(grid: TensorGrid, source: np.ndarray, *,
                  compat_tol: float = 1e-8) -> np.ndarray:
    """Solve sum_x d^2 u/dphi_x^2 = source with zero-gradient boundaries
    and the additive constant fixed by zero mean.

    The Neumann problem is solvable only for zero-mean sources; the check
    is |integral(source)| <= compat_tol, which a NaN source fails. The
    solve is exact: the type-I cosine transform diagonalizes the
    mirror-ghost Laplacian, with
    eigenvalue sum_x (2 cos(pi k_x/(n_x-1)) - 2)/h_x^2 per mode. The
    all-zero mode is the constant; its coefficient is proportional to the
    trapezoid integral, so zeroing it projects out the source mean and
    fixes the zero-mean gauge. A complex source raises ValueError.
    """
    source = _real("source", source)
    grid.check_field(source)
    w = grid.quad_weights()
    vol = grid.volume
    total = float((w * source).sum())
    if not abs(total) <= compat_tol:  # written so that a NaN fails
        raise UnsolvableConstraintError(
            f"Neumann source has mean {total / vol:.3e} (integral {total:.3e}); "
            "the constraint is unsolvable for a non-neutral source")

    coeffs = source
    for axis in range(grid.ndim):
        coeffs = _dct1(coeffs, axis)
    eig = np.zeros(grid.shape)
    for axis, ax in enumerate(grid.axes):
        shape = [1] * grid.ndim
        shape[axis] = ax.count
        theta = np.pi * np.arange(ax.count) / (ax.count - 1)
        eig = eig + ((2.0 * np.cos(theta) - 2.0) / ax.spacing ** 2).reshape(shape)
    eig.flat[0] = 1.0  # the constant mode, zeroed below
    coeffs /= eig
    coeffs.flat[0] = 0.0
    for axis in range(grid.ndim):
        coeffs = _dct1(coeffs, axis)
    return coeffs / np.prod([2.0 * (n - 1) for n in grid.shape])


def smallest_eigenpair(op_apply, guess: np.ndarray, tol: float = 1e-9, *,
                       weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Algebraically smallest eigenpair of a symmetric operator on the
    unknowns alone.

    In the package it serves grids of D >= 2; the tridiagonal operators
    of one dimension go to `tridiagonal_ground`.

    `op_apply` takes and returns arrays of `guess`'s shape, one entry per
    unknown (e.g. the interior nodes of a Dirichlet grid, so no spurious
    zero modes of the faces enter), and must be symmetric in the
    Euclidean inner product on them. `weights` are the quadrature weights
    of the unknowns. On the interior of a `TensorGrid` every weight is
    prod_x h_x, so there the weighted and Euclidean adjoints coincide and
    an operator symmetric under sum(conj(a)*b*weights) qualifies as it
    stands, with no similarity transform. ARPACK starts from guess +
    1e-8*|guess| (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM
    1998): a one-signed warm guess keeps its direction, and a guess
    orthogonal to the ground state psi0 still gains 1e-8*<|guess|, psi0>
    > 0 of it, since psi0 > 0 by Perron-Frobenius for every operator
    passed here (the links-free Dirichlet stencil, off-diagonals < 0 on a
    connected block, plus a real diagonal). The eigenvector comes back
    normalized to unit norm under `weights`, with a deterministic sign.
    One unknown (a grid of 3 nodes per axis) skips ARPACK, which needs
    more than one: the eigenvalue is `op_apply` of the unit vector, and
    the normalization, the sign and the residual check are the same.
    Raises ValueError naming `guess` if it is complex (a cast would drop
    its imaginary part with only a warning) or zero.

    ARPACK runs on scipy's default 20-vector Lanczos basis with `tol=0`,
    i.e. to machine precision, and `tol` is checked on the weighted
    residual afterwards. An ARPACK tolerance taken from `tol` would be
    cheaper, but it bounds only the residual norm; the eigenvector error
    it leaves in the far tails, where psi is tiny, is amplified by
    anything that divides by rho, such as the time-derivative term of
    the action.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    guess = _real("guess", guess)
    shape = guess.shape
    if not guess.any():
        raise ValueError("guess must be nonzero")
    g = (guess + _PERTURB * np.abs(guess)).ravel()
    n = g.size

    def matvec(y):
        return op_apply(y.reshape(shape)).ravel()

    lin_op = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        # ARPACK needs k < n; one unknown is its own eigenvector
        vals, vecs = (eigsh(lin_op, k=1, which="SA", v0=g, tol=0) if n > 1
                      else (matvec(np.ones(1)), np.ones((1, 1))))
    except ArpackNoConvergence as exc:
        raise ConvergenceError("eigenpair iteration did not converge",
                               residual=None) from exc
    return _checked_eigenpair(op_apply, float(vals[0]), vecs[:, 0].reshape(shape),
                              tol, weights)


def _checked_eigenpair(op_apply, lam: float, vec: np.ndarray, tol: float,
                       weights: np.ndarray) -> tuple[float, np.ndarray]:
    """The eigenpair (lam, vec) normalized to unit norm under `weights`,
    with its largest-magnitude entry positive; raises ConvergenceError
    unless the weighted residual of `op_apply` is at most `tol`."""
    vec /= _weighted_norm(vec, weights)
    # deterministic sign: largest-magnitude entry positive
    peak = np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
    if vec[peak] < 0:
        vec = -vec

    rnorm = _weighted_norm(op_apply(vec) - lam * vec, weights)
    if not rnorm <= tol:
        raise ConvergenceError(
            f"eigenpair residual {rnorm:.3e} exceeds tol {tol:.3e}",
            residual=rnorm)
    return lam, vec


def _weighted_norm(values: np.ndarray, weights: np.ndarray) -> float:
    """sqrt(sum(weights * values^2)), with the values first divided by the
    power of two in (max|values|/2, max|values|]. That is exact, so the
    result is bitwise the plain formula's wherever the plain squares
    neither overflow nor underflow, and the scaled squares cannot
    overflow."""
    k = math.frexp(float(np.abs(values).max()))[1]
    scaled = np.ldexp(values, -k)
    return math.ldexp(math.sqrt(float((weights * scaled * scaled).sum())), k)


def tridiagonal_ground(pot: np.ndarray, coef: float,
                       guess: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Ground pair (lam, x) of T = diag(pot) + coef * (-second difference),
    coef > 0, on the unknowns of a line whose two outer neighbours are 0.

    x is positive with unit Euclidean norm, and lam is its Rayleigh
    quotient by summation by parts, sum pot x^2 + coef sum (Delta x)^2,
    with the differences to the zero neighbours included: no cancellation
    of the diagonal against the off-diagonals.

    Inverse iteration x <- (T - sigma)^-1 x / norm, on the LDL^T factor
    of T - sigma (LAPACK `dpttrf`), from |guess|, or from ones when
    `guess` is None. T is first scaled by the power of two that puts
    max|pot| + 4 coef in [1/2, 1), and lam scaled back. That is exact
    (only the bisection's pivot floor is not scale-invariant), and a huge
    finite potential then overflows no square. A shift counts only if
    `dpttrf` succeeds, which proves T - sigma positive definite, so sigma
    lies below the ground level lam0 and the iteration cannot settle on
    an excited state.
    T - sigma is then an M-matrix (off-diagonals -coef < 0) with a
    positive inverse, so every iterate stays positive and the solves add
    no cancellation: the far tails keep their relative accuracy.

    Each step takes the Rayleigh quotient lam and the residual norm
    r = |T x - lam x| of the current x. Some eigenvalue lies within r of
    lam, so near the ground state lam - 2r is below lam0. The candidate
    shift is lam - 2m, m = max(r, 4 eps (max|pot| + 4 coef)), a floor at
    the rounding of T, rounded down to a multiple of the power of two in
    (m/2, m]: a grid that coarsens with the residual. The factor is
    rebuilt only when the candidate rises above the shift in use. A
    refused candidate means x lies nearer an excited state, where the
    shifts it gives would converge slowly; so a call with a guess at its
    first refused candidate, and a call without one from the start,
    takes lam0 by bisection (`eigvalsh_tridiagonal`) and keeps the shift
    below it by the same rule with r = 0.

    The iteration stops when an iterate repeats bitwise: at a fixed point
    of the floating-point step, or on a short cycle of roundings of the
    normalization, where the member of lowest lam is returned. Different
    starts reach that same state in practice, so lam carries no trace of
    the start, and an SCF loop's energy history no eigen-solve noise; a
    stop on the change in lam would leave that trace. Raises ValueError
    for a complex or zero guess, and ConvergenceError if a bisection
    shift is refused or no iterate repeats within `_INVERSE_MAX_ITER`
    steps.
    """
    n = pot.size
    x = np.ones(n) if guess is None else np.abs(_real("guess", guess))
    if not x.any():
        raise ValueError("guess must be nonzero")
    x /= math.sqrt(np.dot(x, x))
    # T scaled by 2^-k; lam is scaled back on return
    k = math.frexp(float(np.abs(pot).max()) + 4.0 * coef)[1]
    pot, coef = np.ldexp(pot, -k), math.ldexp(coef, -k)
    d = pot + 2.0 * coef
    # the dpttrf wrapper wants one off-diagonal entry even for n = 1
    e = np.full(max(n - 1, 1), -coef)
    floor = 4.0 * np.finfo(float).eps * (float(np.abs(pot).max()) + 4.0 * coef)

    def shift(lam, r):
        off = 2.0 * max(r, floor)
        q = math.ldexp(1.0, math.frexp(off)[1] - 2)
        return math.floor((lam - off) / q) * q

    def factor(sigma):
        df, ef, info = _lapack("dpttrf")(d - sigma, e)
        return (df, ef) if info == 0 else None

    def bisected():
        from scipy.linalg import eigvalsh_tridiagonal

        lam0 = float(eigvalsh_tridiagonal(d, e[:n - 1], select="i",
                                          select_range=(0, 0))[0])
        sigma = shift(lam0, 0.0)
        fac = factor(sigma)
        if fac is None:
            raise ConvergenceError(f"shift {sigma!r} below the bisected ground "
                                   f"level {lam0!r} was refused")
        return sigma, fac

    bisect = guess is None  # the shift in use is the bisection's, and stays
    sigma, fac = bisected() if bisect else (None, None)
    keys, lams = [], []  # the bytes and the Rayleigh quotient of each iterate
    xp = np.zeros(n + 2)  # x between its two zero neighbours
    for _ in range(_INVERSE_MAX_ITER):
        key = x.tobytes()
        if key in keys:
            # a fixed point, or a cycle of roundings: its lowest quotient
            first = keys.index(key)
            i = first + int(np.argmin(lams[first:]))
            return math.ldexp(lams[i], k), np.frombuffer(keys[i]).copy()
        keys.append(key)
        xp[1:-1] = x
        dx = xp[1:] - xp[:-1]
        lam = float(np.dot(pot * x, x) + coef * np.dot(dx, dx))
        lams.append(lam)
        if not bisect:
            tx = (d - lam) * x - coef * (xp[:-2] + xp[2:])
            cand = shift(lam, math.sqrt(np.dot(tx, tx)))
            if sigma is None or cand > sigma:
                fac_c = factor(cand)
                if fac_c is None:
                    # lam - 2r is above lam0: x lies nearer an excited state
                    (sigma, fac), bisect = bisected(), True
                else:
                    sigma, fac = cand, fac_c
        x = _lapack("dpttrs")(*fac, x)[0]
        x /= math.sqrt(np.dot(x, x))
    raise ConvergenceError(f"inverse iteration reached no fixed point in "
                           f"{_INVERSE_MAX_ITER} steps")
