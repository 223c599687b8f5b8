"""A finite-difference Laplacian, an exact Neumann Poisson solver, and a
smallest-eigenpair solver.

The Laplacian is the second-order compact stencil with mirror ghosts
(Neumann), which is exactly symmetric under the trapezoid inner product
and whose nullspace is exactly the constants. The type-I cosine
transform diagonalizes it, so the Poisson solve is a direct spectral
solve with no iteration. Dirichlet problems are not posed here: every
one is solved on the interior unknowns, with the stencil of
`gaugeops.hamiltonian`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, UnsolvableConstraintError
from .grids import TensorGrid

# relative size of the perturbation added to an eigen-solve guess
_PERTURB = 1e-8


def _axis_second_diff(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 along one axis, with the mirror
    ghost f[-1] = f[1] on either side: it keeps the operator symmetric
    under trapezoid weights and its nullspace equal to the constants."""
    out = np.empty_like(values)
    inner = [slice(None)] * values.ndim

    def sl(s):
        idx = list(inner)
        idx[axis] = s
        return tuple(idx)

    out[sl(slice(1, -1))] = (
        values[sl(slice(2, None))] - 2.0 * values[sl(slice(1, -1))]
        + values[sl(slice(0, -2))]
    )
    out[sl(0)] = 2.0 * (values[sl(1)] - values[sl(0)])
    out[sl(-1)] = 2.0 * (values[sl(-2)] - values[sl(-1)])
    out /= spacing ** 2
    return out


def laplacian_apply(grid: TensorGrid, values: np.ndarray) -> np.ndarray:
    """The Neumann (mirror-ghost) configuration-space Laplacian
    sum_x d^2/dphi_x^2, whose nullspace is exactly the constants.

    No solver calls it: the limit check takes the curvature of A_t with
    it, and the tests take it as the reference for the Poisson solve, for
    link_divergence(link_diff(.)) and for the Gauss law. The Dirichlet
    kinetic term is the stencil of `gaugeops.hamiltonian`, applied on the
    interior unknowns.
    """
    values = np.asarray(values)
    grid.check_field(values)
    out = np.zeros_like(values, dtype=np.result_type(values, float))
    for axis in range(grid.ndim):
        out += _axis_second_diff(values, axis, grid.spacings[axis])
    return out


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
    is |integral(source)| < compat_tol. The solve is exact: the type-I
    cosine transform diagonalizes the mirror-ghost Laplacian, with
    eigenvalue sum_x (2 cos(pi k_x/(n_x-1)) - 2)/h_x^2 per mode. The
    all-zero mode is the constant; its coefficient is proportional to the
    trapezoid integral, so zeroing it projects out the source mean and
    fixes the zero-mean gauge.
    """
    source = np.asarray(source, dtype=float)
    grid.check_field(source)
    w = grid.quad_weights()
    vol = grid.volume
    total = float((w * source).sum())
    if abs(total) > compat_tol:
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

    ARPACK runs on scipy's default 20-vector Lanczos basis with `tol=0`,
    i.e. to machine precision, and `tol` is checked on the weighted
    residual afterwards. An ARPACK tolerance taken from `tol` would be
    cheaper, but it bounds only the residual norm; the eigenvector error
    it leaves in the far tails, where psi is tiny, is amplified by
    anything that divides by rho, such as the time-derivative term of
    the action.
    """
    guess = np.asarray(guess, dtype=float)
    shape = guess.shape
    if not guess.any():
        raise ValueError("guess must be nonzero")
    g = (guess + _PERTURB * np.abs(guess)).ravel()
    n = g.size

    def matvec(y):
        return op_apply(y.reshape(shape)).ravel()

    lin_op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = spla.eigsh(lin_op, k=1, which="SA", v0=g, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError("eigenpair iteration did not converge",
                               residual=None) from exc
    lam = float(vals[0])
    vec = vecs[:, 0].reshape(shape)

    vec /= np.sqrt(float((weights * vec * vec).sum()))
    # deterministic sign: largest-magnitude entry positive
    peak = np.unravel_index(np.argmax(np.abs(vec)), shape)
    if vec[peak] < 0:
        vec = -vec

    resid = op_apply(vec) - lam * vec
    rnorm = np.sqrt(float((weights * resid * resid).sum()))
    if rnorm > tol:
        raise ConvergenceError(
            f"eigenpair residual {rnorm:.3e} exceeds tol {tol:.3e}",
            residual=rnorm)
    return lam, vec
