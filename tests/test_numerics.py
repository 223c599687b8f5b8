import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from nlgauge.errors import ConvergenceError, UnsolvableConstraintError
from nlgauge.gaugeops import hamiltonian
from nlgauge.grids import TensorGrid, UniformGrid1D
from nlgauge.numerics import (poisson_solve, smallest_eigenpair,
                              tridiagonal_ground)
from references import laplacian_apply


# ---------------------------------------------------------- laplacians
# The Neumann Laplacian is the tests' reference `laplacian_apply`. The
# Dirichlet one is the stencil the solvers use: -2 H of
# `gaugeops.hamiltonian` at lattice spacing 1 with no potential, on the
# interior unknowns.

def _dirichlet_laplacian(g):
    """The Dirichlet Laplacian on the interior unknowns, and the interior
    index tuple."""
    inner = (slice(1, -1),) * g.ndim
    h = hamiltonian(g, None, np.zeros(g.shape)[inner], 1.0)
    return (lambda v: -2.0 * h(v)), inner


def test_constant_field_neumann_is_zero():
    g = TensorGrid.cube(-1.0, 1.0, 21, 2)
    out = laplacian_apply(g, np.full(g.shape, 3.7))
    assert np.abs(out).max() == 0.0


def test_quadratic_field_dirichlet_interior():
    g = TensorGrid.cube(-1.0, 1.0, 101, 1)
    lap, inner = _dirichlet_laplacian(g)
    x = g.axes[0].nodes
    out = lap((x ** 2)[inner])
    # nodes 3..n-4, away from the cutoff
    assert np.abs(out[2:-2] - 2.0).max() < 1e-10


def test_dirichlet_eigenmode_has_discrete_eigenvalue():
    # sin(k pi (phi-lower)/span) is an exact eigenvector of the compact
    # stencil with eigenvalue -2(1-cos(k pi/(count-1)))/h^2
    g = TensorGrid.cube(-1.0, 1.0, 101, 1)
    lap, inner = _dirichlet_laplacian(g)
    n = g.axes[0].count
    h = g.axes[0].spacing
    x = g.axes[0].nodes
    for k in (1, 3, 7):
        mode = np.sin(k * np.pi * (x + 1.0) / 2.0)[inner]
        lam = 2.0 * (1.0 - np.cos(k * np.pi / (n - 1))) / h ** 2
        out = lap(mode)
        assert np.abs(out + lam * mode).max() < 1e-10 * lam


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["dirichlet", "neumann"]),
       st.sampled_from([1, 2]))
def test_laplacian_is_symmetric(seed, bc, dim):
    rng = np.random.default_rng(seed)
    g = TensorGrid.cube(-1.0, 2.0, 17, dim)
    if bc == "neumann":
        lap, w = (lambda v: laplacian_apply(g, v)), g.quad_weights()
    else:
        lap, inner = _dirichlet_laplacian(g)
        w = g.quad_weights()[inner]
    a = rng.standard_normal(w.shape)
    b = rng.standard_normal(w.shape)
    lhs = (w * a * lap(b)).sum()
    rhs = (w * lap(a) * b).sum()
    assert abs(lhs - rhs) < 1e-10 * np.sqrt((w * a * a).sum() * (w * b * b).sum())


def test_laplacian_second_order_convergence():
    errs = []
    for n in (101, 201):
        g = TensorGrid.cube(0.0, 1.0, n, 1)
        lap, inner = _dirichlet_laplacian(g)
        x = g.axes[0].nodes
        f = np.sin(np.pi * x)[inner]
        out = lap(f)
        # nodes 2..n-3, away from the cutoff
        errs.append(np.abs(out + np.pi ** 2 * f)[1:-1].max())
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


# ------------------------------------------------------------ poisson

def test_poisson_zero_source():
    g = TensorGrid.cube(-1.0, 1.0, 41, 1)
    u = poisson_solve(g, np.zeros(g.shape))
    assert np.abs(u).max() == 0.0


def test_poisson_cosine_analytic_and_order():
    errs = []
    for n in (101, 201):
        g = TensorGrid.cube(0.0, 2.0, n, 1)
        x = g.axes[0].nodes
        L = 2.0
        src = np.cos(np.pi * x / L)
        u = poisson_solve(g, src)
        exact = -(L / np.pi) ** 2 * np.cos(np.pi * x / L)
        errs.append(np.abs(u - exact).max())
        assert abs(g.integrate(u)) < 1e-12
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_poisson_nonzero_mean_raises():
    g = TensorGrid.cube(0.0, 2.0, 51, 1)
    src = np.full(g.shape, 0.1)
    with pytest.raises(UnsolvableConstraintError):
        poisson_solve(g, src)


@pytest.mark.parametrize("source", [[1j, 0, -1j, 0, 0],
                                    np.array([0.5, -1.0, 0.5, 0.0, 0.0], dtype=complex)])
def test_poisson_rejects_a_complex_source(source):
    # a cast to float would drop the imaginary part with only a warning; a
    # complex dtype is refused even where every imaginary part is zero
    g = TensorGrid.cube(0.0, 2.0, 5, 1)
    with pytest.raises(ValueError, match="^source must be real"):
        poisson_solve(g, source)


# per-axis counts and extents differ, so a mix-up of axes or spacings shows
ROUNDTRIP_GRIDS = [
    (UniformGrid1D(-1.0, 2.0, 3),),
    (UniformGrid1D(0.0, 5.0, 40),),
    (UniformGrid1D(-1.0, 1.0, 33), UniformGrid1D(0.0, 3.0, 20)),
    (UniformGrid1D(-2.0, 1.0, 3), UniformGrid1D(0.0, 0.5, 12),
     UniformGrid1D(-4.0, 4.0, 17)),
    (UniformGrid1D(-1.0, 1.0, 5), UniformGrid1D(0.0, 2.0, 4),
     UniformGrid1D(-3.0, 1.0, 3), UniformGrid1D(1.0, 1.5, 6)),
]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_poisson_laplacian_roundtrip(seed):
    rng = np.random.default_rng(seed)
    for axes in ROUNDTRIP_GRIDS:
        g = TensorGrid(axes)
        src = rng.standard_normal(g.shape)
        src -= g.integrate(src) / g.volume
        u = poisson_solve(g, src)
        back = laplacian_apply(g, u)
        assert g.norm(back - src) < 1e-10 * max(1.0, g.norm(src)), g.shape


# ---------------------------------------------------------- eigenpairs

def _harmonic_op(g):
    """-(1/2) d^2/dphi^2 + phi^2/2 on the interior unknowns, and the
    interior index tuple."""
    inner = (slice(1, -1),) * g.ndim
    x = g.axes[0].nodes
    return hamiltonian(g, None, (0.5 * x ** 2)[inner], 1.0), inner


def test_harmonic_ground_state():
    g = TensorGrid.cube(-10.0, 10.0, 2001, 1)
    op, inner = _harmonic_op(g)
    x = g.axes[0].nodes
    lam, vec = smallest_eigenpair(op, np.exp(-0.5 * x ** 2)[inner], tol=1e-8,
                                  weights=g.quad_weights()[inner])
    assert abs(lam - 0.5) < 1e-4


def test_negative_laplacian_smallest_is_pi_squared():
    g = TensorGrid.cube(0.0, 1.0, 201, 1)
    n = g.axes[0].count
    h = g.axes[0].spacing
    lap, inner = _dirichlet_laplacian(g)
    x = g.axes[0].nodes
    lam, vec = smallest_eigenpair(lambda v: -lap(v), (x * (1 - x))[inner], tol=1e-8,
                                  weights=g.quad_weights()[inner])
    discrete = 2.0 * (1.0 - np.cos(np.pi / (n - 1))) / h ** 2
    assert lam == pytest.approx(discrete, abs=1e-9)
    assert lam == pytest.approx(np.pi ** 2, abs=5 * h ** 2 * np.pi ** 4)
    assert lam > 0  # sign opposite to -pi^2


def _dense_oracle(op, shape):
    """The smallest eigenvalue of the dense matrix of `op`, and its unit
    eigenvector in `shape`."""
    n = int(np.prod(shape))
    m = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        m[:, j] = op(e.reshape(shape)).ravel()
    vals, vecs = np.linalg.eigh(m)
    return vals[0], vecs[:, 0].reshape(shape)


def test_odd_guess_still_reaches_ground_state():
    g = TensorGrid.cube(-8.0, 8.0, 301, 1)
    op, inner = _harmonic_op(g)
    x = g.axes[0].nodes
    odd_guess = (x * np.exp(-0.5 * x ** 2))[inner]
    lam, vec = smallest_eigenpair(op, odd_guess, tol=1e-9,
                                  weights=g.quad_weights()[inner])
    oracle, _ = _dense_oracle(op, odd_guess.shape)
    assert abs(lam - oracle) < 1e-8
    # the eigenvector is even, not odd
    assert np.abs(vec - vec[::-1]).max() < 1e-6


def _double_well(g):
    """A double well per axis, with neighbouring axes coupled so that in
    D > 1 the potential does not separate: the operator on the interior
    unknowns, the interior index tuple and the cold Gaussian guess."""
    xs = g.meshes()
    pot = sum(0.25 * x ** 4 - x ** 2 for x in xs)
    pot = pot + sum(0.3 * xs[k] * xs[k + 1] for k in range(g.ndim - 1))
    inner = (slice(1, -1),) * g.ndim
    guess = np.exp(-sum(x ** 2 for x in xs))[inner]
    return hamiltonian(g, None, pot[inner], 1.0), inner, guess


@pytest.mark.parametrize("g", [TensorGrid.cube(-6.0, 6.0, 401, 1),
                               TensorGrid.cube(-4.0, 4.0, 9, 3)],
                         ids=["1d", "3d"])
def test_eigenvalue_matches_dense_oracle_and_residual_contract(g):
    op, inner, guess = _double_well(g)
    tol = 1e-9
    lam, vec = smallest_eigenpair(op, guess, tol=tol,
                                  weights=g.quad_weights()[inner])
    oracle, _ = _dense_oracle(op, guess.shape)
    assert abs(lam - oracle) < 1e-8
    # residual and norm on the whole grid, with the faces zero
    resid = np.zeros(g.shape)
    resid[inner] = op(vec) - lam * vec
    assert g.norm(resid) < tol
    psi = np.zeros(g.shape)
    psi[inner] = vec
    assert abs(g.norm(psi) - 1.0) < 1e-12


WELL_2D = TensorGrid.cube(-6.0, 6.0, 21, 2)


def test_guess_orthogonal_to_ground_state_still_reaches_it():
    # with the ground state projected out of the guess, only the start's
    # perturbation (and roundoff) supplies its component
    op, inner, guess = _double_well(WELL_2D)
    oracle, psi0 = _dense_oracle(op, guess.shape)
    x0, x1 = (x[inner] for x in WELL_2D.meshes())
    signed = (x0 - 0.5 * x1 + 0.3) * np.exp(-0.5 * (x0 ** 2 + x1 ** 2))
    signed -= (psi0 * signed).sum() * psi0
    assert abs((psi0 * signed).sum()) < 1e-15 * np.abs(signed).sum()
    lam, _ = smallest_eigenpair(op, signed, tol=1e-9,
                                weights=WELL_2D.quad_weights()[inner])
    assert abs(lam - oracle) < 1e-8


def test_converged_start_halves_the_applies():
    # a warm start must save applies, or the SCF loop gains nothing by it
    op, inner, guess = _double_well(WELL_2D)
    w = WELL_2D.quad_weights()[inner]
    applies = [0]

    def counted(v):
        applies[0] += 1
        return op(v)
    _, vec = smallest_eigenpair(counted, guess, tol=1e-9, weights=w)
    cold, applies[0] = applies[0], 0
    smallest_eigenpair(counted, vec, tol=1e-9, weights=w)
    assert applies[0] <= cold / 2, (applies[0], cold)


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_one_unknown_is_its_own_eigenpair(shape):
    # ARPACK needs more than one unknown; a 1x1 operator is its eigenvalue
    w = np.full(shape, 0.25)
    lam, vec = smallest_eigenpair(lambda v: -2.5 * v, np.full(shape, -3.0),
                                  tol=1e-15, weights=w)
    assert lam == -2.5
    assert vec.shape == shape and vec.ravel()[0] == 2.0  # (w*vec*vec).sum() == 1
    with pytest.raises(ConvergenceError):
        # an operator that is not linear leaves a residual
        smallest_eigenpair(lambda v: v * v, np.ones(shape), tol=1e-9, weights=w)


def test_arpack_failure_is_a_convergence_error_caused_by_it(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                       np.zeros((4, 0)))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    g = TensorGrid.cube(-1.0, 1.0, 6, 1)
    op, inner = _harmonic_op(g)
    with pytest.raises(ConvergenceError) as info:
        smallest_eigenpair(op, np.ones(g.shape)[inner],
                           weights=g.quad_weights()[inner])
    assert info.value.residual is None
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)


def test_zero_guess_rejected():
    g = TensorGrid.cube(-1.0, 1.0, 21, 1)
    op, inner = _harmonic_op(g)
    with pytest.raises(ValueError):
        smallest_eigenpair(op, np.zeros(g.shape)[inner],
                           weights=g.quad_weights()[inner])


# ---------------------------------------------------- tridiagonal ground
# `tridiagonal_ground` on T = diag(pot) + coef (-second difference),
# checked against LAPACK's dense tridiagonal eigensolver.

def _line_problem(n, kind):
    """(pot, coef) on the n interior nodes of [-10, 10]: a harmonic well,
    or a tilted double well whose lowest gap is about 8e-3."""
    x = np.linspace(-10.0, 10.0, n + 2)[1:-1]
    h = 20.0 / (n + 1)
    pot = 0.5 * x ** 2 if kind == "harmonic" else 0.25 * x ** 4 - 2.5 * x ** 2 + 0.002 * x
    return pot, 0.5 / h ** 2


def _lapack_pairs(pot, coef, k):
    """The k lowest eigenpairs by `eigh_tridiagonal`, each vector with a
    positive sum."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        pot + 2.0 * coef, np.full(pot.size - 1, -coef), select="i",
        select_range=(0, k - 1))
    return vals, vecs * np.sign(vecs.sum(axis=0))


@pytest.mark.parametrize("kind", ["harmonic", "double-well"])
def test_tridiagonal_ground_matches_lapack(kind):
    pot, coef = _line_problem(2000, kind)
    vals, vecs = _lapack_pairs(pot, coef, 2)
    if kind == "double-well":
        assert 5e-3 < vals[1] - vals[0] < 1e-2
    for guess in (None, np.ones(pot.size)):
        lam, x = tridiagonal_ground(pot, coef, guess)
        assert abs(lam - vals[0]) < 1e-11
        assert np.abs(x - vecs[:, 0]).max() < 1e-9
        assert x.min() > 0 and abs(np.dot(x, x) - 1.0) < 1e-15


@pytest.mark.parametrize("kind", ["harmonic", "double-well"])
def test_tridiagonal_ground_from_the_first_excited_state(kind):
    # a guess with no ground component still returns the ground pair;
    # in the tilted double well that state fills the upper well, its first
    # shift lies above the ground level and is refused, and bisection runs
    pot, coef = _line_problem(2000, kind)
    vals, vecs = _lapack_pairs(pot, coef, 2)
    lam, x = tridiagonal_ground(pot, coef, vecs[:, 1])
    assert abs(lam - vals[0]) < 1e-11
    assert np.abs(x - vecs[:, 0]).max() < 1e-9


def test_tridiagonal_ground_of_one_unknown():
    for guess in (None, np.array([-3.0])):
        lam, x = tridiagonal_ground(np.array([1.5]), 2.0, guess)
        assert lam == 5.5 and np.array_equal(x, [1.0])
    with pytest.raises(ValueError):
        tridiagonal_ground(np.array([1.5]), 2.0, np.zeros(1))


@pytest.mark.parametrize("n", [2000, 4000])
@pytest.mark.parametrize("kind", ["harmonic", "double-well"])
def test_tridiagonal_ground_does_not_depend_on_its_start(kind, n):
    # an SCF loop compares successive energies to 1e-12 and below, so the
    # eigenvalue must carry no trace of where the iteration started
    pot, coef = _line_problem(n, kind)
    vals, vecs = _lapack_pairs(pot, coef, 2)
    v = vecs[:, 0]
    x = np.linspace(-1.0, 1.0, n)
    rng = np.random.default_rng(7)
    # no guess (bisection first), near guesses, and far ones: the first
    # excited state, a spike off the well's centre, uniform noise
    starts = [None, v, v + 1e-3 * rng.random(n), np.ones(n),
              v * (1.0 + 0.3 * np.sin(3.0 * x)), vecs[:, 1],
              np.exp(-((x - 0.3) / 0.01) ** 2), rng.random(n)]
    lams = [tridiagonal_ground(pot, coef, g)[0] for g in starts]
    assert max(lams) - min(lams) <= 1e-16 * abs(lams[0])
