import numpy as np
import pytest

from nlgauge.errors import ConvergenceError
from nlgauge.fixedpoint import fixed_point


def _contraction():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q @ np.diag(np.linspace(0.1, 0.8, 8)) @ q.T
    b = rng.standard_normal(8)
    x_star = np.linalg.solve(np.eye(8) - a, b)

    def G(x):
        g = a @ x + b
        return g, float(g @ g)
    return G, x_star


def test_stalled_energy_does_not_stop_the_iteration():
    # the energy never changes, so only the residual rule can stop it
    def G(x):
        return np.cos(x), 0.0
    for m in (0, 5):
        x, iterations, trace = fixed_point(G, np.zeros(4), m=m, beta=0.5,
                                           tol=1e-12)
        assert iterations > 2
        assert trace[-1][2] <= 1e-6
        assert np.abs(x - 0.7390851332151607).max() < 1e-5


def test_anderson_beats_linear_mixing_and_repeats_exactly():
    G, x_star = _contraction()
    runs = {m: fixed_point(G, np.zeros(8), m=m, beta=0.5, tol=1e-10,
                           max_iter=500) for m in (0, 5)}
    for x, _, _ in runs.values():
        assert np.abs(x - x_star).max() < 1e-6
    assert runs[5][1] < runs[0][1]
    assert fixed_point(G, np.zeros(8), m=5, beta=0.5, tol=1e-10)[2] == runs[5][2]


def test_history_free_step_is_linear_mixing():
    inputs = []

    def G(x):
        inputs.append(x.copy())
        return 2.0 * x + 1.0, float(x.sum())
    with pytest.raises(ConvergenceError):
        fixed_point(G, np.ones(3), m=0, beta=0.25, tol=1e-12, max_iter=2)
    assert np.allclose(inputs[1], 0.75 * inputs[0] + 0.25 * (2.0 * inputs[0] + 1.0))


def test_exhaustion_raises_with_the_trace():
    G, _ = _contraction()
    with pytest.raises(ConvergenceError) as err:
        fixed_point(G, np.zeros(8), m=0, beta=0.1, tol=1e-14, max_iter=4)
    trace = err.value.trace
    assert [t[0] for t in trace] == [1, 2, 3, 4]
    assert err.value.residual == trace[-1][2]


@pytest.mark.parametrize("kwargs, match", [
    ({"beta": 0.0}, "beta"), ({"beta": 1.5}, "beta"), ({"beta": np.nan}, "beta"),
    ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": np.nan}, "tol")])
def test_bad_mixing_or_tol_is_rejected_before_any_evaluation(kwargs, match):
    calls = []

    def G(x):
        calls.append(x)
        return x, 0.0
    with pytest.raises(ValueError, match=match):
        fixed_point(G, np.zeros(3), **{"beta": 0.5, "tol": 1e-10, **kwargs})
    assert calls == []


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_is_rejected(max_iter):
    # with no evaluation there is no residual to report, so it is an
    # argument error, not a ConvergenceError
    G, _ = _contraction()
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        fixed_point(G, np.zeros(8), beta=0.5, tol=1e-10, max_iter=max_iter)


def test_an_exact_fixed_point_stops_at_once():
    x, iterations, trace = fixed_point(lambda x: (x.copy(), 1.0), np.zeros(3),
                                       beta=0.5, tol=1e-10)
    assert iterations == 1
    assert trace == [(1, 1.0, 0.0)]
    assert np.array_equal(x, np.zeros(3))
