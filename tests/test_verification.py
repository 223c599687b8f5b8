import json

import numpy as np
import pytest

from nlgauge.action import scale_transform
from nlgauge.dynamics import stationary_solve
from nlgauge.grids import TensorGrid
from nlgauge.model import HamiltonianSpec, ModelParams
from nlgauge.verify import (CheckReport, check_born_homogeneity,
                            check_conservation, check_gauge_invariance,
                            check_scale_covariance,
                            check_superposition_failure,
                            control_conservation_euler,
                            control_gauge_invariance, run_all,
                            stationarity_residual, _packet_trajectory)


@pytest.mark.parametrize("count, dim, bound", [(201, 1, 1e-11), (33, 2, 5e-10)])
def test_stationarity_residual_in_the_linear_limit(count, dim, bound):
    # at l = inf the solve's Gauss step and the residual's own Poisson
    # solve both run on a zero source
    grid = TensorGrid.cube(-8.0, 8.0, count, dim)
    spec = HamiltonianSpec(potential_coeffs=(0.0, 0.0, 0.5))
    params = ModelParams(l=np.inf)
    st = stationary_solve(spec, params, grid, tol=1e-11)
    assert not st.a_t.any()
    assert stationarity_residual(grid, st.psi, spec, params) < bound


def test_conservation_check_passes():
    traj = _packet_trajectory(l=2.0, steps=200, dt=0.005)
    rep = check_conservation(traj)
    assert rep.passed
    drift = dict(rep.measured)["max_norm_drift"]
    assert drift < 1e-10


def test_conservation_negative_control_detects_euler():
    rep = control_conservation_euler()
    assert rep.passed
    assert dict(rep.measured)["final_drift"] > 1e-6


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gauge_invariance_seeds(seed):
    rep = check_gauge_invariance(seed)
    assert rep.passed, rep.measured
    m = dict(rep.measured)
    assert m["rho_diff"] < 1e-12
    assert m["action_rel_diff"] < 1e-10


@pytest.mark.parametrize("seed", [0, 3])
def test_gauge_negative_control(seed):
    rep = control_gauge_invariance(seed)
    assert rep.passed
    assert dict(rep.measured)["action_rel_diff"] > 1e-6


def test_scale_covariance_check():
    rep = check_scale_covariance()
    assert rep.passed
    m = dict(rep.measured)
    assert m["quartic_worst_ratio_dev"] < 1e-8
    assert m["massive_ratio_dev"] > 1e-3


def test_scale_covariance_check_never_tests_the_identity_map(monkeypatch):
    # scale_transform at s = c0**(a/2) = 1 returns its input bit for bit
    calls = []

    def recording(traj, c0, a):
        calls.append((c0, a))
        return scale_transform(traj, c0, a)
    monkeypatch.setattr("nlgauge.verify.scale_transform", recording)
    assert check_scale_covariance().passed
    assert len(calls) == 5
    assert all(c0 ** (a / 2.0) != 1.0 for c0, a in calls)


def test_born_homogeneity_check():
    rep = check_born_homogeneity(0)
    assert rep.passed
    m = dict(rep.measured)
    assert m["normalized_rho_dev"] < 1e-12
    assert m["scalefree_resolve_dev"] < 1e-8
    assert m["massive_resolve_dev"] > 1e-3


def test_superposition_failure_check():
    rep = check_superposition_failure()
    assert rep.passed
    m = dict(rep.measured)
    assert m["wide_sum_residual"] < 1e-5
    assert m["tight_to_single_ratio"] > 10.0


def test_checks_are_deterministic():
    a = check_gauge_invariance(11)
    b = check_gauge_invariance(11)
    assert a.measured == b.measured
    assert a.passed == b.passed


def test_reports_serialize_losslessly():
    rep = CheckReport(name="x", passed=True,
                      measured=[("v", np.float64(1.5))], tolerance=1e-3,
                      context="ctx")
    d = rep.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["name"] == "x"
    assert back["measured"] == [["v", 1.5]]
    assert back["passed"] is True


def test_run_all_everything_passes():
    reports = run_all(seed=0)
    assert len(reports) == 7
    for rep in reports:
        assert rep.passed, (rep.name, rep.measured)
