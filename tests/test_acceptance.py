"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured numbers (run with `pytest tests/test_acceptance.py
-v -s` to see them)."""

import json
import time

import numpy as np

from nlgauge.cli import run as cli_run, validate as cli_validate
from nlgauge.dynamics import evolve_temporal_gauge, stationary_solve
from nlgauge.gaugeops import initialize_constraint
from nlgauge.grids import RadialGrid, TensorGrid, UniformGrid1D
from nlgauge.model import HamiltonianSpec, ModelParams
from nlgauge.sn import (SNParams, sn_evolve_1d,
                        sn_ground_radial_scf, sn_ground_radial_shoot,
                        limit_equivalence_check, _potential_from_u_quadrature)
from nlgauge.verify import (check_gauge_invariance, check_scale_covariance,
                            check_superposition_failure,
                            control_gauge_invariance)
from references import total_charge

HARMONIC = (0.0, 0.0, 0.5)


def _report(num, name, passed, detail, t):
    line = f"ACCEPTANCE {num:>2} {'PASS' if passed else 'FAIL'} {name}: " \
           f"{detail} [{t:.1f}s]"
    print(line)
    assert passed, line


def _packet(grid, center=1.0, width=1.0):
    x = grid.axes[0].nodes
    psi = np.exp(-((x - center) ** 2) / (4 * width ** 2)) + 0j
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    return psi


def test_criterion_01_charge_identity():
    t0 = time.time()
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        psi = rng.standard_normal(grid.shape) \
            + 1j * rng.standard_normal(grid.shape)
        psi[0] = psi[-1] = 0.0
        rho = np.abs(psi) ** 2
        rho /= np.real(grid.integrate(rho))
        worst = max(worst, abs(total_charge(grid, rho, params)))
    t = time.time() - t0
    _report(1, "charge identity", worst < 1e-12 and t < 1.0,
            f"max|Q| = {worst:.2e} over 100 random states", t)


def test_criterion_02_norm_conservation():
    t0 = time.time()
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    spec = HamiltonianSpec(potential_coeffs=HARMONIC)
    psi0 = _packet(grid)
    g0 = initialize_constraint(grid, psi0, params)
    traj = evolve_temporal_gauge(psi0, g0, spec, params, dt=0.002, steps=2000)
    drift = float(np.abs(traj.diagnostics["norm"] - 1.0).max())
    t = time.time() - t0
    _report(2, "norm conservation over 2000 steps", drift < 1e-8 and t < 30.0,
            f"max|norm-1| = {drift:.2e}", t)


def test_criterion_03_residuals_second_order():
    t0 = time.time()
    grid = TensorGrid.cube(-8.0, 8.0, 201, 1)
    params = ModelParams(l=1.0)
    spec = HamiltonianSpec(potential_coeffs=HARMONIC)
    psi0 = _packet(grid)
    T = 0.8
    finals = []
    for dt in (0.02, 0.01, 0.005):
        g0 = initialize_constraint(grid, psi0, params)
        traj = evolve_temporal_gauge(psi0, g0, spec, params, dt=dt,
                                     steps=int(round(T / dt)))
        d = traj.diagnostics
        finals.append((d["gauss_residual"][-1], d["continuity_residual"][-1]))
    ratios = [finals[i][k] / finals[i + 1][k] for i in (0, 1) for k in (0, 1)]
    ok = all(3.2 < r < 4.8 for r in ratios)
    t = time.time() - t0
    _report(3, "Gauss/continuity residuals converge at 2nd order", ok,
            "halving ratios = " + ", ".join(f"{r:.2f}" for r in ratios), t)


def test_criterion_04_gauge_invariance_20_seeds():
    t0 = time.time()
    ok = True
    worst = 0.0
    for seed in range(20):
        rep = check_gauge_invariance(seed)
        ok &= rep.passed
        worst = max(worst, dict(rep.measured)["action_rel_diff"])
        ctrl = control_gauge_invariance(seed)
        ok &= ctrl.passed  # the broken transform must be detected
    t = time.time() - t0
    _report(4, "gauge invariance (20 seeds + negative controls)", ok,
            f"worst action deviation = {worst:.2e}; all controls detected", t)


def test_criterion_05_scale_covariance():
    t0 = time.time()
    rep = check_scale_covariance()
    m = dict(rep.measured)
    ok = m["quartic_worst_ratio_dev"] < 1e-8 and m["massive_ratio_dev"] > 1e-3
    t = time.time() - t0
    _report(5, "scale covariance of the action", ok,
            f"quartic worst |ratio-1| = {m['quartic_worst_ratio_dev']:.2e}, "
            f"massive control deviates by {m['massive_ratio_dev']:.2e}", t)


def test_criterion_06_limit_equivalence():
    t0 = time.time()
    d = 1.2
    lam = 1.0 / (8 * d * d)
    potentials = {
        "harmonic": HARMONIC,
        "quartic": (0.0, 0.0, 0.0, 0.0, 0.25),
        "double-well": (lam * d ** 4, 0.0, -2 * lam * d * d, 0.0, lam),
    }
    details = []
    ok = True
    for name, coeffs in potentials.items():
        t1 = time.time()
        grid = TensorGrid.cube(-8.0, 8.0, 401, 1)
        spec = HamiltonianSpec(potential_coeffs=coeffs)
        params = ModelParams(l=1.0)
        rep = limit_equivalence_check(spec, params, grid, tol=1e-13)
        each = time.time() - t1
        ok &= rep.omega_diff < 1e-8 and rep.max_psi_diff < 1e-7 and each < 60
        details.append(f"{name}: d_omega={rep.omega_diff:.1e} "
                       f"d_psi={rep.max_psi_diff:.1e}")
    t = time.time() - t0
    _report(6, "one-site limit equals the line solver", ok,
            "; ".join(details), t)


def test_criterion_07_sn_cross_method_and_scaling():
    t0 = time.time()
    ok = True
    details = []
    for c, rmax in ((0.5, 30.0), (1.0, 20.0), (2.0, 12.0)):
        rg = RadialGrid(1e-6, rmax, 4000)
        scf = sn_ground_radial_scf(SNParams(coupling=c), rg, tol=1e-12)
        shoot = sn_ground_radial_shoot(SNParams(coupling=c), rg, tol=1e-12)
        gap = abs(scf.energy - shoot.energy) / abs(scf.energy)
        ok &= gap < 1e-4
        details.append(f"c={c}: gap={gap:.1e}")
    # scaling relation checked exactly on the image grid
    b = 2.0
    rg = RadialGrid(1e-6, 20.0, 3000)
    st = sn_ground_radial_scf(SNParams(coupling=1.0), rg, tol=1e-12)
    rg2 = RadialGrid(rg.r_min / b, rg.r_max / b, rg.count)
    r2, h2 = rg2.nodes, rg2.spacing
    u2, v2, e2 = np.sqrt(b) * st.u, b * st.v, b * b * st.energy
    hu = np.zeros_like(u2)
    hu[1:-1] = -(u2[2:] - 2 * u2[1:-1] + u2[:-2]) / (2 * h2 * h2)
    hu += (v2 / r2) * u2
    hu[0] = hu[-1] = 0.0
    w2 = np.full(rg2.count, h2)
    w2[0] *= 0.5
    w2[-1] *= 0.5
    res_eig = float(np.sqrt((w2 * (hu - e2 * u2) ** 2)[1:-1].sum()))
    res_pois = float(np.abs(_potential_from_u_quadrature(r2, u2, b) - v2).max())
    scaling_res = max(res_eig, res_pois)
    ok &= scaling_res < 1e-6
    t = time.time() - t0
    _report(7, "radial SCF vs shooting oracle + scaling law",
            ok and t < 120.0,
            "; ".join(details) + f"; scaling residual = {scaling_res:.1e}", t)


def test_criterion_08_linear_limit_sanity():
    t0 = time.time()
    grid = TensorGrid.cube(-10.0, 10.0, 2001, 1)
    params = ModelParams(l=np.inf)
    spec = HamiltonianSpec(potential_coeffs=HARMONIC)
    st1d = stationary_solve(spec, params, grid, tol=1e-11)
    rg = RadialGrid(1e-6, 12.0, 3000)
    st3d = sn_ground_radial_scf(
        SNParams(coupling=0.0, external_potential_coeffs=HARMONIC), rg,
        tol=1e-11)
    axis = UniformGrid1D(-24.0, 24.0, 961)
    x = axis.nodes
    w = np.full(axis.count, axis.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    sig0 = 1.0
    psi = np.exp(-x ** 2 / (4 * sig0 ** 2)) + 0j
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    out = sn_evolve_1d(axis, psi, SNParams(coupling=0.0), dt=0.01, steps=400)
    s = out["series"]
    T = s["t"][-1]
    width_err = abs(s["sigma"][-1] / np.sqrt(sig0 ** 2 + T ** 2 / (4 * sig0 ** 2))
                    - 1.0)
    ok = (abs(st1d.omega_eig - 0.5) < 1e-4 and abs(st3d.energy - 1.5) < 1e-4
          and width_err < 0.01)
    t = time.time() - t0
    _report(8, "linear-limit sanity", ok,
            f"omega_1d = {st1d.omega_eig:.6f}, E_3d = {st3d.energy:.6f}, "
            f"width-law error = {width_err:.2e}", t)


def test_criterion_09_wave_packet_shrinking():
    t0 = time.time()
    axis = UniformGrid1D(-30.0, 30.0, 1201)
    x = axis.nodes
    w = np.full(axis.count, axis.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    psi0 = np.exp(-x ** 2 / 4.0) + 0j
    psi0 /= np.sqrt((w * np.abs(psi0) ** 2).sum())

    def final_sigma(c):
        out = sn_evolve_1d(axis, psi0, SNParams(coupling=c), dt=0.005, steps=600)
        return out["series"]["sigma"]

    free = final_sigma(0.0)
    spreads = bool(np.all(np.diff(free) > 0))
    sig0 = free[0]
    lo, hi = 0.25, 4.0
    shrunk = final_sigma(hi)
    assert shrunk[-1] < sig0
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        if final_sigma(mid)[-1] < sig0:
            hi = mid
        else:
            lo = mid
    threshold = 0.5 * (lo + hi)
    ok = spreads and shrunk[-1] < sig0
    t = time.time() - t0
    _report(9, "wave-packet shrinking", ok and t < 120.0,
            f"coupling-0 spreads monotonically; sigma(T)={shrunk[-1]:.3f} < "
            f"sigma0={sig0:.3f} at coupling 4.0; threshold coupling ~ "
            f"{threshold:.2f}", t)


def test_criterion_10_superposition_failure():
    t0 = time.time()
    rep = check_superposition_failure()
    m = dict(rep.measured)
    ok = rep.passed
    t = time.time() - t0
    _report(10, "superposition failure", ok,
            f"tight/single ratio = {m['tight_to_single_ratio']:.1e}, "
            f"wide-sum residual = {m['wide_sum_residual']:.1e}", t)


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    base = """
[experiment]
kind = functional-evolve
seed = 5
[grid]
lower = -8.0
upper = 8.0
count = 121
[physics]
l = 1.5
[solver]
dt = 0.01
steps = 40
[output]
directory = {out}
"""
    blobs = []
    for sub in ("a", "b"):
        cfg, errors = cli_validate(base.format(out=tmp_path / sub))
        assert errors == []
        assert cli_run(cfg) == 0
        payload = json.loads((tmp_path / sub / "summary.json").read_text())
        payload.pop("timestamp")
        blobs.append(json.dumps(payload, sort_keys=True).encode())
    ok = blobs[0] == blobs[1]
    t = time.time() - t0
    _report(11, "byte-identical reruns (modulo timestamp)", ok,
            f"{len(blobs[0])} bytes compared equal", t)
