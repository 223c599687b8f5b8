"""Workload definitions: seeded config generation, correctness gates and
their negative controls. Pure Python, so `run.py` stays free of numpy.
"""

from __future__ import annotations

import copy
import csv
import random

# Problem sizes per workload. The self-check passes smaller ones.
SIZES = {
    "radial-ground": {"count": 2000},
    "multisite-stationary": {"count": 25},
    "line-evolve": {"count": 201, "steps": 8000},
    "sn-line-evolve": {"count": 1201, "steps": 3000},
}

# E/g^2 of the radial Schrodinger-Newton ground state; measured -0.16300,
# -0.16278 and -0.16277 at g = 0.8, 1 and 1.25 on 4000 nodes, and
# -0.162777 at g = 1 on 2000 nodes.
RADIAL_E_OVER_G2 = -0.16278


def make_config(workload: str, seed: int, outdir: str,
                sizes: dict | None = None) -> tuple[str, dict]:
    """Config text for one workload and seed, plus the drawn parameters.

    Parameters are drawn near the shipped configs in `configs/`; the
    same seed always gives the same text.
    """
    size = SIZES[workload] if sizes is None else sizes
    rng = random.Random(f"{workload}/{seed}")
    if workload == "radial-ground":
        p = {"coupling": round(rng.uniform(0.95, 1.05), 6)}
        text = f"""\
[experiment]
kind = sn-ground
seed = {seed}

[radial]
r_min = 1e-6
r_max = 20.0
count = {size['count']}

[physics]
coupling = {p['coupling']}
background = 0.0
potential_coeffs = 0

[solver]
tol = 1e-12
mixing = 0.5
"""
    elif workload == "multisite-stationary":
        p = {"l": round(rng.uniform(0.9, 1.1), 6), "tol": 1e-11, "max_scf": 300}
        text = f"""\
[experiment]
kind = functional-stationary
seed = {seed}

[grid]
lower = -8.0
upper = 8.0
count = {size['count']}
dim = 3

[physics]
l = {p['l']}
potential_coeffs = 0, 0, 0.5

[solver]
tol = {p['tol']}
mixing = 0.5
max_scf = {p['max_scf']}
"""
    elif workload == "line-evolve":
        p = {"l": round(rng.uniform(0.9, 1.1), 6),
             "center": round(rng.uniform(0.8, 1.2), 6),
             "width": round(rng.uniform(0.9, 1.1), 6)}
        text = f"""\
[experiment]
kind = functional-evolve
seed = {seed}

[grid]
lower = -8.0
upper = 8.0
count = {size['count']}
dim = 1

[physics]
l = {p['l']}
potential_coeffs = 0, 0, 0.5

[initial]
center = {p['center']}
width = {p['width']}

[solver]
dt = 0.005
steps = {size['steps']}
record_every = 1
"""
    elif workload == "sn-line-evolve":
        p = {"coupling": round(rng.uniform(1.8, 2.2), 6),
             "center": round(rng.uniform(-0.5, 0.5), 6),
             "width": round(rng.uniform(0.9, 1.1), 6)}
        text = f"""\
[experiment]
kind = sn-evolve
seed = {seed}

[grid]
lower = -30.0
upper = 30.0
count = {size['count']}

[physics]
coupling = {p['coupling']}
background = 0.0
potential_coeffs = 0

[initial]
center = {p['center']}
width = {p['width']}
momentum = 0.0

[solver]
dt = 0.005
steps = {size['steps']}
record_every = 1
"""
    else:
        raise KeyError(f"unknown workload {workload!r}")
    text += f"""
[output]
directory = {outdir}
formats = csv,json
"""
    return text, p


# ---------------------------------------------------------------- gates
#
# A gate takes the drawn parameters, the `results` block of summary.json
# and, where needed, the columns of the trajectory CSV, and returns the
# list of violated conditions (empty means the run is correct).

def _gate_radial(p, res, series):
    bad = []
    if not res["relative_gap"] < 1e-4:
        bad.append(f"relative_gap {res['relative_gap']:.3e} >= 1e-4")
    scaled = res["energy_scf"] / p["coupling"] ** 2
    if not abs(scaled - RADIAL_E_OVER_G2) < 1e-3:
        bad.append(f"energy_scf/g^2 = {scaled:.6f}, not {RADIAL_E_OVER_G2} +- 1e-3")
    return bad


def _gate_multisite(p, res, series):
    bad = []
    for key in ("eig_residual", "gauss_residual"):
        if not res[key] <= 10 * p["tol"]:
            bad.append(f"{key} {res[key]:.3e} > 10*tol")
    if not res["iterations"] < p["max_scf"]:
        bad.append(f"iterations {res['iterations']} reached max_scf")
    return bad


def _gate_line(p, res, series):
    bad = []
    if not res["norm_drift"] < 1e-9:
        bad.append(f"norm_drift {res['norm_drift']:.3e} >= 1e-9")
    for key in ("gauss_residual_final", "continuity_residual_final"):
        if not 0.0 < res[key] < 1e-3:
            bad.append(f"{key} {res[key]!r} not in (0, 1e-3)")
    sigma = series["sigma"]
    moved = max(abs(s - sigma[0]) for s in sigma)
    if not moved > 0.05:
        bad.append(f"state did not move: max |sigma(t) - sigma(0)| = {moved:.3e}")
    return bad


def _gate_sn_line(p, res, series):
    bad = []
    if not res["norm_drift"] < 1e-9:
        bad.append(f"norm_drift {res['norm_drift']:.3e} >= 1e-9")
    if not res["energy_drift"] < 1e-5:
        bad.append(f"energy_drift {res['energy_drift']:.3e} >= 1e-5")
    if res["shrank"] is not True:
        bad.append("packet did not shrink")
    return bad


def _set(key, value):
    def tamper(res, series):
        res[key] = value
    return tamper


def _scale(key, factor):
    def tamper(res, series):
        res[key] *= factor
    return tamper


def _freeze_sigma(res, series):
    series["sigma"] = [series["sigma"][0]] * len(series["sigma"])


# workload -> (gate, CSV read for the gate or None, negative controls).
# Each negative control breaks one condition of the gate; every one must
# be rejected, or the run is reported incorrect.
WORKLOADS = {
    "radial-ground": (_gate_radial, None, [
        _set("relative_gap", 2e-4),
        _scale("energy_scf", 1.01),
    ]),
    "multisite-stationary": (_gate_multisite, None, [
        _set("eig_residual", 1e-9),
        _set("gauss_residual", 1e-9),
        _set("iterations", 300),
    ]),
    "line-evolve": (_gate_line, "evolution.csv", [
        _set("norm_drift", 1e-8),
        _set("gauss_residual_final", 0.0),
        _set("continuity_residual_final", 0.0),
        _set("continuity_residual_final", 2e-3),
        _freeze_sigma,
    ]),
    "sn-line-evolve": (_gate_sn_line, None, [
        _set("norm_drift", 1e-8),
        _set("energy_drift", 1e-4),
        _set("shrank", False),
    ]),
}


def read_series(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        cols = [[] for _ in header]
        for row in rows:
            for col, val in zip(cols, row):
                col.append(float(val))
    return dict(zip(header, cols))


def check(workload: str, params: dict, results: dict,
          series: dict | None) -> list[str]:
    return WORKLOADS[workload][0](params, results, series)


def accepted_negative_controls(workload: str, params: dict, results: dict,
                               series: dict | None) -> list[int]:
    """Indices of negative controls the gate wrongly accepts."""
    accepted = []
    for i, tamper in enumerate(WORKLOADS[workload][2]):
        res, ser = copy.deepcopy(results), copy.deepcopy(series)
        tamper(res, ser)
        if not check(workload, params, res, ser):
            accepted.append(i)
    return accepted
