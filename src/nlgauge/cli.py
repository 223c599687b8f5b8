"""Config-driven experiment runner.

Configs are plain INI text (key = value under [section] headers), one
experiment per invocation. Outputs land in the configured directory:
`summary.json` (flat, no NaN), per-trajectory CSV with a header row and
17-significant-digit floats, and `config.echo` with every default made
explicit, so a run is reproducible from its own artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import verify as verify_mod
from .dynamics import evolve_temporal_gauge, stationary_solve
from .gaugeops import initialize_constraint
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import GaugeState, HamiltonianSpec, ModelParams, WaveFunctional
from .sn import (Line1DState, SNParams, limit_equivalence_check,
                 sn_evolve_1d, sn_ground_radial_scf, sn_ground_radial_shoot)

EXPERIMENTS = ("sn-ground", "sn-evolve", "functional-stationary",
               "functional-evolve", "limit-check", "verify")

# section -> key -> (type, default); None default means required
_SCHEMA = {
    "experiment": {
        "kind": (str, None),
        "seed": (int, 0),
    },
    "grid": {
        "lower": (float, -8.0),
        "upper": (float, 8.0),
        "count": (int, 201),
        "dim": (int, 1),
    },
    "radial": {
        "r_min": (float, 1e-6),
        "r_max": (float, 20.0),
        "count": (int, 4000),
    },
    "physics": {
        "l": (float, 1.0),
        "coupling": (float, 1.0),
        "background": (float, 0.0),
        "potential_coeffs": (str, "0, 0, 0.5"),
        "gradient_coupling": (float, 0.0),
        "lattice_spacing": (float, 1.0),
    },
    "initial": {
        "center": (float, 1.0),
        "width": (float, 1.0),
        "momentum": (float, 0.0),
    },
    "solver": {
        "dt": (float, 0.005),
        "steps": (int, 400),
        "tol": (float, 1e-10),
        "mixing": (float, 0.5),
        "max_scf": (int, 300),
        "record_every": (int, 1),
    },
    "output": {
        "directory": (str, "out"),
        "formats": (str, "csv,json"),
    },
}


@dataclass
class SolverConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def experiment(self):
        return self.values[("experiment", "kind")]

    def potential_coeffs(self) -> tuple[float, ...]:
        raw = self.values[("physics", "potential_coeffs")]
        return tuple(float(tok) for tok in raw.replace(",", " ").split())

    def echo_text(self) -> str:
        cp = configparser.ConfigParser()
        for section in _SCHEMA:
            cp[section] = {}
        for (section, key), val in sorted(self.values.items()):
            cp[section][key] = str(val)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def validate(text: str) -> tuple[SolverConfig | None, list[str]]:
    """Parse and fully validate config text; collects every error."""
    errors: list[str] = []
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        return None, [f"config parse error: {exc}"]

    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            near = difflib.get_close_matches(section, _SCHEMA.keys(), n=1)
            hint = f"; did you mean [{near[0]}]?" if near else ""
            errors.append(f"unknown section [{section}]{hint}")
            continue
        for key, raw in cp[section].items():
            if key not in _SCHEMA[section]:
                near = difflib.get_close_matches(key, _SCHEMA[section].keys(), n=1)
                hint = f"; did you mean '{near[0]}'?" if near else ""
                errors.append(f"unknown key '{key}' in [{section}]{hint}")
                continue
            typ, _ = _SCHEMA[section][key]
            try:
                if typ is float:
                    values[(section, key)] = float(raw)
                elif typ is int:
                    values[(section, key)] = int(raw)
                else:
                    values[(section, key)] = raw.strip()
            except ValueError:
                errors.append(f"[{section}] {key}: cannot parse {raw!r} as "
                              f"{typ.__name__}")
    for section, keys in _SCHEMA.items():
        for key, (typ, default) in keys.items():
            if (section, key) not in values:
                if default is None:
                    errors.append(f"[{section}] {key} is required")
                else:
                    values[(section, key)] = default

    cfg = SolverConfig(values)
    if ("experiment", "kind") in values:
        if values[("experiment", "kind")] not in EXPERIMENTS:
            near = difflib.get_close_matches(values[("experiment", "kind")],
                                             EXPERIMENTS, n=1)
            hint = f"; did you mean '{near[0]}'?" if near else ""
            errors.append(f"[experiment] kind must be one of "
                          f"{', '.join(EXPERIMENTS)}{hint}")
    checks = [
        (("solver", "dt"), lambda v: v > 0, "must be > 0"),
        (("solver", "steps"), lambda v: v >= 1, "must be >= 1"),
        (("solver", "tol"), lambda v: v > 0, "must be > 0"),
        (("solver", "mixing"), lambda v: 0 < v <= 1, "must be in (0, 1]"),
        (("solver", "record_every"), lambda v: v >= 1, "must be >= 1"),
        (("grid", "count"), lambda v: v >= 3, "must be >= 3"),
        (("grid", "dim"), lambda v: 1 <= v <= 4, "must be in 1..4"),
        (("physics", "l"), lambda v: v > 0, "must be > 0 (inf allowed)"),
        (("physics", "coupling"), lambda v: v >= 0, "must be >= 0"),
        (("physics", "background"), lambda v: v >= 0, "must be >= 0"),
        (("physics", "gradient_coupling"), lambda v: v >= 0, "must be >= 0"),
        (("physics", "lattice_spacing"), lambda v: v > 0, "must be > 0"),
        (("radial", "count"), lambda v: v >= 16, "must be >= 16"),
    ]
    for (section, key), ok, msg in checks:
        if (section, key) in values and not ok(values[(section, key)]):
            errors.append(f"[{section}] {key} {msg} (got {values[(section, key)]})")
    try:
        coeffs = cfg.potential_coeffs()
    except ValueError:
        errors.append("[physics] potential_coeffs: not a list of numbers")
    else:
        if not all(math.isfinite(c) for c in coeffs):
            errors.append(f"[physics] potential_coeffs must be finite (got {coeffs})")
    if errors:
        return None, errors
    return cfg, []


def _write_csv(path: str, columns: dict) -> None:
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()), strict=True)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            raise ValueError("refusing to serialize NaN")
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _gaussian_packet(x, center, width, momentum):
    psi = np.exp(-((x - center) ** 2) / (4.0 * width ** 2)
                 + 1j * momentum * x)
    return psi


# ------------------------------------------------------------ experiments

def _run_sn_ground(cfg: SolverConfig):
    grid = RadialGrid(cfg[("radial", "r_min")], cfg[("radial", "r_max")],
                      cfg[("radial", "count")])
    params = SNParams(coupling=cfg[("physics", "coupling")],
                      background=cfg[("physics", "background")],
                      external_potential_coeffs=cfg.potential_coeffs())
    tol = cfg[("solver", "tol")]
    scf = sn_ground_radial_scf(params, grid, tol=tol,
                               mixing=cfg[("solver", "mixing")],
                               max_scf=cfg[("solver", "max_scf")])
    shoot = sn_ground_radial_shoot(params, grid, tol=tol,
                                   mixing=cfg[("solver", "mixing")])
    gap = abs(scf.energy - shoot.energy) / max(abs(scf.energy), 1e-300)
    summary = {
        "energy_scf": scf.energy,
        "energy_shoot": shoot.energy,
        "relative_gap": gap,
        "iterations_scf": scf.iterations,
        "iterations_shoot": shoot.iterations,
        "residual_scf": scf.residual,
        "shoot_tail": shoot.residual,
    }
    csvs = {"radial_state.csv": {"r": grid.nodes, "u_scf": scf.u,
                                 "v_scf": scf.v, "u_shoot": shoot.u,
                                 "v_shoot": shoot.v}}
    return summary, csvs


def _run_sn_evolve(cfg: SolverConfig):
    axis = UniformGrid1D(cfg[("grid", "lower")], cfg[("grid", "upper")],
                         cfg[("grid", "count")])
    params = SNParams(coupling=cfg[("physics", "coupling")],
                      background=cfg[("physics", "background")],
                      external_potential_coeffs=cfg.potential_coeffs())
    x = axis.nodes
    psi = _gaussian_packet(x, cfg[("initial", "center")],
                           cfg[("initial", "width")],
                           cfg[("initial", "momentum")])
    w = axis.quad_weights()
    psi /= np.sqrt((w * np.abs(psi) ** 2).sum())
    res = sn_evolve_1d(Line1DState(axis, psi, np.zeros_like(x)), params,
                       dt=cfg[("solver", "dt")], steps=cfg[("solver", "steps")],
                       record_every=cfg[("solver", "record_every")])
    s = res["series"]
    summary = {
        "sigma_initial": s["sigma"][0],
        "sigma_min": float(s["sigma"].min()),
        "sigma_final": s["sigma"][-1],
        "norm_drift": float(np.abs(s["norm"] - s["norm"][0]).max()),
        "energy_drift": float(np.abs(s["energy"] - s["energy"][0]).max()),
        "shrank": bool(s["sigma"].min() < s["sigma"][0]),
    }
    csvs = {"evolution.csv": {"t": s["t"], "norm": s["norm"],
                              "energy": s["energy"], "sigma": s["sigma"]}}
    return summary, csvs


def _functional_setup(cfg: SolverConfig):
    dim = cfg[("grid", "dim")]
    grid = TensorGrid.cube(cfg[("grid", "lower")], cfg[("grid", "upper")],
                           cfg[("grid", "count")], dim)
    spec = HamiltonianSpec(sites=dim,
                           potential_coeffs=cfg.potential_coeffs(),
                           gradient_coupling=cfg[("physics", "gradient_coupling")],
                           lattice_spacing=cfg[("physics", "lattice_spacing")])
    params = ModelParams.for_grid(grid, l=cfg[("physics", "l")])
    return grid, spec, params


def _run_functional_stationary(cfg: SolverConfig):
    grid, spec, params = _functional_setup(cfg)
    st = stationary_solve(spec, params, grid, mixing=cfg[("solver", "mixing")],
                          tol=cfg[("solver", "tol")],
                          max_scf=cfg[("solver", "max_scf")])
    summary = {
        "omega": st.omega_eig,
        "iterations": st.iterations,
        "eig_residual": st.eig_residual,
        "gauss_residual": st.gauss_residual,
    }
    csvs = {}
    if grid.ndim == 1:
        csvs["stationary_state.csv"] = {
            "phi": grid.axes[0].nodes,
            "psi": np.real(st.psi.values),
            "a_t": st.a_t,
        }
    return summary, csvs


def _run_functional_evolve(cfg: SolverConfig):
    grid, spec, params = _functional_setup(cfg)
    if grid.ndim != 1:
        raise ValueError("functional-evolve runs on a 1-site grid")
    x = grid.axes[0].nodes
    psi = _gaussian_packet(x, cfg[("initial", "center")],
                           cfg[("initial", "width")],
                           cfg[("initial", "momentum")])
    psi /= np.sqrt(np.real(grid.integrate(np.abs(psi) ** 2)))
    pw = WaveFunctional(grid, psi)
    g0 = GaugeState.zero(grid)
    g0.f = initialize_constraint(pw, params)
    traj = evolve_temporal_gauge(pw, g0, spec, params,
                                 dt=cfg[("solver", "dt")],
                                 steps=cfg[("solver", "steps")],
                                 record_every=cfg[("solver", "record_every")])
    d = traj.diagnostics
    summary = {
        "norm_drift": float(np.abs(d["norm"] - 1.0).max()),
        "max_charge": float(np.abs(d["charge"]).max()),
        "gauss_residual_final": d["gauss_residual"][-1],
        "continuity_residual_final": d["continuity_residual"][-1],
        "energy_drift": float(np.abs(d["energy"] - d["energy"][0]).max()),
    }
    csvs = {"evolution.csv": {
        "t": d["time"], "norm": d["norm"], "charge": d["charge"],
        "gauss_residual": d["gauss_residual"],
        "continuity_residual": d["continuity_residual"],
        "energy": d["energy"], "sigma": d["sigma"]}}
    return summary, csvs


def _run_limit_check(cfg: SolverConfig):
    grid, spec, params = _functional_setup(cfg)
    rep = limit_equivalence_check(spec, params, grid,
                                  tol=cfg[("solver", "tol")])
    summary = {
        "omega_functional": rep.omega_functional,
        "omega_line": rep.omega_line,
        "omega_diff": rep.omega_diff,
        "max_psi_diff": rep.max_psi_diff,
        "max_potential_diff": rep.max_at_diff,
        "source_curvature_consistent": rep.source_curvature_consistent,
        "repulsive_fraction": rep.repulsive_fraction,
    }
    return summary, {}


def _run_verify(cfg: SolverConfig):
    reports = verify_mod.run_all(seed=cfg[("experiment", "seed")])
    summary = {
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return summary, {}


_RUNNERS = {
    "sn-ground": _run_sn_ground,
    "sn-evolve": _run_sn_evolve,
    "functional-stationary": _run_functional_stationary,
    "functional-evolve": _run_functional_evolve,
    "limit-check": _run_limit_check,
    "verify": _run_verify,
}


def run(cfg: SolverConfig, *, stamp: bool = True) -> int:
    """Execute the configured experiment; writes summary.json, CSVs, and
    config.echo into the output directory. Returns the exit status."""
    outdir = cfg[("output", "directory")]
    formats = {f.strip() for f in cfg[("output", "formats")].split(",") if f.strip()}
    os.makedirs(outdir, exist_ok=True)
    try:
        summary, csvs = _RUNNERS[cfg.experiment](cfg)
    except Exception as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    payload = {
        "experiment": cfg.experiment,
        "seed": cfg[("experiment", "seed")],
        "results": _json_safe(summary),
    }
    if stamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if "json" in formats:
        with open(os.path.join(outdir, "summary.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "csv" in formats:
        for name, cols in csvs.items():
            _write_csv(os.path.join(outdir, name), cols)
    with open(os.path.join(outdir, "config.echo"), "w") as fh:
        fh.write(cfg.echo_text())
    if cfg.experiment == "verify" and not summary["all_passed"]:
        return 2
    return 0


def _format_report_table(reports) -> str:
    lines = [f"{'check':44s} {'status':8s} tolerance"]
    for r in reports:
        lines.append(f"{r.name:44s} {'PASS' if r.passed else 'FAIL':8s} "
                     f"{r.tolerance:.1e}")
        for label, v in r.measured:
            lines.append(f"    {label:40s} {v: .6e}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlgauge",
        description="config-driven runner for the gauge-coupled nonlinear "
                    "Schrodinger solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_ver = sub.add_parser("verify", help="run the structural check suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--output", default=None,
                       help="directory for the JSON report array")
    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return 1
        cfg, errors = validate(text)
        if errors:
            for e in errors:
                sys.stderr.write(f"config error: {e}\n")
            return 1
        if args.command == "validate":
            print("config ok:", cfg.experiment)
            return 0
        return run(cfg)

    # verify
    reports = verify_mod.run_all(seed=args.seed)
    print(_format_report_table(reports))
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        with open(os.path.join(args.output, "verify_report.json"), "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 2


if __name__ == "__main__":
    sys.exit(main())
