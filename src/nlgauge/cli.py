"""Config-driven experiment runner.

Configs are plain INI text (key = value under [section] headers), one
experiment per invocation. Outputs land in the configured directory:
`summary.json` (no NaN or infinity), per-trajectory CSV with a header row and
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

import numpy as np

from . import verify as verify_mod
from .dynamics import evolve_temporal_gauge, stationary_solve
from .gaugeops import initialize_constraint
from .grids import RadialGrid, TensorGrid, UniformGrid1D
from .model import HamiltonianSpec, ModelParams
from .sn import (SNParams, limit_equivalence_check, sn_evolve_1d,
                 sn_ground_radial_scf, sn_ground_radial_shoot)

# the [output] formats tokens
_FORMATS = ("csv", "json")
# the experiments that start from the [initial] Gaussian packet
_PACKET_KINDS = ("sn-evolve", "functional-evolve")

# the rules (test, message) of the _SCHEMA rows, each written so that NaN fails
_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_FRACTION = (lambda v: 0 < v <= 1, "must be in (0, 1]")
_ZERO = (lambda v: v == 0, "must be 0: the uniform background is 1/volume, "
         "taken from the grid")

# section -> key -> (type, default[, rule]); None default means required.
# The [initial] rules hold for the packet kinds alone; the grid builders
# check [grid] and [radial]
_SCHEMA = {
    "experiment": {
        "kind": (str, None),
        "seed": (int, 0, _NONNEGATIVE),
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
        "coupling": (float, 1.0, _NONNEGATIVE),
        "background": (float, 0.0, _ZERO),
        "potential_coeffs": (str, "0, 0, 0.5"),
        "gradient_coupling": (float, 0.0, _NONNEGATIVE),
        "lattice_spacing": (float, 1.0, _POSITIVE),
    },
    "initial": {
        "center": (float, 1.0, _FINITE),
        "width": (float, 1.0, _POSITIVE),
        "momentum": (float, 0.0, _FINITE),
    },
    "solver": {
        "dt": (float, 0.005, _POSITIVE),
        "steps": (int, 400, _AT_LEAST_ONE),
        "tol": (float, 1e-10, _POSITIVE),
        "mixing": (float, 0.5, _FRACTION),
        "max_scf": (int, 300, _AT_LEAST_ONE),
        "record_every": (int, 1, _AT_LEAST_ONE),
    },
    "output": {
        "directory": (str, "out"),
        "formats": (str, "csv,json"),
    },
}


def _potential_coeffs(cfg: dict) -> tuple[float, ...]:
    raw = cfg[("physics", "potential_coeffs")]
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _formats(cfg: dict) -> set[str]:
    raw = cfg[("output", "formats")]
    return {tok.strip() for tok in raw.split(",") if tok.strip()}


def _echo_text(cfg: dict) -> str:
    cp = configparser.ConfigParser()
    for section in _SCHEMA:
        cp[section] = {}
    for (section, key), val in sorted(cfg.items()):
        cp[section][key] = str(val)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _hint(word: str, choices, form: str) -> str:
    """The did-you-mean suffix for an unknown `word`: the closest of
    `choices`, written by `form`, or nothing when none is close."""
    near = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {form.format(near[0])}?" if near else ""


def validate(text: str) -> tuple[dict | None, list[str]]:
    """Parse and fully validate config text into a dict from (section, key)
    to the typed value, defaults filled in; collects every error."""
    errors: list[str] = []
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        return None, [f"config parse error: {exc}"]

    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]"
                          + _hint(section, _SCHEMA, "[{}]"))
            continue
        for key, raw in cp[section].items():
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key '{key}' in [{section}]"
                              + _hint(key, _SCHEMA[section], "'{}'"))
                continue
            typ = _SCHEMA[section][key][0]
            try:
                values[(section, key)] = typ(raw)
            except ValueError:
                errors.append(f"[{section}] {key}: cannot parse {raw!r} as "
                              f"{typ.__name__}")

    def check(section, key, ok, msg):
        if not ok(values[(section, key)]):
            errors.append(f"[{section}] {key} {msg} (got {values[(section, key)]})")

    kind = values.get(("experiment", "kind"))
    if kind is not None and kind not in _RUNNERS:
        errors.append(f"[experiment] kind must be one of {', '.join(_RUNNERS)}"
                      + _hint(kind, _RUNNERS, "'{}'"))
    packet = kind in _PACKET_KINDS
    for section, keys in _SCHEMA.items():
        for key, (_, default, *rule) in keys.items():
            if (section, key) not in values:
                if default is None:
                    errors.append(f"[{section}] {key} is required")
                    continue
                values[(section, key)] = default
            if rule and (packet or section != "initial"):
                check(section, key, *rule[0])
    if kind in ("sn-evolve", "functional-evolve", "limit-check"):  # one site
        check("grid", "dim", lambda v: v == 1, f"must be 1 for {kind}")
    try:
        ModelParams(l=values[("physics", "l")])
    except ValueError as exc:
        errors.append(f"[physics] {exc}")
    # only the grid section the experiment reads is built; dim, bounds, node
    # counts and the point budget are checked by the grid constructors
    reads = {"sn-ground": (("radial", _radial_grid),),
             "sn-evolve": (("grid", _axis),), "verify": ()}
    for section, build in reads.get(kind, (("grid", _grid),)):
        try:
            build(values)
        except ValueError as exc:
            errors.append(f"[{section}] {exc}")
    if packet and not any(e.startswith(("[grid]", "[initial]")) for e in errors):
        # the packet may underflow on the grid, and a zero norm divides by
        # zero; what matters is whether the run can normalise it
        axis = _axis(values)
        with np.errstate(all="ignore"):
            psi = _initial_packet(values, axis)
        if not np.isfinite(psi).all():
            errors.append(f"[initial] packet at center {values[('initial', 'center')]}, "
                          f"width {values[('initial', 'width')]} "
                          f"has zero norm on [{axis.lower}, {axis.upper}]")
    formats = _formats(values)
    for fmt in sorted(formats - set(_FORMATS)):
        errors.append(f"[output] formats: unknown format '{fmt}'"
                      + _hint(fmt, _FORMATS, "'{}'"))
    if not formats:
        errors.append("[output] formats names no format; use csv and/or json")
    if not values[("output", "directory")]:
        errors.append("[output] directory is empty; name the directory for the outputs")
    try:
        coeffs = _potential_coeffs(values)
    except ValueError:
        errors.append("[physics] potential_coeffs: not a list of numbers")
    else:
        if not all(math.isfinite(c) for c in coeffs):
            errors.append(f"[physics] potential_coeffs must be finite (got {coeffs})")
    if errors:
        return None, errors
    return values, []


def _write_csv(path: str, columns: dict) -> None:
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()), strict=True)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


def _initial_packet(cfg: dict, axis: UniformGrid1D) -> np.ndarray:
    """The [initial] Gaussian packet on the nodes of `axis`, normalised by
    its trapezoid norm; not finite when that norm is zero. A width whose
    square overflows gives the flat plane wave."""
    center, width, momentum = (cfg[("initial", key)]
                               for key in ("center", "width", "momentum"))
    x = axis.nodes
    with np.errstate(over="ignore"):  # the same pow as Python's, but no raise
        width2 = np.float64(width) ** 2
    psi = np.exp(-((x - center) ** 2) / (4.0 * width2) + 1j * momentum * x)
    return psi / np.sqrt((axis.quad_weights() * np.abs(psi) ** 2).sum())


def _axis(cfg: dict) -> UniformGrid1D:
    return UniformGrid1D(*(cfg[("grid", key)] for key in ("lower", "upper", "count")))


def _grid(cfg: dict) -> TensorGrid:
    return TensorGrid.cube(*(cfg[("grid", key)]
                             for key in ("lower", "upper", "count", "dim")))


def _radial_grid(cfg: dict) -> RadialGrid:
    return RadialGrid(*(cfg[("radial", key)] for key in ("r_min", "r_max", "count")))


def _sn_params(cfg: dict) -> SNParams:
    return SNParams(coupling=cfg[("physics", "coupling")],
                    external_potential_coeffs=_potential_coeffs(cfg))


# ------------------------------------------------------------ experiments

def _run_sn_ground(cfg: dict):
    grid = _radial_grid(cfg)
    params = _sn_params(cfg)
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


def _run_sn_evolve(cfg: dict):
    axis = _axis(cfg)
    res = sn_evolve_1d(axis, _initial_packet(cfg, axis), _sn_params(cfg),
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


def _functional_setup(cfg: dict):
    grid = _grid(cfg)
    spec = HamiltonianSpec(potential_coeffs=_potential_coeffs(cfg),
                           gradient_coupling=cfg[("physics", "gradient_coupling")],
                           lattice_spacing=cfg[("physics", "lattice_spacing")])
    params = ModelParams(l=cfg[("physics", "l")])
    return grid, spec, params


def _run_functional_stationary(cfg: dict):
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
            "psi": st.psi,
            "a_t": st.a_t,
        }
    return summary, csvs


def _run_functional_evolve(cfg: dict):
    grid, spec, params = _functional_setup(cfg)
    psi0 = _initial_packet(cfg, grid.axes[0])
    traj = evolve_temporal_gauge(psi0, initialize_constraint(grid, psi0, params), spec, params,
                                 dt=cfg[("solver", "dt")],
                                 steps=cfg[("solver", "steps")],
                                 record_every=cfg[("solver", "record_every")],
                                 keep_snapshots=False)
    d = traj.diagnostics
    summary = {
        "norm_drift": float(np.abs(d["norm"] - d["norm"][0]).max()),
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


def _run_limit_check(cfg: dict):
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


def _run_verify(cfg: dict):
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


def _output_error(exc: OSError) -> int:
    sys.stderr.write(f"error: cannot write outputs: {exc}\n")
    return 1


def run(cfg: dict) -> int:
    """Execute the configured experiment; writes summary.json, CSVs, and
    config.echo into the output directory, which is created before the
    run. Returns the exit status; an OSError from creating the directory
    or writing into it is reported, with status 1."""
    outdir = cfg[("output", "directory")]
    kind = cfg[("experiment", "kind")]
    formats = _formats(cfg)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)
    try:
        summary, csvs = _RUNNERS[kind](cfg)
        # numpy scalars become Python ones; a NaN or infinity raises
        text = json.dumps({
            "experiment": kind,
            "seed": cfg[("experiment", "seed")],
            "results": summary,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }, indent=2, sort_keys=True, allow_nan=False, default=lambda o: o.item())
    except Exception as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    try:
        if "json" in formats:
            with open(os.path.join(outdir, "summary.json"), "w") as fh:
                fh.write(text + "\n")
        if "csv" in formats:
            for name, cols in csvs.items():
                _write_csv(os.path.join(outdir, name), cols)
        with open(os.path.join(outdir, "config.echo"), "w") as fh:
            fh.write(_echo_text(cfg))
    except OSError as exc:
        return _output_error(exc)
    if kind == "verify" and not summary["all_passed"]:
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
            print("config ok:", cfg[("experiment", "kind")])
            return 0
        return run(cfg)

    # verify; a bad --seed exits 1, as argparse's 2 means a failing check
    if args.seed < 0:
        sys.stderr.write(f"error: --seed must be >= 0 (got {args.seed})\n")
        return 1
    if args.output is not None:
        # before the suite runs, so that a bad directory fails at once
        try:
            os.makedirs(args.output, exist_ok=True)
        except OSError as exc:
            return _output_error(exc)
    reports = verify_mod.run_all(seed=args.seed)
    print(_format_report_table(reports))
    if args.output is not None:
        text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
        try:
            with open(os.path.join(args.output, "verify_report.json"), "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _output_error(exc)
    return 0 if all(r.passed for r in reports) else 2


if __name__ == "__main__":
    sys.exit(main())
