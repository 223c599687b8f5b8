"""Self-check of the benchmark itself; about ten seconds on one core.

    python3 perfbench/selfcheck.py

Checks that
  * every gate passes a good result and rejects each of its negative
    controls;
  * a traced run of every workload (on reduced sizes) emits exactly the
    per-layer metrics BENCHMARK.json declares, and its span self times add
    up to the total of its root spans;
  * radial-ground makes no grids, numerics or gaugeops calls, and
    multisite-stationary no sn calls;
  * `run.py --trace 0` emits exactly the declared end-to-end metrics,
    each with its declared unit and a positive value.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402
import worker  # noqa: E402  (pins BLAS threads before numpy loads)

SMALL = {
    "radial-ground": {"count": 400},
    "multisite-stationary": {"count": 9},
    "line-evolve": {"count": 101, "steps": 400},
    "sn-line-evolve": {"count": 301, "steps": 200},
}

# Results measured on full-size runs; each passes its gate.
GOOD = {
    "radial-ground": ({"coupling": 1.0},
                      {"relative_gap": 2.7e-7, "energy_scf": -0.1627774}, None),
    "multisite-stationary": ({"tol": 1e-11, "max_scf": 300},
                             {"eig_residual": 5.2e-12, "gauss_residual": 1.6e-14,
                              "iterations": 30}, None),
    "line-evolve": ({}, {"norm_drift": 3.7e-13, "gauss_residual_final": 8.9e-6,
                         "continuity_residual_final": 2.3e-5},
                    {"sigma": [1.0, 0.8, 0.6, 0.9]}),
    "sn-line-evolve": ({}, {"norm_drift": 1.4e-14, "energy_drift": 1.2e-7,
                            "shrank": True}, None),
}

# Layers a workload must not call at all.
UNTOUCHED = {
    "radial-ground": ("grids.", "numerics.", "gaugeops."),
    "multisite-stationary": ("sn.",),
}


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"FAIL: {what}")
    print(f"ok    {what}")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_gates() -> None:
    for name, (params, res, series) in GOOD.items():
        check(workloads.check(name, params, res, series) == [],
              f"{name}: gate passes a good result")
        accepted = workloads.accepted_negative_controls(name, params, res, series)
        n = len(workloads.WORKLOADS[name][2])
        check(accepted == [], f"{name}: gate rejects all {n} negative controls")


def check_traced(tmp: Path) -> None:
    layer_units = declared("per_layer")
    for name, size in SMALL.items():
        text, params = workloads.make_config(name, 0, str(tmp / name), sizes=size)
        solver = worker.Solver(name, text, params)
        out = worker.run_traced(solver, 0.0, tmp / f"{name}-spans.npz")
        m = out["per_layer"]
        check(set(m) == set(layer_units),
              f"{name}: traced run emits exactly the declared per-layer metrics "
              f"(missing {sorted(set(layer_units) - set(m))}, "
              f"extra {sorted(set(m) - set(layer_units))})")
        check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in m.values()),
              f"{name}: per-layer values are finite numbers")
        total, selfsum = m["trace.root_total_s"], m["trace.self_sum_s"]
        check(total > 0 and abs(total - selfsum) <= 1e-9 * total,
              f"{name}: self times add up to the span total "
              f"({selfsum:.9f} vs {total:.9f} s)")
        for prefix in UNTOUCHED.get(name, ()):
            nonzero = [k for k in m if k.startswith(prefix) and m[k] != 0]
            check(not nonzero, f"{name}: no {prefix}* activity ({nonzero})")


def check_end_to_end() -> None:
    units = declared("end_to_end")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "sn-line-evolve", "--seed", "0",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"run.py --trace 0 exits 0 ({proc.stderr.strip()})")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          "result line has exactly correct, attempted, failed, metrics")
    m = line["metrics"]
    check(set(m) == set(units), "run.py emits exactly the declared end-to-end metrics")
    for key, unit in units.items():
        check(m[key]["unit"] == unit and m[key]["value"] > 0,
              f"{key} = {m[key]['value']:.6g} {m[key]['unit']}")


def main() -> int:
    check_gates()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        check_traced(Path(tmp))
    check_end_to_end()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
