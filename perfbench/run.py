"""nlgauge benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The seed draws the workload's config (see workloads.py), which is saved
with every result under `.perfbench/<workload>/seed-<N>/` and can be
replayed with

    PYTHONPATH=src python3 -m nlgauge.cli run .perfbench/<W>/seed-<N>/config.ini

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer ones (see NOTES.md for both lists).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, with units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlgauge" / "cli.py").is_file():
        sys.stderr.write(f"error: no nlgauge sources under {ROOT / 'src'}\n")
        return 2

    results = ROOT / ".perfbench" / args.workload / f"seed-{args.seed}"
    results.mkdir(parents=True, exist_ok=True)
    outdir = (results / "output").relative_to(ROOT)
    text, params = workloads.make_config(args.workload, args.seed, str(outdir))
    config = results / "config.ini"
    config.write_text(text)
    (results / "params.json").write_text(json.dumps(params, sort_keys=True) + "\n")

    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        "--workload", args.workload, "--results", str(results),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       stdout=subprocess.DEVNULL,
                       timeout=WORKER_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: worker: {exc}\n")
        return 1
    with open(results / "worker.json") as fh:
        w = json.load(fh)
    for failure in w["failures"]:
        sys.stderr.write(f"failed: {failure}\n")
    if w["negative_controls_accepted"]:
        sys.stderr.write(f"gate accepted negative controls "
                         f"{w['negative_controls_accepted']}\n")
    if not w["solve_s"] or (args.trace and not w["traced_solve_s"]):
        sys.stderr.write("error: no solve passed; nothing to report\n")
        return 1

    if args.trace:
        values = w["per_layer"]
    else:
        for key in ("solve_s", "setup_s", "solve_ref_s", "setup_ref_s"):
            q = _quartiles(w[key])
            print(f"# {key}: median {statistics.median(w[key]):.4f} s, quartiles "
                  f"{q[0]:.4f} / {q[2]:.4f} s, n = {len(w[key])}")
        values = {
            "solve_s": statistics.median(w["solve_ref_s"]),
            "setup_s": statistics.median(w["setup_ref_s"]),
            "peak_rss_mb": w["peak_rss_mb"],
            "success_ratio": (w["attempted"] - w["failed"]) / w["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(args.trace)}
    env = w["environment"]
    print(f"# numpy {env['numpy']}, scipy {env['scipy']}, {env['blas_config']}, "
          f"threads {env['thread_env']}, nproc {env['nproc']}, {env['cpu_model']}")
    line = {
        "correct": w["failed"] == 0 and w["negative_controls_accepted"] == [],
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    with open(results / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(dict(line, worker=w), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
