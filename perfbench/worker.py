"""Runs one workload's solves through `nlgauge.cli` and writes the raw
measurements as JSON. Started by `run.py` in a fresh process with BLAS
pinned to one thread and `src/` as the only import path for nlgauge.

    python3 perfbench/worker.py --workload W --results DIR --seconds S --trace 0|1

DIR holds the generated `config.ini` and `params.json`; the worker writes
`worker.json` there, and with `--trace 1` the spans to `spans.npz`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is imported. On a 2-core host
# the default two OpenBLAS threads made multisite-stationary slower
# (5.5-6.5 s against 3.9-4.5 s), and one thread is the plain
# single-threaded baseline. Set-up probes inherit the setting.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SETUP_SAMPLES = 7

# Time to import the CLI and validate the config in a fresh interpreter:
# what every `nlgauge run` pays before the solve starts.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import nlgauge.cli
with open(sys.argv[1]) as fh:
    cfg, errors = nlgauge.cli.validate(fh.read())
elapsed = time.perf_counter() - t0
if errors:
    sys.exit("config rejected: " + "; ".join(errors))
print(repr(elapsed))
"""


def measure_setup(config: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


# Nominal wall time of `calibrate()` on the reference host, a 2-core Intel
# Xeon VM at 2.1 GHz, where it measured 0.08-0.13 s. End-to-end times are
# reported in seconds of that host at this speed:
# measured time x CALIBRATION_REF_S / calibration time.
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Wall time of a fixed reference kernel that does not touch nlgauge:
    an interpreter loop and small-array numpy calls. It allocates almost
    nothing and calls no BLAS, so it leaves `peak_rss_mb` alone."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1_000_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 201)
    for _ in range(6000):
        a = np.sqrt(a * a + 1e-3)
    c = np.linspace(0.0, 1.0, 20_000)
    for _ in range(1000):
        c *= 1.0000001
    return perf_counter() - t0


class HostClock:
    """Rescales a measured time by the host's speed at that moment, taken
    from the calibration kernel run just before and just after it."""

    def __init__(self):
        self.before = calibrate()

    def rescale(self, measured: float) -> float:
        after = calibrate()
        ref = CALIBRATION_REF_S / (0.5 * (self.before + after))
        self.before = after
        return measured * ref


def environment() -> dict:
    """Library versions, BLAS build, thread pin and host of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration", blas.get("version")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


class Solver:
    """One workload's config, run through `cli.run` and checked each time."""

    def __init__(self, workload: str, config_text: str, params: dict):
        from nlgauge import cli

        self.cli = cli
        self.workload = workload
        self.params = params
        self.config_text = config_text
        self.outdir = None
        self.attempted = 0
        self.failures: list[str] = []
        self.controls_accepted: list[int] | None = None

    def solve(self) -> float | None:
        """One `cli.run`; returns its wall time, or None when it failed."""
        self.attempted += 1
        cfg, errors = self.cli.validate(self.config_text)
        if errors:
            self.failures.append("; ".join(errors))
            return None
        self.outdir = Path(cfg[("output", "directory")])
        t0 = perf_counter()
        try:
            status = self.cli.run(cfg)
        except Exception as exc:  # a raised solve counts as failed
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - t0
        if status != 0:
            self.failures.append(f"cli.run returned {status}")
            return None
        bad = self._check()
        if bad:
            self.failures.append("; ".join(bad))
            return None
        return elapsed

    def _check(self) -> list[str]:
        with open(self.outdir / "summary.json") as fh:
            results = json.load(fh)["results"]
        csv_name = workloads.WORKLOADS[self.workload][1]
        series = workloads.read_series(str(self.outdir / csv_name)) if csv_name else None
        bad = workloads.check(self.workload, self.params, results, series)
        if not bad and self.controls_accepted is None:
            self.controls_accepted = workloads.accepted_negative_controls(
                self.workload, self.params, results, series)
        return bad

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir() if p.is_file())


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_plain(solver: Solver, seconds: float, config: Path) -> dict:
    """Solves until `seconds` of solve time have passed. The set-up probes
    go one before each of the first solves, so that they sample the whole
    run rather than one moment of it."""
    clock = HostClock()
    solve, setup, solve_ref, setup_ref = [], [], [], []
    spent = 0.0

    def probe():
        setup.append(measure_setup(config))
        setup_ref.append(clock.rescale(setup[-1]))

    while solver.attempted == 0 or spent < seconds:
        if len(setup) < SETUP_SAMPLES:
            probe()
        t0 = perf_counter()
        dt = solver.solve()
        spent += perf_counter() - t0
        if dt is None:
            clock.rescale(0.0)
        else:
            solve.append(dt)
            solve_ref.append(clock.rescale(dt))
    while len(setup) < SETUP_SAMPLES:
        probe()
    return {"solve_s": solve, "setup_s": setup,
            "solve_ref_s": solve_ref, "setup_ref_s": setup_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(solver: Solver, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced solves; per-layer metrics are the
    median over the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, per_solve, tables = [], [], [], []
    t0 = perf_counter()
    while solver.attempted == 0 or perf_counter() - t0 < seconds:
        dt = solver.solve()
        if dt is not None:
            plain.append(dt)
        tracer.reset()
        with tracing.installed(tracer):
            dt = solver.solve()
        if dt is not None:
            traced.append(dt)
            m = tracing.layer_metrics(tracer)
            m["cli.output_bytes"] = solver.output_bytes()
            per_solve.append(m)
            tables.append(tracer.table())
    if tables:
        tracing.write_spans(spans_path, tables, tracer.names)
    metrics = {k: _median([m[k] for m in per_solve]) for k in per_solve[0]} \
        if per_solve else {}
    metrics["trace.solve_s"] = _median(traced)
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    return {"per_layer": metrics, "solve_s": plain, "traced_solve_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--results", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import nlgauge
    src = (ROOT / "src").resolve()
    if Path(nlgauge.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"error: nlgauge imported from {nlgauge.__file__}, "
                         f"not from {src}\n")
        return 2
    text = (args.results / "config.ini").read_text()
    params = json.loads((args.results / "params.json").read_text())

    solver = Solver(args.workload, text, params)
    if args.trace:
        out = run_traced(solver, args.seconds, args.results / "spans.npz")
    else:
        out = run_plain(solver, args.seconds, args.results / "config.ini")
    out.update({
        "attempted": solver.attempted,
        "failed": len(solver.failures),
        "failures": solver.failures,
        "negative_controls_accepted": solver.controls_accepted,
        "environment": environment(),
    })
    with open(args.results / "worker.json", "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
