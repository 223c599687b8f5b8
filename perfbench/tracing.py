"""In-memory span tracing of nlgauge, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent). Modules bind names with `from .x import y`, so a
wrapper is installed at every binding site in every loaded `nlgauge`
module, not only in the defining one; `installed()` restores all of them.

A span's self time is its duration minus the durations of its direct
children; self times therefore add up to the total of the root spans.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layer modules whose public functions are traced; `verify` and `action`
# are checking paths that no workload runs.
LAYER_MODULES = ("grids", "numerics", "model", "gaugeops", "dynamics", "sn", "cli")

# Traced class members: (module, class, member). Trivial accessors such as
# `shape` and `ndim` are left out; they cost less than the wrapper.
CLASS_MEMBERS = (
    ("grids", "TensorGrid", "spacings"),
    ("grids", "TensorGrid", "volume"),
    ("grids", "TensorGrid", "coordinate"),
    ("grids", "TensorGrid", "meshes"),
    ("grids", "TensorGrid", "quad_weights"),
    ("grids", "TensorGrid", "link_weights"),
    ("grids", "TensorGrid", "check_field"),
    ("grids", "TensorGrid", "integrate"),
    ("grids", "TensorGrid", "inner"),
    ("grids", "TensorGrid", "norm"),
    ("grids", "TensorGrid", "boundary_mask"),
    ("model", "HamiltonianSpec", "potential"),
    ("model", "HamiltonianSpec", "site_potential_total"),
)

# Private functions traced for a count: `_rk4_shoot_u` is one RK4 shot.
PRIVATE_FUNCTIONS = (("sn", "_rk4_shoot_u"),)


class Tracer:
    """Span store with parent links, plus counters filled by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, pre=None, post=None):
        """Wrapper of `fn` that records a span named `name`.

        `pre(args, kwargs)` may replace the arguments; `post(args, kwargs,
        result)` may read the result. Both run inside the span.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                if pre is not None:
                    args, kwargs = pre(args, kwargs)
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, kwargs, result)
                return result
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def table(self) -> dict:
        """Spans as arrays, with duration and self time per span."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        return {"name_id": name_id, "parent": parent, "start": start,
                "end": end, "duration": dur, "self": dur - covered}


def _hooks(tracer: Tracer) -> dict:
    """Per-function hooks that read iteration counts the spans cannot show."""
    counts = tracer.counts

    def count_matvecs(args, kwargs):
        op = kwargs["op_apply"] if "op_apply" in kwargs else args[0]

        def counted(v):
            counts["numerics.smallest_eigenpair.matvecs"] += 1
            return op(v)
        if "op_apply" in kwargs:
            return args, dict(kwargs, op_apply=counted)
        return (counted,) + tuple(args[1:]), kwargs

    def iterations(key):
        def post(args, kwargs, result):
            counts[key] += result.iterations
        return post

    def steps(args, kwargs, result):
        counts["dynamics.evolve_temporal_gauge.steps"] += kwargs["steps"] \
            if "steps" in kwargs else args[5]

    return {
        "numerics.smallest_eigenpair": (count_matvecs, None),
        "dynamics.stationary_solve": (None, iterations("dynamics.stationary_solve.scf_iters")),
        "dynamics.evolve_temporal_gauge": (None, steps),
        "sn.sn_ground_radial_shoot": (None, iterations("sn.sn_ground_radial_shoot.outer_iters")),
        "sn.sn_ground_radial_scf": (None, iterations("sn.sn_ground_radial_scf.scf_iters")),
    }


def _targets():
    """(owner, attribute, span name) for every traced function."""
    mods = {name: sys.modules[f"nlgauge.{name}"] for name in LAYER_MODULES}
    out = []
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                out.append((mod, attr, f"{layer}.{attr}"))
    for layer, attr in PRIVATE_FUNCTIONS:
        out.append((mods[layer], attr, f"{layer}.{attr}"))
    for layer, cls, attr in CLASS_MEMBERS:
        out.append((getattr(mods[layer], cls), attr, f"{layer}.{attr}"))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every target while the block runs; restore the originals after."""
    import nlgauge.cli  # noqa: F401  (loads every layer module)

    hooks = _hooks(tracer)
    loaded = [m for n, m in sys.modules.items()
              if n == "nlgauge" or n.startswith("nlgauge.")]
    patched = []
    try:
        for owner, attr, name in _targets():
            orig = owner.__dict__[attr]
            if isinstance(orig, property):
                new = property(tracer.wrap(name, orig.fget))
            else:
                new = tracer.wrap(name, orig, *hooks.get(name, (None, None)))
            setattr(owner, attr, new)
            patched.append((owner, attr, orig))
            if inspect.ismodule(owner):
                for mod in loaded:
                    for key, val in list(vars(mod).items()):
                        if val is orig and not (mod is owner and key == attr):
                            setattr(mod, key, new)
                            patched.append((mod, key, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since reset."""
    t = tracer.table()
    n_names = len(tracer.names)
    calls = np.bincount(t["name_id"], minlength=n_names)
    self_s = np.bincount(t["name_id"], weights=t["self"], minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def c(name):
        return int(calls[ids[name]]) if name in ids else 0

    def s(name):
        return float(self_s[ids[name]]) if name in ids else 0.0

    def layer_self(layer):
        return float(sum(self_s[i] for name, i in ids.items()
                         if name.startswith(layer + ".")))

    # CG iterations: Laplacian applications inside a Poisson solve. Spans
    # are single-threaded, so "inside" is containment in time.
    cg_iters = 0
    pois = t["name_id"] == ids.get("numerics.poisson_solve", -1)
    if pois.any():
        p_start, p_end = t["start"][pois], t["end"][pois]
        lap = t["name_id"] == ids.get("numerics.laplacian_apply", -1)
        l_start = t["start"][lap]
        j = np.searchsorted(p_start, l_start, side="right") - 1
        cg_iters = int(np.count_nonzero((j >= 0) & (l_start < p_end[np.maximum(j, 0)])))

    k = tracer.counts
    shots = c("sn._rk4_shoot_u")
    outer = k["sn.sn_ground_radial_shoot.outer_iters"]
    return {
        "grids.quad_weights.calls": c("grids.quad_weights"),
        "grids.boundary_mask.calls": c("grids.boundary_mask"),
        "grids.spacings.calls": c("grids.spacings"),
        "grids.integrate.calls": c("grids.integrate"),
        "grids.self_s": layer_self("grids"),
        "numerics.poisson_solve.calls": c("numerics.poisson_solve"),
        "numerics.poisson_solve.self_s": s("numerics.poisson_solve"),
        "numerics.poisson_solve.cg_iters": cg_iters,
        "numerics.smallest_eigenpair.calls": c("numerics.smallest_eigenpair"),
        "numerics.smallest_eigenpair.self_s": s("numerics.smallest_eigenpair"),
        "numerics.smallest_eigenpair.matvecs": k["numerics.smallest_eigenpair.matvecs"],
        "numerics.laplacian_apply.calls": c("numerics.laplacian_apply"),
        "numerics.laplacian_apply.self_s": s("numerics.laplacian_apply"),
        "numerics.self_s": layer_self("numerics"),
        "gaugeops.apply_hamiltonian_raw.calls": c("gaugeops.apply_hamiltonian_raw"),
        "gaugeops.apply_hamiltonian_raw.self_s": s("gaugeops.apply_hamiltonian_raw"),
        "gaugeops.link_phases.calls": c("gaugeops.link_phases"),
        "gaugeops.link_phases.self_s": s("gaugeops.link_phases"),
        "gaugeops.link_current.calls": c("gaugeops.link_current"),
        "gaugeops.gauss_residual.self_s": s("gaugeops.gauss_residual"),
        "gaugeops.gauss_solve_stationary.calls": c("gaugeops.gauss_solve_stationary"),
        "gaugeops.gauss_solve_stationary.self_s": s("gaugeops.gauss_solve_stationary"),
        "gaugeops.self_s": layer_self("gaugeops"),
        "model.site_potential_total.calls": c("model.site_potential_total"),
        "model.self_s": layer_self("model"),
        "dynamics.stationary_solve.self_s": s("dynamics.stationary_solve"),
        "dynamics.stationary_solve.scf_iters": k["dynamics.stationary_solve.scf_iters"],
        "dynamics.evolve_temporal_gauge.self_s": s("dynamics.evolve_temporal_gauge"),
        "dynamics.evolve_temporal_gauge.steps": k["dynamics.evolve_temporal_gauge.steps"],
        "dynamics.continuity_residual.calls": c("dynamics.continuity_residual"),
        "dynamics.continuity_residual.self_s": s("dynamics.continuity_residual"),
        "dynamics.self_s": layer_self("dynamics"),
        "sn.sn_ground_radial_shoot.self_s": s("sn.sn_ground_radial_shoot"),
        "sn.sn_ground_radial_shoot.outer_iters": outer,
        "sn.rk4_shots": shots,
        "sn.rk4_shots_per_outer": shots / outer if outer else 0.0,
        "sn.sn_ground_radial_scf.self_s": s("sn.sn_ground_radial_scf"),
        "sn.sn_ground_radial_scf.scf_iters": k["sn.sn_ground_radial_scf.scf_iters"],
        "sn.sn_evolve_1d.self_s": s("sn.sn_evolve_1d"),
        "sn.solve_phi_grav.calls": c("sn.solve_phi_grav"),
        "sn.poisson_1d_neumann.self_s": s("sn.poisson_1d_neumann"),
        "sn.self_s": layer_self("sn"),
        "cli.run.self_s": s("cli.run"),
        "trace.spans": int(t["duration"].size),
        "trace.self_sum_s": float(t["self"].sum()),
        "trace.root_total_s": float(t["duration"][t["parent"] < 0].sum()),
    }


def write_spans(path, tables: list[dict], names: list[str]) -> None:
    """Write the spans (name, start, end, parent) of each traced solve."""
    arrays = {"names": np.array(names)}
    for k, tab in enumerate(tables):
        for key in ("name_id", "start", "end", "parent"):
            arrays[f"solve{k}_{key}"] = tab[key]
    np.savez_compressed(path, **arrays)
