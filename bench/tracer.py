"""Outside-in tracing of bvflow's layers.

The tracer wraps every public function and public method of the layer
modules ``torus``, ``catalog``, ``kernels``, ``flow``, ``functionals`` and
``experiments``.  A wrapper replaces the original under every name a
bvflow module looks it up by (``functionals.wrap_half`` as well as
``torus.wrap_half``), so calls between modules are seen too.

Each call is one span: (name, start, end, parent).  Spans are kept in
memory while ``keep_spans`` is set and written out by the caller at the
end.  Self time is a span's length minus the time covered by its direct
child spans; it is summed per layer.  Counts are taken at the same
boundaries, on the outermost span of a layer (a flow-map ``density``
that calls ``log_jacobian`` counts its points once).  The time a counter
itself takes is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "bvflow"
LAYER_MODULES = ("torus", "catalog", "kernels", "flow", "functionals", "experiments")

# name -> layer for the names whose layer is finer than their module
_LAYER_OF = {
    "functionals.pair_integrals_multi": "functionals.pair",
    "flow.integrate_flow": "flow.integrate",
    "catalog.volume_quadrature": "catalog.quadrature",
    "catalog.strip_s_quadrature": "catalog.quadrature",
    "catalog.strip_points": "catalog.quadrature",
    "catalog.strip_frame": "catalog.quadrature",
    "catalog.surface_quadrature": "catalog.quadrature",
}
_EVAL_CLASSES = ("PiecewiseField", "JumpComponent", "TrigPolynomial")
_MAP_CLASSES = ("ExactFlowMap", "InterpolatedFlowMap", "DirectFlowMap")
_MAP_QUERIES = ("displacement", "position", "log_jacobian", "density")
_KERNEL_EVALS = ("rho", "d1_rho", "d2_rho")


def layer_of(qualname: str) -> str:
    """Layer of a wrapped name such as ``flow.ExactFlowMap.density``."""
    if qualname in _LAYER_OF:
        return _LAYER_OF[qualname]
    parts = qualname.split(".")
    module = parts[0]
    if len(parts) == 3:
        cls, meth = parts[1], parts[2]
        if module == "catalog" and cls in _EVAL_CLASSES:
            return "catalog.eval"
        if module == "flow" and cls in _MAP_CLASSES:
            return "flow.prepare" if meth == "prepare" else "flow.map"
    return module


def _rows(args):
    """Rows of the first array argument (points or nodes), else 1."""
    for a in args:
        if isinstance(a, np.ndarray):
            return a.shape[0] if a.ndim >= 2 else 1
    return 1


def _elems(args):
    for a in args:
        if isinstance(a, np.ndarray):
            return a.size
    return 1


def _rk4_steps(duration, step):
    """Nominal RK4 steps the solver takes over ``duration``."""
    remaining, n = abs(duration), 0
    while remaining > 1e-13:
        remaining -= min(step, remaining)
        n += 1
    return n


def strip_crossings(fld, pts, t_end):
    """Jump-surface crossings of each trajectory over [0, t_end], from the
    closed form of a strip field whose pieces are constant vectors with
    one common normal speed (zero for C and D)."""
    if not fld.jumps or t_end == 0.0:
        return 0
    n = np.asarray(fld.strip_normal, dtype=float)
    speeds = {float(pc.b(np.zeros((1, 2)))[0] @ n) for pc in fld.pieces}
    if max(abs(v) for v in speeds) < 1e-12:
        return 0
    if len(speeds) != 1:
        raise ValueError(f"field {fld.id}: no closed-form crossing count")
    travel = speeds.pop() * t_end
    s0 = np.mod(np.asarray(pts, dtype=float) @ n, 1.0)
    lo, hi = np.minimum(s0, s0 + travel), np.maximum(s0, s0 + travel)
    total = 0
    for b in fld.strip_bounds:
        total += int(np.sum(np.floor(hi - b) - np.floor(lo - b)))
    return total


class Tracer:
    """Wraps the layer modules of an imported bvflow package."""

    def __init__(self):
        self.active = True
        self.keep_spans = False
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # open frames: [child seconds, span index]
        self._depth = defaultdict(int)
        self._patches = []
        self._originals = {}
        self._pair_cache = {}
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)

    def snapshot(self):
        """Totals since the last snapshot; starts new ones (spans are kept)."""
        out = {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
               "counts": dict(self.counts)}
        for totals in (self.self_s, self.incl_s, self.counts):
            totals.clear()
        return out

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) of every public
        function and method of the layer modules."""
        for modname in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{modname}.{name}", mod, name, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, member in sorted(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if inspect.isfunction(member) or isinstance(
                            member, (classmethod, staticmethod)
                        ):
                            yield f"{modname}.{name}.{attr}", obj, attr, member

    def install(self):
        if self._patches:
            return
        package_modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for qualname, owner, attr, original in self._targets():
            self._originals[qualname] = original
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(qualname, original.__func__))
            else:
                wrapped = self._wrap(qualname, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            # the same function imported by name into other modules
            for mod in package_modules:
                for alias, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patches.append((mod, alias, original))
                        setattr(mod, alias, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def original(self, qualname):
        return self._originals[qualname]

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, qualname, fn):
        layer = layer_of(qualname)
        counter = self._counter_for(qualname, layer, fn)
        stack, depth, perf = self._stack, self._depth, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = depth[layer] == 0
            depth[layer] += 1
            span = -1
            if tracer.keep_spans:
                span = len(tracer.spans)
                tracer.spans.append([qualname, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                depth[layer] -= 1
                tracer.self_s[layer] += (t1 - t0) - frame[0]
                if outermost:
                    tracer.incl_s[layer] += t1 - t0
                if span >= 0:
                    tracer.spans[span][1:3] = [t0, t1]
                if ok and outermost and counter is not None:
                    counter(args, kwargs, result)
                if stack:
                    stack[-1][0] += perf() - t0
            return result

        return wrapper

    def _counter_for(self, qualname, layer, fn):
        counts = self.counts
        method = qualname.rsplit(".", 1)[-1]
        bind = inspect.signature(fn).bind
        if layer == "functionals.pair":
            def count(args, kwargs, result):
                a = bind(*args, **kwargs).arguments
                counts["functionals.pair.sweeps"] += 1
                counts["functionals.pair.pairs"] += self._pairs(
                    a["field"], a["kernel"], a["cfg"], a["times"])
            return count
        if layer == "flow.integrate":
            def count(args, kwargs, result):
                a = bind(*args, **kwargs).arguments
                fld, cfg, times = a["fld"], a["cfg"], a["times"]
                pts = np.atleast_2d(np.asarray(a["initial_points"], dtype=float))
                times = [float(t) for t in times]
                counts["flow.crossings"] += strip_crossings(fld, pts, max(times)) + \
                    strip_crossings(fld, pts, min(times))
                if cfg.method != "rk4_event":
                    return
                steps = 0
                for chain in (sorted(t for t in times if t > 0),
                              sorted((t for t in times if t < 0), reverse=True)):
                    now = 0.0
                    for t in chain:
                        steps += _rk4_steps(t - now, cfg.step)
                        now = t
                counts["flow.integrate.point_steps"] += steps * pts.shape[0]
            return count
        if layer == "flow.map" and method in _MAP_QUERIES:
            def count(args, kwargs, result):
                counts["flow.map.points"] += _rows(args[2:] + tuple(kwargs.values()))
            return count
        if layer == "kernels" and method in _KERNEL_EVALS:
            def count(args, kwargs, result):
                counts["kernels.nodes"] += _rows(args[1:] + tuple(kwargs.values()))
            return count
        if layer == "catalog.eval":
            def count(args, kwargs, result):
                counts["catalog.eval.points"] += _rows(args[1:] + tuple(kwargs.values()))
            return count
        if layer == "catalog.quadrature":
            def count(args, kwargs, result):
                counts["catalog.quadrature.calls"] += 1
            return count
        if layer == "torus":
            def count(args, kwargs, result):
                counts["torus.elems"] += _elems(args + tuple(kwargs.values()))
            return count
        if qualname == "experiments.run_scenario":
            def count(args, kwargs, result):
                counts["experiments.bytes_written"] += sum(
                    os.path.getsize(p) for p in result.values()
                )
            return count
        return None

    def _pairs(self, field, kernel, cfg, times):
        """(x, z, t) triples of one pair-engine sweep, from its inputs: the
        midpoint z-rule, and for strip fields one panel grid in the level
        coordinate per group of z-nodes with equal level shift."""
        key = (field.id, kernel.gamma, kernel.eta, cfg, len(times))
        if key not in self._pair_cache:
            z_quadrature = self.original("kernels.AnisotropicKernel.z_quadrature")
            z_pts, _ = z_quadrature(kernel, None, cfg.n_z, rule="midpoint")
            if field.strip_normal is None:
                per_t = cfg.n_x**2 * z_pts.shape[0]
            else:
                s_quadrature = self.original("catalog.strip_s_quadrature")
                shifts = np.round(cfg.epsilon * (z_pts @ np.asarray(field.strip_normal, float)), 13)
                uniq, sizes = np.unique(shifts, return_counts=True)
                per_t = 0
                for shift, size in zip(uniq, sizes):
                    s_nodes, _ = s_quadrature(
                        field, [b - float(shift) for b in field.strip_bounds],
                        cfg.nodes_per_panel,
                    )
                    per_t += s_nodes.size * cfg.n_x * int(size)
            self._pair_cache[key] = per_t * len(times)
        return self._pair_cache[key]


def layer_metrics(setup, passes):
    """Per-layer metrics: the traced set-up plus the median traced pass.

    ``setup`` and each entry of ``passes`` are :meth:`Tracer.snapshot`
    results.  Counts repeat exactly between passes; self times are
    medians.
    """
    def total(kind, key):
        median = statistics.median_low if kind == "counts" else statistics.median
        return setup[kind].get(key, 0) + median([p[kind].get(key, 0) for p in passes])

    def per(self_key, count_key, scale=1e9):
        n = total("counts", count_key)
        return total("self_s", self_key) * scale / n if n else 0.0

    m = {
        "functionals.pair.self_s": (total("self_s", "functionals.pair"), "s"),
        "functionals.pair.pairs": (total("counts", "functionals.pair.pairs"), "count"),
        "functionals.pair.ns_per_pair": (per("functionals.pair", "functionals.pair.pairs"), "ns"),
        "functionals.pair.sweeps": (total("counts", "functionals.pair.sweeps"), "count"),
        "flow.map.self_s": (total("self_s", "flow.map"), "s"),
        "flow.map.points": (total("counts", "flow.map.points"), "count"),
        "flow.map.ns_per_point": (per("flow.map", "flow.map.points"), "ns"),
        "flow.integrate.self_s": (total("self_s", "flow.integrate"), "s"),
        "flow.integrate.point_steps": (total("counts", "flow.integrate.point_steps"), "count"),
        "flow.integrate.ns_per_point_step": (
            per("flow.integrate", "flow.integrate.point_steps"), "ns"),
        "flow.crossings": (total("counts", "flow.crossings"), "count"),
        "flow.prepare.s": (total("incl_s", "flow.prepare"), "s"),
        "kernels.self_s": (total("self_s", "kernels"), "s"),
        "kernels.nodes": (total("counts", "kernels.nodes"), "count"),
        "kernels.ns_per_node": (per("kernels", "kernels.nodes"), "ns"),
        "catalog.eval.self_s": (total("self_s", "catalog.eval"), "s"),
        "catalog.eval.points": (total("counts", "catalog.eval.points"), "count"),
        "catalog.eval.ns_per_point": (per("catalog.eval", "catalog.eval.points"), "ns"),
        "catalog.quadrature.self_s": (total("self_s", "catalog.quadrature"), "s"),
        "catalog.quadrature.calls": (total("counts", "catalog.quadrature.calls"), "count"),
        "torus.self_s": (total("self_s", "torus"), "s"),
        "torus.elems": (total("counts", "torus.elems"), "count"),
        "torus.ns_per_elem": (per("torus", "torus.elems"), "ns"),
        "experiments.self_s": (total("self_s", "experiments"), "s"),
        "experiments.bytes_written": (total("counts", "experiments.bytes_written"), "B"),
    }
    return {k: {"value": v if isinstance(v, int) or math.isfinite(v) else 0.0, "unit": u}
            for k, (v, u) in m.items()}
