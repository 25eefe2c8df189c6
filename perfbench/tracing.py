"""Span tracing of superdir's layers from outside the package.

``Tracer.install`` replaces the public functions of each layer, in every
superdir module namespace that holds them, with wrappers that record a span
(name, start, end, parent, thread id, operation index) plus a few counts.
Spans stay in memory and are written once, when the traced process ends.
``layer_metrics`` turns the spans of a run into the per-layer metrics.

A call into a layer from inside the same layer (coupled_beamforming calling
coupled_directivity, evaluate_array_pattern calling evaluate) is not a new
span, so ``calls`` counts entries into the layer.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import statistics
import sys
import threading
import time
import warnings

ILL_CONDITIONED = 1e12  # cond(Z) above which beamform warns about lost precision

# Per-layer metrics: name -> (unit, better). Counts and times are per operation.
PER_LAYER = {
    "arraymodel.pattern.calls": ("count", "lower"),
    "arraymodel.pattern.busy_s": ("s", "lower"),
    "arraymodel.pattern.directions": ("count", "lower"),
    "arraymodel.steering.calls": ("count", "lower"),
    "arraymodel.steering.busy_s": ("s", "lower"),
    "radiation.impedance.calls": ("count", "lower"),
    "radiation.impedance.busy_s": ("s", "lower"),
    "radiation.impedance.self_s": ("s", "lower"),
    "radiation.impedance.ill_conditioned": ("count", "lower"),
    "radiation.impedance.nodes_per_z": ("count", "lower"),
    "beamform.calls": ("count", "lower"),
    "beamform.busy_s": ("s", "lower"),
    "beamform.raised": ("count", "lower"),
    "beamform.warnings": ("count", "lower"),
    "swe.basis.calls": ("count", "lower"),
    "swe.basis.busy_s": ("s", "lower"),
    "swe.basis.bytes_computed": ("bytes", "lower"),
    "swe.basis.redundant_share": ("ratio", "lower"),
    "coupling.fit.calls": ("count", "lower"),
    "coupling.fit.busy_s": ("s", "lower"),
    "coupling.fit.self_s": ("s", "lower"),
    "coupling.estimate.busy_s": ("s", "lower"),
    "coupling.synth.busy_s": ("s", "lower"),
    "coupling.residual_max": ("ratio", "lower"),
    "fileio.read.calls": ("count", "lower"),
    "fileio.read.busy_s": ("s", "lower"),
    "fileio.read.bytes": ("bytes", "lower"),
    "fileio.write.busy_s": ("s", "lower"),
    "fileio.write.bytes": ("bytes", "lower"),
    "sweep.points": ("count", "higher"),
    "sweep.flagged": ("count", "lower"),
    "sweep.workers": ("count", "higher"),
    "sweep.busy_share": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _shape_size(*arrays) -> int:
    import numpy as np

    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _file_bytes(target) -> int:
    if isinstance(target, (str, bytes, os.PathLike)):
        try:
            return os.path.getsize(target)
        except OSError:
            return 0
    return 0


def _basis_extra(args, kwargs, result):
    import numpy as np

    directions = np.ascontiguousarray(args[0] if args else kwargs["directions"], dtype=float)
    truncation = int(args[1] if len(args) > 1 else kwargs["truncation"])
    grid = hashlib.blake2b(directions.tobytes(), digest_size=16).hexdigest()
    # computed, not measured: complex128 entries of the (2P x 2N(N+2)) matrix
    return {"key": f"{grid}:{truncation}", "bytes": int(result.size) * 16}


def _write_extra(args, kwargs, result):
    if isinstance(result, str):
        return {"bytes": len(result.encode())}
    return {"bytes": _file_bytes(args[0] if args else None)}


def _read_extra(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else None)}


def _sweep_extra(args, kwargs, result):
    return {"points": len(result), "flagged": sum(1 for row in result if row.note)}


# (module, attribute or Class.method, layer, extra-count function)
TARGETS = (
    ("superdir.arraymodel", "ElementPattern.evaluate", "arraymodel.pattern",
     lambda a, k, r: {"directions": _shape_size(a[1], a[2])}),
    ("superdir.arraymodel", "ElementPattern.polarized", "arraymodel.pattern",
     lambda a, k, r: {"directions": _shape_size(a[1], a[2])}),
    ("superdir.arraymodel", "evaluate_array_pattern", "arraymodel.pattern",
     lambda a, k, r: {"directions": _shape_size(a[3], a[4])}),
    ("superdir.arraymodel", "steering_vector", "arraymodel.steering", None),
    ("superdir.radiation", "impedance_matrix", "radiation.impedance",
     lambda a, k, r: {"ill": int(not r.condition_number <= ILL_CONDITIONED)}),
    ("superdir.beamform", "optimal_beamforming", "beamform", None),
    ("superdir.beamform", "coupled_beamforming", "beamform", None),
    ("superdir.beamform", "coupled_directivity", "beamform", None),
    ("superdir.beamform", "gain", "beamform", None),
    ("superdir.beamform", "gain_optimal_beamforming", "beamform", None),
    ("superdir.swe", "basis_matrix", "swe.basis", _basis_extra),
    ("superdir.coupling", "build_coefficient_set", "coupling.fit", None),
    ("superdir.coupling", "estimate_coupling", "coupling.estimate",
     lambda a, k, r: {"residual": float(r.estimation_residual or 0.0)}),
    ("superdir.coupling", "isolated_fields_synthetic", "coupling.synth", None),
    ("superdir.coupling", "synthesize_coupled_fields", "coupling.synth", None),
    ("superdir.fileio", "read_field_samples", "fileio.read", _read_extra),
    ("superdir.fileio", "read_coupling", "fileio.read", _read_extra),
    ("superdir.fileio", "read_coefficients", "fileio.read", _read_extra),
    ("superdir.fileio", "read_config", "fileio.read", _read_extra),
    ("superdir.fileio", "write_field_samples", "fileio.write", _write_extra),
    ("superdir.fileio", "write_coupling", "fileio.write", _write_extra),
    ("superdir.fileio", "write_coefficients", "fileio.write", _write_extra),
    ("superdir.fileio", "write_sweep_rows", "fileio.write", _write_extra),
    ("superdir.fileio", "sweep_rows_to_csv", "fileio.write", _write_extra),
    ("superdir.sweep", "run_sweep", "sweep", _sweep_extra),
    ("superdir.cli", "main", "cli.main", None),
)


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside superdir.beamform."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.record_warning()
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, thread, op, raised, extra]
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient = None  # open run_sweep span: parent of spans in its pool threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, start, end, extra=None):
        """Record a span measured by the caller, inside the open span if any."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        self.spans.append([next(self._ids), name, start, end, parent,
                           threading.get_ident(), self.op, False, extra or {}])

    def record_warning(self):
        now = time.perf_counter()
        self.span("beamform.warning", now, now)

    def wrap(self, layer, fn, extra_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else self._ambient
            sid = next(self._ids)
            stack.append((sid, layer))
            if layer == "sweep":
                self._ambient = sid
            raised = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if layer == "sweep":
                    self._ambient = None
                extra = extra_fn(args, kwargs, result) if (extra_fn and not raised) else {}
                self.spans.append([sid, layer, start, end, parent, threading.get_ident(),
                                   self.op, raised, extra])

        return wrapper

    def install(self):
        """Wrap every target in every loaded superdir module that refers to it."""
        import superdir.beamform

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "superdir" or n.startswith("superdir."))]
        for module_name, attr, layer, extra_fn in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth), extra_fn))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(layer, original, extra_fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        superdir.beamform.warnings = _CountingWarnings(self)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, op_walls, untraced_op_s, import_s):
    """Per-layer metrics (per operation) from the spans of the traced operations.

    ``op_walls`` maps each traced operation index to its wall time;
    ``untraced_op_s`` is the median untraced operation time of the same run.
    """
    ops = len(op_walls)
    spans = [s for s in spans if s[6] in op_walls]
    children = {}  # span ids restart in every traced process, so key them by operation
    for s in spans:
        if s[4] is not None:
            children.setdefault((s[6], s[4]), []).append(s)

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        kids = children.get((s[6], s[0]), [])
        return dur(s) - _union_length([(max(k[2], s[2]), min(k[3], s[3])) for k in kids])

    named = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def per_op(value):
        return value / ops if ops else 0.0

    def layer(name):
        return named.get(name, [])

    out = {}
    for name in ("arraymodel.pattern", "arraymodel.steering", "radiation.impedance", "beamform",
                 "swe.basis", "coupling.fit", "fileio.read"):
        out[f"{name}.calls"] = per_op(len(layer(name)))
    for name in ("arraymodel.pattern", "arraymodel.steering", "radiation.impedance", "beamform",
                 "swe.basis", "coupling.fit", "coupling.estimate", "coupling.synth",
                 "fileio.read", "fileio.write", "cli.main"):
        out[f"{name}.busy_s"] = per_op(sum(dur(s) for s in layer(name)))
    for name in ("radiation.impedance", "coupling.fit", "cli.main"):
        out[f"{name}.self_s"] = per_op(sum(self_time(s) for s in layer(name)))

    pattern = layer("arraymodel.pattern")
    out["arraymodel.pattern.directions"] = per_op(sum(s[8].get("directions", 0) for s in pattern))
    impedance = layer("radiation.impedance")
    out["radiation.impedance.ill_conditioned"] = per_op(sum(s[8].get("ill", 0) for s in impedance))
    # computed: pattern directions evaluated inside impedance spans, per Z
    z_ids = {(s[6], s[0]) for s in impedance}
    nodes = sum(s[8].get("directions", 0) for s in pattern if (s[6], s[4]) in z_ids)
    out["radiation.impedance.nodes_per_z"] = nodes / len(impedance) if impedance else 0.0

    out["beamform.raised"] = per_op(sum(1 for s in layer("beamform") if s[7]))
    out["beamform.warnings"] = per_op(len(named.get("beamform.warning", [])))

    basis = layer("swe.basis")
    out["swe.basis.bytes_computed"] = per_op(sum(s[8].get("bytes", 0) for s in basis))
    seen = set()
    repeats = 0
    for s in sorted(basis, key=lambda s: s[2]):
        key = (s[6], s[8].get("key"))
        repeats += key in seen
        seen.add(key)
    out["swe.basis.redundant_share"] = repeats / len(basis) if basis else 0.0

    residuals = [s[8].get("residual", 0.0) for s in layer("coupling.estimate")]
    out["coupling.residual_max"] = max(residuals, default=0.0)

    out["fileio.read.bytes"] = per_op(sum(s[8].get("bytes", 0) for s in layer("fileio.read")))
    out["fileio.write.bytes"] = per_op(sum(s[8].get("bytes", 0) for s in layer("fileio.write")))

    sweeps = layer("sweep")
    out["sweep.points"] = per_op(sum(s[8].get("points", 0) for s in sweeps))
    out["sweep.flagged"] = per_op(sum(s[8].get("flagged", 0) for s in sweeps))
    workers = 0
    busy = wall_threads = 0.0
    for s in sweeps:
        kids = children.get((s[6], s[0]), [])
        threads = {k[5] for k in kids}
        workers = max(workers, len(threads))
        busy += sum(dur(k) for k in kids)
        wall_threads += dur(s) * max(len(threads), 1)
    out["sweep.workers"] = float(workers)
    out["sweep.busy_share"] = busy / wall_threads if wall_threads else 0.0

    out["cli.import_s"] = import_s
    traced_op_s = statistics.median(op_walls.values()) if op_walls else 0.0
    out["trace.op_s"] = traced_op_s
    out["trace.overhead_s"] = traced_op_s - untraced_op_s
    roots = {}
    for s in spans:
        if s[4] is None:
            roots[s[6]] = roots.get(s[6], 0.0) + dur(s)
    coverage = [roots.get(op, 0.0) / wall for op, wall in op_walls.items() if wall > 0]
    out["trace.coverage"] = statistics.median(coverage) if coverage else 0.0
    return {name: out[name] for name in PER_LAYER}
