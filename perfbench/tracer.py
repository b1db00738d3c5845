"""Outside-in span tracer for the stabreg benchmark.

``Tracer.install()`` wraps the public entry points listed in ``ENTRY_POINTS``
without editing the package: every reference to an entry point held by a
``stabreg`` module -- a module global, a name copied by ``from .operators
import ...``, or a value in a module-level dict such as the CLI's command
table -- is rebound to a wrapper that records one span per call.  Spans stay
in memory (name, start, end, parent, workload id, attributes) and are written
out once, by ``dump``, when the run ends.

The tracer keeps one span stack, so it assumes a single calling thread; the
benchmark runs the CLI with ``--parallel 1``.
"""

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

# module -> entry points wrapped; the span name is "<module>.<entry point>".
ENTRY_POINTS = {
    "cli": ("build_model", "build_closed_loop", "cmd_spectrum",
            "cmd_dirichlet_map", "cmd_synthesize", "cmd_verify"),
    "maxreg": ("plateau_scan_multi", "imaginary_axis_bound",
               "maxreg_constants_multi", "lp_time_norm", "build_forcing_grid"),
    "_kernels": ("lti_norm_scan",),
    "operators": ("spectrum", "spectral_norm", "real_power", "resolvent",
                  "resolvent_perturbation_residual",
                  "adjoint_decomposition_residual", "decay_estimate"),
    "synthesis": ("reduce", "place_poles", "build_feedback"),
    "heat": ("synthesize_heat_feedback", "verify_stabilization",
             "gamma_bound_scan", "h5_bound_scan"),
    "coupled": ("synthesize_coupled_feedback", "verify_coupled_stabilization",
                "adjoint_bound_scan"),
    "matio": ("write_csv",),
}

# Entry points whose repeated calls on identical data are waste; their spans
# carry an argument fingerprint.  Arguments that change how the work is
# scheduled, not what it computes, are left out of the fingerprint.
FINGERPRINTED = {"maxreg.plateau_scan_multi", "maxreg.imaginary_axis_bound"}
_SCHEDULING_ARGS = {"workers"}
# Entry points whose arguments the wrapper reads.
_INSPECTED = FINGERPRINTED | {"_kernels.lti_norm_scan",
                              "maxreg.maxreg_constants_multi", "matio.write_csv"}


def _feed(h, obj):
    """Hash the data an argument carries, whatever wrapper holds it."""
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif obj is None or isinstance(obj, (bool, int, float, complex, str)):
        h.update(repr(obj).encode())
    elif hasattr(obj, "composed"):      # closed loops: the composed operator
        _feed(h, obj.composed)
    elif hasattr(obj, "entries"):       # operators
        _feed(h, np.asarray(obj.entries))
    elif hasattr(obj, "values") and hasattr(obj, "time_step"):   # forcings
        _feed(h, (np.asarray(obj.values), float(obj.time_step)))
    else:
        h.update(repr(obj).encode())


def fingerprint(arguments):
    """Digest of a call's bound arguments, scheduling arguments left out."""
    h = hashlib.sha256()
    for name, value in arguments.items():
        if name not in _SCHEDULING_ARGS:
            h.update(name.encode())
            _feed(h, value)
    return h.hexdigest()[:16]


def kernel_counts(a, e, p, f_cells, refine):
    """Work of one ``lti_norm_scan(A, E, P, f_cells, refine)`` call.

    Computed from the argument shapes, not measured.  With m cells, refine
    substeps, state size n and batch nb, each of the m*refine steps does two
    n x n by n x nb products (E y and A y), three column-norm passes and two
    additions; each cell adds the P f product and one norm.  A real flop is 1,
    a complex one 4.  Bytes count one pass over E and A plus the n x nb
    working arrays per step, at the operand element size.
    """
    m, n, nb = f_cells.shape
    steps = m * int(refine)
    is_complex = any(np.iscomplexobj(x) for x in (a, e, p, f_cells))
    flop_scale = 4 if is_complex else 1
    flops = flop_scale * (steps * (4 * n * n * nb + 8 * n * nb)
                          + m * (2 * n * n * nb + 2 * n * nb))
    item = 16 if is_complex else 8
    moved = item * steps * (2 * n * n + 6 * n * nb) + 8 * steps * 4 * nb
    return {"steps": steps, "col_steps": steps * nb, "flops": flops,
            "bytes": moved, "complex": int(is_complex)}


class Tracer:
    """Collects spans for one workload run; see the module docstring."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.missing = []
        self._stack = []

    def _wrap(self, name, func):
        tracer = self
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = {}
            if name in _INSPECTED:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                arguments = call.arguments
                if name in FINGERPRINTED:
                    attrs["fingerprint"] = fingerprint(arguments)
                elif name == "_kernels.lti_norm_scan":
                    attrs.update(kernel_counts(*arguments.values()))
                elif name == "maxreg.maxreg_constants_multi":
                    attrs["horizon"] = float(arguments["horizon"])
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "workload": tracer.workload, "parent": parent,
                    "start": time.perf_counter(), "end": None, "attrs": attrs}
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if name == "matio.write_csv" and os.path.exists(arguments["path"]):
                    attrs["bytes"] = os.path.getsize(arguments["path"])

        return wrapper

    def install(self):
        """Wrap every entry point and rebind every reference to it."""
        for mod_name, names in ENTRY_POINTS.items():
            try:
                module = importlib.import_module(f"stabreg.{mod_name}")
            except ModuleNotFoundError:
                module = None
            for name in names:
                full = f"{mod_name}.{name}"
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(full)
                    continue
                self._rebind(original, self._wrap(full, original))

    @staticmethod
    def _rebind(original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "stabreg" or mod_name.startswith("stabreg.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "missing": self.missing,
                       "spans": self.spans}, fh)


def aggregate(spans):
    """Per-layer metrics from a span list.

    ``<name>.calls`` counts spans, ``<name>.s`` sums their inclusive time and
    ``<name>.self_s`` subtracts the time of their direct child spans.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        name = span["name"]
        dur = span["end"] - span["start"]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        attrs = span["attrs"]
        if "horizon" in attrs:
            key = f"maxreg.horizon_T{attrs['horizon']:g}.s"
            out[key] = out.get(key, 0.0) + dur
        for counter in ("steps", "col_steps", "flops", "bytes"):
            if counter in attrs:
                key = f"{name}.{counter}"
                out[key] = out.get(key, 0) + attrs[counter]
        if "complex" in attrs:
            key = f"{name}.complex_calls"
            out[key] = out.get(key, 0) + attrs["complex"]
    for name in FINGERPRINTED:
        prints = [s["attrs"]["fingerprint"] for s in spans if s["name"] == name]
        if prints:
            out[f"{name}.unique_ratio"] = len(set(prints)) / len(prints)
    kernel = "_kernels.lti_norm_scan"
    if out.get(f"{kernel}.col_steps"):
        out[f"{kernel}.ns_per_col_step"] = 1e9 * out[f"{kernel}.s"] / out[f"{kernel}.col_steps"]
    return out
