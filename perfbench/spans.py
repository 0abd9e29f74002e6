"""Spans recorded around the calls into qnn's public functions.

The tracer replaces every binding of a traced function inside the loaded
``qnn`` modules (for example ``qnn.trainer.forward_batch`` as well as
``qnn.network.forward_batch``) with a wrapper that records one span per
call: name, start, end, parent span and operation id.  Spans are kept in
flat arrays while the run is measured and written out once it ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

import numpy_baseline

# Layer (module) -> public functions traced in it.
LAYERS = {
    "cli": ("main",),
    "trainer": ("train",),
    "network": (
        "forward_batch",
        "backward_batch",
        "set_trainable_values",
        "trainable_values",
        "to_json",
        "from_json",
    ),
    "neurons": ("preactivation",),
    "polynomials": ("factor_polynomial", "bernstein_coeffs"),
    "builders": (
        "build_poly_net",
        "build_deep_radial",
        "build_shallow_radial",
        "build_factorization_trainable",
        "radial_profile",
    ),
    "oracles": ("horner", "bernstein_direct", "grid_l1"),
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
# Calls whose network shape is recorded for flop counts and the numpy baseline.
SHAPED = ("network.forward_batch", "network.backward_batch")
# One-hidden-layer nets of the wide-train workload, reported per kind and width.
WIDE_TAGS = ("quadratic_w8", "quadratic_w32", "conventional_w8", "conventional_w32")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.us_per_call", "us")]
    out.append(("polynomials.factor_polynomial.failures", "count"))
    for name in SHAPED:
        out += [(f"{name}.us_per_call.{tag}", "us") for tag in WIDE_TAGS]
        out += [(f"{name}.flops_computed", "flop"), (f"{name}.bytes_computed", "B")]
    out += [("network.bare_numpy_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.shape = array("i")  # index into self.shapes, -1 when not recorded
        self.shapes: list = []
        self._shape_ids: dict = {}
        self._stack = [-1]
        self._op = [-1]
        self._patched: list = []

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _wrap(self, fn, name_id: int, shaped: bool):
        name, start, end, parent = self.name, self.start, self.end, self.parent
        op, error, shape, stack, op_box = self.op, self.error, self.shape, self._stack, self._op
        perf = time.perf_counter
        shape_of = self._shape_id

        def traced(*args, **kwargs):
            i = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(op_box[0])
            error.append(0)
            shape.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = perf()
                stack.pop()
            if shaped:
                shape[i] = shape_of(name_id, args)
            return result

        return traced

    def _shape_id(self, name_id: int, args) -> int:
        net, X = args[0], args[1]
        key = (SPAN_NAMES[name_id], numpy_baseline.net_shape(net, len(X)))
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._shape_ids[key] = len(self.shapes)
            self.shapes.append(key)
        return sid

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded qnn modules."""
        import qnn.builders

        modules = [m for n, m in list(sys.modules.items())
                   if n == "qnn" or n.startswith("qnn.")]
        for name_id, full in enumerate(SPAN_NAMES):
            layer, fn_name = full.split(".")
            home = qnn.builders if layer == "builders" else sys.modules[f"qnn.{layer}"]
            fn = getattr(home, fn_name)
            traced = self._wrap(fn, name_id, full in SHAPED)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "shape": np.frombuffer(self.shape, dtype=np.int32).copy(),
        }

    def write(self, path, t0: float) -> None:
        """Write the spans as columns; times are seconds from t0."""
        cols = self.arrays()
        cols["start"] -= t0
        cols["end"] -= t0
        np.savez(path, span_names=np.array(SPAN_NAMES), **cols)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics from the recorded spans, plus the numpy baseline."""
        cols = self.arrays()
        names, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        # One thread: sibling spans never overlap, so the part of a span its
        # children cover is the sum of their durations.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        out = {}
        for name_id, name in enumerate(SPAN_NAMES):
            mine = names == name_id
            calls = int(mine.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = float(self_time[mine].sum())
            out[f"{name}.us_per_call"] = float(dur[mine].sum()) / calls * 1e6 if calls else 0.0
        fp = SPAN_NAMES.index("polynomials.factor_polynomial")
        out["polynomials.factor_polynomial.failures"] = int(cols["error"][names == fp].sum())

        shape = cols["shape"]
        net_time = bare_time = 0.0
        for name in SHAPED:
            flops = nbytes = 0
            tag_time = dict.fromkeys(WIDE_TAGS, 0.0)
            tag_calls = dict.fromkeys(WIDE_TAGS, 0)
            for sid, (kind, net_shape) in enumerate(self.shapes):
                if kind != name:
                    continue
                mine = shape == sid
                calls = int(mine.sum())
                spent = float(dur[mine].sum())
                f, b = numpy_baseline.flops_bytes(kind, net_shape)
                flops += calls * f
                nbytes += calls * b
                net_time += spent
                bare_time += calls * numpy_baseline.time_bare(kind, net_shape)
                tag = numpy_baseline.wide_tag(net_shape)
                if tag in tag_time:
                    tag_time[tag] += spent
                    tag_calls[tag] += calls
            for tag in WIDE_TAGS:
                n = tag_calls[tag]
                out[f"{name}.us_per_call.{tag}"] = tag_time[tag] / n * 1e6 if n else 0.0
            out[f"{name}.flops_computed"] = flops
            out[f"{name}.bytes_computed"] = nbytes
        out["network.bare_numpy_ratio"] = net_time / bare_time if bare_time else 0.0
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        return out
