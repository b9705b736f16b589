"""In-memory spans around the package's layers, installed from outside.

``install`` replaces each traced function at the module attribute its
callers look it up under (``functors.pushforward``, ``density.discretize``
and so on) and wraps the ``__post_init__`` validation of the measure
types.  A span records its name, parent span, op id, start and end on
the system-wide monotonic clock, so spans written by a CLI child process
nest inside the parent's op span.  Spans live in flat arrays, are
written out once at the end, and ``summarize`` turns them into per-layer
self times: a span's duration minus the durations of its children.
"""

from __future__ import annotations

import array
import json
import sys
from time import monotonic_ns

# Traced functions: (module, attribute, layer).  Each is wrapped in the
# namespace its callers use, which is why some appear under two modules.
FUNCTIONS = (
    ("cli", "run", "cli.self"),
    ("jsonio", "decode_measure", "jsonio.decode"),
    ("jsonio", "decode_function", "jsonio.decode"),
    ("jsonio", "decode_point_map", "jsonio.decode"),
    ("jsonio", "decode_density", "jsonio.decode"),
    ("jsonio", "decode_continuous_function", "jsonio.decode"),
    ("jsonio", "encode_measure", "jsonio.encode"),
    ("jsonio", "encode_counterexample_report", "jsonio.encode"),
    ("jsonio", "encode_convergence_report", "jsonio.encode"),
    ("measures", "evaluate", "measures.evaluate"),
    ("density", "evaluate_idempotent", "measures.evaluate"),
    ("functors", "classical_measure", "measures.construct"),
    ("jsonio", "classical_measure", "measures.construct"),
    ("convert", "normalize_idempotent", "measures.construct"),
    ("density", "normalize_idempotent", "measures.construct"),
    ("geometry", "dirac", "measures.construct"),
    ("functors", "verify_counterexample", "functors.verify"),
    ("functors", "pushforward", "functors.pushforward"),
    ("convert", "pushforward_classical", "functors.pushforward"),
    ("convert", "pushforward_idempotent", "functors.pushforward"),
    ("functors", "product_idempotent", "functors.product"),
    ("functors", "product_classical", "functors.product"),
    ("convert", "to_classical", "convert.to_classical"),
    ("convert", "to_idempotent", "convert.to_idempotent"),
    ("geometry", "approx_toward_point", "geometry.approx"),
    ("geometry", "approx_toward_measure", "geometry.approx"),
    ("geometry", "approx_coefficients", "geometry.approx"),
    ("geometry", "segment_distance", "geometry.approx"),
    ("geometry", "approx_distance_closed_form", "geometry.approx"),
    ("density", "convergence_report", "density.convergence_report"),
    ("density", "eval_density_measure", "density.reference"),
    ("density", "discretize", "density.discretize"),
    ("density", "sample_function", "density.discretize"),
)
# Types whose ``__post_init__`` validation counts as one construction.
CONSTRUCTORS = ("FiniteSpace", "TestFunction", "IdempotentMeasure", "ClassicalMeasure")
# Spans the benchmark opens itself, outside the package.
OWN_LAYERS = {
    "op": "bench.self",
    "cli.import": "cli.import",
    "json.loads": "stdlib.json",
}
LAYERS = (
    "bench.self",
    "stdlib.json",
    "cli.self",
    "cli.import",
    "jsonio.decode",
    "jsonio.encode",
    "measures.evaluate",
    "measures.construct",
    "functors.verify",
    "functors.pushforward",
    "functors.product",
    "convert.to_classical",
    "convert.to_idempotent",
    "geometry.approx",
    "density.convergence_report",
    "density.reference",
    "density.discretize",
)
MODULES = ("cli", "jsonio", "measures", "functors", "convert", "geometry", "density")
_LAYER_OF = {f"{m}.{a}": layer for m, a, layer in FUNCTIONS}
_LAYER_OF.update({f"measures.{c}.__post_init__": "measures.construct" for c in CONSTRUCTORS})
_LAYER_OF.update(OWN_LAYERS)


def _atoms(args, result) -> int:
    value = args[0] if result is None or isinstance(result, dict) else result
    for attr in ("space", "domain"):
        if hasattr(value, attr):
            return len(getattr(value, attr))
    return len(getattr(value, "breakpoints", ()))


# Counters kept at a span boundary: span name -> (counter, args, result -> amount).
_COUNTERS = {
    "jsonio.decode_measure": ("jsonio.atoms", _atoms),
    "jsonio.decode_function": ("jsonio.atoms", _atoms),
    "jsonio.decode_point_map": ("jsonio.atoms", _atoms),
    "jsonio.decode_density": ("jsonio.atoms", _atoms),
    "jsonio.decode_continuous_function": ("jsonio.atoms", _atoms),
    "jsonio.encode_measure": ("jsonio.atoms", _atoms),
    "density.discretize": ("density.grid_points", lambda args, _: args[1] + 1),
}


class Tracer:
    """Spans of one process, in flat arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("I")
        self.parent = array.array("i")
        self.op = array.array("I")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.current_op = 0
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(monotonic_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = monotonic_ns()
        self.stack.pop()

    def begin_op(self) -> int:
        self.current_op += 1
        return self.open("op")

    def count(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def error(self, name: str) -> None:
        self.errors[name] = self.errors.get(name, 0) + 1

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0)
            stack.append(index)
            starts.append(monotonic_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = monotonic_ns()
                stack.pop()
                self.error(name)
                raise
            ends[index] = monotonic_ns()
            stack.pop()
            if counter is not None:
                self.count(counter[0], counter[1](args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- persistence ---------------------------------------------------------

    def _columns(self):
        return (self.name, self.parent, self.op, self.start, self.end)

    def write(self, path) -> None:
        header = {
            "names": self.names,
            "spans": len(self.start),
            "errors": self.errors,
            "counts": self.counts,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(handle)

    def merge(self, path) -> None:
        """Append spans written by a child process under the current span."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header["spans"]
            columns = []
            for column in self._columns():
                part = array.array(column.typecode)
                part.fromfile(handle, count)
                columns.append(part)
        ids = [self.name_id(n) for n in header["names"]]
        offset = len(self.start)
        under = self.stack[-1]
        name, parent, _, start, end = columns
        self.name.extend(ids[i] for i in name)
        self.parent.extend(under if p < 0 else p + offset for p in parent)
        self.op.extend([self.current_op] * count)
        self.start.extend(start)
        self.end.extend(end)
        for key, value in header["errors"].items():
            self.errors[key] = self.errors.get(key, 0) + value
        for key, value in header["counts"].items():
            self.count(key, value)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package modules already imported."""
    for module, attr, _ in FUNCTIONS:
        mod = sys.modules.get(f"maxplusprob.{module}")
        if mod is not None:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), f"{module}.{attr}"))
    measures = sys.modules["maxplusprob.measures"]
    for cls_name in CONSTRUCTORS:
        cls = getattr(measures, cls_name)
        cls.__post_init__ = tracer.wrap(
            cls.__post_init__, f"measures.{cls_name}.__post_init__"
        )


def summarize(tracer: Tracer) -> dict:
    """Per-layer self time (ns), and constructions in all and inside verify."""
    import numpy as np

    name = np.frombuffer(tracer.name, dtype=np.uint32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = (
        np.frombuffer(tracer.end, dtype=np.int64)
        - np.frombuffer(tracer.start, dtype=np.int64)
    ).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    layer_of_name = np.array([LAYERS.index(_LAYER_OF[n]) for n in tracer.names])
    per_layer = np.bincount(layer_of_name[name], weights=own, minlength=len(LAYERS))

    is_construction = np.array([n.endswith(".__post_init__") for n in tracer.names])[name]
    in_verify = np.array([n == "functors.verify_counterexample" for n in tracer.names])[name]
    while True:  # parents precede children, so flags settle within the depth
        spread = in_verify.copy()
        spread[nested] |= in_verify[parent[nested]]
        if (spread == in_verify).all():
            break
        in_verify = spread
    return {
        "self_ns": {layer: float(v) for layer, v in zip(LAYERS, per_layer)},
        "constructions": int(is_construction.sum()),
        "verify_constructions": int((is_construction & in_verify).sum()),
    }
