"""JSON encoding and schema-checked decoding of the library's value types.

Wire formats:

* measure: ``{"space": [...], "kind": "idempotent" | "classical",
  "weights": {label: number | "-inf", ...}}``; the string ``"-inf"``
  is the only spelling of BOTTOM.
* test function: ``{"space": [...], "values": {label: number, ...}}``
* point map: ``{"domain": [...], "codomain": [...],
  "map": {label: label, ...}}``
* piecewise-linear density or function:
  ``{"breakpoints": [[x, y], ...], "lipschitz": number}``

Decoders validate shape first and report the offending path.  A table's
keys may come in any order (``_in_space_order`` aligns them).
Value invariants (normalization, mass sums) are then enforced by the
type constructors and re-raised with the same path prefix.  A
constructor is also the bulk check of its elements, a table's values or
a piecewise document's pair shapes and numbers: only on a rejection are
they decoded one by one, to name the first bad one at its own path.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import is_

from .density import ContinuousTestFunction, ConvergenceReport, DensityMeasure
from .functors import CounterexampleReport, PointMap
from .measures import (
    FiniteSpace,
    IdempotentMeasure,
    Measure,
    TestFunction,
    classical_measure,
)
from .semiring import BOTTOM, MaxPlusValue, _floats, _of_kind, _shown

__all__ = [
    "SchemaError",
    "decode_continuous_function",
    "decode_density",
    "decode_function",
    "decode_measure",
    "decode_point_map",
    "encode_convergence_report",
    "encode_counterexample_report",
    "encode_measure",
]


# The one wire spelling of BOTTOM.
_BOTTOM_WIRE = "-inf"


class SchemaError(ValueError):
    """An input document does not match its schema; ``path`` locates the node."""

    def __init__(self, path: str, message: str):
        self.path = path or "$"
        super().__init__(f"{self.path}: {message}")


def _expect_object(node: object, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(path, f"expected an object, got {type(node).__name__}")
    return node


def _expect_keys(node: dict, path: str, keys: tuple[str, ...]) -> None:
    for key in keys:
        if key not in node:
            raise SchemaError(path, f"missing key {key!r}")
    for key in node:
        if key not in keys:
            raise SchemaError(f"{path}.{key}" if path else key, "unexpected key")


def _expect_string(node: object, path: str) -> str:
    if not isinstance(node, str):
        raise SchemaError(path, f"expected a string, got {type(node).__name__}")
    return node


def _expect_number(node: object, path: str) -> float:
    try:
        (value,) = _floats((node,))
    except ValueError:
        raise SchemaError(path, f"expected a number, got {type(node).__name__}") from None
    if not math.isfinite(value):
        raise SchemaError(path, "expected a finite number")
    return value


def _decode_scalar(node: object, path: str) -> MaxPlusValue:
    if node == _BOTTOM_WIRE:
        return BOTTOM
    if isinstance(node, str):
        raise SchemaError(path, f'expected a number or "{_BOTTOM_WIRE}", got {node!r}')
    return _expect_number(node, path)


def _built(path: str, build, *args, prefix: str = "", elements=None):
    # Value invariants live in the constructors; report them at ``path``,
    # unless ``elements``, the element decoders run on a rejection, name
    # a bad element first.
    try:
        return build(*args)
    except ValueError as err:
        if elements is not None:
            elements()
        raise SchemaError(path, f"{prefix}{err}") from None


def _idempotent_measure(space: FiniteSpace, values: list) -> IdempotentMeasure:
    weights = [BOTTOM if v == _BOTTOM_WIRE else v for v in values]
    return IdempotentMeasure(space, weights)


def _decode_space(node: object, path: str) -> FiniteSpace:
    if not isinstance(node, list):
        raise SchemaError(path, f"expected a list of labels, got {type(node).__name__}")

    def elements() -> None:
        for i, item in enumerate(node):
            _expect_string(item, f"{path}[{i}]")

    return _built(path, FiniteSpace, tuple(node), elements=elements)


_ABSENT = object()  # what ``_in_space_order`` reads for a missing point


def _in_space_order(space: FiniteSpace, table: dict) -> list:
    # The values of a table keyed by exactly the points of ``space``, in order.
    # An in-order table is read without lookups, any other by ``get``, which
    # never inserts a key; missing or unknown keys raise ``ValueError``.
    points = space.points
    if len(table) == len(points):
        if tuple(table) == points:
            return list(table.values())
        values = list(map(table.get, points, repeat(_ABSENT)))
        if not any(map(is_, values, repeat(_ABSENT))):
            return values
    missing = [p for p in points if p not in table]
    if missing:
        raise ValueError(f"missing entries for points: {missing!r}")
    extra = [k for k in table if k not in space]
    raise ValueError(f"entries given for unknown points: {_shown(extra)}")


def _decode_entries(node: object, path: str, space: FiniteSpace, decode, build, *args):
    # ``build(*args, values)``, the values in space order; ``decode`` checks one.
    table = _expect_object(node, path)
    listed = _built(path, _in_space_order, space, table)

    def elements() -> None:
        for p, value in zip(space.points, listed):
            decode(value, f"{path}.{p}")

    return _built(path, build, *args, listed, elements=elements)


def decode_measure(doc: object) -> Measure:
    """Decode and validate a measure document of either kind."""
    root = _expect_object(doc, "")
    _expect_keys(root, "", ("space", "kind", "weights"))
    space = _decode_space(root["space"], "space")
    kind = root["kind"]
    # Looked up per call, so a wrapper installed on this module is used.
    if kind == "idempotent":
        decode, build = _decode_scalar, _idempotent_measure
    elif kind == "classical":
        decode, build = _expect_number, classical_measure
    else:
        _expect_string(kind, "kind")
        raise SchemaError("kind", f'expected "idempotent" or "classical", got {kind!r}')
    return _decode_entries(root["weights"], "weights", space, decode, build, space)


def decode_function(doc: object) -> TestFunction:
    """Decode and validate a finite test function document."""
    root = _expect_object(doc, "")
    _expect_keys(root, "", ("space", "values"))
    space = _decode_space(root["space"], "space")
    return _decode_entries(
        root["values"], "values", space, _expect_number, TestFunction, space
    )


def decode_point_map(doc: object) -> PointMap:
    """Decode and validate a point map document."""
    root = _expect_object(doc, "")
    _expect_keys(root, "", ("domain", "codomain", "map"))
    domain = _decode_space(root["domain"], "domain")
    codomain = _decode_space(root["codomain"], "codomain")
    return _decode_entries(
        root["map"], "map", domain, _expect_string, PointMap, domain, codomain
    )


def _decode_piecewise(doc: object, cls: type, what: str):
    root = _expect_object(doc, "")
    _expect_keys(root, "", ("breakpoints", "lipschitz"))
    node, bound = root["breakpoints"], root["lipschitz"]
    if not isinstance(node, list):
        raise SchemaError("breakpoints", "expected a list of [x, y] pairs")

    def elements() -> None:
        for i, item in enumerate(node):
            if not isinstance(item, list) or len(item) != 2:
                raise SchemaError(f"breakpoints[{i}]", "expected an [x, y] pair")
            _expect_number(item[0], f"breakpoints[{i}][0]")
            _expect_number(item[1], f"breakpoints[{i}][1]")
        _expect_number(bound, "lipschitz")

    prefix = f"not a valid {what}: "
    return _built("breakpoints", cls, node, bound, prefix=prefix, elements=elements)


def decode_density(doc: object) -> DensityMeasure:
    """Decode and validate a piecewise-linear density document."""
    return _decode_piecewise(doc, DensityMeasure, "density")


def decode_continuous_function(doc: object) -> ContinuousTestFunction:
    """Decode and validate a piecewise-linear test function document."""
    return _decode_piecewise(doc, ContinuousTestFunction, "piecewise-linear function")


# -- encoding ----------------------------------------------------------------


def encode_measure(mu: Measure) -> dict:
    """The measure document for either kind; stored weights are exact floats."""
    weights = {
        p: _BOTTOM_WIRE if w is BOTTOM else w
        for p, w in zip(_of_kind(mu, Measure).space.points, mu.weights)
    }
    return {"space": list(mu.space.points), "kind": mu.kind, "weights": weights}


def encode_counterexample_report(report: CounterexampleReport) -> dict:
    """The three-field report document for the separation probe."""
    return {
        "classical_injective": report.classical_injective,
        "idempotent_witness": {
            "mu": encode_measure(report.witness_mu),
            "nu": encode_measure(report.witness_nu),
            "image": {
                "under_f": encode_measure(report.witness_image_under_f),
                "under_g": encode_measure(report.witness_image_under_g),
            },
        },
        "naturality_gap": report.naturality_gap,
    }


def encode_convergence_report(report: ConvergenceReport) -> dict:
    """Rows of ``{n, error, bound}`` plus the reference value and verdicts."""
    return {
        "rows": [
            {"n": row.n, "error": row.error, "bound": row.bound}
            for row in report.rows
        ],
        "reference": report.reference,
        "within_bound": report.within_bound,
        "non_increasing": report.non_increasing,
    }
