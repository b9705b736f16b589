"""The benchmark looks package functions up by module and name.

``bench/spans.py`` wraps each ``(module, attribute)`` of its
``FUNCTIONS`` table and the ``__post_init__`` of each class in
``CONSTRUCTORS``; ``bench/workloads.py`` calls module attributes
directly.  Renaming one of them would break a traced benchmark run while
every other test passes, so this test resolves them all.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import maxplusprob  # noqa: F401 - imports every submodule
from maxplusprob import cli, jsonio

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _load_spans()
    for module, attr, _ in spans.FUNCTIONS:
        mod = importlib.import_module(f"maxplusprob.{module}")
        assert callable(getattr(mod, attr)), f"{module}.{attr}"


def test_every_traced_constructor_is_a_measures_class():
    spans = _load_spans()
    measures = importlib.import_module("maxplusprob.measures")
    for name in spans.CONSTRUCTORS:
        cls = getattr(measures, name)
        assert isinstance(cls, type) and cls.__module__ == measures.__name__, name


def test_every_module_attribute_the_workloads_call_resolves():
    # ``Scale`` binds the submodules by name (``from maxplusprob import
    # convert, functors, ...``); every ``module.attr`` on such a name
    # must exist.
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "maxplusprob":
            modules.update(alias.name for alias in node.names)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used, "no package module attributes found in bench/workloads.py"
    for module, attr in sorted(used):
        mod = importlib.import_module(f"maxplusprob.{module}")
        assert hasattr(mod, attr), f"{module}.{attr}"


def test_decode_measure_calls_the_wrapped_classical_constructor(monkeypatch):
    # The benchmark wraps ``jsonio.classical_measure`` after import; a
    # decoder that captured the function at import time would bypass
    # the wrapper and its span.
    calls = []
    original = jsonio.classical_measure

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jsonio, "classical_measure", counting)
    doc = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 0.25, "b": 0.75}}
    assert jsonio.decode_measure(doc).weights == (0.25, 0.75)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "weights, kind, built",
    (
        ({"a": 0.0, "b": "-inf"}, "idempotent", "IdempotentMeasure"),
        ({"a": 0.25, "b": 0.75}, "classical", "ClassicalMeasure"),
    ),
)
def test_decode_measure_runs_each_wrapped_constructor_once(
    monkeypatch, weights, kind, built
):
    # The traced ``measures.construct`` layer sees decode's constructions
    # only through the ``__post_init__`` wrappers ``spans.install`` puts
    # on the classes; a decoder that built its results another way would
    # move that time into ``jsonio.decode``.
    spans = _load_spans()
    tracer = spans.Tracer()
    measures = importlib.import_module("maxplusprob.measures")
    for name in spans.CONSTRUCTORS:
        cls = getattr(measures, name)
        wrapped = tracer.wrap(cls.__post_init__, f"measures.{name}.__post_init__")
        monkeypatch.setattr(cls, "__post_init__", wrapped)
    doc = {"space": ["a", "b"], "kind": kind, "weights": weights}
    for decodes in (1, 2):
        jsonio.decode_measure(doc)
        opened = [tracer.names[i] for i in tracer.name]
        for name in spans.CONSTRUCTORS:
            expected = decodes if name in ("FiniteSpace", built) else 0
            assert opened.count(f"measures.{name}.__post_init__") == expected, name


MEASURE = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": -1}}
DOCUMENTS = {
    "m.json": MEASURE,
    "f.json": {"space": ["a", "b"], "values": {"a": 2, "b": 4}},
    "map.json": {"domain": ["a", "b"], "codomain": ["x"], "map": {"a": "x", "b": "x"}},
    "d.json": {"breakpoints": [[0, 0], [1, 0]], "lipschitz": 0},
    "phi.json": {"breakpoints": [[0, 0], [1, 1]], "lipschitz": 1},
}
# Each subcommand's argv (file names relative to a fresh directory) and the
# decoder, kernel and encoder spans it must open.  ``spans`` wraps only the
# aliases of ``functors.product``, so ``product`` opens no kernel span.
TRACED_RUNS = {
    "eval": (
        ["--measure", "m.json", "--function", "f.json"],
        {"jsonio.decode_measure", "jsonio.decode_function", "measures.evaluate"},
    ),
    "push": (
        ["--measure", "m.json", "--map", "map.json"],
        {"jsonio.decode_measure", "jsonio.decode_point_map", "functors.pushforward",
         "jsonio.encode_measure"},
    ),
    "product": (
        ["--measure", "m.json", "--measure2", "m.json"],
        {"jsonio.decode_measure", "jsonio.encode_measure"},
    ),
    "convert": (
        ["--measure", "m.json", "--to", "classical"],
        {"jsonio.decode_measure", "convert.to_classical", "jsonio.encode_measure"},
    ),
    "dist": (
        ["--epsilon", "0.25"],
        {"geometry.approx_coefficients", "geometry.segment_distance",
         "geometry.approx_distance_closed_form"},
    ),
    "approx": (
        ["--measure", "m.json", "--epsilon", "0.25", "--measure2", "m.json"],
        {"jsonio.decode_measure", "geometry.approx_toward_measure",
         "jsonio.encode_measure"},
    ),
    "verify-counterexample": (
        [],
        {"functors.verify_counterexample", "jsonio.encode_counterexample_report"},
    ),
    "density-converge": (
        ["--density", "d.json", "--function", "phi.json", "--grid", "10"],
        {"jsonio.decode_density", "jsonio.decode_continuous_function",
         "density.convergence_report", "jsonio.encode_convergence_report"},
    ),
}


@pytest.mark.parametrize("command", sorted(TRACED_RUNS))
def test_every_subcommand_opens_its_layer_spans(monkeypatch, tmp_path, capsys, command):
    # The benchmark wraps module attributes after the CLI is imported; a
    # subcommand that bound a decoder, kernel or encoder at import time
    # would bypass the wrapper, and its layer would read 0.
    spans = _load_spans()
    tracer = spans.Tracer()
    for module, attr, _ in spans.FUNCTIONS:
        mod = importlib.import_module(f"maxplusprob.{module}")
        monkeypatch.setattr(mod, attr, tracer.wrap(getattr(mod, attr), f"{module}.{attr}"))
    for name, payload in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    argv, expected = TRACED_RUNS[command]
    assert cli.run([command, *argv]) == 0, capsys.readouterr().out
    opened = {tracer.names[i] for i in tracer.name}
    assert expected | {"cli.run"} <= opened, sorted(expected - opened)
