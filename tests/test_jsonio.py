from __future__ import annotations

import json
import math
import random
import re
from collections import defaultdict

import pytest

from maxplusprob import (
    BOTTOM,
    FiniteSpace,
    IdempotentMeasure,
    SchemaError,
    convergence_report,
    decode_continuous_function,
    decode_density,
    decode_function,
    decode_measure,
    decode_point_map,
    encode_convergence_report,
    encode_counterexample_report,
    encode_measure,
    verify_counterexample,
)
from maxplusprob import jsonio
from maxplusprob.density import ContinuousTestFunction, DensityMeasure

from gen import random_classical, random_idempotent, random_space, space_of

IDEMPOTENT_DOC = {
    "space": ["a", "b"],
    "kind": "idempotent",
    "weights": {"a": 0, "b": -1},
}
CLASSICAL_DOC = {
    "space": ["a", "b"],
    "kind": "classical",
    "weights": {"a": 0.5, "b": 0.5},
}


# -- decoding ------------------------------------------------------------------


def test_decode_idempotent_measure():
    mu = decode_measure(IDEMPOTENT_DOC)
    assert mu.weights == (0.0, -1.0)


def test_decode_classical_measure():
    mu = decode_measure(CLASSICAL_DOC)
    assert mu.weights == (0.5, 0.5)


def test_bottom_is_spelled_minus_inf():
    doc = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": "-inf"}}
    assert decode_measure(doc).weights == (0.0, BOTTOM)


def test_decode_rejects_shape_problems():
    with pytest.raises(SchemaError, match="expected an object"):
        decode_measure([1, 2])
    with pytest.raises(SchemaError, match="missing key 'kind'"):
        decode_measure({"space": ["a"], "weights": {"a": 0}})
    with pytest.raises(SchemaError, match="unexpected key"):
        decode_measure({**IDEMPOTENT_DOC, "extra": 1})
    with pytest.raises(SchemaError, match='"idempotent" or "classical"'):
        decode_measure({**IDEMPOTENT_DOC, "kind": "fuzzy"})


def test_decode_rejects_weight_table_problems():
    with pytest.raises(SchemaError, match="missing entries"):
        decode_measure(
            {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0}}
        )
    # A table is an object keyed by label, never a list in space order.
    with pytest.raises(SchemaError, match=r"^weights: expected an object, got list$"):
        decode_measure({"space": ["a", "b"], "kind": "classical", "weights": [0.5, 0.5]})
    with pytest.raises(SchemaError, match="unknown points"):
        decode_measure(
            {
                "space": ["a", "b"],
                "kind": "idempotent",
                "weights": {"a": 0, "b": -1, "z": 0},
            }
        )
    with pytest.raises(SchemaError, match="weights.b"):
        decode_measure(
            {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": "x"}}
        )
    with pytest.raises(SchemaError, match='number or "-inf"'):
        decode_measure(
            {
                "space": ["a", "b"],
                "kind": "idempotent",
                "weights": {"a": 0, "b": "-infinity"},
            }
        )


def test_decode_rejects_invariant_violations_with_path():
    doc = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": -1, "b": -2}}
    with pytest.raises(SchemaError, match="weights:"):
        decode_measure(doc)
    bad_sum = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 0.5, "b": 0.6}}
    with pytest.raises(SchemaError, match="weights:"):
        decode_measure(bad_sum)
    err = None
    try:
        decode_measure(bad_sum)
    except SchemaError as caught:
        err = caught
    assert err is not None and err.path == "weights"


def test_classical_weights_reject_the_bottom_spelling():
    doc = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 1.0, "b": "-inf"}}
    with pytest.raises(SchemaError, match="weights.b"):
        decode_measure(doc)


def test_decode_rejects_non_finite_numbers():
    # json.loads accepts the Infinity extension, so the decoder has to
    # gate non-finite values itself.
    doc = json.loads('{"space": ["a"], "values": {"a": Infinity}}')
    with pytest.raises(SchemaError, match="finite"):
        decode_function(doc)


def test_decode_rejects_integers_beyond_the_float_range():
    digits = "1" + "0" * 400
    text = '{"space": ["a", "b"], "kind": "%s", "weights": {"a": 0.5, "b": %s}}'
    for kind in ("idempotent", "classical"):
        with pytest.raises(SchemaError) as info:
            decode_measure(json.loads(text % (kind, "-" + digits)))
        assert str(info.value) == "weights.b: expected a finite number"
    with pytest.raises(SchemaError) as info:
        decode_function({"space": ["a"], "values": {"a": int(digits)}})
    assert str(info.value) == "values.a: expected a finite number"


def test_tables_out_of_space_order_decode_alike():
    in_order = {"space": ["a", "b", "c"], "kind": "idempotent",
                "weights": {"a": 0.0, "b": "-inf", "c": -2}}
    shuffled = {**in_order, "weights": {"c": -2, "a": 0.0, "b": "-inf"}}
    assert decode_measure(shuffled) == decode_measure(in_order)
    assert decode_measure(in_order).weights == (0.0, BOTTOM, -2.0)
    images = {"a": "y", "b": "x", "c": "y"}
    maps = [
        {"domain": ["a", "b", "c"], "codomain": ["x", "y"], "map": table}
        for table in (images, dict(reversed(images.items())))
    ]
    assert decode_point_map(maps[0]) == decode_point_map(maps[1])
    with pytest.raises(SchemaError, match=r"^map\.b: expected a string, got int$"):
        decode_point_map({**maps[0], "map": {"a": "x", "b": 1, "c": "y"}})


def test_a_table_in_space_order_is_read_without_lookups():
    lookups = []

    class Table(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    abc = space_of(3)
    assert jsonio._in_space_order(abc, Table(a=0.0, b=-1.0, c=BOTTOM)) == [0.0, -1.0, BOTTOM]
    assert jsonio._in_space_order(abc, Table(a="x", b="y", c="x")) == ["x", "y", "x"]
    assert lookups == []
    # Any other order is read by lookups.
    assert jsonio._in_space_order(abc, Table(c=3.0, a=1.0, b=2.0)) == [1.0, 2.0, 3.0]
    assert lookups == ["a", "b", "c"]


def test_a_defaultdict_with_wrong_keys_is_rejected_and_left_alone():
    # A lookup by ``[]`` would insert the missing point into the caller's table.
    abc = space_of(3)
    for default, (u, v) in ((float, (0.0, -1.0)), (lambda: "x", ("x", "y"))):
        for given_table, message in (
            ({"a": u, "b": v}, "missing entries for points: ['c']"),
            ({"b": v, "z": u, "a": u}, "missing entries for points: ['c']"),
            ({"a": u, "b": v, "c": u, "z": v}, "entries given for unknown points: ['z']"),
        ):
            table = defaultdict(default, given_table)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                jsonio._in_space_order(abc, table)
            assert list(table.items()) == list(given_table.items())


def test_kind_must_be_one_of_the_two_strings():
    with pytest.raises(SchemaError, match="^kind: expected a string, got list$"):
        decode_measure({**IDEMPOTENT_DOC, "kind": ["idempotent"]})
    with pytest.raises(SchemaError, match="^kind: expected \"idempotent\" or"):
        decode_measure({**IDEMPOTENT_DOC, "kind": "Idempotent"})


def test_decode_function():
    phi = decode_function({"space": ["a", "b"], "values": {"a": 2, "b": 4}})
    assert phi.values == (2.0, 4.0)
    with pytest.raises(SchemaError, match="values.a"):
        decode_function({"space": ["a"], "values": {"a": "2"}})


def test_decode_point_map():
    doc = {
        "domain": ["a", "b", "c"],
        "codomain": ["a", "b"],
        "map": {"a": "a", "b": "b", "c": "a"},
    }
    f = decode_point_map(doc)
    assert f.assignment == ("a", "b", "a")
    bad = {**doc, "map": {"a": "a", "b": "b", "c": "z"}}
    with pytest.raises(SchemaError, match="map:"):
        decode_point_map(bad)
    # Images that are not strings are named at their path, hashable or not.
    for image, name in ((7, "int"), (["a"], "list")):
        bad = {**doc, "map": {"a": "a", "b": image, "c": "z"}}
        with pytest.raises(SchemaError, match=f"^map.b: expected a string, got {name}$"):
            decode_point_map(bad)


def test_decode_piecewise_documents():
    d = decode_density({"breakpoints": [[0, -1], [0.5, 0], [1, -1]], "lipschitz": 2})
    assert isinstance(d, DensityMeasure)
    assert d(0.5) == 0.0
    phi = decode_continuous_function(
        {"breakpoints": [[0, 3], [1, -3]], "lipschitz": 6}
    )
    assert isinstance(phi, ContinuousTestFunction)
    with pytest.raises(SchemaError, match=r"breakpoints\[1\]"):
        decode_density({"breakpoints": [[0, 0], [1, 0, 0]], "lipschitz": 1})
    with pytest.raises(SchemaError, match="not a valid density"):
        decode_density({"breakpoints": [[0, 0], [1, 0.5]], "lipschitz": 1})
    with pytest.raises(SchemaError, match="breakpoints: expected a list"):
        decode_density({"breakpoints": {"0": 0}, "lipschitz": 1})


@pytest.mark.parametrize("decode", (decode_density, decode_continuous_function))
def test_valid_piecewise_documents_decode_without_the_element_path(decode, monkeypatch):
    # The constructor checks every breakpoint number and the bound in bulk;
    # the per-number decoder runs only on a rejection.
    calls = []
    original = jsonio._expect_number

    def counting(node, path):
        calls.append(path)
        return original(node, path)

    monkeypatch.setattr(jsonio, "_expect_number", counting)
    line = decode({"breakpoints": [[0, -1], [0.25, 0], [0.5, -0.5], [1, -1]], "lipschitz": 4})
    assert calls == []
    assert line.breakpoints == ((0.0, -1.0), (0.25, 0.0), (0.5, -0.5), (1.0, -1.0))
    assert all(type(v) is float for pair in line.breakpoints for v in pair)
    assert type(line.lipschitz) is float and line.lipschitz == 4.0


@pytest.mark.parametrize(
    "breakpoints, lipschitz, message",
    (
        ([[0, "a"], [1]], "x", "breakpoints[0][1]: expected a number, got str"),
        ([[0, 0], [1]], "x", "breakpoints[1]: expected an [x, y] pair"),
        ([[0, 0], [1, None, 2]], math.nan, "breakpoints[1]: expected an [x, y] pair"),
        ([[True, 0], [1, 0]], 1, "breakpoints[0][0]: expected a number, got bool"),
        ([[0, 0], [math.inf, 0], [1, 0]], 1, "breakpoints[1][0]: expected a finite number"),
        ([[0, 0], [1, 10**400]], 1, "breakpoints[1][1]: expected a finite number"),
        ([[0, 0], [0.5, math.nan], [1, 0]], "x", "breakpoints[1][1]: expected a finite number"),
        ([[0, 0], [1, 0]], "x", "lipschitz: expected a number, got str"),
        ([[0, 0], [1, 0]], -math.inf, "lipschitz: expected a finite number"),
        ([[0, 0]], False, "lipschitz: expected a number, got bool"),
        ([[0, 0]], 1, "breakpoints: not a valid density: at least two breakpoints are required"),
        ([[0, 0], [1, 2]], 1, "breakpoints: not a valid density: segment slope 2.0"
         " exceeds the declared Lipschitz bound 1.0"),
    ),
)
def test_piecewise_errors_keep_their_precedence(breakpoints, lipschitz, message):
    # Pair by pair (its shape, then x, then y), then the bound, then the
    # constructor's own invariants.
    with pytest.raises(SchemaError) as caught:
        decode_density({"breakpoints": breakpoints, "lipschitz": lipschitz})
    assert str(caught.value) == message


def test_space_errors_carry_their_path():
    with pytest.raises(SchemaError, match=r"space\[1\]"):
        decode_measure({"space": ["a", 3], "kind": "idempotent", "weights": {}})
    with pytest.raises(SchemaError, match="space:"):
        decode_measure({"space": [], "kind": "idempotent", "weights": {}})
    with pytest.raises(SchemaError, match="space: expected a list of labels, got str"):
        decode_measure({"space": "ab", "kind": "idempotent", "weights": {}})


# -- encoding ------------------------------------------------------------------


def test_encode_measure_writes_floats_and_bottom_as_minus_inf():
    mu = IdempotentMeasure(FiniteSpace(("a", "b", "c")), (0.0, -1.5, BOTTOM))
    assert encode_measure(mu)["weights"] == {"a": 0.0, "b": -1.5, "c": "-inf"}


def test_encode_decode_roundtrip_on_random_measures():
    rng = random.Random(53)
    for _ in range(100):
        space = random_space(rng)
        mu = random_idempotent(rng, space)
        assert decode_measure(encode_measure(mu)) == mu
        nu = random_classical(rng, space)
        assert decode_measure(encode_measure(nu)) == nu


def test_encoded_measures_are_json_serializable():
    rng = random.Random(54)
    mu = random_idempotent(rng, random_space(rng))
    text = json.dumps(encode_measure(mu), sort_keys=True)
    assert decode_measure(json.loads(text)) == mu


def test_counterexample_report_document_shape():
    report = verify_counterexample()
    doc = encode_counterexample_report(report)
    assert set(doc) == {"classical_injective", "idempotent_witness", "naturality_gap"}
    witness = doc["idempotent_witness"]
    assert set(witness) == {"mu", "nu", "image"}
    assert set(witness["image"]) == {"under_f", "under_g"}
    assert doc["classical_injective"] is True
    json.dumps(doc)


def test_convergence_report_document_shape():
    d = DensityMeasure(((0.0, 0.0), (1.0, 0.0)), 0.0)
    phi = ContinuousTestFunction(((0.0, 0.0), (1.0, 1.0)), 1.0)
    doc = encode_convergence_report(
        convergence_report(d, phi, [10, 100])
    )
    assert set(doc) == {"rows", "reference", "within_bound", "non_increasing"}
    assert [row["n"] for row in doc["rows"]] == [10, 100]
    assert all(set(row) == {"n", "error", "bound"} for row in doc["rows"])
    json.dumps(doc)
