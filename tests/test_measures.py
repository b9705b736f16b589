from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import random
import re
from array import array
from collections import UserList
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplusprob import (
    BOTTOM,
    ClassicalMeasure,
    ConvergenceRow,
    FiniteSpace,
    IdempotentMeasure,
    Measure,
    PointMap,
    TestFunction,
    classical_measure,
    decode_function,
    decode_measure,
    decode_point_map,
    dirac,
    encode_measure,
    evaluate,
    evaluate_classical,
    evaluate_idempotent,
    has_support_at_most,
    maxplus_combine,
    normalize_idempotent,
    point_mass,
    product,
    product_function,
    product_space,
    pushforward,
    support,
    to_classical,
    to_idempotent,
)
from maxplusprob import measures

from gen import (
    EDGE_REFUSALS,
    awkward_spaces,
    edge_magnitude,
    extreme_masses,
    extreme_spaces,
    extreme_values,
    extreme_weights,
    measure_function_scalar,
    random_function,
    random_idempotent,
    random_space,
    rescaled,
    space_of,
)

AB = FiniteSpace(("a", "b"))


# -- spaces and functions ------------------------------------------------------


def test_space_rejects_bad_labels():
    with pytest.raises(ValueError):
        FiniteSpace(())
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"))
    with pytest.raises(ValueError):
        FiniteSpace(("a", ""))


def test_space_lookup():
    assert AB.index("b") == 1
    assert "a" in AB and "z" not in AB
    with pytest.raises(ValueError, match="point not in space"):
        AB.index("z")


def test_space_names_the_first_bad_label():
    cases = (
        (("a", "a", ""), "duplicate point label: 'a'"),
        (("a", "", "a"), "point labels must be nonempty strings: ''"),
        (("a", ["b"]), r"point labels must be nonempty strings: \['b'\]"),
        (("a", 1, "a"), "point labels must be nonempty strings: 1"),
    )
    for labels, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteSpace(labels)
    assert FiniteSpace(("b", "a"))._index == {"b": 0, "a": 1}


def test_space_index_is_built_on_first_lookup():
    def fresh() -> FiniteSpace:
        return FiniteSpace(("b", "a", "c"))

    assert "_index" not in vars(fresh())
    space = fresh()
    assert "a" in space and "z" not in space
    assert fresh().index("c") == 2
    with pytest.raises(ValueError, match="^point not in space: 'z'$"):
        fresh().index("z")
    # A built index changes nothing the value shows.
    built, unbuilt = fresh(), fresh()
    assert built.index("a") == 1
    assert "_index" in vars(built) and "_index" not in vars(unbuilt)
    assert built == unbuilt and hash(built) == hash(unbuilt)
    assert repr(built) == repr(unbuilt) == "FiniteSpace(points=('b', 'a', 'c'))"
    for original in (built, unbuilt):
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert clone == built and hash(clone) == hash(unbuilt)
            assert repr(clone) == repr(original)
            assert clone.index("c") == 2 and "z" not in clone


def test_ints_beyond_the_float_range_are_not_finite():
    # ``float`` raises OverflowError for these; each constructor reports
    # them as it reports an infinity.
    huge = 10**400
    with pytest.raises(ValueError, match="finite and >= 0, got inf$"):
        ClassicalMeasure(AB, (1.0, huge))
    with pytest.raises(ValueError, match="finite and >= 0, got -inf$"):
        classical_measure(AB, (1.0, -huge))
    # Beside finite masses whose sum overflows, too.
    with pytest.raises(ValueError, match="finite and >= 0, got inf$"):
        classical_measure(space_of(3), (huge, 1e308, 1e308))
    with pytest.raises(ValueError, match="must be finite: inf$"):
        TestFunction(AB, (1, huge))
    with pytest.raises(ValueError, match="not a max-plus scalar"):
        IdempotentMeasure(AB, (0.0, -huge))
    with pytest.raises(ValueError, match="not a max-plus scalar"):
        normalize_idempotent(AB, (0.0, huge))


def test_idempotent_weights_are_coerced_when_not_all_floats():
    # Ints and float subclasses take the per-weight path and are stored
    # as plain floats; BOTTOM stays BOTTOM.
    class Weight(float):
        pass

    mu = IdempotentMeasure(space_of(3), (0, Weight(-1.5), BOTTOM))
    assert mu.weights == (0.0, -1.5, BOTTOM)
    assert [type(w) for w in mu.weights[:2]] == [float, float]
    with pytest.raises(ValueError, match="not a max-plus scalar"):
        IdempotentMeasure(AB, (0.0, True))

    # Each door gives the bits of the float spelling: an int peak, an
    # all-int vector, ints as function values and as masses.
    def bits(value):
        values = value.values if isinstance(value, TestFunction) else value.weights
        return [v if v is BOTTOM else (type(v), v.hex()) for v in values]

    abc = space_of(3)
    for build, ints, floats in (
        (IdempotentMeasure, (0, -1.5, BOTTOM), (0.0, -1.5, BOTTOM)),
        (IdempotentMeasure, (0, -2, -5), (0.0, -2.0, -5.0)),
        (normalize_idempotent, (3, -1.5, BOTTOM), (3.0, -1.5, BOTTOM)),
        (normalize_idempotent, (3, -2, 1), (3.0, -2.0, 1.0)),
        (TestFunction, (3, -2, 1), (3.0, -2.0, 1.0)),
        (classical_measure, (0, 1, 0), (0.0, 1.0, 0.0)),
    ):
        assert bits(build(abc, ints)) == bits(build(abc, floats))
    doc = {"space": list("abc"), "kind": "idempotent", "weights": {"a": 0, "b": -2, "c": "-inf"}}
    floats = {**doc, "weights": {"a": 0.0, "b": -2.0, "c": "-inf"}}
    assert bits(decode_measure(doc)) == bits(decode_measure(floats))
    # An int beyond the float range is still rejected by name.
    huge = -(10**400)
    message = f"^not a max-plus scalar \\(finite number or BOTTOM\\): {huge}$"
    for build in (IdempotentMeasure, normalize_idempotent):
        with pytest.raises(ValueError, match=message):
            build(abc, (0, huge, BOTTOM))
    with pytest.raises(ValueError, match=r"^weights\.b: expected a finite number$"):
        decode_measure({**doc, "weights": {"a": 0, "b": huge, "c": "-inf"}})


def test_classical_constructors_take_only_numbers():
    # Strings, bools and None are refused by name, as ``IdempotentMeasure``
    # refuses them, rather than converted by ``float``.
    for raw, shown in (
        (("0.5", "0.5"), "'0.5'"),
        ((True, False), "True"),
        ((None, 1.0), "None"),
    ):
        for build in (ClassicalMeasure, TestFunction, classical_measure):
            with pytest.raises(ValueError, match=f"^not a real number: {shown}$"):
                build(AB, raw)
        with pytest.raises(ValueError, match="not a max-plus scalar"):
            IdempotentMeasure(AB, raw)
    # Ints and float subclasses are numbers, stored as plain floats.
    class Mass(float):
        pass

    for build in (ClassicalMeasure, TestFunction, classical_measure):
        field = "values" if build is TestFunction else "weights"
        values = getattr(build(AB, (1, Mass(0.0))), field)
        assert values == (1.0, 0.0) and {type(v) for v in values} == {float}


def test_function_validation_and_norm():
    phi = TestFunction(AB, (2.0, -4.0))
    assert phi("a") == 2.0
    assert phi.sup_norm == 4.0
    with pytest.raises(ValueError):
        TestFunction(AB, (1.0,))
    with pytest.raises(ValueError):
        TestFunction(AB, (1.0, float("inf")))
    with pytest.raises(ValueError, match="space mismatch"):
        phi.pointwise_max(TestFunction(space_of(3), (0.0, 0.0, 0.0)))


def test_function_values_are_checked_as_numbers_in_space_order():
    with pytest.raises(ValueError, match="not a real number: '1.5'"):
        TestFunction(AB, ("1.5", True))
    with pytest.raises(ValueError, match="not a real number: True"):
        TestFunction(AB, (1.5, True))
    with pytest.raises(ValueError, match="must be finite: inf"):
        TestFunction(AB, (10**400, 0.0))
    phi = TestFunction(AB, (1, 2.5))
    assert phi.values == (1.0, 2.5)
    assert all(type(v) is float for v in phi.values)


def test_a_rejected_shift_is_named_as_given():
    # An int beyond the float range reads as inf; the message names the int.
    phi = TestFunction(AB, (1.0, 2.0))
    for bad in (10**400, -(10**400), math.inf, math.nan):
        with pytest.raises(ValueError) as err:
            phi.shift(bad)
        assert str(err.value) == f"the shift must be finite, got {bad!r}"
    # A finite shift whose sums overflow names the point and both summands.
    with pytest.raises(
        ValueError,
        match=r"^point 'a' of the shift: the value sum 1e\+308 \+ 1e\+308 overflows the float"
        r" range$",
    ):
        TestFunction(AB, (1e308, 0.0)).shift(1e308)
    below = r"^point 'b' of the shift: the value sum -1e\+308 \+ -1e\+308 overflows"
    with pytest.raises(ValueError, match=below):
        TestFunction(AB, (0.0, -1e308)).shift(-1e308)


# -- tables keyed by label --------------------------------------------------------

XY = FiniteSpace(("x", "y"))


def _unpair(label: str) -> tuple:
    # The (x, y) a product label names: split at its one unescaped comma.
    assert label[0] == "(" and label[-1] == ")", label
    parts, part, chars = [], "", iter(label[1:-1])
    for c in chars:
        if c == "\\":
            part += next(chars)
        elif c == ",":
            parts.append(part)
            part = ""
        else:
            assert c not in "()", label
            part += c
    return (*parts, part)


@given(awkward_spaces(), awkward_spaces(max_size=3), st.data())
def test_awkward_labels_align_round_trip_and_pair_apart(space, other, data):
    points = space.points
    order = data.draw(st.permutations(points))

    def shuffled(table: dict) -> dict:
        return {p: table[p] for p in order}

    weights = dict(zip(points, [0.0, *(-k / 2 for k in range(1, len(points)))]))
    masses = dict.fromkeys(points, 1.0 / len(points))
    images = dict(zip(points, itertools.cycle(other.points)))
    mu = normalize_idempotent(space, tuple(weights.values()))
    nu = classical_measure(space, tuple(masses.values()))
    phi = TestFunction(space, tuple(weights.values()))
    f = PointMap(space, other, tuple(images.values()))
    assert mu.weights == phi.values == tuple(weights.values())
    assert nu.weights == tuple(masses.values())
    assert [f(p) for p in points] == [images[p] for p in points]
    for m in (mu, nu):
        doc = json.loads(json.dumps(encode_measure(m)))
        assert decode_measure(doc) == m
        doc["weights"] = shuffled(doc["weights"])
        assert decode_measure(json.loads(json.dumps(doc))) == m
    docs = (
        {"space": list(points), "values": shuffled(weights)},
        {"domain": list(points), "codomain": list(other.points), "map": shuffled(images)},
    )
    assert decode_function(json.loads(json.dumps(docs[0]))) == phi
    assert decode_point_map(json.loads(json.dumps(docs[1]))) == f
    pairs = [(x, y) for x in points for y in other.points]
    assert [_unpair(label) for label in product_space(space, other).points] == pairs


# -- idempotent measures -------------------------------------------------------


def test_measure_base_is_not_a_measure_kind():
    # Only the two kinds validate weights, so the base refuses to build.
    with pytest.raises(TypeError):
        Measure(AB, (0.0, "x"))
    assert IdempotentMeasure(AB, (0.0, -1.0)).kind == "idempotent"
    assert point_mass(AB, "a").kind == "classical"


def test_idempotent_invariants_enforced():
    IdempotentMeasure(AB, (0.0, -1.0))
    with pytest.raises(ValueError):
        IdempotentMeasure(AB, (-0.5, -1.0))  # maximum below 0
    with pytest.raises(ValueError):
        IdempotentMeasure(AB, (0.0, 0.5))  # positive weight
    with pytest.raises(ValueError):
        IdempotentMeasure(AB, (BOTTOM, BOTTOM))  # empty support
    with pytest.raises(ValueError):
        IdempotentMeasure(AB, (0.0, float("-inf")))  # sentinel, not BOTTOM
    with pytest.raises(ValueError, match="one weight per point"):
        IdempotentMeasure(AB, (0.0,))


def test_dirac_and_support():
    mu = dirac(AB, "a")
    assert mu.weights == (0.0, BOTTOM)
    assert support(mu) == frozenset({"a"})
    with pytest.raises(ValueError, match="point not in space"):
        dirac(AB, "z")
    with pytest.raises(TypeError, match="not a measure"):
        support(mu.weights)


def test_normalize_shifts_to_zero_max():
    mu = normalize_idempotent(AB, (5.0, 5.0))
    assert mu.weights == (0.0, 0.0)
    nu = normalize_idempotent(AB, (-3.0, BOTTOM))
    assert nu.weights == (0.0, BOTTOM)
    with pytest.raises(ValueError, match="empty support"):
        normalize_idempotent(AB, (BOTTOM, BOTTOM))


def test_normalization_names_the_point_whose_weight_sum_overflows():
    # No weight the caller passed is -inf; the shift by the peak makes one.
    with pytest.raises(
        ValueError,
        match=r"^point 'a' of the normalization: the weight sum "
        r"-1\.7e\+308 \+ -1\.7e\+308 overflows the float range$",
    ):
        normalize_idempotent(AB, (-1.7e308, 1.7e308))
    # Within the float range the same shift keeps every point.
    assert normalize_idempotent(AB, (-MAX / 2, MAX / 2)).weights == (-MAX, 0.0)


def test_normalize_is_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        space = random_space(rng)
        mu = random_idempotent(rng, space)
        again = normalize_idempotent(space, mu.weights)
        assert again == mu


def test_evaluate_idempotent_examples():
    mu = IdempotentMeasure(AB, (0.0, -1.0))
    phi = TestFunction(AB, (2.0, 4.0))
    assert evaluate_idempotent(mu, phi) == 3.0
    assert evaluate(mu, phi) == 3.0
    assert evaluate_idempotent(dirac(AB, "a"), phi) == 2.0


def test_evaluate_space_mismatch():
    mu = dirac(AB, "a")
    phi = TestFunction(space_of(3), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="space mismatch"):
        evaluate_idempotent(mu, phi)
    with pytest.raises(TypeError, match="not a measure"):
        evaluate(mu.weights, phi)


# -- classical measures --------------------------------------------------------


def test_classical_validation_gate():
    mu = classical_measure(AB, (0.5, 0.5))
    assert mu.weights == (0.5, 0.5)
    with pytest.raises(ValueError, match=r"^weights sum to 1\.1, not 1$"):
        classical_measure(AB, (0.5, 0.6))
    with pytest.raises(ValueError):
        classical_measure(AB, (-0.1, 1.1))
    with pytest.raises(ValueError, match="empty support"):
        classical_measure(AB, (0.0, 0.0))
    # A length mismatch is caught by the aligner and by the constructor.
    with pytest.raises(ValueError, match="one weight per point"):
        classical_measure(AB, (1.0,))
    with pytest.raises(ValueError, match="one weight per point"):
        ClassicalMeasure(AB, (1.0,))
    # Invalid masses are named as passed, whatever their sum.
    cases = (((-0.5, 2.0), "-0.5"), ((math.nan, 1.0), "nan"), ((math.inf, 1.0), "inf"))
    for raw, shown in cases:
        with pytest.raises(ValueError, match=f"finite and >= 0, got {shown}$"):
            classical_measure(AB, raw)


def test_classical_measure_checks_masses_once(monkeypatch):
    # The masses meet one number check, the constructor's.
    calls = []
    original = measures._floats

    def counting(values):
        calls.append(values)
        return original(values)

    monkeypatch.setattr(measures, "_floats", counting)
    cases = (
        ((0.25, 0.75), (0.25, 0.75)),
        ([1, 0], (1.0, 0.0)),
    )
    for raw, stored in cases:
        calls.clear()
        assert classical_measure(AB, raw).weights == stored
        assert len(calls) == 1, raw


def test_classical_constructor_names_the_first_bad_weight():
    # The masses are checked in bulk by their minimum and their sum; the
    # message still names the first bad one in order.  ``min`` passes over
    # a NaN that is not first, which the sum must then catch.
    cases = (
        ((math.nan, 0.5, 0.5), "nan"),
        ((0.5, math.nan, 0.5), "nan"),
        ((0.5, 0.5, math.nan), "nan"),
        ((0.5, math.inf, 0.5), "inf"),
        ((0.5, 0.75, -0.25), "-0.25"),
        ((0.5, math.nan, -math.inf), "nan"),
    )
    for raw, shown in cases:
        with pytest.raises(ValueError) as err:
            ClassicalMeasure(space_of(3), raw)
        assert str(err.value) == f"classical weights must be finite and >= 0, got {shown}"


def test_classical_within_gate_is_rescaled_to_invariant():
    mu = classical_measure(AB, (0.5, 0.5 + 4e-10))
    assert abs(math.fsum(mu.weights) - 1.0) <= 1e-12
    # The constructor itself applies the same 1e-9 gate.
    raw = (0.5 + 4e-10, 0.5)
    direct = ClassicalMeasure(AB, raw)
    assert abs(math.fsum(direct.weights) - 1.0) <= 1e-12
    assert direct.weights == tuple(w / math.fsum(raw) for w in raw)
    # Masses that already meet 1e-12 are kept bit for bit.
    kept = (0.5, 0.5 + 5e-13)
    assert classical_measure(AB, kept).weights == kept


def test_classical_constructor_is_idempotent():
    rng = random.Random(19)
    for _ in range(100):
        space = random_space(rng)
        raw = [rng.uniform(0.0, 1.0) for _ in space.points]
        if max(raw) == 0.0:
            raw[0] = 1.0
        mu = rescaled(space, raw)
        assert classical_measure(space, mu.weights) == mu


def test_masses_summing_beyond_the_float_range():
    # fsum overflows on these finite masses: the constructor says the sum
    # exceeds the float range, neither raising OverflowError nor naming inf.
    with pytest.raises(ValueError, match="^the weights' sum exceeds the float range$"):
        ClassicalMeasure(AB, (1e308, 1e308))
    with pytest.raises(ValueError, match="^the weights' sum exceeds the float range$"):
        classical_measure(space_of(3), (1.7e308, 1.7e308, 3.0))


def test_rescale_of_a_sum_within_the_float_range_divides_by_fsum():
    # The tests' rescale divides by the sum; the constructor then moves a
    # sum within its gate to 1 as it does for any masses.
    rng = random.Random(83)
    for _ in range(200):
        space = random_space(rng)
        scale = 10.0 ** rng.randint(-300, 300)
        raw = [rng.uniform(0.0, 10.0) * scale for _ in space.points]
        total = math.fsum(raw)
        want = tuple(v / total for v in raw)
        if abs(math.fsum(want) - 1.0) > 1e-12:
            want = tuple(v / math.fsum(want) for v in want)
        assert rescaled(space, raw).weights == want


def test_rescale_that_would_drop_a_mass_builds_nothing():
    # 1e-300 / 1e308 underflows to 0, and a sum past the float range gives
    # no quotient: each would take a point out of the support.
    assert rescaled(AB, (1e308, 1e-300)) is None
    assert rescaled(AB, (1e308, 1e308)) is None
    assert rescaled(space_of(3), (5e-324, MAX, MAX)) is None
    # Within the range, a subnormal mass that survives the division is kept.
    mu = rescaled(space_of(3), (1e-300, 1.0, 1.0))
    assert mu.weights[0] > 0.0 and support(mu) == frozenset(space_of(3).points)


def test_classical_support_and_evaluation():
    mu = classical_measure(AB, (1.0, 0.0))
    assert support(mu) == frozenset({"a"})
    phi = TestFunction(AB, (2.0, 4.0))
    assert evaluate_classical(point_mass(AB, "a"), phi) == 2.0
    half = classical_measure(AB, (0.5, 0.5))
    assert evaluate_classical(half, phi) == pytest.approx(3.0, abs=1e-12)


MAX = 1.7976931348623157e308


def test_classical_evaluate_at_the_float_maximum_stays_within_the_values():
    # fsum overflowed on these: masses summing to exactly 1, and masses
    # within the 1e-12 gate that are kept bit for bit.
    top = TestFunction(AB, (MAX, MAX))
    for masses in ((0.1577549464810931, 0.842245053518907), (0.5, 0.5000000000005)):
        mu = ClassicalMeasure(AB, masses)
        assert evaluate(mu, top) == MAX
        assert evaluate(mu, TestFunction(AB, (-MAX, -MAX))) == -MAX
        assert -MAX < evaluate(mu, TestFunction(AB, (MAX, -MAX))) < MAX
    # A mass just over 1 times the maximum overflows the product itself.
    one = space_of(1)
    heavy = ClassicalMeasure(one, (1.0000000000005,))
    assert heavy.weights == (1.0000000000005,)
    assert evaluate(heavy, TestFunction(one, (MAX,))) == MAX
    assert evaluate(heavy, TestFunction(one, (-MAX,))) == -MAX


def test_classical_evaluate_never_overflows_on_random_masses():
    # One in about fifteen of these overflowed fsum on the constant MAX.
    rng = random.Random(1)
    for _ in range(2_000):
        space = space_of(rng.randint(2, 6))
        raw = [rng.random() for _ in space.points]
        mu = rescaled(space, raw)
        constant = evaluate(mu, TestFunction(space, (MAX,) * len(space)))
        assert constant <= MAX and constant == pytest.approx(MAX, rel=1e-12)
        values = tuple(rng.choice((MAX, -MAX, MAX / 3, 1.0)) for _ in space.points)
        # Masses summing to 1 within 1e-12 move the bounds by as much.
        on_support = [v for w, v in zip(mu.weights, values) if w != 0.0]
        slack = 1e-12 * max(map(abs, on_support))
        value = evaluate(mu, TestFunction(space, values))
        assert min(on_support) - slack <= value <= max(on_support) + slack


# An infinity named as a value, as in ``got -inf`` or ``sum to inf``.
_INFINITY = re.compile(r"(?<![\w.])-?inf\b")


def _at_the_edge(call, *args):
    # The call's answer, or None for a float-edge refusal that names no
    # infinity: every input here is finite.  Any other exception fails the test.
    try:
        return call(*args)
    except ValueError as err:
        assert EDGE_REFUSALS.search(str(err)) and not _INFINITY.search(str(err)), str(err)
        return None


@settings(max_examples=300, derandomize=True)
@given(extreme_spaces, st.data())
def test_library_calls_at_the_float_edges_answer_or_name_the_problem(labels, data):
    # Weights at +-1.79e308, near -745 or BOTTOM, masses subnormal, at the
    # maximum or at the 1e-12 gate, values and shifts at +-1.79e308: each
    # call returns a valid object with the documented support, or raises
    # ValueError, never OverflowError, TypeError or AttributeError.
    space = FiniteSpace(tuple(labels))

    def table(values) -> dict:
        n = len(labels)
        return dict(zip(labels, data.draw(st.lists(values, min_size=n, max_size=n))))

    def valid(out, expected_support=None):
        if isinstance(out, Measure):
            assert type(out)(out.space, out.weights) == out
            assert expected_support is None or out.support == expected_support
        elif isinstance(out, TestFunction):
            assert TestFunction(out.space, out.values) == out
        elif out is not None:
            assert type(out) is float and math.isfinite(out)

    raw = {p: BOTTOM if w == "-inf" else w for p, w in table(extreme_weights).items()}
    mu = _at_the_edge(normalize_idempotent, space, tuple(raw.values()))
    valid(mu, {p for p, w in raw.items() if w is not BOTTOM})
    masses = table(extreme_masses)
    rho = _at_the_edge(rescaled, space, tuple(masses.values()))
    valid(rho, {p for p, m in masses.items() if m > 0.0})
    phi = TestFunction(space, tuple(table(extreme_values).values()))
    valid(_at_the_edge(phi.shift, data.draw(extreme_values)))
    valid(_at_the_edge(product_function, phi, phi))
    f = PointMap(space, XY, tuple(table(st.sampled_from(XY.points)).values()))
    pairs, n = product_space(space, space).points, len(space)
    for m in (mu, rho):
        if m is None:
            continue
        valid(_at_the_edge(evaluate, m, phi))
        valid(_at_the_edge(pushforward, f, m), {f(p) for p in m.support})
        square = {pairs[space.index(x) * n + space.index(y)] for x in m.support for y in m.support}
        valid(_at_the_edge(product, m, m), square)
        convert = to_classical if m is mu else to_idempotent
        valid(_at_the_edge(convert, m), m.support)
    if mu is not None:
        c = data.draw(extreme_weights)
        c = BOTTOM if c == "-inf" else c
        alpha, beta = (0.0, c) if data.draw(st.booleans()) else (c, 0.0)
        nu = dirac(space, data.draw(st.sampled_from(labels)))
        union = (mu.support if alpha is not BOTTOM else set()) | (
            nu.support if beta is not BOTTOM else set()
        )
        valid(_at_the_edge(maxplus_combine, alpha, mu, beta, nu), union)


# -- combination and the atom-count family --------------------------------------


def test_maxplus_combine_example():
    mu = maxplus_combine(0.0, dirac(AB, "a"), -1.0, dirac(AB, "b"))
    assert mu.weights == (0.0, -1.0)


def test_maxplus_combine_endpoint_with_bottom_coefficient():
    mu = IdempotentMeasure(AB, (0.0, -2.0))
    nu = dirac(AB, "b")
    assert maxplus_combine(0.0, mu, BOTTOM, nu) == mu
    assert maxplus_combine(BOTTOM, mu, 0.0, nu) == nu


def test_maxplus_combine_rejects_bad_coefficients():
    mu, nu = dirac(AB, "a"), dirac(AB, "b")
    with pytest.raises(ValueError, match="convex combination"):
        maxplus_combine(-1.0, mu, -2.0, nu)
    with pytest.raises(ValueError, match="convex combination"):
        maxplus_combine(0.5, mu, 0.0, nu)
    with pytest.raises(ValueError, match="convex combination"):
        maxplus_combine(BOTTOM, mu, BOTTOM, nu)
    with pytest.raises(ValueError, match="space mismatch"):
        maxplus_combine(0.0, mu, 0.0, dirac(space_of(3), "a"))


def test_maxplus_combine_names_the_point_whose_weight_sum_overflows():
    mu = IdempotentMeasure(AB, (0.0, -MAX))
    with pytest.raises(
        ValueError,
        match=r"^point 'b' of the combination: the weight sum "
        r"-1\.7976931348623157e\+308 \+ -1\.7976931348623157e\+308 overflows the float range$",
    ):
        maxplus_combine(-MAX, mu, 0.0, dirac(AB, "a"))
    # The other side's sum is named when it is the one that overflows.
    with pytest.raises(
        ValueError,
        match=r"^point 'b' of the combination: the weight sum "
        r"-1\.7976931348623157e\+308 \+ -8\.988465674311579e\+307 overflows",
    ):
        maxplus_combine(0.0, dirac(AB, "a"), -MAX / 2, mu)
    # Where the other side is finite the larger weight is kept.
    assert maxplus_combine(-MAX, mu, 0.0, dirac(AB, "b")).weights == (-MAX, 0.0)


def test_combine_support_is_the_union_for_finite_coefficients():
    rng = random.Random(11)
    for _ in range(200):
        space = random_space(rng)
        mu = random_idempotent(rng, space)
        nu = random_idempotent(rng, space)
        t = rng.uniform(-5.0, 0.0)
        alpha, beta = (0.0, t) if rng.random() < 0.5 else (t, 0.0)
        combined = maxplus_combine(alpha, mu, beta, nu)
        assert support(combined) == support(mu) | support(nu)


def test_evaluation_is_affine_in_each_side_within_four_ulps_of_the_largest_term():
    # |combine(a, mu, b, nu)(phi) - max(a + mu(phi), b + nu(phi))| <= 4u * S,
    # S the largest |c| + |w_i| + |phi_i| over the support atoms of each side.
    # S and the gap are exact rationals, so neither overflows nor rounds.
    rng = random.Random(7)
    u = Fraction(1, 2**53)

    def measure(space: FiniteSpace) -> IdempotentMeasure:
        weights = [rng.choice((BOTTOM, 0.0, -edge_magnitude(rng))) for _ in space.points]
        weights[rng.randrange(len(space))] = 0.0
        return IdempotentMeasure(space, tuple(weights))

    def coefficients():
        eps = 10.0 ** rng.uniform(-323.4, 0.0)  # a mixing rate, 5e-324 to 1
        c = rng.choice((BOTTOM, -MAX, -745.0, -5e-324, 0.0, math.log(max(eps, 5e-324))))
        return (0.0, c) if rng.random() < 0.5 else (c, 0.0)

    checked = differed = 0
    for _ in range(20_000):
        space = space_of(rng.randint(1, 4))
        mu, nu = measure(space), measure(space)
        phi = TestFunction(
            space, tuple(rng.choice((-1.0, 1.0)) * edge_magnitude(rng) for _ in space)
        )
        alpha, beta = coefficients()
        try:
            combined = evaluate(maxplus_combine(alpha, mu, beta, nu), phi)
        except ValueError:  # a combined weight overflows, and is named
            continue
        sides = [(c, m) for c, m in ((alpha, mu), (beta, nu)) if c is not BOTTOM]
        separate = max(c + evaluate(m, phi) for c, m in sides)
        checked += 1
        if combined == separate:
            continue
        differed += 1
        largest = max(
            abs(Fraction(c)) + abs(Fraction(w)) + abs(Fraction(v))
            for c, m in sides
            for w, v in zip(m.weights, phi.values)
            if w is not BOTTOM
        )
        assert abs(Fraction(combined) - Fraction(separate)) <= 4 * u * largest
    assert checked > 19_000 and differed > 0


def test_has_support_at_most():
    mu = IdempotentMeasure(AB, (0.0, -1.0))
    assert has_support_at_most(mu, 2)
    assert not has_support_at_most(mu, 1)
    assert has_support_at_most(dirac(AB, "a"), 1)
    with pytest.raises(ValueError):
        has_support_at_most(mu, 0)


# -- the measure axioms, as properties ------------------------------------------


@given(measure_function_scalar())
def test_normality_on_constants(case):
    space, mu, _, _, lam = case
    constant = TestFunction(space, tuple(lam for _ in space.points))
    assert evaluate_idempotent(mu, constant) == lam


@given(measure_function_scalar())
def test_homogeneity(case):
    _, mu, phi, _, lam = case
    left = evaluate_idempotent(mu, phi.shift(lam))
    right = lam + evaluate_idempotent(mu, phi)
    assert left == pytest.approx(right, abs=1e-9)


@given(measure_function_scalar())
def test_additivity_is_max(case):
    _, mu, phi, psi, _ = case
    left = evaluate_idempotent(mu, phi.pointwise_max(psi))
    right = max(evaluate_idempotent(mu, phi), evaluate_idempotent(mu, psi))
    assert left == pytest.approx(right, abs=1e-9)


@given(measure_function_scalar())
def test_evaluation_is_monotone(case):
    space, mu, phi, psi, _ = case
    upper = phi.pointwise_max(psi)
    assert evaluate_idempotent(mu, upper) >= evaluate_idempotent(mu, phi)
    assert evaluate_idempotent(mu, upper) >= evaluate_idempotent(mu, psi)


def test_single_point_space_degenerate_cases():
    one = space_of(1)
    mu = dirac(one, "a")
    phi = TestFunction(one, (4.2,))
    assert evaluate_idempotent(mu, phi) == 4.2
    assert support(mu) == frozenset({"a"})
    assert has_support_at_most(mu, 1)


# -- the record contract: frozen values, compared by their fields ----------------


def test_values_are_frozen_and_compared_by_their_fields():
    f = PointMap(AB, AB, ("a", "a"))
    mu = IdempotentMeasure(AB, (0.0, BOTTOM))
    for value, name in ((AB, "points"), (mu, "weights"), (f, "assignment")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    # Built separately, and with a cache changed: caches take no part.
    twin = IdempotentMeasure(FiniteSpace(("a", "b")), (0.0, BOTTOM))
    object.__setattr__(twin.space, "_index", {})
    assert twin == mu and hash(twin) == hash(mu)
    g = PointMap(AB, AB, ("a", "a"))
    object.__setattr__(g, "_images", ())
    assert g == f and hash(g) == hash(f)
    assert repr(AB) == "FiniteSpace(points=('a', 'b'))"
    assert repr(mu) == (
        "IdempotentMeasure(space=FiniteSpace(points=('a', 'b')), weights=(0.0, BOTTOM))"
    )
    assert "_index" not in repr(mu) and "_images" not in repr(f)


def test_values_survive_pickle_and_deepcopy():
    mu = IdempotentMeasure(AB, (0.0, BOTTOM))
    for clone in (pickle.loads(pickle.dumps(mu)), copy.deepcopy(mu)):
        assert clone == mu and clone is not mu
        assert clone.weights[1] is BOTTOM
        assert clone.space.index("b") == 1


def test_values_bind_fields_by_position_or_keyword():
    row = ConvergenceRow(n=10, error=0.5, bound=1.0)
    assert row == ConvergenceRow(10, 0.5, bound=1.0) == ConvergenceRow(10, 0.5, 1.0)
    assert (row.n, row.error, row.bound) == (10, 0.5, 1.0)
    for args, kwargs in (
        ((10, 0.5), {}),
        ((), {"n": 10, "error": 0.5}),
        ((10, 0.5, 1.0), {"n": 10}),
        ((10,), {"n": 10, "error": 0.5}),
        ((10, 0.5, 1.0, 2.0), {}),
        ((10, 0.5), {"bound": 1.0, "slope": 2.0}),
    ):
        with pytest.raises(TypeError):
            ConvergenceRow(*args, **kwargs)


# -- the measure constructors' own field binding and fast paths ------------------


def test_measures_bind_their_fields_by_position_or_keyword():
    for cls, weights in ((ClassicalMeasure, (0.25, 0.75)), (IdempotentMeasure, (0.0, BOTTOM))):
        mu = cls(AB, weights)
        assert mu == cls(AB, weights=weights) == cls(space=AB, weights=weights)
        assert mu == cls(weights=weights, space=AB)
        assert (mu.space, mu.weights) == (AB, weights)
        for args, kwargs in (
            ((AB,), {}),
            ((), {"weights": weights}),
            ((AB, weights), {"space": AB}),
            ((AB,), {"space": AB, "weights": weights}),
            ((AB, weights, weights), {}),
            ((AB, weights), {"masses": weights}),
            ((), {"space": AB, "masses": weights}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_measures_survive_pickle_and_deepcopy():
    for mu in (ClassicalMeasure(AB, (0.25, 0.75)), IdempotentMeasure(AB, (0.0, BOTTOM))):
        for clone in (pickle.loads(pickle.dumps(mu)), copy.deepcopy(mu)):
            assert type(clone) is type(mu) and clone is not mu
            assert clone == mu and hash(clone) == hash(mu) and repr(clone) == repr(mu)
            assert clone.support == mu.support


def test_classical_measure_reads_every_container_alike():
    # Masses in space order give one result or one error in any sequence.
    abc = space_of(3)

    def outcome(raw):
        try:
            mu = classical_measure(abc, raw)
        except ValueError as error:
            return str(error)
        return tuple(map(repr, mu.weights))  # keeps -0.0 apart from 0.0

    cases = (
        ((1, 0, 0), ("1.0", "0.0", "0.0")),
        ((1, 1, 2), "weights sum to 4.0, not 1"),
        ((True, 0.0, 0.0), "not a real number: True"),
        ((0.5, None, 0.5), "not a real number: None"),
        ((0.5, math.nan, 0.5), "classical weights must be finite and >= 0, got nan"),
        ((-0.0, 0.5, 0.5), ("-0.0", "0.5", "0.5")),
        ((-0.0, 1.0, 1.0), "weights sum to 2.0, not 1"),
        ((5e-324, 1.0, 1.0), "weights sum to 2.0, not 1"),
    )
    for values, expected in cases:
        forms = [list(values), tuple(values), UserList(values)]
        if not any(isinstance(v, bool) or v is None for v in values):
            forms.append(array("d", values))
        assert [outcome(raw) for raw in forms] == [expected] * len(forms)
