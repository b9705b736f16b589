from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import random
import re
from array import array
from collections import UserList, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplusprob import (
    BOTTOM,
    ClassicalMeasure,
    ConvergenceRow,
    FiniteSpace,
    IdempotentMeasure,
    Measure,
    PointMap,
    ProductSpace,
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
    support,
)

from gen import (
    awkward_spaces,
    measure_function_scalar,
    random_function,
    random_idempotent,
    random_space,
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
        classical_measure(AB, (1.0, -huge), renormalize=True)
    with pytest.raises(ValueError, match="must be finite: inf$"):
        TestFunction(AB, (1, huge))
    with pytest.raises(ValueError, match="not a max-plus scalar"):
        IdempotentMeasure(AB, (0.0, -huge))
    with pytest.raises(ValueError, match="not a max-plus scalar"):
        normalize_idempotent(AB, {"a": 0.0, "b": huge})


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


def test_function_from_mapping_requires_exact_keys():
    phi = TestFunction.from_mapping(AB, {"a": 1.0, "b": 2.0})
    assert phi.values == (1.0, 2.0)
    with pytest.raises(ValueError):
        TestFunction.from_mapping(AB, {"a": 1.0})
    with pytest.raises(ValueError):
        TestFunction.from_mapping(AB, {"a": 1.0, "b": 2.0, "c": 3.0})


def test_function_from_mapping_names_a_non_mapping():
    for table in ([1.0, 2.0], (1.0, 2.0), "ab", None):
        message = rf"^function values must be a mapping, got {type(table).__name__}$"
        with pytest.raises(TypeError, match=message):
            TestFunction.from_mapping(AB, table)


def test_function_from_mapping_checks_numbers_like_the_constructor():
    with pytest.raises(ValueError, match="not a real number: '1.5'"):
        TestFunction.from_mapping(AB, {"a": "1.5", "b": True})
    with pytest.raises(ValueError, match="not a real number: True"):
        TestFunction.from_mapping(AB, {"a": 1.5, "b": True})
    with pytest.raises(ValueError, match="must be finite: inf"):
        TestFunction.from_mapping(AB, {"a": 10**400, "b": 0.0})
    phi = TestFunction.from_mapping(AB, {"a": 1, "b": 2.5})
    assert phi.values == (1.0, 2.5)
    assert all(type(v) is float for v in phi.values)


def test_a_rejected_shift_is_named_as_given():
    # An int beyond the float range reads as inf; the message names the int.
    phi = TestFunction(AB, (1.0, 2.0))
    for bad in (10**400, -(10**400), math.inf, math.nan):
        with pytest.raises(ValueError) as err:
            phi.shift(bad)
        assert str(err.value) == f"the shift must be finite, got {bad!r}"
    # A finite shift whose sums overflow is named by the constructor.
    with pytest.raises(ValueError, match="must be finite: inf$"):
        TestFunction(AB, (1e308, 0.0)).shift(1e308)


# -- tables keyed by label --------------------------------------------------------

XY = FiniteSpace(("x", "y"))


def test_a_table_in_space_order_is_read_without_lookups():
    lookups = []

    class Table(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

    abc = space_of(3)
    mu = normalize_idempotent(abc, Table(a=0.0, b=-1.0, c=BOTTOM))
    nu = classical_measure(abc, Table(a=0.5, b=0.25, c=0.25))
    phi = TestFunction.from_mapping(abc, Table(a=1.0, b=2.0, c=3.0))
    f = PointMap.from_mapping(abc, XY, Table(a="x", b="y", c="x"))
    assert mu.weights == (0.0, -1.0, BOTTOM) and nu.weights == (0.5, 0.25, 0.25)
    assert phi.values == (1.0, 2.0, 3.0) and f.assignment == ("x", "y", "x")
    assert lookups == []


def test_a_defaultdict_with_wrong_keys_is_rejected_and_left_alone():
    # A lookup by ``[]`` would insert the missing point into the caller's table.
    abc = space_of(3)
    calls = (
        (lambda t: normalize_idempotent(abc, t), "weights", float, (0.0, -1.0)),
        (lambda t: classical_measure(abc, t), "weights", float, (0.5, 0.5)),
        (lambda t: TestFunction.from_mapping(abc, t), "function values", float, (1.0, 2.0)),
        (lambda t: PointMap.from_mapping(abc, XY, t), "images", lambda: "x", ("x", "y")),
    )
    for call, what, default, (u, v) in calls:
        for given_table, message in (
            ({"a": u, "b": v}, f"missing {what} for points: ['c']"),
            ({"b": v, "z": u, "a": u}, f"missing {what} for points: ['c']"),
            ({"a": u, "b": v, "c": u, "z": v}, f"{what} given for unknown points: ['z']"),
        ):
            table = defaultdict(default, given_table)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(table)
            assert list(table.items()) == list(given_table.items())


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
    mu = normalize_idempotent(space, shuffled(weights))
    nu = classical_measure(space, shuffled(masses))
    phi = TestFunction.from_mapping(space, shuffled(weights))
    f = PointMap.from_mapping(space, other, shuffled(images))
    assert mu.weights == phi.values == tuple(weights.values())
    assert nu.weights == tuple(masses.values())
    assert f.assignment == tuple(images.values())
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
    prod = ProductSpace.of(space, other)
    pairs = [(x, y) for x in points for y in other.points]
    assert [_unpair(label) for label in prod.space.points] == pairs
    assert [prod.pair_label(x, y) for x, y in pairs] == list(prod.space.points)


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
    nu = normalize_idempotent(AB, {"a": -3.0, "b": BOTTOM})
    assert nu.weights == (0.0, BOTTOM)
    with pytest.raises(ValueError, match="empty support"):
        normalize_idempotent(AB, (BOTTOM, BOTTOM))


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
    with pytest.raises(ValueError, match="renormalize"):
        classical_measure(AB, (0.5, 0.6))
    rescaled = classical_measure(AB, (0.5, 0.6), renormalize=True)
    assert math.isclose(sum(rescaled.weights), 1.0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        classical_measure(AB, (-0.1, 1.1))
    with pytest.raises(ValueError, match="empty support"):
        classical_measure(AB, (0.0, 0.0), renormalize=True)
    # A length mismatch is caught by the aligner and by the constructor.
    with pytest.raises(ValueError, match="one weight per point"):
        classical_measure(AB, (1.0,))
    with pytest.raises(ValueError, match="one weight per point"):
        ClassicalMeasure(AB, (1.0,))
    # Rescaling is asked for, but the constructor still rejects invalid
    # masses, naming the value that was passed rather than a quotient.
    cases = (((-0.5, 2.0), "-0.5"), ((math.nan, 1.0), "nan"), ((math.inf, 1.0), "inf"))
    for raw, shown in cases:
        with pytest.raises(ValueError, match=f"finite and >= 0, got {shown}$"):
            classical_measure(AB, raw, renormalize=True)


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
    # Masses that already meet 1e-12 are kept bit for bit, even when
    # rescaling is asked for.
    kept = (0.5, 0.5 + 5e-13)
    assert classical_measure(AB, kept, renormalize=True).weights == kept


def test_classical_constructor_is_idempotent():
    rng = random.Random(19)
    for _ in range(100):
        space = random_space(rng)
        raw = [rng.uniform(0.0, 1.0) for _ in space.points]
        if max(raw) == 0.0:
            raw[0] = 1.0
        mu = classical_measure(space, raw, renormalize=True)
        assert classical_measure(space, mu.weights) == mu


def test_rescale_that_rounds_a_mass_to_zero_names_the_point():
    # 1e-300 / 1e308 underflows: the rescale would drop b from the support.
    with pytest.raises(ValueError, match="mass 1e-300 of point 'b' underflows to 0"):
        classical_measure(AB, (1e308, 1e-300), renormalize=True)


def test_masses_summing_beyond_the_float_range():
    # fsum overflows on these finite masses: the sum counts as infinite,
    # so the constructor rejects it by its gate instead of OverflowError.
    with pytest.raises(ValueError, match="weights sum to inf, not 1; pass renormalize"):
        ClassicalMeasure(AB, (1e308, 1e308))
    with pytest.raises(ValueError, match="weights sum to inf, not 1; pass renormalize"):
        classical_measure(AB, (1e308, 1e308))
    assert classical_measure(AB, (1e308, 1e308), renormalize=True).weights == (0.5, 0.5)
    abc = space_of(3)
    mu = classical_measure(abc, (1.7e308, 1.7e308, 3.0), renormalize=True)
    assert mu.weights[:2] == (0.5, 0.5) and 0.0 < mu.weights[2] < 1e-307
    with pytest.raises(ValueError, match="mass 5e-324 of point .* underflows to 0"):
        classical_measure(abc, (1e308, 1e308, 5e-324), renormalize=True)


def test_rescale_of_a_sum_within_the_float_range_divides_by_fsum():
    rng = random.Random(83)
    for _ in range(200):
        space = random_space(rng)
        scale = 10.0 ** rng.randint(-300, 300)
        raw = [rng.uniform(0.0, 10.0) * scale for _ in space.points]
        total = math.fsum(raw)
        want = tuple(v / total for v in raw)
        if abs(math.fsum(want) - 1.0) > 1e-12:
            want = tuple(v / math.fsum(want) for v in want)
        assert classical_measure(space, raw, renormalize=True).weights == want

def test_classical_support_and_evaluation():
    mu = classical_measure(AB, (1.0, 0.0), renormalize=True)
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
        mu = classical_measure(space, raw, renormalize=True)
        constant = evaluate(mu, TestFunction(space, (MAX,) * len(space)))
        assert constant <= MAX and constant == pytest.approx(MAX, rel=1e-12)
        values = tuple(rng.choice((MAX, -MAX, MAX / 3, 1.0)) for _ in space.points)
        # Masses summing to 1 within 1e-12 move the bounds by as much.
        on_support = [v for w, v in zip(mu.weights, values) if w != 0.0]
        slack = 1e-12 * max(map(abs, on_support))
        value = evaluate(mu, TestFunction(space, values))
        assert min(on_support) - slack <= value <= max(on_support) + slack


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
    object.__setattr__(g, "_fibers", ())
    assert g == f and hash(g) == hash(f)
    assert repr(AB) == "FiniteSpace(points=('a', 'b'))"
    assert repr(mu) == (
        "IdempotentMeasure(space=FiniteSpace(points=('a', 'b')), weights=(0.0, BOTTOM))"
    )
    assert "_index" not in repr(mu) and "_fibers" not in repr(f)


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
    # Lists and tuples skip the ``Mapping`` check; a label mapping and any
    # other sequence take it.  All four give one result or one error.
    abc = space_of(3)

    def outcome(raw, renormalize):
        try:
            mu = classical_measure(abc, raw, renormalize=renormalize)
        except ValueError as error:
            return str(error)
        return tuple(map(repr, mu.weights))  # keeps -0.0 apart from 0.0

    cases = (
        ((1, 0, 0), ("1.0", "0.0", "0.0"), ("1.0", "0.0", "0.0")),
        ((1, 1, 2), "weights sum to 4.0, not 1; pass renormalize=True to rescale",
         ("0.25", "0.25", "0.5")),
        ((True, 0.0, 0.0), "not a real number: True", "not a real number: True"),
        ((0.5, None, 0.5), "not a real number: None", "not a real number: None"),
        ((0.5, math.nan, 0.5), "classical weights must be finite and >= 0, got nan",
         "classical weights must be finite and >= 0, got nan"),
        ((-0.0, 0.5, 0.5), ("-0.0", "0.5", "0.5"), ("-0.0", "0.5", "0.5")),
        ((-0.0, 1.0, 1.0), "weights sum to 2.0, not 1; pass renormalize=True to rescale",
         ("-0.0", "0.5", "0.5")),
        ((5e-324, 1.0, 1.0), "weights sum to 2.0, not 1; pass renormalize=True to rescale",
         "mass 5e-324 of point 'a' underflows to 0 when divided by the total 2.0;"
         " the rescale would drop it from the support"),
    )
    for values, plain, rescaled in cases:
        forms = [list(values), tuple(values), dict(zip(abc.points, values)), UserList(values)]
        if not any(isinstance(v, bool) or v is None for v in values):
            forms.append(array("d", values))
        for renormalize, expected in ((False, plain), (True, rescaled)):
            assert [outcome(raw, renormalize) for raw in forms] == [expected] * len(forms)
