from __future__ import annotations

import ast
import inspect
import math
import operator
import random
import re
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given

import maxplusprob
from maxplusprob import jsonio, semiring
from maxplusprob import (
    BOTTOM,
    MAX_PLUS,
    SUM_PRODUCT,
    BottomType,
    ClassicalMeasure,
    ContinuousTestFunction,
    DensityMeasure,
    FiniteSpace,
    IdempotentMeasure,
    PiecewiseLinear,
    PointMap,
    SegmentPoint,
    TestFunction,
    approx_coefficients,
    approx_distance_closed_form,
    approx_toward_point,
    as_scalar,
    big_oplus,
    classical_measure,
    convergence_report,
    decode_measure,
    dirac,
    eval_density_measure,
    grid_points,
    has_support_at_most,
    maxplus_combine,
    mp_exp,
    mp_ln,
    normalize_idempotent,
    odot,
    oplus,
    point_mass,
    scalar_distance,
    support_meets,
    verify_counterexample,
)

from gen import finite_values, scalars


def test_bottom_is_a_singleton():
    assert BottomType() is BOTTOM
    assert repr(BOTTOM) == "BOTTOM"


def test_oplus_basics():
    assert oplus(-1.0, 2.0) == 2.0
    assert oplus(BOTTOM, -3.0) == -3.0
    assert oplus(-3.0, BOTTOM) == -3.0
    assert oplus(BOTTOM, BOTTOM) is BOTTOM


def test_odot_basics():
    assert odot(1.5, 2.0) == 3.5
    assert odot(BOTTOM, 7.0) is BOTTOM
    assert odot(7.0, BOTTOM) is BOTTOM
    assert odot(BOTTOM, BOTTOM) is BOTTOM


def test_big_oplus():
    assert big_oplus([-1.0, 0.0, -3.0]) == 0.0
    assert big_oplus([]) is BOTTOM
    assert big_oplus([BOTTOM, -2.0, BOTTOM]) == -2.0


def test_as_scalar_accepts_and_rejects():
    assert as_scalar(3) == 3.0
    assert as_scalar(BOTTOM) is BOTTOM
    for bad in (float("nan"), float("inf"), float("-inf"), "0", None, True):
        with pytest.raises(ValueError):
            as_scalar(bad)


def test_as_scalar_rejects_ints_beyond_the_float_range():
    # ``float`` raises OverflowError for these; they are non-finite scalars.
    for bad in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="not a max-plus scalar"):
            as_scalar(bad)


def test_exp_and_ln_handle_bottom():
    assert mp_exp(BOTTOM) == 0.0
    assert mp_exp(0.0) == 1.0
    assert mp_ln(0.0) is BOTTOM
    assert mp_ln(1.0) == 0.0
    with pytest.raises(ValueError):
        mp_ln(-0.5)
    assert mp_exp(mp_ln(0.25)) == pytest.approx(0.25, abs=1e-15)


# -- semiring laws -------------------------------------------------------------


@given(scalars, scalars)
def test_oplus_commutes(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(scalars, scalars, scalars)
def test_oplus_associates(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(scalars)
def test_oplus_idempotent_with_neutral_bottom(a):
    assert oplus(a, a) == a
    assert oplus(a, BOTTOM) == a


@given(scalars, scalars)
def test_odot_commutes(a, b):
    assert odot(a, b) == odot(b, a)


@given(finite_values, finite_values, finite_values)
def test_odot_associates_within_float_error(a, b, c):
    left = odot(odot(a, b), c)
    right = odot(a, odot(b, c))
    assert left == pytest.approx(right, abs=1e-12)


@given(scalars)
def test_odot_neutral_and_absorbing(a):
    assert odot(a, 0.0) == a
    assert odot(a, BOTTOM) is BOTTOM


@given(finite_values, finite_values, finite_values)
def test_odot_distributes_over_oplus(a, b, c):
    left = odot(a, oplus(b, c))
    right = oplus(odot(a, b), odot(a, c))
    # Rounding is monotone, so both sides are the same float expression.
    assert left == right


@given(scalars, scalars)
def test_distributivity_with_bottom(a, b):
    assert odot(a, oplus(b, BOTTOM)) == oplus(odot(a, b), odot(a, BOTTOM))


def test_exp_is_monotone_on_the_segment():
    grid = [BOTTOM] + [-(k / 7.0) for k in range(14, -1, -1)]
    values = [mp_exp(v) for v in grid]
    assert values == sorted(values)
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert math.isclose(mp_exp(math.log(0.3)), 0.3, abs_tol=1e-15)


def test_semiring_instances():
    assert MAX_PLUS.sum(()) is MAX_PLUS.zero is BOTTOM
    assert SUM_PRODUCT.sum(()) == SUM_PRODUCT.zero == 0.0
    assert MAX_PLUS.times(-1.0, 2.5) == 1.5 and MAX_PLUS.times(0.0, BOTTOM) is BOTTOM
    assert SUM_PRODUCT.times(0.5, 3.0) == 1.5
    # dot is the fold of times over aligned pairs.
    w, v = (0.0, BOTTOM, -2.0), (1.0, 7.0, 4.0)
    assert MAX_PLUS.dot(w, v) == MAX_PLUS.sum(map(MAX_PLUS.times, w, v)) == 2.0
    assert MAX_PLUS.dot((BOTTOM,), (1.0,)) is BOTTOM
    w, v = (0.25, 0.0, 0.75), (4.0, 9.0, -1.0)
    assert SUM_PRODUCT.dot(w, v) == SUM_PRODUCT.sum(map(SUM_PRODUCT.times, w, v)) == 0.25


def test_halved_fold_undoes_its_scaling():
    # The overflow fallback of the classical evaluation kernel: where fsum
    # does not overflow, the halved fold gives the same bits whenever
    # they lie between the values (every mass here is positive).
    rng = random.Random(5)
    for _ in range(2_000):
        n = rng.randint(1, 6)
        raw = [rng.random() for _ in range(n)]
        masses = classical_measure(FiniteSpace(tuple("abcdef"[:n])), raw, renormalize=True)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-290, 300) for _ in range(n)]
        fast = semiring._sum_product_dot(masses.weights, values)
        if min(values) <= fast <= max(values):
            assert semiring._halved_dot(masses.weights, values) == fast


# -- the number rule -------------------------------------------------------------

AB = FiniteSpace(("a", "b"))
MU = IdempotentMeasure(AB, (0.0, -1.0))
PHI = TestFunction(AB, (1.0, 2.0))
LINE = ContinuousTestFunction(((0.0, 0.0), (1.0, 1.0)), 1.0)
DENSITY = DensityMeasure(((0.0, 0.0), (1.0, -1.0)), 1.0)

NOT_REALS = ("0.5", True, None, 10**400, -(10**400), math.nan, math.inf, -math.inf)
# A huge positive count would be honoured (a grid of that many points, or
# that many sampled pairs), so none is passed.
NOT_COUNTS = ("0.5", True, None, -(10**400), math.nan, math.inf, 2.5, -1)

ENTRY_POINTS = {
    "TestFunction": (lambda v: TestFunction(AB, (0.0, v)), NOT_REALS),
    "TestFunction.shift": (PHI.shift, NOT_REALS),
    "IdempotentMeasure": (lambda v: IdempotentMeasure(AB, (0.0, v)), NOT_REALS),
    "ClassicalMeasure": (lambda v: ClassicalMeasure(AB, (1.0, v)), NOT_REALS),
    "classical_measure": (
        lambda v: classical_measure(AB, {"a": v, "b": 1.0}, renormalize=True),
        NOT_REALS,
    ),
    "normalize_idempotent": (lambda v: normalize_idempotent(AB, [v, 0.0]), NOT_REALS),
    "as_scalar": (as_scalar, NOT_REALS),
    "SegmentPoint": (lambda v: SegmentPoint(0.0, v), NOT_REALS),
    "scalar_distance": (lambda v: scalar_distance(v, 0.0), NOT_REALS),
    "maxplus_combine": (lambda v: maxplus_combine(0.0, MU, v, MU), NOT_REALS),
    "approx_coefficients": (approx_coefficients, NOT_REALS),
    "approx_toward_point": (lambda v: approx_toward_point(MU, "b", v), NOT_REALS),
    "approx_distance_closed_form": (approx_distance_closed_form, NOT_REALS),
    "PiecewiseLinear": (
        lambda v: PiecewiseLinear(((0.0, 0.0), (1.0, v)), 1.0), NOT_REALS
    ),
    "PiecewiseLinear.lipschitz": (
        lambda v: PiecewiseLinear(((0.0, 0.0), (1.0, 0.0)), v), NOT_REALS
    ),
    "PiecewiseLinear.sample": (lambda v: LINE.sample([0.5, v]), NOT_REALS),
    "PiecewiseLinear.__call__": (LINE, NOT_REALS),
    "decode_measure idempotent": (
        lambda v: decode_measure(
            {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0.0, "b": v}}
        ),
        NOT_REALS,
    ),
    "decode_measure classical": (
        lambda v: decode_measure(
            {"space": ["a", "b"], "kind": "classical", "weights": {"a": 1.0, "b": v}}
        ),
        NOT_REALS,
    ),
    "grid_points": (grid_points, NOT_COUNTS),
    "has_support_at_most": (lambda v: has_support_at_most(MU, v), NOT_COUNTS),
    "convergence_report": (
        lambda v: convergence_report(DENSITY, LINE, [10, v]), NOT_COUNTS
    ),
    "eval_density_measure": (
        lambda v: eval_density_measure(DENSITY, LINE, v), NOT_COUNTS
    ),
    "verify_counterexample": (
        lambda v: verify_counterexample(random_pairs=v), NOT_COUNTS
    ),
    "verify_counterexample seed": (
        lambda v: verify_counterexample(random_pairs=0, seed=v), NOT_COUNTS
    ),
}
# Sampling reads a non-finite real as numpy.interp does (+-inf, NaN).
READS_NON_FINITE = {"PiecewiseLinear.sample", "PiecewiseLinear.__call__"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_number_entry_point_answers_a_bad_value_with_value_error(name):
    call, bad_values = ENTRY_POINTS[name]
    for bad in bad_values:
        try:
            call(bad)
        except ValueError:
            continue
        except Exception as err:  # TypeError or OverflowError break the rule
            pytest.fail(f"{name}({bad!r}) raised {err!r}")
        assert name in READS_NON_FINITE and type(bad) in (int, float), (name, bad)


# Entry points that reject an int past Python's 4,300-digit limit for
# int-to-string conversion, by the signs they reject: a huge atom budget
# or seed is valid.
LONG_INT_SIGNS = {
    "grid_points": (1, -1),
    "approx_coefficients": (1, -1),
    "TestFunction.shift": (1, -1),
    "IdempotentMeasure": (1, -1),
    "normalize_idempotent": (1, -1),
    "as_scalar": (1, -1),
    "maxplus_combine": (1, -1),
    "has_support_at_most": (-1,),
    "verify_counterexample seed": (-1,),
    "eval_density_measure": (1, -1),
}


@pytest.mark.parametrize(
    "name, sign", [(name, sign) for name, signs in LONG_INT_SIGNS.items() for sign in signs]
)
def test_an_int_past_the_digit_limit_is_named_by_its_lead_and_length(name, sign):
    # Its repr would raise Python's own limit message, naming no check.
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError) as err:
        call(sign * 10**5000)
    shown = "-100000000000" if sign < 0 else "100000000000"
    assert str(err.value).endswith(f" {shown}... (5001 digits)"), str(err.value)


def test_shown_spells_out_every_int_that_has_a_repr():
    # Up to Python's default limit of 4,300 digits, as the messages always did.
    assert semiring._shown(10**4300 - 1) == "9" * 4300
    assert semiring._shown(-(10**4300)) == "-100000000000... (4301 digits)"
    assert semiring._shown(10**4400 - 1) == "999999999999... (4400 digits)"
    assert semiring._shown(2**16000) == "301946933723... (4817 digits)"
    assert semiring._shown(True) == "True"
    assert semiring._shown(2.5) == "2.5"
    assert semiring._shown(["a", 10**5000]) == "['a', 100000000000... (5001 digits)]"


# -- the kind rule ---------------------------------------------------------------

HUGE = 10**5000
M = object()  # marks the measure slot under test
F = PointMap.identity(AB)
# Every public operation that takes a measure, once per measure slot, with
# the kind that slot needs (None: either kind will do).
KIND_RULE = [
    ("evaluate", (M, PHI), None),
    ("evaluate_idempotent", (M, PHI), None),
    ("evaluate_classical", (M, PHI), None),
    ("support", (M,), None),
    ("has_support_at_most", (M, 1), None),
    ("pushforward", (F, M), None),
    ("pushforward_idempotent", (F, M), None),
    ("pushforward_classical", (F, M), None),
    ("pair_map_image", (F, F, M), None),
    ("product", (M, MU), None),
    ("product_idempotent", (M, MU), None),
    ("product_classical", (M, MU), None),
    ("product", (MU, M), None),
    ("product_idempotent", (MU, M), None),
    ("product_classical", (MU, M), None),
    ("roundtrip_gap", (M,), None),
    ("encode_measure", (M,), None),
    ("support_meets", (M, {"a"}), None),
    ("maxplus_combine", (0.0, M, 0.0, MU), "idempotent"),
    ("maxplus_combine", (0.0, MU, 0.0, M), "idempotent"),
    ("reconstruct_product", (M, MU), "idempotent"),
    ("reconstruct_product", (MU, M), "idempotent"),
    ("approx_toward_point", (M, "b", 0.25), "idempotent"),
    ("approx_toward_measure", (M, MU, 0.25), "idempotent"),
    ("approx_toward_measure", (MU, M, 0.25), "idempotent"),
    ("to_classical", (M,), "idempotent"),
    ("to_idempotent", (M,), "classical"),
    ("naturality_gap", (F, M), "classical"),
]
MEASURE_TYPES = {"Measure", "IdempotentMeasure", "ClassicalMeasure"}


@pytest.mark.parametrize(
    "name, args, kind", KIND_RULE, ids=[f"{n}-{a.index(M)}" for n, a, _ in KIND_RULE]
)
def test_every_operation_states_the_measure_kind_it_needs(name, args, kind):
    # Masses are never read as weights, nor a non-measure's attributes looked
    # up: the answer is a TypeError naming what was needed.
    other = () if kind is None else (MU if kind == "classical" else point_mass(AB, "a"),)
    for bad in ("x", HUGE, *other):
        if kind is None:
            needed = f"not a measure: {semiring._shown(bad)}"
        else:
            needed = f"{kind} measure required, got {type(bad).__name__}"
        with pytest.raises(TypeError, match=f"^{re.escape(needed)}$"):
            getattr(maxplusprob, name)(*(bad if a is M else a for a in args))


def test_the_kind_rule_covers_every_operation_that_takes_a_measure():
    takers = {
        name
        for name in maxplusprob.__all__
        if inspect.isfunction(op := getattr(maxplusprob, name))
        and any(p.annotation in MEASURE_TYPES for p in inspect.signature(op).parameters.values())
    }
    assert takers == {name for name, _, _ in KIND_RULE}


X = object()  # marks the function or map slot under test
CLASSICAL = point_mass(AB, "a")
# Every public operation that takes a function or a map, once per such slot,
# with the class that slot needs.
VALUE_KIND_RULE = [
    ("evaluate", (MU, X), TestFunction),
    ("evaluate_idempotent", (MU, X), TestFunction),
    ("evaluate_classical", (CLASSICAL, X), TestFunction),
    ("TestFunction.pointwise_max", (PHI, X), TestFunction),
    ("product_function", (X, PHI), TestFunction),
    ("product_function", (PHI, X), TestFunction),
    ("exactness_threshold", (X,), TestFunction),
    ("pushforward", (X, MU), PointMap),
    ("pushforward_idempotent", (X, MU), PointMap),
    ("pushforward_classical", (X, CLASSICAL), PointMap),
    ("compose", (X, F), PointMap),
    ("compose", (F, X), PointMap),
    ("pair_map_image", (X, F, MU), PointMap),
    ("pair_map_image", (F, X, MU), PointMap),
    ("naturality_gap", (X, CLASSICAL), PointMap),
]


@pytest.mark.parametrize(
    "name, args, cls", VALUE_KIND_RULE, ids=[f"{n}-{a.index(X)}" for n, a, _ in VALUE_KIND_RULE]
)
def test_every_operation_states_the_function_or_map_it_needs(name, args, cls):
    # No attribute of a non-function or non-map is looked up: the answer is
    # a TypeError naming what was needed.
    op = operator.attrgetter(name)(maxplusprob)
    good = PHI if cls is TestFunction else F
    assert op(*(good if a is X else a for a in args)) is not None
    for bad in ("x", HUGE, None, MU, F if cls is TestFunction else PHI):
        needed = f"not a {cls.noun}: {semiring._shown(bad)}"
        with pytest.raises(TypeError, match=f"^{re.escape(needed)}$"):
            op(*(bad if a is X else a for a in args))


def test_the_kind_rule_covers_every_operation_that_takes_a_function_or_a_map():
    takers = {
        name
        for name in maxplusprob.__all__
        if inspect.isfunction(op := getattr(maxplusprob, name))
        and any(
            p.annotation in ("TestFunction", "PointMap")
            for p in inspect.signature(op).parameters.values()
        )
    }
    assert takers == {name for name, _, _ in VALUE_KIND_RULE if "." not in name}


S = object()  # marks the space slot under test
# Every public operation that takes a space, once per space slot.
SPACE_KIND_RULE = [
    ("dirac", (S, "a"), {}),
    ("point_mass", (S, "a"), {}),
    ("normalize_idempotent", (S, (1.0, 0.0)), {}),
    ("classical_measure", (S, (0.5, 0.5)), {}),
    ("classical_measure", (S, (1.0, 1.0)), {"renormalize": True}),
    ("product_space", (S, AB), {}),
    ("product_space", (AB, S), {}),
    ("PointMap.identity", (S,), {}),
]


@pytest.mark.parametrize(
    "name, args, options",
    SPACE_KIND_RULE,
    ids=[f"{n}-{a.index(S)}{''.join(f'-{k}' for k in o)}" for n, a, o in SPACE_KIND_RULE],
)
def test_every_operation_states_the_space_it_needs(name, args, options):
    # No attribute of a non-space is looked up, nor its length taken: the
    # answer is a TypeError naming what was needed.
    op = operator.attrgetter(name)(maxplusprob)
    assert op(*(AB if a is S else a for a in args), **options) is not None
    for bad in (("a", "b"), ["a", "b"], "ab", None, HUGE, MU):
        needed = f"not a space: {semiring._shown(bad)}"
        with pytest.raises(TypeError, match=f"^{re.escape(needed)}$"):
            op(*(bad if a is S else a for a in args), **options)


def _public_callables():
    # ``(name, callable)`` for each public function and each public method of
    # a public class.
    for name in maxplusprob.__all__:
        value = getattr(maxplusprob, name)
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr in vars(value):
                if not attr.startswith("_") and callable(method := getattr(value, attr)):
                    yield f"{name}.{attr}", method


def test_the_kind_rule_covers_every_operation_that_takes_a_space():
    takers = {
        name
        for name, op in _public_callables()
        if any(p.annotation == "FiniteSpace" for p in inspect.signature(op).parameters.values())
    }
    assert takers == {name for name, _, _ in SPACE_KIND_RULE}


# Every public parameter with a default, and the default, in one literal: a new
# option shows up in one diff.
PUBLIC_OPTIONS = {
    "classical_measure": {"renormalize": False},
    "verify_counterexample": {"random_pairs": 10_000, "seed": 0},
}


def test_the_public_options_are_pinned():
    options = {}
    for name, op in _public_callables():
        parameters = inspect.signature(op).parameters.values()
        if defaults := {p.name: p.default for p in parameters if p.default is not p.empty}:
            options[name] = defaults
    assert options == PUBLIC_OPTIONS


# The public names, in one literal: a change to them shows up in one diff.
PUBLIC_NAMES = [
    "BOTTOM", "BottomType", "ClassicalMeasure", "ContinuousTestFunction",
    "ConvergenceReport", "ConvergenceRow", "CounterexampleReport", "DensityMeasure",
    "FiniteSpace", "IdempotentMeasure", "MAX_PLUS", "MaxPlusValue", "Measure",
    "PiecewiseLinear", "PointMap", "SUM_PRODUCT", "SchemaError", "SegmentPoint",
    "Semiring", "TestFunction", "approx_coefficients", "approx_distance_closed_form",
    "approx_toward_measure", "approx_toward_point", "as_scalar", "big_oplus",
    "classical_measure", "compose", "convergence_report", "decode_continuous_function",
    "decode_density", "decode_function", "decode_measure", "decode_point_map", "dirac",
    "discretize", "encode_convergence_report", "encode_counterexample_report",
    "encode_measure", "eval_density_measure", "evaluate", "evaluate_classical",
    "evaluate_idempotent", "exactness_threshold", "grid_points", "grid_space",
    "has_support_at_most", "maxplus_combine", "mp_exp", "mp_ln", "naturality_gap",
    "normalize_idempotent", "odot", "oplus",
    "pair_map_image", "point_mass", "product", "product_classical", "product_function",
    "product_idempotent", "product_space", "pushforward", "pushforward_classical",
    "pushforward_idempotent", "reconstruct_product", "roundtrip_gap", "sample_function",
    "scalar_distance", "segment_distance", "support", "support_meets", "to_classical",
    "to_idempotent", "verify_counterexample",
]


def test_the_public_names_are_pinned():
    assert sorted(maxplusprob.__all__) == PUBLIC_NAMES


# -- labels ----------------------------------------------------------------------

# Each place that rejects a label, given an int past the digit limit.
LABEL_ENTRY_POINTS = {
    "FiniteSpace": lambda v: FiniteSpace(("a", v)),
    "FiniteSpace.index": lambda v: AB.index(v),
    "dirac": lambda v: dirac(AB, v),
    "point_mass": lambda v: point_mass(AB, v),
    "TestFunction.__call__": PHI,
    "jsonio._in_space_order": lambda v: jsonio._in_space_order(AB, {"a": 0.0, "b": 0.0, v: 1.0}),
    "PointMap": lambda v: PointMap(AB, AB, ("a", v)),
    "PointMap.__call__": F,
    "approx_toward_point": lambda v: approx_toward_point(MU, v, 0.25),
    "support_meets": lambda v: support_meets(MU, {v}),
}


@pytest.mark.parametrize("name", sorted(LABEL_ENTRY_POINTS))
def test_a_rejected_label_is_shown_like_a_number(name):
    with pytest.raises(ValueError, match=re.escape("100000000000... (5001 digits)")):
        LABEL_ENTRY_POINTS[name](HUGE)


def test_an_unhashable_label_is_not_in_the_space():
    # Named like any other unknown label, not as Python's bare "unhashable type".
    assert ["a"] not in AB
    for name in (
        "FiniteSpace.index", "dirac", "point_mass", "TestFunction.__call__",
        "PointMap.__call__", "approx_toward_point",
    ):
        with pytest.raises(ValueError, match=r"^point not in space: \['a'\]$"):
            LABEL_ENTRY_POINTS[name](["a"])


def test_an_unhashable_target_is_named_once():
    # Membership is asked of the targets as given, before any set is built.
    with pytest.raises(ValueError, match=r"^points not in space: \[\['a'\]\]$"):
        support_meets(dirac(AB, "a"), [["a"]])
    with pytest.raises(ValueError, match=r"^points not in space: \['z', 1, \['a'\]\]$"):
        support_meets(MU, [["a"], "z", "a", ["a"], 1, "z", True])


def test_no_collection_of_labels_is_read_from_a_mapping():
    # Read as its keys, this dict of images would give the identity map.
    table = {"a": "b", "b": "a"}
    for what, call in (
        ("points", FiniteSpace),
        ("assignment", lambda t: PointMap(AB, AB, t)),
        ("targets", lambda t: support_meets(MU, t)),
    ):
        for given_table in (table, defaultdict(str, table)):
            message = f"{what} must be a collection of labels, got a {type(given_table).__name__}"
            with pytest.raises(TypeError, match=f"^{message}$"):
                call(given_table)
    assert PointMap(AB, AB, tuple(table.values()))("a") == "b"


def test_unknown_targets_of_mixed_types_are_named_in_order():
    # Strings keep their order and come first; no two types are compared.
    with pytest.raises(ValueError, match=r"^points not in space: \['y', 'z'\]$"):
        support_meets(MU, {"z", "a", "y"})
    with pytest.raises(ValueError, match=r"^points not in space: \['z', 1\]$"):
        support_meets(MU, {1, "z"})
    with pytest.raises(
        ValueError,
        match=r"^points not in space: \['z', 100000000000\.\.\. \(5001 digits\), 2, None\]$",
    ):
        support_meets(MU, {None, 2, HUGE, "z", "a"})


SRC = Path(maxplusprob.__file__).resolve().parent
# Outside ``semiring``, only the CLI printer calls ``float``, on the package's
# own values.  A measure's stored weights are already exact floats, so
# ``encode_measure`` writes them as they are.
OWN_FLOATS = {
    "cli._present",
}
# The number rules, the overflow rule and the kind rule, each defined in
# ``semiring`` only.
RULES = ("as_float", "_floats", "_scalars", "_count", "_summed", "_of_kind")


def _calls(node: ast.AST, scope: str, callee: str):
    # ``(scope, call)`` for each ``callee(...)``, ``scope`` being the qualified
    # name of the innermost definition around it.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{scope}.{child.name}", callee)
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == callee
        ):
            yield scope, child
        yield from _calls(child, scope, callee)


def test_only_semiring_decides_what_a_number_is():
    calls, rules, private = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "semiring":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls.update(scope for scope, _ in _calls(tree, path.stem, "float"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in RULES:
                rules.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "semiring":
                private += [
                    f"{path.stem}: {node.module}.{a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert calls <= OWN_FLOATS, sorted(calls - OWN_FLOATS)
    assert not rules, rules
    assert not private, private


def test_only_semiring_names_a_sum_that_overflows():
    # Every max-plus sum past the float range is named by ``_summed``.
    writers = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if "overflows the float range" in path.read_text(encoding="utf-8")
    ]
    assert writers == ["semiring"], writers


def _table_reads(node: ast.AST, scope: str):
    # ``scope`` of each list or generator comprehension over ``<expr>.points``
    # that subscripts something by its loop variable: ``[t[p] for p in s.points]``.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _table_reads(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, (ast.ListComp, ast.GeneratorExp)):
            loops = {
                gen.target.id
                for gen in child.generators
                if isinstance(gen.iter, ast.Attribute)
                and gen.iter.attr == "points"
                and isinstance(gen.target, ast.Name)
            }
            if any(
                isinstance(sub, ast.Subscript)
                and isinstance(sub.slice, ast.Name)
                and sub.slice.id in loops
                for sub in ast.walk(child)
            ):
                yield scope
        yield from _table_reads(child, scope)


def test_only_in_space_order_puts_a_table_in_space_order():
    reads = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _table_reads(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert set(reads) <= {"jsonio._in_space_order"}, reads


def test_jsonio_runs_element_checks_only_after_a_rejection():
    # Each decoder hands its ``elements`` closure to ``_built``, which runs it
    # only when the constructor has refused the value.
    tree = ast.parse((SRC / "jsonio.py").read_text(encoding="utf-8"))
    callers = {scope for scope, _ in _calls(tree, "jsonio", "elements")}
    assert callers == {"jsonio._built"}, sorted(callers)


def test_no_source_file_holds_an_assert():
    # ``python -O`` drops them, so no check may rest on one.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts


def test_only_of_kind_checks_a_measure_kind():
    # No ``isinstance`` call names a measure class outside ``semiring._of_kind``.
    checks = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, call in _calls(tree, path.stem, "isinstance"):
            named = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for arg in call.args[1:]
                for node in ast.walk(arg)
            }
            if named & MEASURE_TYPES and scope != "semiring._of_kind":
                checks.append(scope)
    assert not checks, checks


def test_every_source_line_fits_in_99_columns():
    long_lines = [
        f"{path.name}:{number} ({len(line)})"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert not long_lines, long_lines
