from __future__ import annotations

import ast
import inspect
import math
import operator
import random
import re
from array import array
from collections import ChainMap, UserList, defaultdict
from pathlib import Path

import pytest
from hypothesis import given

import maxplusprob
from maxplusprob import jsonio, semiring
from maxplusprob.record import Record
from maxplusprob import (
    BOTTOM,
    MAX_PLUS,
    SUM_PRODUCT,
    BottomType,
    ClassicalMeasure,
    ContinuousTestFunction,
    CounterexampleReport,
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
)

from gen import finite_values, rescaled, scalars


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


def test_exp_past_the_float_range_is_named():
    # Not Python's bare "math range error".
    assert mp_exp(709.0) == math.exp(709.0)
    with pytest.raises(ValueError, match=r"^exp of 1000\.0 overflows the float range$"):
        mp_exp(1000.0)
    with pytest.raises(ValueError, match=r"^ln of a non-finite number: inf$"):
        mp_ln(math.inf)


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
        masses = rescaled(FiniteSpace(tuple("abcdef"[:n])), raw)
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

HUGE = 10**5000
LONG = "100000000000... (5001 digits)"  # how ``_shown`` names HUGE
NOT_REALS = ("0.5", True, None, 10**400, -(10**400), math.nan, math.inf, -math.inf)
# A huge positive count would be honoured (a grid of that many points), so
# none is passed.
NOT_COUNTS = ("0.5", True, None, -(10**400), math.nan, math.inf, 2.5, -1)

ENTRY_POINTS = {
    "TestFunction": (lambda v: TestFunction(AB, (0.0, v)), NOT_REALS),
    "TestFunction.shift": (PHI.shift, NOT_REALS),
    "IdempotentMeasure": (lambda v: IdempotentMeasure(AB, (0.0, v)), NOT_REALS),
    "ClassicalMeasure": (lambda v: ClassicalMeasure(AB, (1.0, v)), NOT_REALS),
    "classical_measure": (lambda v: classical_measure(AB, (1.0, v)), NOT_REALS),
    "normalize_idempotent": (lambda v: normalize_idempotent(AB, [v, 0.0]), NOT_REALS),
    "as_scalar": (as_scalar, NOT_REALS),
    "mp_exp": (mp_exp, NOT_REALS),
    "mp_ln": (mp_ln, NOT_REALS),
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
# is valid.
LONG_INT_SIGNS = {
    "grid_points": (1, -1),
    "approx_coefficients": (1, -1),
    "TestFunction.shift": (1, -1),
    "IdempotentMeasure": (1, -1),
    "normalize_idempotent": (1, -1),
    "as_scalar": (1, -1),
    "mp_exp": (1, -1),
    "mp_ln": (1, -1),
    "maxplus_combine": (1, -1),
    "has_support_at_most": (-1,),
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
    assert semiring._shown(["a", HUGE]) == f"['a', {LONG}]"
    # Whatever container holds one, with that container's brackets.
    assert semiring._shown((HUGE,)) == f"({LONG},)"
    assert semiring._shown(("a", HUGE)) == f"('a', {LONG})"
    assert semiring._shown({HUGE}) == f"{{{LONG}}}"
    assert semiring._shown(frozenset({HUGE})) == f"frozenset({{{LONG}}})"
    assert semiring._shown({"a": HUGE, HUGE: ()}) == f"{{'a': {LONG}, {LONG}: ()}}"
    assert semiring._shown([(1.0, {HUGE})]) == f"[(1.0, {{{LONG}}})]"


# Calls given an int past the digit limit inside a value, each with the
# message that names the value: a container shows it item by item, and the
# real-number and logarithm checks show it through ``_shown`` too.
HELD_LONG_INTS = {
    "IdempotentMeasure": (
        lambda: IdempotentMeasure(AB, (0.0, (HUGE,))),
        f"not a max-plus scalar (finite number or BOTTOM): ({LONG},)",
    ),
    "as_scalar": (
        lambda: as_scalar({"a": HUGE}),
        f"not a max-plus scalar (finite number or BOTTOM): {{'a': {LONG}}}",
    ),
    "grid_points": (
        lambda: grid_points((HUGE,)),
        f"the grid size must be an integer of at least 1, got ({LONG},)",
    ),
    "PiecewiseLinear pair": (
        lambda: PiecewiseLinear(((0.0, 0.0), (1.0, 0.0, HUGE)), 1.0),
        f"a breakpoint must be an (x, y) pair, got (1.0, 0.0, {LONG})",
    ),
    "TestFunction": (lambda: TestFunction(AB, (0.0, [HUGE])), f"not a real number: [{LONG}]"),
    "TestFunction.shift": (lambda: PHI.shift([HUGE]), f"not a real number: [{LONG}]"),
    "ClassicalMeasure": (
        lambda: ClassicalMeasure(AB, (1.0, [HUGE])), f"not a real number: [{LONG}]"
    ),
    "PiecewiseLinear": (
        lambda: PiecewiseLinear(((0.0, 0.0), (1.0, [HUGE])), 1.0), f"not a real number: [{LONG}]"
    ),
    "approx_coefficients": (lambda: approx_coefficients([HUGE]), f"not a real number: [{LONG}]"),
    "mp_ln": (lambda: mp_ln(-HUGE), f"ln of a negative number: -{LONG}"),
}


@pytest.mark.parametrize("name", sorted(HELD_LONG_INTS))
def test_a_value_holding_a_long_int_is_named(name):
    # Not Python's bare limit message, nor a TypeError from the error path.
    call, message = HELD_LONG_INTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- the kind rule ---------------------------------------------------------------

F = PointMap.identity(AB)
CLASSICAL = point_mass(AB, "a")
POINT = SegmentPoint(0.0, -1.0)
CONVERGENCE = convergence_report(DENSITY, LINE, [10, 20])
REPORT = (CONVERGENCE.rows, 0.0, True, True)
WITNESSES = (True, True, 0, 0, MU, MU, MU, MU, True, 0.0)
COUNTEREXAMPLE = CounterexampleReport(*WITNESSES)
# A value of each package class that a public parameter or field is typed with.
SAMPLES = (
    AB, MU, CLASSICAL, PHI, F, POINT, DENSITY, LINE, CONVERGENCE, CONVERGENCE.rows[0],
    COUNTEREXAMPLE,
)
# One row per public parameter or field typed with a package class, or with a
# tuple of one: a call that succeeds, and the slot that the test gives every
# other value.
KIND_RULE = [
    ("naturality_gap", (F, CLASSICAL), "f"),
    ("naturality_gap", (F, CLASSICAL), "mu"),
    ("roundtrip_gap", (MU,), "mu"),
    ("to_classical", (MU,), "mu"),
    ("to_idempotent", (CLASSICAL,), "mu"),
    ("ConvergenceReport", REPORT, "rows"),
    ("convergence_report", (DENSITY, LINE, [10]), "d"),
    ("convergence_report", (DENSITY, LINE, [10]), "phi"),
    ("discretize", (DENSITY, 10), "d"),
    ("eval_density_measure", (DENSITY, LINE, 10_000), "d"),
    ("eval_density_measure", (DENSITY, LINE, 10_000), "phi"),
    ("sample_function", (LINE, 10), "phi"),
    ("CounterexampleReport", WITNESSES, "witness_mu"),
    ("CounterexampleReport", WITNESSES, "witness_nu"),
    ("CounterexampleReport", WITNESSES, "witness_image_under_f"),
    ("CounterexampleReport", WITNESSES, "witness_image_under_g"),
    ("PointMap", (AB, AB, ("a", "b")), "domain"),
    ("PointMap", (AB, AB, ("a", "b")), "codomain"),
    ("PointMap.identity", (AB,), "space"),
    ("compose", (F, F), "outer"),
    ("compose", (F, F), "inner"),
    ("pair_map_image", (F, F, MU), "f"),
    ("pair_map_image", (F, F, MU), "g"),
    ("pair_map_image", (F, F, MU), "mu"),
    ("product", (MU, MU), "mu"),
    ("product", (MU, MU), "nu"),
    ("product_function", (PHI, PHI), "phi"),
    ("product_function", (PHI, PHI), "psi"),
    ("product_space", (AB, AB), "left"),
    ("product_space", (AB, AB), "right"),
    ("pushforward", (F, MU), "f"),
    ("pushforward", (F, MU), "mu"),
    ("reconstruct_product", (MU, MU), "mu"),
    ("reconstruct_product", (MU, MU), "nu"),
    ("approx_toward_measure", (MU, MU, 0.25), "mu"),
    ("approx_toward_measure", (MU, MU, 0.25), "nu"),
    ("approx_toward_point", (MU, "b", 0.25), "mu"),
    ("exactness_threshold", (PHI,), "phi"),
    ("segment_distance", (POINT, POINT), "p"),
    ("segment_distance", (POINT, POINT), "q"),
    ("support_meets", (MU, {"a"}), "mu"),
    ("encode_convergence_report", (CONVERGENCE,), "report"),
    ("encode_counterexample_report", (COUNTEREXAMPLE,), "report"),
    ("encode_measure", (MU,), "mu"),
    ("ClassicalMeasure", (AB, (0.5, 0.5)), "space"),
    ("IdempotentMeasure", (AB, (0.0, -1.0)), "space"),
    ("TestFunction", (AB, (1.0, 2.0)), "space"),
    ("TestFunction.pointwise_max", (PHI, PHI), "other"),
    ("dirac", (AB, "a"), "space"),
    ("evaluate", (MU, PHI), "mu"),
    ("evaluate", (MU, PHI), "phi"),
    ("has_support_at_most", (MU, 1), "mu"),
    ("maxplus_combine", (0.0, MU, 0.0, MU), "mu"),
    ("maxplus_combine", (0.0, MU, 0.0, MU), "nu"),
    ("normalize_idempotent", (AB, (1.0, 0.0)), "space"),
    ("point_mass", (AB, "a"), "space"),
    ("support", (MU,), "mu"),
]
# The public classes by name; a slot annotated with one needs it.
CLASSES = {
    name: value
    for name in maxplusprob.__all__
    if inspect.isclass(value := getattr(maxplusprob, name))
}


def _public_callables():
    # ``(name, callable)`` for each public function, each public class (its
    # constructor) and each public method of a public class.
    for name in maxplusprob.__all__:
        value = getattr(maxplusprob, name)
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            yield name, value
            for attr in vars(value):
                if not attr.startswith("_") and callable(method := getattr(value, attr)):
                    yield f"{name}.{attr}", method


def _annotations(op) -> dict:
    # Each slot of ``op`` with its annotation as written, quotes stripped: the
    # parameters, or for a class that ``Record.__init__`` builds (its
    # signature is ``(*args, **kwargs)``) the fields it binds, in order.
    if getattr(op, "__init__", None) is Record.__init__:
        written = ChainMap(*(vars(c).get("__annotations__", {}) for c in op.__mro__))
        slots = [(field, written[field]) for field in op._fields]
    else:
        slots = [(p.name, p.annotation) for p in inspect.signature(op).parameters.values()]
    return {slot: str(annotation).strip("'\"") for slot, annotation in slots}


def _slots():
    # ``(name, slot, annotation)`` for every slot of every public callable.  An
    # alias is the same object as the callable it names, so it counts once,
    # under its first public name.  ``Measure`` itself builds nothing: it
    # names the two kinds to build.
    seen = set()
    for name, op in _public_callables():
        if op not in seen and name != "Measure":
            yield from ((name, slot, a) for slot, a in _annotations(op).items())
        seen.add(op)


def _kind(annotation: str):
    # ``(cls, items)`` for an annotation naming the package class ``cls``, alone
    # or as the items of a tuple (``tuple[cls, ...]``); None for any other.
    tuple_of = re.fullmatch(r"tuple\[(\w+), \.\.\.\]", annotation)
    cls = CLASSES.get(tuple_of[1] if tuple_of else annotation)
    return cls and (cls, tuple_of is not None)


def _call_with(name: str, args: tuple, slot: str, value: object):
    # ``name(*args)`` with ``value`` in ``slot``.
    op = operator.attrgetter(name)(maxplusprob)
    at = list(_annotations(op)).index(slot)
    return op(*args[:at], value, *args[at + 1 :])


@pytest.mark.parametrize("name, args, slot", KIND_RULE, ids=[f"{n}-{s}" for n, _, s in KIND_RULE])
def test_every_parameter_typed_with_a_package_class_refuses_anything_else(name, args, slot):
    # No attribute of a wrong value is looked up, nor masses read as weights:
    # the answer is a TypeError naming the measure kind or the class's noun.
    op = operator.attrgetter(name)(maxplusprob)
    cls, items = _kind(_annotations(op)[slot])
    assert op(*args) is not None
    others = [value for value in SAMPLES if not isinstance(value, cls)]
    for bad in ("x", ("a", "b"), ["a", "b"], None, HUGE, *others):
        if kind := getattr(cls, "kind", None):
            needed = f"{kind} measure required, got {type(bad).__name__}"
        else:
            needed = f"not a {cls.noun}: {semiring._shown(bad)}"
        with pytest.raises(TypeError, match=f"^{re.escape(needed)}$"):
            _call_with(name, args, slot, (bad,) if items else bad)


def test_the_kind_rule_covers_every_parameter_typed_with_a_package_class():
    # A field that ``Record.__init__`` binds counts as a parameter.
    slots = {(name, slot) for name, slot, annotation in _slots() if _kind(annotation)}
    assert slots == {(name, slot) for name, _, slot in KIND_RULE}


# -- the collection rule -----------------------------------------------------------

AT_AB = dirac(FiniteSpace(("ab", "c")), "ab")  # "ab" is one label here
# One row per collection a caller passes: a call that succeeds, the slot, and
# how the message names the slot and its items.
COLLECTION_RULE = [
    ("FiniteSpace", (("a", "b"),), "points", "points", "labels"),
    ("PointMap", (AB, AB, ("a", "b")), "assignment", "assignment", "labels"),
    ("support_meets", (AT_AB, ("ab",)), "targets", "targets", "labels"),
    ("TestFunction", (AB, (1.0, 2.0)), "values", "values", "real numbers"),
    ("IdempotentMeasure", (AB, (0.0, -1.0)), "weights", "weights", "max-plus scalars"),
    ("ClassicalMeasure", (AB, (0.25, 0.75)), "weights", "weights", "real numbers"),
    ("normalize_idempotent", (AB, (1.0, 0.0)), "raw", "weights", "max-plus scalars"),
    ("PiecewiseLinear", (LINE.breakpoints, 1.0), "breakpoints", "breakpoints", "(x, y) pairs"),
    ("DensityMeasure", (DENSITY.breakpoints, 1.0), "breakpoints", "breakpoints",
     "(x, y) pairs"),
    ("ContinuousTestFunction", (LINE.breakpoints, 1.0), "breakpoints", "breakpoints",
     "(x, y) pairs"),
    ("PiecewiseLinear.sample", (LINE, (0.25, 0.5)), "xs", "the points", "real numbers"),
    ("convergence_report", (DENSITY, LINE, (10, 20)), "ns", "the grid sizes", "integers"),
    ("ConvergenceReport", REPORT, "rows", "rows", "convergence rows"),
]
# The only slots where order does not matter, so a set is read.
UNORDERED = {("support_meets", "targets"), ("convergence_report", "ns")}
# Tables a caller might pass for a collection: keyed by label (images, then
# weights) and by grid size.  Read as their keys, the first gives the
# identity map and the last the grid sizes ``(10,)``.
TABLES = ({"a": "b", "b": "a"}, {"a": 0.0, "b": 0.0}, {10: "x"})


@pytest.mark.parametrize(
    "name, args, slot, what, of", COLLECTION_RULE, ids=[f"{r[0]}-{r[2]}" for r in COLLECTION_RULE]
)
def test_every_collection_is_read_by_one_rule(name, args, slot, what, of):
    # Any sequence gives the same value, bit for bit; a string's characters,
    # a mapping's keys and, where order matters, a set's hash order are
    # refused by name, as is anything that is no collection.
    given = args[list(_annotations(operator.attrgetter(name)(maxplusprob))).index(slot)]
    forms = [list(given), (v for v in given), UserList(given), dict.fromkeys(given).keys()]
    if all(type(v) is float for v in given):
        forms.append(array("d", given))
    refused = [("the string 'ab'", "ab"), ("the string '10'", "10"), ("None", None), ("5", 5)]
    for table in TABLES:
        refused += [("a dict", table), ("a defaultdict", defaultdict(str, table))]
    for kind in (set, frozenset):
        if (name, slot) in UNORDERED:
            forms.append(kind(given))
        else:
            refused.append((f"a {kind.__name__}", kind(given)))
    expected = repr(_call_with(name, args, slot, given))
    assert [repr(_call_with(name, args, slot, form)) for form in forms] == [expected] * len(forms)
    for got, bad in refused:
        message = f"{what} must be a collection of {of}, got {got}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            _call_with(name, args, slot, bad)


def test_the_collection_rule_covers_every_slot_typed_as_a_collection():
    # ``big_oplus`` folds the package's own weights inside the kernels.
    slots = {
        (name, slot)
        for name, slot, annotation in _slots()
        if re.match(r"(tuple|list|Sequence|Iterable)\b", annotation)
    }
    assert slots - {("big_oplus", "values")} == {(n, s) for n, _, s, *_ in COLLECTION_RULE}


def test_the_library_has_no_public_options():
    # Every public callable takes what it needs and nothing else: a parameter
    # with a default is a knob, and a new one fails here by name.
    options = {}
    for name, op in _public_callables():
        parameters = inspect.signature(op).parameters.values()
        if defaults := {p.name: p.default for p in parameters if p.default is not p.empty}:
            options[name] = defaults
    assert options == {}


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

# Each place that rejects a label, given an int past the digit limit (alone or
# in a tuple).
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
    "FiniteSpace, in a tuple": lambda v: FiniteSpace(("a", (v,))),
    "FiniteSpace.index, in a tuple": lambda v: AB.index((v,)),
    "dirac, in a tuple": lambda v: dirac(AB, (v,)),
    "PointMap, in a tuple": lambda v: PointMap(AB, AB, ("a", (v,))),
    "support_meets, in a tuple": lambda v: support_meets(MU, [(v,)]),
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


def test_only_of_kind_checks_a_package_class():
    # No ``isinstance`` call names a public class outside ``semiring._of_kind``.
    checks = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, call in _calls(tree, path.stem, "isinstance"):
            named = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for arg in call.args[1:]
                for node in ast.walk(arg)
            }
            if named & CLASSES.keys() and scope != "semiring._of_kind":
                checks.append(scope)
    assert not checks, checks


def test_every_source_line_fits_in_99_columns():
    tests = Path(__file__).resolve().parent
    long_lines = [
        f"{path.name}:{number} ({len(line)})"
        for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")])
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert not long_lines, long_lines
