from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given

import maxplusprob
from maxplusprob import semiring
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
    eval_density_measure,
    grid_points,
    has_support_at_most,
    is_bottom,
    maxplus_combine,
    mp_exp,
    mp_ln,
    normalize_idempotent,
    odot,
    oplus,
    scalar_distance,
    verify_counterexample,
)

from gen import finite_values, scalars


def test_bottom_is_a_singleton():
    assert BottomType() is BOTTOM
    assert is_bottom(BOTTOM)
    assert not is_bottom(0.0)
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


SRC = Path(maxplusprob.__file__).resolve().parent
# Outside ``semiring``, only these call ``float``: the encoders and the CLI
# printer convert the package's own values, and ``measures._scalars`` the
# ints its bulk check has already passed.
OWN_FLOATS = {
    "cli._present",
    "jsonio.encode_scalar",
    "jsonio.encode_measure",
    "measures._scalars",
}
# The number rules, each defined in ``semiring`` only.
RULES = ("as_float", "_floats", "_count")


def _float_calls(node: ast.AST, scope: str):
    # The qualified name of the innermost definition around each ``float(...)``.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _float_calls(child, f"{scope}.{child.name}")
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "float"
        ):
            yield scope
        yield from _float_calls(child, scope)


def test_only_semiring_decides_what_a_number_is():
    calls, rules, private = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "semiring":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls.update(_float_calls(tree, path.stem))
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
    assert set(reads) <= {"measures.in_space_order"}, reads
