from __future__ import annotations

import itertools
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxplusprob import (
    BOTTOM,
    ClassicalMeasure,
    FiniteSpace,
    IdempotentMeasure,
    PointMap,
    ProductSpace,
    TestFunction,
    classical_measure,
    compose,
    dirac,
    evaluate,
    evaluate_idempotent,
    maxplus_combine,
    normalize_idempotent,
    pair_map_image,
    point_mass,
    product,
    product_classical,
    product_function,
    product_idempotent,
    pushforward,
    pushforward_classical,
    pushforward_idempotent,
    reconstruct_product,
    support,
    verify_counterexample,
)
from maxplusprob import functors
from maxplusprob.functors import _fixture, _full_rank, _paired_image

from gen import (
    FLOAT_MAX,
    LEAST_NORMAL,
    extreme_masses,
    extreme_spaces,
    extreme_values,
    extreme_weights,
    random_classical,
    random_function,
    random_idempotent,
    random_map,
    random_space,
    space_of,
)

ABC = FiniteSpace(("a", "b", "c"))
AB = FiniteSpace(("a", "b"))


# -- point maps ----------------------------------------------------------------


def test_point_map_validation():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    assert f("c") == "a"
    with pytest.raises(ValueError, match="one image per domain point"):
        PointMap(ABC, AB, ("a", "b"))
    with pytest.raises(ValueError, match="not in the codomain"):
        PointMap(ABC, AB, ("a", "b", "z"))
    # An unhashable image is named like any other label outside the codomain.
    with pytest.raises(ValueError, match=r"^image \['b'\] of point 'b' is not in"):
        PointMap(ABC, AB, ("a", ["b"], "z"))


def test_point_map_from_mapping():
    f = PointMap.from_mapping(AB, ABC, {"a": "c", "b": "c"})
    assert f.assignment == ("c", "c")
    with pytest.raises(ValueError, match="missing"):
        PointMap.from_mapping(AB, ABC, {"a": "c"})
    with pytest.raises(ValueError, match="unknown"):
        PointMap.from_mapping(AB, ABC, {"a": "c", "b": "c", "z": "a"})


def test_point_map_from_mapping_names_a_non_mapping():
    for table in (["c", "c"], ("c", "c"), "cc", None):
        message = rf"^images must be a mapping, got {type(table).__name__}$"
        with pytest.raises(TypeError, match=message):
            PointMap.from_mapping(AB, ABC, table)


def test_identity_and_compose():
    ident = PointMap.identity(ABC)
    assert ident.assignment == ("a", "b", "c")
    f = PointMap(ABC, AB, ("a", "b", "a"))
    swap = PointMap(AB, AB, ("b", "a"))
    assert compose(swap, f).assignment == ("b", "a", "b")
    with pytest.raises(ValueError, match="do not compose"):
        compose(f, swap)


# -- pushforwards --------------------------------------------------------------


def test_pushforward_idempotent_takes_fiber_maxima():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    mu = IdempotentMeasure(ABC, (-0.5, 0.0, -0.25))
    out = pushforward_idempotent(f, mu)
    assert out.weights == (-0.25, 0.0)


def test_pushforward_fills_empty_fibers_with_bottom():
    f = PointMap(AB, ABC, ("a", "a"))
    out = pushforward_idempotent(f, IdempotentMeasure(AB, (0.0, -1.0)))
    assert out.weights == (0.0, BOTTOM, BOTTOM)


def test_pushforward_classical_takes_fiber_sums():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    mu = classical_measure(ABC, (0.4, 0.2, 0.4))
    out = pushforward_classical(f, mu)
    assert out.weights == pytest.approx((0.8, 0.2), abs=1e-15)


def test_pushforward_classical_sums_fibers_exactly_rounded():
    ten = FiniteSpace(tuple(f"p{i}" for i in range(10)))
    collapse = PointMap(ten, space_of(1), ("a",) * 10)
    uniform = ClassicalMeasure(ten, (0.1,) * 10)
    # The float sum of ten 0.1s is 0.9999999999999999; fsum rounds once.
    assert pushforward_classical(collapse, uniform).weights == (1.0,)


def test_pushforward_classical_renormalizes_within_the_input_gate():
    # The masses sum to 1 + 9.999e-13, within the 1e-12 invariant, but
    # rounding in the fiber sums takes the image to 1 + 1e-12 and past
    # it; the image must be renormalized, not rejected.
    mu = ClassicalMeasure(ABC, (0.5, 6.661338147750939e-17, 0.5000000000009999))
    f = PointMap(ABC, FiniteSpace(("y", "z")), ("y", "y", "z"))
    out = pushforward_classical(f, mu)
    assert out.weights == (0.49999999999950007, 0.5000000000004998)


def test_pushforward_dispatch_and_mismatch():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    with pytest.raises(ValueError, match="space mismatch"):
        pushforward(f, dirac(AB, "a"))
    with pytest.raises(TypeError):
        pushforward(f, "not a measure")


def test_pushforward_preserves_identity():
    rng = random.Random(3)
    for _ in range(50):
        space = random_space(rng)
        ident = PointMap.identity(space)
        mu = random_idempotent(rng, space)
        assert pushforward(ident, mu) == mu
        nu = random_classical(rng, space)
        assert pushforward(ident, nu) == nu


def test_pushforward_respects_composition_idempotent_exactly():
    # Fiber maxima reassociate without rounding, so both routes agree
    # on the same float values.
    rng = random.Random(4)
    for _ in range(200):
        x = random_space(rng)
        y = random_space(rng)
        z = random_space(rng)
        f = random_map(rng, x, y)
        g = random_map(rng, y, z)
        mu = random_idempotent(rng, x)
        one_step = pushforward_idempotent(compose(g, f), mu)
        two_step = pushforward_idempotent(g, pushforward_idempotent(f, mu))
        assert one_step == two_step


def test_pushforward_respects_composition_classical():
    rng = random.Random(5)
    for _ in range(200):
        x = random_space(rng)
        y = random_space(rng)
        z = random_space(rng)
        f = random_map(rng, x, y)
        g = random_map(rng, y, z)
        mu = random_classical(rng, x)
        one_step = pushforward_classical(compose(g, f), mu)
        two_step = pushforward_classical(g, pushforward_classical(f, mu))
        for a, b in zip(one_step.weights, two_step.weights):
            assert a == pytest.approx(b, abs=1e-12)


def test_pushforward_characterizes_by_composition_with_functions():
    # mu_f(phi) must equal mu(phi after f); fiber maxima make this exact.
    rng = random.Random(6)
    for _ in range(200):
        x = random_space(rng)
        y = random_space(rng)
        f = random_map(rng, x, y)
        mu = random_idempotent(rng, x)
        phi = random_function(rng, y)
        pulled = TestFunction(x, tuple(phi(f(p)) for p in x.points))
        assert evaluate_idempotent(pushforward_idempotent(f, mu), phi) == (
            evaluate_idempotent(mu, pulled)
        )


# -- products ------------------------------------------------------------------


def test_product_space_layout():
    prod = ProductSpace.of(AB, ABC)
    assert prod.space.points == (
        "(a,a)", "(a,b)", "(a,c)", "(b,a)", "(b,b)", "(b,c)",
    )
    assert prod.pair_label("b", "c") == "(b,c)"
    assert prod.pair_index(1, 2) == prod.space.index("(b,c)")


# Labels that spell the pair syntax: unescaped, ("a,b", "c") and ("a", "b,c")
# would both be labeled "(a,b,c)".
COMMA_LEFT = FiniteSpace(("a,b", "a"))
COMMA_RIGHT = FiniteSpace(("c", "b,c"))
COMMA_PAIRS = ("(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)")


def test_pair_labels_escape_the_pair_syntax():
    prod = ProductSpace.of(COMMA_LEFT, COMMA_RIGHT)
    assert prod.space.points == COMMA_PAIRS
    assert prod.pair_label("a,b", "c") == "(a\\,b,c)"
    assert prod.pair_label("a", "b,c") == "(a,b\\,c)"
    assert prod.pair_label("a", "b") == "(a,b)"
    # Each of the four characters is escaped, the backslash included, so
    # no two pairs of these labels share one.
    odd = FiniteSpace(("\\", ",", "(", ")", "\\,", "x"))
    points = ProductSpace.of(odd, odd).space.points
    assert len(set(points)) == 36
    assert ProductSpace.of(odd, odd).pair_label("\\,", "(") == "(\\\\\\,,\\()"
    assert ProductSpace.of(odd, AB).pair_label("x", "a") == "(x,a)"


def test_product_spaces_stop_at_a_million_pairs_before_any_label(monkeypatch):
    # 1000 x 1000 is admitted and 1001 x 1000 refused, naming both sizes,
    # before a single pair label is built.
    built = []
    monkeypatch.setattr(functors, "_pair_labels", lambda xs, ys: built.append(1) or ("p",))
    thousand = FiniteSpace(tuple(f"a{i}" for i in range(1000)))
    more = FiniteSpace(tuple(f"b{i}" for i in range(1001)))
    assert ProductSpace.of(thousand, thousand).space.points == ("p",)
    for left, right in ((more, thousand), (thousand, more)):
        with pytest.raises(ValueError) as err:
            ProductSpace.of(left, right)
        assert str(err.value) == (
            f"a product space has at most 1000000 points, got {len(left)} x {len(right)}"
        )
    assert built == [1]


@pytest.mark.parametrize("build", (dirac, point_mass))
def test_a_product_past_the_budget_is_refused_without_allocating(build):
    # Two 1e5-point factors would ask for 1e10 pair labels; every product
    # of them is refused first, within a MiB of Python allocations.
    space = FiniteSpace(tuple(f"x{i}" for i in range(100_000)))
    mu, phi = build(space, "x0"), TestFunction(space, (0.0,) * len(space))
    calls = [lambda: product(mu, mu), lambda: product_function(phi, phi)]
    if mu.kind == "idempotent":
        calls.append(lambda: reconstruct_product(mu, mu))
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"at most 1000000 points, got 100000 x 100000"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_products_of_colliding_labels_are_built():
    mu = IdempotentMeasure(COMMA_LEFT, (0.0, -1.0))
    nu = IdempotentMeasure(COMMA_RIGHT, (-2.0, 0.0))
    out = product(mu, nu)
    assert out.space.points == COMMA_PAIRS
    assert out.weights == (-2.0, 0.0, -3.0, -1.0)
    assert reconstruct_product(mu, nu) == out
    c = ClassicalMeasure(COMMA_LEFT, (0.25, 0.75))
    d = ClassicalMeasure(COMMA_RIGHT, (0.5, 0.5))
    assert product(c, d) == ClassicalMeasure(out.space, (0.125, 0.125, 0.375, 0.375))
    phi = TestFunction(COMMA_LEFT, (1.0, 2.0))
    psi = TestFunction(COMMA_RIGHT, (10.0, 20.0))
    assert product_function(phi, psi) == TestFunction(out.space, (11.0, 21.0, 12.0, 22.0))


def test_product_of_products_escapes_the_inner_labels():
    inner = product(dirac(AB, "a"), IdempotentMeasure(AB, (-1.0, 0.0)))
    outer = product(inner, dirac(AB, "b"))
    assert outer.space.points[:2] == ("(\\(a\\,a\\),a)", "(\\(a\\,a\\),b)")
    assert len(set(outer.space.points)) == 8
    assert outer.weights[:2] == (BOTTOM, -1.0)
    assert reconstruct_product(inner, dirac(AB, "b")) == outer
    assert outer.support == {"(\\(a\\,a\\),b)", "(\\(a\\,b\\),b)"}
    # Nested on the right, the same triple gets its own label.
    right_nested = product(dirac(AB, "a"), product(dirac(AB, "a"), dirac(AB, "b")))
    assert right_nested.support == {"(a,\\(a\\,b\\))"}


def test_product_idempotent_adds_weights():
    mu = IdempotentMeasure(AB, (0.0, -1.0))
    nu = IdempotentMeasure(AB, (-2.0, 0.0))
    out = product_idempotent(mu, nu)
    assert out.weights == (-2.0, 0.0, -3.0, -1.0)


def test_product_classical_multiplies_masses():
    mu = classical_measure(AB, (0.5, 0.5))
    nu = classical_measure(AB, (0.25, 0.75))
    out = product_classical(mu, nu)
    assert out.weights == (0.125, 0.375, 0.125, 0.375)


def test_product_classical_renormalizes_within_the_input_gate():
    # Each factor meets the 1e-12 sum invariant, but the raw products sum
    # to 1 + 1.8e-12; the product must be renormalized, not rejected.
    c = ClassicalMeasure(AB, (0.5 + 9e-13, 0.5))
    out = product_classical(c, c)
    assert math.fsum(out.weights) == pytest.approx(1.0, abs=1e-15)
    assert out.weights[1] == out.weights[2]
    assert out.weights[0] > out.weights[1] > out.weights[3]


def test_product_names_the_pair_whose_weight_sum_overflows():
    # -1e308 + -1e308 is below the float range; no weight may become -inf.
    mu = IdempotentMeasure(AB, (0.0, -1e308))
    message = r"atom \(b,b\) of the product: the weight sum .* overflows"
    for build in (product, reconstruct_product):
        with pytest.raises(ValueError, match=message):
            build(mu, mu)
    # A BOTTOM atom pairs to BOTTOM, not to an overflow.
    out = product(IdempotentMeasure(AB, (0.0, BOTTOM)), mu)
    assert out.weights == (0.0, -1e308, BOTTOM, BOTTOM)


def test_product_function_names_the_atom_whose_value_sum_overflows():
    phi = TestFunction(AB, (1.7e308, 0.0))
    with pytest.raises(
        ValueError,
        match=r"^atom \(a,a\) of the product function: the value sum "
        r"1\.7e\+308 \+ 1\.7e\+308 overflows the float range$",
    ):
        product_function(phi, phi)
    psi = TestFunction(AB, (0.0, -1.7e308))
    with pytest.raises(ValueError, match=r"^atom \(b,b\) of the product function"):
        product_function(psi, psi)
    assert product_function(phi, psi).values == (1.7e308, 0.0, 0.0, -1.7e308)


def test_products_name_the_first_pair_whose_sum_overflows():
    # Weights near -1.79e308 and -9e307 and values near +-1.79e308: each
    # product keeps every pair of support atoms, or names the first pair in
    # left-major order whose sum overflows, with both terms, as a scan does.
    rng = random.Random(19)

    def near_edge(sign: float) -> float:
        return sign * rng.choice((1.79e308, 9e307)) * rng.uniform(0.99, 1.0)

    def measure(space: FiniteSpace) -> IdempotentMeasure:
        weights = [rng.choice((BOTTOM, 0.0, near_edge(-1.0))) for _ in space.points]
        weights[rng.randrange(len(space))] = 0.0
        return IdempotentMeasure(space, tuple(weights))

    def function(space: FiniteSpace) -> TestFunction:
        return TestFunction(space, tuple(near_edge(rng.choice((-1.0, 1.0))) for _ in space))

    outcomes = set()
    for _ in range(300):
        prod = ProductSpace.of(space_of(rng.randint(1, 4)), space_of(rng.randint(1, 4)))
        mu, nu = measure(prod.left), measure(prod.right)
        phi, psi = function(prod.left), function(prod.right)
        for build, left, right, where, what in (
            (product, mu.weights, nu.weights, "product", "weight"),
            (reconstruct_product, mu.weights, nu.weights, "product", "weight"),
            (product_function, phi.values, psi.values, "product function", "value"),
        ):
            factors = (mu, nu) if what == "weight" else (phi, psi)
            pairs = list(itertools.product(left, right))
            sums = tuple(BOTTOM if BOTTOM in pair else pair[0] + pair[1] for pair in pairs)
            lost = [
                (label, *pair)
                for label, pair, out in zip(prod.space.points, pairs, sums)
                if out is not BOTTOM and math.isinf(out)
            ]
            outcomes.add((build, bool(lost)))
            if not lost:
                out = build(*factors)
                assert out.space == prod.space
                assert (out.weights if what == "weight" else out.values) == sums
                continue
            label, a, b = lost[0]
            with pytest.raises(ValueError) as err:
                build(*factors)
            assert str(err.value) == (
                f"atom {label} of the {where}: the {what} sum {a!r} + {b!r}"
                " overflows the float range"
            )
    assert len(outcomes) == 6  # each product both answers and raises


def test_product_names_the_pair_whose_mass_product_underflows():
    # 1e-200 * 1e-200 rounds to 0: (b,b) would leave the support silently.
    mu = ClassicalMeasure(AB, (1.0, 1e-200))
    message = r"atom \(b,b\) of the product: the mass product .* underflows to 0"
    with pytest.raises(ValueError, match=message):
        product(mu, mu)
    # A massless atom pairs to mass 0, not to an underflow.
    out = product(ClassicalMeasure(AB, (1.0, 0.0)), mu)
    assert out.weights == (1.0, 1e-200, 0.0, 0.0)


def test_product_requires_one_kind():
    with pytest.raises(ValueError, match="same kind"):
        product(dirac(AB, "a"), classical_measure(AB, (0.5, 0.5)))


def test_product_with_bottom_atoms():
    mu = dirac(AB, "a")
    nu = IdempotentMeasure(AB, (0.0, -1.0))
    out = product_idempotent(mu, nu)
    assert out.weights == (0.0, -1.0, BOTTOM, BOTTOM)


def test_split_function_evaluation_is_the_sum():
    rng = random.Random(8)
    for _ in range(300):
        x = random_space(rng, max_size=5)
        y = random_space(rng, max_size=5)
        mu = random_idempotent(rng, x)
        nu = random_idempotent(rng, y)
        phi = random_function(rng, x)
        psi = random_function(rng, y)
        left = evaluate_idempotent(product_idempotent(mu, nu), product_function(phi, psi))
        right = evaluate_idempotent(mu, phi) + evaluate_idempotent(nu, psi)
        assert left == pytest.approx(right, abs=1e-12)


def test_reconstruction_from_factor_evaluations_is_exact():
    rng = random.Random(9)
    for _ in range(100):
        x = random_space(rng, max_size=4)
        y = random_space(rng, max_size=4)
        mu = random_idempotent(rng, x)
        nu = random_idempotent(rng, y)
        assert reconstruct_product(mu, nu) == product_idempotent(mu, nu)


def _unless_overflow(call, *args):
    # The call's answer, or None when it raises the named overflow.
    try:
        return call(*args)
    except ValueError as err:
        assert str(err).endswith(" overflows the float range"), str(err)
        return None


@settings(max_examples=300, derandomize=True)
@given(extreme_spaces, extreme_spaces, extreme_spaces, st.data())
def test_exact_laws_hold_at_the_float_edges(xs, ys, zs, data):
    # Weights at -1.79e308, near -745 or BOTTOM, values at +-1.79e308.  Each
    # law's two sides take the maximum of the same rounded sums, and rounding
    # is monotone, so they agree bit for bit.  An operation that raises its
    # named overflow skips the laws that need its result.
    x, y, z = (FiniteSpace(tuple(labels)) for labels in (xs, ys, zs))

    def drawn(values, n: int) -> list:
        return data.draw(st.lists(values, min_size=n, max_size=n))

    def measure(space):
        raw = [BOTTOM if w == "-inf" else w for w in drawn(extreme_weights, len(space))]
        assume(any(w is not BOTTOM for w in raw))
        return _unless_overflow(normalize_idempotent, space, raw)

    def point_map(domain, codomain):
        images = drawn(st.sampled_from(codomain.points), len(domain))
        return PointMap(domain, codomain, tuple(images))

    mu, nu = measure(x), measure(y)
    f, g = point_map(x, y), point_map(y, z)
    psi = TestFunction(y, tuple(drawn(extreme_values, len(y))))
    if mu is not None:
        assert pushforward(PointMap.identity(x), mu) == mu
        assert pushforward(compose(g, f), mu) == pushforward(g, pushforward(f, mu))
        pulled = TestFunction(x, tuple(psi(f(p)) for p in x.points))
        assert evaluate(pushforward(f, mu), psi) == evaluate(mu, pulled)
    if mu is not None and nu is not None:
        both = _unless_overflow(product, mu, nu)
        assert _unless_overflow(reconstruct_product, mu, nu) == both
        if both is not None:
            left = PointMap(both.space, x, tuple(p for p in x.points for _ in y.points))
            right = PointMap(both.space, y, tuple(q for _ in x.points for q in y.points))
            assert pushforward(left, both) == mu
            assert pushforward(right, both) == nu
    # Max-plus convexity: the support of ``alpha mu (+) beta lam`` is the union
    # of the supports whose coefficient is not BOTTOM.
    lam = measure(x)
    # The coefficient besides 0: BOTTOM in about half the examples.
    c = data.draw(st.one_of(st.just("-inf"), extreme_weights.filter(lambda w: w != FLOAT_MAX)))
    c = BOTTOM if c == "-inf" else c
    alpha, beta = (0.0, c) if data.draw(st.booleans()) else (c, 0.0)
    mixed = None if mu is None or lam is None else _unless_overflow(
        maxplus_combine, alpha, mu, beta, lam
    )
    if mixed is not None:
        none = frozenset()
        assert support(mixed) == (
            (none if alpha is BOTTOM else support(mu)) | (none if beta is BOTTOM else support(lam))
        )
        # Pushforward commutes with the combination: both sides take the
        # maximum of the same rounded sums ``alpha + w``.
        assert pushforward(f, mixed) == maxplus_combine(
            alpha, pushforward(f, mu), beta, pushforward(f, lam)
        )


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 8), extreme_spaces, extreme_spaces, st.data())
def test_classical_functoriality_holds_within_its_stated_bound(n, ys, zs, data):
    # Masses subnormal, at 1, at the float maximum (rescaled) or anywhere.
    # The identity copies each mass.  Along g o f one step rounds each fiber
    # sum once, exactly (``fsum``); two steps round the inner sums and then
    # the outer one.  So the images agree per atom within 4u * max(a, b),
    # plus one subnormal spacing per domain point.
    x, y, z = space_of(n), FiniteSpace(tuple(ys)), FiniteSpace(tuple(zs))
    masses = data.draw(st.lists(extreme_masses, min_size=n, max_size=n))
    assume(max(masses) > 0.0)
    try:
        mu = classical_measure(x, masses, renormalize=True)
    except ValueError as err:  # the rescale would drop a mass, and says so
        assert "underflows to 0" in str(err)
        assume(False)

    def point_map(domain, codomain):
        k = len(domain)
        images = data.draw(st.lists(st.sampled_from(codomain.points), min_size=k, max_size=k))
        return PointMap(domain, codomain, tuple(images))

    f, g = point_map(x, y), point_map(y, z)
    assert pushforward(PointMap.identity(x), mu) == mu
    one_step = pushforward(compose(g, f), mu)
    two_step = pushforward(g, pushforward(f, mu))
    for a, b in zip(one_step.weights, two_step.weights):
        assert abs(a - b) <= 4 * 2.0**-53 * max(a, b) + n * 2.0**-1074, (a, b)


def test_classical_functoriality_bound_is_reached_on_seeded_masses():
    # Masses subnormal, between 1e-320 and 1e-300, uniform in [0, 1) or near
    # the float maximum, mixed on up to 8 points: here the two routes do
    # round differently, by up to half the bound.
    rng = random.Random(5)
    draws = (
        lambda: rng.uniform(0.0, LEAST_NORMAL),
        lambda: 10 ** rng.uniform(-320, -300),
        rng.random,
        lambda: FLOAT_MAX * rng.uniform(0.5, 1.0),
    )
    worst, differ = 0.0, 0
    for _ in range(1500):
        x, y, z = (random_space(rng) for _ in range(3))
        masses = [rng.choice(draws)() for _ in x.points]
        try:
            mu = classical_measure(x, masses, renormalize=True)
        except ValueError as err:  # the rescale would drop a mass, and says so
            assert "underflows to 0" in str(err)
            continue
        f, g = random_map(rng, x, y), random_map(rng, y, z)
        one_step = pushforward(compose(g, f), mu)
        two_step = pushforward(g, pushforward(f, mu))
        differ += one_step != two_step
        for a, b in zip(one_step.weights, two_step.weights):
            bound = 4 * 2.0**-53 * max(a, b) + len(x) * 2.0**-1074
            assert abs(a - b) <= bound, (a, b)
            worst = max(worst, abs(a - b) / bound)
    assert differ and worst > 0.25, (differ, worst)


def test_classical_product_is_fubini_too():
    rng = random.Random(10)
    for _ in range(100):
        x = random_space(rng, max_size=4)
        y = random_space(rng, max_size=4)
        mu = random_classical(rng, x)
        nu = random_classical(rng, y)
        phi = random_function(rng, x)
        psi = random_function(rng, y)
        prod = product_classical(mu, nu)
        split = product_function(phi, psi)
        left = evaluate(prod, split)
        right = evaluate(mu, phi) + evaluate(nu, psi)
        assert left == pytest.approx(right, abs=1e-12)


# -- the paired-pushforward probe ------------------------------------------------


def test_pair_map_image_requires_shared_domain():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    g = PointMap(AB, AB, ("a", "b"))
    with pytest.raises(ValueError, match="share a domain"):
        pair_map_image(f, g, dirac(ABC, "a"))


def test_counterexample_report_verdicts():
    report = verify_counterexample(random_pairs=500)
    assert report.classical_injective
    assert report.exact_solution_unique
    assert report.random_pairs_checked == 500
    assert report.grid_pairs_checked > 0
    assert report.witness_images_equal
    assert report.witness_mu != report.witness_nu
    assert report.naturality_gap == pytest.approx(math.log(2.0), abs=1e-12)


def test_counterexample_pair_count_must_be_a_count():
    for bad in (-5, True, 2.5, "10", None):
        with pytest.raises(ValueError, match="random pairs must be an integer of at least 0"):
            verify_counterexample(random_pairs=bad)
    report = verify_counterexample(random_pairs=0)
    assert report.random_pairs_checked == 0
    assert report.classical_injective


def test_counterexample_seed_must_be_a_count():
    # ``random.Random`` raised TypeError for a list and took 2.5, "x" and
    # True; a negative seed draws what its absolute value draws.
    for bad in ([1], 2.5, "x", True, None, -5):
        with pytest.raises(ValueError, match=r"^the seed must be an integer of at least 0, got "):
            verify_counterexample(random_pairs=0, seed=bad)
    assert verify_counterexample(random_pairs=8, seed=5).classical_injective


def test_counterexample_witness_images_agree_under_both_maps():
    report = verify_counterexample(random_pairs=100)
    domain = report.witness_mu.space
    f = PointMap(domain, FiniteSpace(("a", "b")), ("a", "b", "a"))
    g = PointMap(domain, FiniteSpace(("a", "c")), ("a", "a", "c"))
    assert pushforward(f, report.witness_mu) == report.witness_image_under_f
    assert pushforward(g, report.witness_mu) == report.witness_image_under_g
    assert pushforward(f, report.witness_nu) == report.witness_image_under_f
    assert pushforward(g, report.witness_nu) == report.witness_image_under_g


def test_paired_image_forms_equal_the_pushforwards_bit_for_bit():
    domain, f, g = _fixture()
    step = 12
    raws = [
        (i / step, j / step, (step - i - j) / step)
        for i in range(step + 1)
        for j in range(step + 1 - i)
    ]
    grid = [classical_measure(domain, raw, renormalize=True) for raw in raws]
    assert len(grid) == 91
    # The grid masses meet the input gate, so building them directly
    # gives the same measures as asking for rescaling.
    assert grid == [ClassicalMeasure(domain, raw) for raw in raws]
    rng = random.Random(31)
    sampled = [
        classical_measure(domain, [rng.uniform(0.0, 1.0) for _ in range(3)], renormalize=True)
        for _ in range(300)
    ]
    for mu in grid + sampled:
        under_f, under_g = pair_map_image(f, g, mu)
        assert _paired_image(mu) == under_f.weights + under_g.weights


def test_rank_check_separates_the_fixture_from_a_repeated_map():
    # The pairing (f, g) has the forms (a + c, b, a + b, c): rank 3.
    assert _full_rank(((1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    # The pairing (f, f) repeats the forms (a + c, b): rank 2, and the
    # measures (1, 0, 0) and (0, 0, 1) share one image.
    assert not _full_rank(((1, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 0)))


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_counterexample_holds_for_other_seeds(seed):
    report = verify_counterexample(random_pairs=500, seed=seed)
    assert report.grid_pairs_checked == 4186
    assert report.classical_injective


def test_counterexample_validates_every_classical_construction(monkeypatch):
    # Counted at class level, where the benchmark's spans wrap it: no
    # construction is batched away or built without its check.
    validate = ClassicalMeasure.__post_init__
    calls = []

    def counted(self):
        calls.append(None)
        validate(self)

    monkeypatch.setattr(ClassicalMeasure, "__post_init__", counted)
    report = verify_counterexample()
    # 10,000 + 8,750 sampled measures (every eighth pair is a self-pair),
    # 91 grid measures, the conversion probe and its pushforward.
    assert len(calls) == 18_843
    assert report.grid_pairs_checked == 4186 and report.classical_injective


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_counterexample_samples_exact_points_of_the_simplex(monkeypatch, seed):
    # Each sample is the spacings of two sorted draws: three exact masses
    # summing to exactly 1, which the constructor stores bit for bit.
    validate = ClassicalMeasure.__post_init__
    built = []

    def recorded(self):
        given = self.weights
        validate(self)
        built.append((given, self.weights))

    monkeypatch.setattr(ClassicalMeasure, "__post_init__", recorded)
    report = verify_counterexample(random_pairs=500, seed=seed)
    assert report.classical_injective
    step = 12
    grid = {
        (i / step, j / step, (step - i - j) / step)
        for i in range(step + 1)
        for j in range(step + 1 - i)
    }
    sampled = [
        (given, stored)
        for given, stored in built
        if len(given) == 3 and given not in grid and given != (0.4, 0.2, 0.4)
    ]
    # 500 pairs, every eighth a self-pair: 500 + 437 sampled measures.
    assert len(sampled) == 937
    for given, stored in sampled:
        assert min(given) >= 0.0 and math.fsum(given) == 1.0
        assert list(map(float.hex, stored)) == list(map(float.hex, given))
    # Each spacing of a uniform point of the simplex has mean 1/3.
    for masses in zip(*(given for given, _ in sampled)):
        assert abs(math.fsum(masses) / len(masses) - 1 / 3) < 0.03


def test_counterexample_checks_every_colliding_grid_pair(monkeypatch):
    # With the pairing (f, f), whose forms (a + c, b) repeat, distinct
    # grid measures such as (1, 0, 0) and (0, 0, 1) share one image.
    def repeated(mu):
        a, b, c = mu.weights
        return (a + c, b, a + c, b)

    # The same forms in units of the grid step are integers: two grid
    # images then agree bit for bit or differ by at least 1, so only the
    # exact collisions can show that the pairing is not injective.
    def repeated_in_steps(mu):
        a, b, c = mu.weights
        image = (round(12 * (a + c)), round(12 * b))
        return image + image

    for forms in (repeated, repeated_in_steps):
        monkeypatch.setattr(functors, "_paired_image", forms)
        for pairs in (0, 500):
            report = verify_counterexample(random_pairs=pairs)
            assert report.exact_solution_unique
            assert report.classical_injective is False
            assert report.grid_pairs_checked == 4186


def test_counterexample_is_seeded_and_reproducible():
    a = verify_counterexample(random_pairs=200, seed=42)
    b = verify_counterexample(random_pairs=200, seed=42)
    assert a == b


def test_single_point_spaces_push_and_multiply():
    one = space_of(1)
    f = PointMap(one, one, ("a",))
    mu = dirac(one, "a")
    assert pushforward(f, mu) == mu
    prod = product_idempotent(mu, mu)
    assert prod.weights == (0.0,)


def test_shared_records_answer_four_threads_as_they_answer_one():
    # The records are immutable, so sharing them is safe; the one cache, a
    # space's label index, is built by whichever thread looks a label up first.
    def tasks():
        rng = random.Random(7)
        big = FiniteSpace(tuple(f"p{i}" for i in range(10_000)))
        f = random_map(rng, big, ABC)
        mu, nu = random_idempotent(rng, big), random_classical(rng, big)
        phi = random_function(rng, big)
        labels = [f"p{i}" for i in range(0, 10_000, 97)]
        assert "_index" not in vars(big)
        return [
            lambda: [big.index(x) for x in labels],
            lambda: [(f(x), phi(x), x in big) for x in labels],
            lambda: (evaluate(mu, phi), evaluate(nu, phi)),
            lambda: (pushforward(f, mu), pushforward(f, nu)),
            lambda: product(pushforward(f, mu), random_idempotent(random.Random(1), ABC)),
            lambda: product(nu, pushforward(f, nu)),
        ]

    serial = [task() for task in tasks()]
    shared = tasks()
    start = threading.Barrier(4, timeout=60)

    def worker(_) -> list:
        start.wait()  # so that all four look labels up before the index exists
        return [task() for task in shared]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the kernels too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(worker, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert answers == [serial] * 4
