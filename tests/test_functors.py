from __future__ import annotations

import math
import random

import pytest

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
    pair_map_image,
    product,
    product_classical,
    product_function,
    product_idempotent,
    pushforward,
    pushforward_classical,
    pushforward_idempotent,
    reconstruct_product,
    verify_counterexample,
)
from maxplusprob import functors
from maxplusprob.functors import _fixture, _full_rank, _paired_image

from gen import (
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
