from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplusprob import (
    BOTTOM,
    FiniteSpace,
    IdempotentMeasure,
    SegmentPoint,
    TestFunction,
    approx_coefficients,
    approx_distance_closed_form,
    approx_toward_measure,
    approx_toward_point,
    dirac,
    evaluate_idempotent,
    exactness_threshold,
    has_support_at_most,
    scalar_distance,
    segment_distance,
    support,
    support_meets,
)

from gen import (
    FLOAT_MAX,
    extreme_epsilons,
    extreme_weights,
    random_function,
    random_idempotent,
    random_space,
    space_of,
)

ABC = FiniteSpace(("a", "b", "c"))
AB = FiniteSpace(("a", "b"))

ORIGIN = SegmentPoint(0.0, BOTTOM)


def _coefficient(rng: random.Random) -> SegmentPoint:
    t = rng.uniform(-6.0, 0.0)
    if rng.random() < 0.1:
        t = BOTTOM
    return SegmentPoint(0.0, t) if rng.random() < 0.5 else SegmentPoint(t, 0.0)


# -- segment points and the metric ------------------------------------------------


def test_segment_point_validation():
    SegmentPoint(0.0, -1.0)
    SegmentPoint(BOTTOM, 0.0)
    with pytest.raises(ValueError, match="<= 0"):
        SegmentPoint(0.5, 0.0)
    with pytest.raises(ValueError, match="alpha oplus beta"):
        SegmentPoint(-1.0, -2.0)
    with pytest.raises(ValueError, match="alpha oplus beta"):
        SegmentPoint(BOTTOM, BOTTOM)


@pytest.mark.parametrize(
    "alpha, beta, shown",
    [(0.5, 0.0, "(0.5, 0.0)"), (0.0, 1.0, "(0.0, 1.0)"), (-1.0, -2.0, "(-1.0, -2.0)"),
     (BOTTOM, BOTTOM, "(BOTTOM, BOTTOM)"), (2.0, BOTTOM, "(2.0, BOTTOM)")],
)
def test_segment_point_states_its_one_rule(alpha, beta, shown):
    # alpha oplus beta == 0 already keeps both coefficients <= 0, so one
    # message covers a positive coefficient and a maximum below 0 alike.
    message = (
        "a segment point needs alpha oplus beta == 0, so both <= 0 and one of them 0,"
        f" got {shown}"
    )
    with pytest.raises(ValueError) as caught:
        SegmentPoint(alpha, beta)
    assert str(caught.value) == message


def test_scalar_distance_values():
    assert scalar_distance(0.0, BOTTOM) == 1.0
    assert scalar_distance(BOTTOM, BOTTOM) == 0.0
    assert scalar_distance(-math.log(2.0), 0.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError, match="<= 0"):
        scalar_distance(0.1, 0.0)


def test_segment_metric_axioms_on_random_points():
    rng = random.Random(31)
    points = [_coefficient(rng) for _ in range(60)]
    for p in points:
        assert segment_distance(p, p) == 0.0
    for p in points:
        for q in points:
            d = segment_distance(p, q)
            assert d >= 0.0
            assert d == segment_distance(q, p)
            if p != q:
                assert d > 0.0
    for p in points[:20]:
        for q in points[:20]:
            for r in points[:20]:
                assert segment_distance(p, r) <= (
                    segment_distance(p, q) + segment_distance(q, r) + 1e-12
                )


def test_endpoints_sit_at_distance_two():
    assert segment_distance(ORIGIN, SegmentPoint(BOTTOM, 0.0)) == 2.0


# -- mixing coefficients -----------------------------------------------------------


def test_coefficients_at_reference_rates():
    quarter = approx_coefficients(0.25)
    assert quarter.alpha == 0.0
    assert quarter.beta == pytest.approx(math.log(1.0 / 3.0), abs=1e-15)
    half = approx_coefficients(0.5)
    assert (half.alpha, half.beta) == (0.0, 0.0)
    three_quarters = approx_coefficients(0.75)
    assert three_quarters.beta == 0.0
    assert three_quarters.alpha == pytest.approx(math.log(1.0 / 3.0), abs=1e-15)
    full = approx_coefficients(1.0)
    assert full.alpha is BOTTOM
    assert full.beta == 0.0


def test_one_coefficient_is_exactly_zero():
    for k in range(1, 100):
        point = approx_coefficients(k / 100.0)
        assert point.alpha == 0.0 or point.beta == 0.0


def test_rate_validation():
    for bad in (0.0, -0.25, 1.0001, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            approx_coefficients(bad)


def test_a_rejected_rate_is_named_as_given():
    # An int beyond the float range reads as inf; the message names the int.
    for bad in (10**400, -(10**400), 2):
        for check in (approx_coefficients, approx_distance_closed_form):
            with pytest.raises(ValueError) as err:
                check(bad)
            assert str(err.value) == f"epsilon must lie in (0, 1], got {bad!r}"


# -- the mixing maps ---------------------------------------------------------------


def test_mixing_toward_a_point_extends_the_support():
    mu = dirac(ABC, "a")
    mixed = approx_toward_point(mu, "c", 0.25)
    assert support(mixed) == {"a", "c"}
    assert mixed.weights == (0.0, BOTTOM, pytest.approx(math.log(1.0 / 3.0)))


def test_full_rate_collapses_to_the_target():
    mu = IdempotentMeasure(ABC, (0.0, -1.0, -2.0))
    assert approx_toward_point(mu, "b", 1.0) == dirac(ABC, "b")
    nu = IdempotentMeasure(ABC, (-3.0, 0.0, 0.0))
    assert approx_toward_measure(mu, nu, 1.0) == nu


def test_mixing_toward_a_measure_unions_supports():
    rng = random.Random(33)
    for _ in range(100):
        space = random_space(rng)
        mu = random_idempotent(rng, space)
        nu = random_idempotent(rng, space)
        eps = rng.uniform(0.01, 0.99)
        mixed = approx_toward_measure(mu, nu, eps)
        assert support(mixed) == support(mu) | support(nu)


at_most_zero = extreme_weights.filter(lambda w: w != FLOAT_MAX)


@settings(max_examples=300, derandomize=True)
@given(st.integers(2, 6), extreme_epsilons, st.data())
def test_mixing_escapes_small_supports_at_every_rate(n, eps, data):
    # Every rate from 5e-324 to 1, weights down to -1.79e308: the moved
    # coefficient ``ln(eps) - peak`` is at least about -745, so no sum
    # ``beta + w`` reaches BOTTOM.  Toward a measure of full support the
    # result has full support; toward a point below rate 1 it keeps the
    # support of ``mu`` and adds the point.
    space = space_of(n)

    def measure(full: bool) -> IdempotentMeasure:
        drawn = data.draw(st.lists(at_most_zero, min_size=n, max_size=n))
        drawn[data.draw(st.integers(0, n - 1))] = 0.0
        return IdempotentMeasure(
            space, tuple(w if w != "-inf" else -1.0 if full else BOTTOM for w in drawn)
        )

    mu, nu = measure(full=False), measure(full=True)
    mixed = approx_toward_measure(mu, nu, eps)
    assert support(mixed) == frozenset(space.points)
    assert not has_support_at_most(mixed, n - 1)
    target = data.draw(st.sampled_from(space.points))
    toward = approx_toward_point(mu, target, eps)
    assert support(toward) == ({target} if eps == 1.0 else support(mu) | {target})


# -- distances along the mixing path ------------------------------------------------


def test_lower_branch_matches_the_metric():
    for k in range(1, 51):
        eps = k / 100.0
        measured = segment_distance(ORIGIN, approx_coefficients(eps))
        assert measured == pytest.approx(eps / (1.0 - eps), abs=1e-12)
        assert measured == pytest.approx(approx_distance_closed_form(eps), abs=1e-12)


def test_upper_branch_of_closed_form_disagrees_with_metric():
    # For eps > 1/2 the coefficients are (ln((1-eps)/eps), 0), so
    #   e^alpha = 1/eps - 1,  e^beta = 1
    # and the distance from the origin (1, 0) is
    #   |1/eps - 1 - 1| + |1 - 0| = (2 - 1/eps) + 1 = 3 - 1/eps,
    # increasing from 1 at eps = 1/2 to the endpoint distance 2 at
    # eps = 1.  The tabulated 1/eps runs the other way, decreasing from
    # 2 to 1; the curves cross once at eps = 2/3 and disagree everywhere
    # else on the branch.
    measured = []
    tabulated = []
    for k in range(51, 101):
        eps = k / 100.0
        d = segment_distance(ORIGIN, approx_coefficients(eps))
        assert d == pytest.approx(3.0 - 1.0 / eps, abs=1e-12)
        assert approx_distance_closed_form(eps) == pytest.approx(1.0 / eps, abs=1e-15)
        measured.append(d)
        tabulated.append(approx_distance_closed_form(eps))
    assert all(a < b for a, b in zip(measured, measured[1:]))
    assert all(a > b for a, b in zip(tabulated, tabulated[1:]))
    assert measured[-1] == pytest.approx(2.0, abs=1e-12)
    assert tabulated[-1] == 1.0


def test_branches_meet_at_one_half():
    assert approx_distance_closed_form(0.5) == 1.0
    assert segment_distance(ORIGIN, approx_coefficients(0.5)) == 1.0


def test_measured_distance_is_continuous_across_one_half():
    below = segment_distance(ORIGIN, approx_coefficients(0.5 - 1e-9))
    above = segment_distance(ORIGIN, approx_coefficients(0.5 + 1e-9))
    assert abs(below - above) < 1e-7


# -- the exactness threshold ---------------------------------------------------------


def test_threshold_value_for_unit_norm():
    phi = TestFunction(AB, (1.0, -1.0))
    assert exactness_threshold(phi) == 1.0 / (1.0 + math.exp(2.0))


def test_threshold_beyond_the_exponential_range():
    # Up to where e^{2s} overflows the closed form is kept bit for bit.
    assert exactness_threshold(TestFunction(AB, (354.0, 0.0))) == 1.0 / (
        1.0 + math.exp(708.0)
    )
    tail = math.exp(-710.0)
    assert exactness_threshold(TestFunction(AB, (355.0, 0.0))) == tail / (1.0 + tail)
    assert 0.0 < tail
    # Then e^{-2s} underflows: 0.0, below which no rate lies.
    for s in (400.0, 1e308):
        assert exactness_threshold(TestFunction(AB, (s, 0.0))) == 0.0


def test_below_threshold_evaluation_is_bit_identical():
    rng = random.Random(37)
    for _ in range(200):
        space = random_space(rng)
        mu = random_idempotent(rng, space)
        phi = random_function(rng, space, lo=-4.0, hi=4.0)
        target = rng.choice(space.points)
        threshold = exactness_threshold(phi)
        for scale in (0.9, 0.5, 0.1):
            mixed = approx_toward_point(mu, target, scale * threshold)
            assert evaluate_idempotent(mixed, phi) == evaluate_idempotent(mu, phi)


def test_threshold_is_sharp_for_a_two_point_instance():
    # mu sits where phi is smallest, the target where it is largest;
    # any rate above the threshold lets the moved branch win.
    mu = dirac(AB, "a")
    phi = TestFunction(AB, (-1.0, 1.0))
    threshold = exactness_threshold(phi)
    base = evaluate_idempotent(mu, phi)
    assert base == -1.0
    nudged = approx_toward_point(mu, "b", min(1.0, 1.5 * threshold))
    assert evaluate_idempotent(nudged, phi) > base


# -- support-hitting families ----------------------------------------------------------


def test_support_meets_basics():
    mu = IdempotentMeasure(ABC, (0.0, BOTTOM, -1.0))
    assert support_meets(mu, {"a"})
    assert support_meets(mu, {"b", "c"})
    assert not support_meets(mu, {"b"})
    assert not support_meets(mu, set())
    with pytest.raises(ValueError, match="points not in space"):
        support_meets(mu, {"a", "z"})


def test_support_meets_rejects_a_bare_label():
    # A string is one label, not the collection of its characters.
    mu = dirac(FiniteSpace(("ab", "c")), "ab")
    with pytest.raises(TypeError, match="got the string 'ab'"):
        support_meets(mu, "ab")
    assert support_meets(mu, {"ab"})


def test_support_meets_is_monotone_in_the_target_set():
    rng = random.Random(41)
    for _ in range(100):
        space = random_space(rng, min_size=2)
        mu = random_idempotent(rng, space)
        small = {p for p in space.points if rng.random() < 0.4}
        large = small | {p for p in space.points if rng.random() < 0.4}
        if support_meets(mu, small):
            assert support_meets(mu, large)


def test_hitting_family_is_closed_under_mixing():
    rng = random.Random(43)
    for _ in range(100):
        space = random_space(rng, min_size=2)
        targets = {space.points[0]}
        mu = random_idempotent(rng, space)
        nu = random_idempotent(rng, space)
        if support_meets(mu, targets) and support_meets(nu, targets):
            mixed = approx_toward_measure(mu, nu, rng.uniform(0.05, 0.95))
            assert support_meets(mixed, targets)


def test_hitting_families_do_not_respect_intersections():
    # The measure hits {a, b} through a and {b, c} through c, but its
    # support misses the intersection {b}.
    space = FiniteSpace(("a", "b", "c", "d"))
    mu = IdempotentMeasure(space, (0.0, BOTTOM, -1.0, BOTTOM))
    first = {"a", "b"}
    second = {"b", "c"}
    assert support_meets(mu, first)
    assert support_meets(mu, second)
    assert not support_meets(mu, first & second)


def test_missing_the_targets_means_the_support_lives_in_their_complement():
    # Complement identity: a measure fails to hit A exactly when its whole
    # support sits inside space minus A.  The full space is hit by everyone.
    rng = random.Random(47)
    for _ in range(200):
        space = random_space(rng, min_size=2)
        mu = random_idempotent(rng, space)
        targets = {p for p in space.points if rng.random() < 0.5}
        complement = set(space.points) - targets
        assert support_meets(mu, targets) == (not mu.support <= complement)
        assert support_meets(mu, set(space.points))
