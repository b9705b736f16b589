from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings

from maxplusprob import (
    BOTTOM,
    FiniteSpace,
    IdempotentMeasure,
    PointMap,
    classical_measure,
    dirac,
    naturality_gap,
    normalize_idempotent,
    point_mass,
    roundtrip_gap,
    support,
    to_classical,
    to_idempotent,
)

from gen import (
    EDGE_REFUSALS,
    classical_on,
    extreme_masses,
    extreme_spaces,
    extreme_weights,
    idempotent_on,
    random_classical,
    random_idempotent,
    random_space,
    rescaled,
    space_of,
    spaces,
)
from hypothesis import strategies as st

ABC = FiniteSpace(("a", "b", "c"))
AB = FiniteSpace(("a", "b"))


# -- the two directions on worked instances --------------------------------------


def test_log_ratio_of_worked_triple():
    mu = classical_measure(ABC, (0.5, 0.3, 0.2))
    out = to_idempotent(mu)
    assert out.weights[0] == 0.0
    assert out.weights[1] == pytest.approx(math.log(0.6), abs=1e-12)
    assert out.weights[2] == pytest.approx(math.log(0.4), abs=1e-12)


def test_softmax_of_flat_pair():
    mu = IdempotentMeasure(AB, (0.0, 0.0))
    assert to_classical(mu).weights == (0.5, 0.5)


def test_point_measures_are_fixed_points():
    assert to_classical(dirac(ABC, "b")) == point_mass(ABC, "b")
    assert to_idempotent(point_mass(ABC, "b")) == dirac(ABC, "b")
    assert to_idempotent(point_mass(ABC, "b")).weights[1] == 0.0


def test_uniform_measures_correspond():
    n = 4
    space = space_of(n)
    flat = IdempotentMeasure(space, (0.0,) * n)
    uniform = to_classical(flat)
    assert uniform.weights == (0.25, 0.25, 0.25, 0.25)
    assert to_idempotent(uniform) == flat


def test_zero_mass_and_bottom_exchange():
    mu = classical_measure(ABC, (0.7, 0.0, 0.3))
    out = to_idempotent(mu)
    assert out.weights[1] is BOTTOM
    assert support(out) == support(mu)
    back = to_classical(out)
    assert back.weights[1] == 0.0


def test_softmax_rejects_a_weight_whose_mass_underflows():
    # e^-800 is 0.0 in floats; the atom must not leave the support silently.
    with pytest.raises(ValueError, match=r"-800\.0 of point 'b'"):
        to_classical(IdempotentMeasure(AB, (0.0, -800.0)))
    # e^-745 is the smallest subnormal, nonzero, but halving it rounds to 0.
    assert math.exp(-745.0) > 0.0
    with pytest.raises(ValueError, match=r"-745\.0 of point 'c'"):
        to_classical(IdempotentMeasure(ABC, (0.0, 0.0, -745.0)))
    # BOTTOM atoms still map to mass 0, and masses that survive stay put.
    kept = to_classical(IdempotentMeasure(ABC, (0.0, BOTTOM, -700.0)))
    assert kept.weights[1] == 0.0
    assert support(kept) == frozenset({"a", "c"})


@pytest.mark.parametrize(
    "convert, args, got",
    [
        (to_classical, (point_mass(AB, "a"),), "ClassicalMeasure"),
        (to_classical, ("a",), "str"),
        (to_idempotent, (dirac(AB, "a"),), "IdempotentMeasure"),
        (to_idempotent, (IdempotentMeasure(AB, (0.0, -1.0)),), "IdempotentMeasure"),
        (naturality_gap, (PointMap.identity(AB), dirac(AB, "a")), "IdempotentMeasure"),
    ],
)
def test_conversions_name_the_measure_kind_they_need(convert, args, got):
    # Masses are not read as weights, nor weights as masses.
    needed = "idempotent" if convert is to_classical else "classical"
    with pytest.raises(TypeError, match=f"^{needed} measure required, got {got}$"):
        convert(*args)


# -- roundtrips ------------------------------------------------------------------


def test_roundtrip_gap_on_seeded_sweep():
    rng = random.Random(21)
    for _ in range(300):
        space = random_space(rng)
        assert roundtrip_gap(random_idempotent(rng, space)) <= 1e-9
        assert roundtrip_gap(random_classical(rng, space)) <= 1e-9


def test_roundtrip_gap_stays_within_its_stated_bound():
    # The smallest exact mass m = e^{w_min} / sum_j e^{w_j} is stored after
    # two roundings, exp's and the division's; once it is subnormal they
    # move it by about 2**-1074, so its log moves by about 2**-1074 / m (at
    # most twice that, rounding down).  While every mass is normal only the
    # logs' rounding shows.  The named underflow, a mass rounded to 0, is
    # skipped.
    tiny = -1074 * math.log(2.0)
    checked = skipped = 0
    worst = 0.0
    for k in range(4521):
        w = -700.0 - k / 100
        for weights in ((0.0, w), (w, 0.0), (0.0, w, -0.5), (-0.5, 0.0, w), (w, 0.0, w)):
            mu = IdempotentMeasure(space_of(len(weights)), weights)
            try:
                gap = roundtrip_gap(mu)
            except ValueError as err:
                assert "underflows to mass 0" in str(err)
                skipped += 1
                continue
            log_m = w - math.log(math.fsum(map(math.exp, weights)))
            bound = 2.0 * math.exp(tiny - log_m) + 4.0 * math.ulp(1.0 - w)
            assert gap <= bound, (weights, gap, bound)
            worst = max(worst, gap / bound)
            checked += 1
    assert skipped < 50 < checked
    assert worst > 0.25  # the sweep reaches the subnormal masses


def test_roundtrip_gap_rejects_non_measures():
    with pytest.raises(TypeError):
        roundtrip_gap({"a": 1.0})


@given(spaces.flatmap(idempotent_on))
def test_roundtrip_preserves_support_idempotent(mu):
    back = to_idempotent(to_classical(mu))
    assert support(back) == support(mu)
    assert roundtrip_gap(mu) <= 1e-9


@given(spaces.flatmap(classical_on))
def test_roundtrip_preserves_support_classical(mu):
    back = to_classical(to_idempotent(mu))
    assert support(back) == support(mu)
    assert roundtrip_gap(mu) <= 1e-9


@given(spaces.flatmap(classical_on))
def test_argmax_atoms_become_weight_zero_atoms(mu):
    # Integer masses make ties exact, so the comparison is crisp.
    top = max(mu.weights)
    argmax = {p for p, w in zip(mu.space.points, mu.weights) if w == top}
    out = to_idempotent(mu)
    peak_atoms = {p for p, w in zip(out.space.points, out.weights) if w == 0.0}
    assert peak_atoms == argmax


@given(spaces.flatmap(idempotent_on))
def test_weight_zero_atoms_become_argmax_atoms(mu):
    # Weights within an ulp of 0 exponentiate to exactly 1.0 and join
    # the argmax; the exact correspondence needs the rest separated.
    assume(all(w is BOTTOM or w == 0.0 or w <= -1e-9 for w in mu.weights))
    peak_atoms = {p for p, w in zip(mu.space.points, mu.weights) if w == 0.0}
    out = to_classical(mu)
    top = max(out.weights)
    argmax = {p for p, w in zip(out.space.points, out.weights) if w == top}
    assert argmax == peak_atoms


# -- continuity along 1/t sequences ----------------------------------------------


def test_log_ratio_is_continuous_along_a_mass_sequence():
    base = (0.5, 0.3, 0.2)
    direction = (0.02, -0.01, -0.01)
    limit = to_idempotent(classical_measure(ABC, base))
    for t in (1, 2, 5, 10, 100, 1000, 10_000):
        masses = tuple(b + d / t for b, d in zip(base, direction))
        step = to_idempotent(rescaled(ABC, masses))
        gap = max(abs(x - y) for x, y in zip(step.weights, limit.weights))
        assert gap <= 0.5 / t


def test_softmax_is_continuous_along_a_weight_sequence():
    base = (0.0, -0.5, -1.0)
    direction = (0.0, 0.01, -0.02)
    limit = to_classical(IdempotentMeasure(ABC, base))
    for t in (1, 2, 5, 10, 100, 1000, 10_000):
        weights = tuple(b + d / t for b, d in zip(base, direction))
        step = to_classical(IdempotentMeasure(ABC, weights))
        gap = max(abs(x - y) for x, y in zip(step.weights, limit.weights))
        assert gap <= 0.5 / t


# -- naturality of the conversion -------------------------------------------------


def test_merging_map_shows_the_known_gap():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    mu = classical_measure(ABC, (0.4, 0.2, 0.4))
    assert naturality_gap(f, mu) == pytest.approx(math.log(2.0), abs=1e-12)


def test_naturality_gap_space_mismatch():
    f = PointMap(ABC, AB, ("a", "b", "a"))
    with pytest.raises(ValueError, match="space mismatch"):
        naturality_gap(f, classical_measure(AB, (0.5, 0.5)))


@given(spaces.flatmap(classical_on), st.randoms(use_true_random=False))
def test_injective_maps_have_zero_gap(mu, rng):
    # Embed into a larger codomain through a random injection: fiber
    # sums and fiber maxima then act atom by atom, so the gap is 0.
    domain = mu.space
    extended = FiniteSpace(tuple("abcdefgh"[: len(domain) + 2]))
    slots = list(extended.points)
    rng.shuffle(slots)
    f = PointMap(domain, extended, tuple(slots[: len(domain)]))
    assert naturality_gap(f, mu) == 0.0


def test_merging_equal_masses_keeps_gap_zero():
    # The mismatch needs unequal masses in one fiber; a tie merges
    # without error because max and sum then normalize identically.
    f = PointMap(AB, space_of(1), ("a", "a"))
    mu = classical_measure(AB, (0.5, 0.5))
    assert naturality_gap(f, mu) == 0.0


# -- the gaps at the float edges -----------------------------------------------------


def _built(call, *args):
    # The measure, or None when building it is refused at the float's edges
    # (an overflowing shift, no support); the gaps are what is tested here.
    try:
        return call(*args)
    except ValueError as err:
        assert EDGE_REFUSALS.search(str(err)), str(err)
        return None


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 6), extreme_spaces, st.data())
def test_gaps_are_finite_or_name_the_underflow_at_the_float_edges(n, ys, data):
    # Weights at -1.79e308, near -745 or BOTTOM; masses subnormal, at the
    # float maximum or anywhere.  Conversions keep supports or raise, and
    # pushforwards keep them, so every gap is a finite number unless
    # ``to_classical`` names a mass that rounds to 0.
    x, y = space_of(n), FiniteSpace(tuple(ys))
    raw = data.draw(st.lists(extreme_weights, min_size=n, max_size=n))
    masses = data.draw(st.lists(extreme_masses, min_size=n, max_size=n))
    images = data.draw(st.lists(st.sampled_from(y.points), min_size=n, max_size=n))
    f = PointMap(x, y, tuple(images))
    mu = _built(normalize_idempotent, x, [BOTTOM if w == "-inf" else w for w in raw])
    nu = rescaled(x, masses) if max(masses) > 0.0 else None
    assume(mu is not None or nu is not None)
    calls = [(roundtrip_gap, m) for m in (mu, nu) if m is not None]
    calls += [(naturality_gap, f, nu)] if nu is not None else []
    for call, *args in calls:
        try:
            gap = call(*args)
        except ValueError as err:
            assert str(err).endswith("the conversion would drop it from the support"), err
        else:
            assert 0.0 <= gap < math.inf, (call.__name__, args, gap)
