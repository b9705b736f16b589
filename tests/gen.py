"""Shared instance generators: seeded-random helpers and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from maxplusprob import (
    BOTTOM,
    ClassicalMeasure,
    FiniteSpace,
    IdempotentMeasure,
    PointMap,
    TestFunction,
    classical_measure,
    normalize_idempotent,
)

_LABELS = "abcdefgh"


def space_of(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(_LABELS[:n]))


# -- seeded-random generators (used for the counted acceptance sweeps) -------


def random_space(rng: random.Random, min_size: int = 1, max_size: int = 8) -> FiniteSpace:
    return space_of(rng.randint(min_size, max_size))


def random_function(
    rng: random.Random, space: FiniteSpace, lo: float = -10.0, hi: float = 10.0
) -> TestFunction:
    return TestFunction(space, tuple(rng.uniform(lo, hi) for _ in space.points))


def random_idempotent(
    rng: random.Random, space: FiniteSpace, bottom_rate: float = 0.25
) -> IdempotentMeasure:
    raw: list[object] = [
        BOTTOM if rng.random() < bottom_rate else rng.uniform(-8.0, 0.0)
        for _ in space.points
    ]
    if all(v is BOTTOM for v in raw):
        raw[rng.randrange(len(raw))] = rng.uniform(-8.0, 0.0)
    return normalize_idempotent(space, raw)


def random_classical(
    rng: random.Random, space: FiniteSpace, zero_rate: float = 0.2
) -> ClassicalMeasure:
    raw = [
        0.0 if rng.random() < zero_rate else rng.uniform(0.05, 1.0)
        for _ in space.points
    ]
    if max(raw) == 0.0:
        raw[rng.randrange(len(raw))] = 1.0
    return classical_measure(space, raw, renormalize=True)


def random_map(
    rng: random.Random, domain: FiniteSpace, codomain: FiniteSpace
) -> PointMap:
    return PointMap(
        domain, codomain, tuple(rng.choice(codomain.points) for _ in domain.points)
    )


# -- hypothesis strategies ----------------------------------------------------

finite_values = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
scalars = st.one_of(st.just(BOTTOM), finite_values)
spaces = st.integers(min_value=1, max_value=6).map(space_of)
# Labels made of pair syntax, a backslash, quotes, a space and non-ASCII
# text: what a label table, a JSON document or a product label could garble.
awkward_labels = st.text(st.sampled_from("(),\\'\" aé€中😀"), min_size=1, max_size=4)


def awkward_spaces(max_size: int = 5):
    return st.lists(awkward_labels, min_size=1, max_size=max_size, unique=True).map(
        lambda labels: FiniteSpace(tuple(labels))
    )


@st.composite
def functions_on(draw, space: FiniteSpace) -> TestFunction:
    values = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=len(space),
            max_size=len(space),
        )
    )
    return TestFunction(space, tuple(values))


@st.composite
def idempotent_on(draw, space: FiniteSpace) -> IdempotentMeasure:
    raw = draw(
        st.lists(
            st.one_of(st.just(BOTTOM), st.floats(min_value=-8.0, max_value=0.0, allow_nan=False)),
            min_size=len(space),
            max_size=len(space),
        )
    )
    if all(v is BOTTOM for v in raw):
        raw[draw(st.integers(0, len(space) - 1))] = 0.0
    return normalize_idempotent(space, raw)


@st.composite
def classical_on(draw, space: FiniteSpace) -> ClassicalMeasure:
    # Integer masses give exact ratios, which keeps argmax comparisons crisp.
    raw = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=len(space),
            max_size=len(space),
        )
    )
    if max(raw) == 0:
        raw[draw(st.integers(0, len(space) - 1))] = 1
    return classical_measure(space, [float(v) for v in raw], renormalize=True)


@st.composite
def measure_function_scalar(draw):
    """A space with one idempotent measure, two functions, and a scalar."""
    space = draw(spaces)
    mu = draw(idempotent_on(space))
    phi = draw(functions_on(space))
    psi = draw(functions_on(space))
    lam = draw(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    return space, mu, phi, psi, lam


# -- extreme-float strategies: JSON documents at the edges of the float range -

FLOAT_MAX = 1.7976931348623157e308
LEAST_SUBNORMAL = 5e-324
LEAST_NORMAL = 2.2250738585072014e-308

# Idempotent weights at the float maximum (either sign), near where
# ``exp`` underflows, and BOTTOM as JSON writes it.
extreme_weights = st.one_of(
    st.sampled_from((0.0, -FLOAT_MAX, FLOAT_MAX, -745.0, -745.2, "-inf")),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
)
subnormal_masses = st.one_of(
    st.just(LEAST_SUBNORMAL), st.floats(min_value=0.0, max_value=LEAST_NORMAL)
)
# Classical masses: subnormal, at the float maximum (so their sum
# overflows), and at or within the 1e-12 gate of 1.
extreme_masses = st.one_of(
    subnormal_masses,
    st.sampled_from((0.0, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, FLOAT_MAX)),
    st.floats(min_value=0.0, allow_infinity=False),
)
extreme_values = st.one_of(
    st.sampled_from((FLOAT_MAX, -FLOAT_MAX)),
    st.floats(allow_nan=False, allow_infinity=False),
)
extreme_epsilons = st.one_of(
    st.sampled_from((LEAST_SUBNORMAL, 1e-320, LEAST_NORMAL, 1.0)),
    st.floats(min_value=LEAST_SUBNORMAL, max_value=1.0),
)
extreme_spaces = st.integers(min_value=1, max_value=3).map(lambda n: list(_LABELS[:n]))


def edge_magnitude(rng: random.Random) -> float:
    # Half the time the float maximum, where ``exp`` underflows or a
    # subnormal; otherwise up to 1e3, or up to 1e307 one time in eight.
    k = rng.randrange(8)
    if k < 4:
        return (FLOAT_MAX, 745.0, LEAST_SUBNORMAL, rng.random() * LEAST_NORMAL)[k]
    return rng.random() * 10.0 ** (rng.randint(-1, 3) if k < 7 else rng.randint(-10, 307))


def _table(draw, labels: list[str], values) -> dict:
    n = len(labels)
    return dict(zip(labels, draw(st.lists(values, min_size=n, max_size=n))))


@st.composite
def extreme_measure_docs(draw, labels: list[str]) -> dict:
    """A measure document at the float's edges, usually but not always valid."""
    if draw(st.booleans()):
        weights = _table(draw, labels, extreme_weights)
        if draw(st.integers(0, 3)):
            weights[draw(st.sampled_from(labels))] = 0.0
        return {"space": labels, "kind": "idempotent", "weights": weights}
    # Subnormal masses beside one mass at or within the 1e-12 gate of 1.
    masses = _table(draw, labels, subnormal_masses)
    masses[draw(st.sampled_from(labels))] = draw(st.sampled_from((1.0, 1.0 + 1e-12, 0.5)))
    return {"space": labels, "kind": "classical", "weights": masses}


@st.composite
def extreme_function_docs(draw, labels: list[str]) -> dict:
    """A test function document with values up to the float maximum."""
    return {"space": labels, "values": _table(draw, labels, extreme_values)}


@st.composite
def extreme_line_docs(draw, density: bool) -> dict:
    """A density (sup 0) or continuous function document on [0, 1]."""
    xs = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=2, unique=True)))
    points = [0.0, *(x for x in xs if 0.0 < x < 1.0), 1.0]
    ys = draw(st.lists(
        extreme_weights.filter(lambda y: y != "-inf") if density else extreme_values,
        min_size=len(points), max_size=len(points),
    ))
    if density and draw(st.integers(0, 3)):
        ys[draw(st.integers(0, len(ys) - 1))] = 0.0
    lipschitz = draw(st.sampled_from((FLOAT_MAX, 0.0, 1.0)))
    return {"breakpoints": [list(p) for p in zip(points, ys)], "lipschitz": lipschitz}
