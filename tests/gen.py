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
