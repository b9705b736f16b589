"""Seeded sweeps at n = 10, 1e3 and 1e5 against plain reference loops.

Every comparison is ``==``: the library's kernels must reproduce the
loops below bit for bit.  The loops restate the definitions directly
(fiberwise maximum, fiberwise ``fsum``, atomwise sum or product, and the
classical constructor's rule: keep a vector that sums to 1 within 1e-12,
otherwise divide by its ``fsum``), so a refactor of the kernels that
changes a single bit of output fails here.
"""

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
    TestFunction,
    classical_measure,
    decode_measure,
    evaluate,
    product_classical,
    product_idempotent,
    pushforward,
    support,
    to_classical,
    to_idempotent,
)

SIZES = (10, 1_000, 100_000)


def _space(prefix: str, n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def _idempotent(rng: random.Random, space: FiniteSpace) -> IdempotentMeasure:
    # A quarter of the atoms BOTTOM, the rest in [-20, 0], peak exactly 0.
    raw = [BOTTOM if rng.random() < 0.25 else rng.uniform(-20.0, 0.0) for _ in space]
    raw[rng.randrange(len(raw))] = 0.0
    return IdempotentMeasure(space, tuple(raw))


def _classical(rng: random.Random, space: FiniteSpace):
    # A fifth of the atoms without mass, the rest in [0.05, 1], rescaled.
    raw = [0.0 if rng.random() < 0.2 else rng.uniform(0.05, 1.0) for _ in space]
    raw[rng.randrange(len(raw))] = 1.0
    return classical_measure(space, raw, renormalize=True)


def _stored(masses: list[float]) -> tuple[float, ...]:
    total = math.fsum(masses)
    if abs(total - 1.0) <= 1e-12:
        return tuple(masses)
    return tuple(m / total for m in masses)


@pytest.mark.parametrize("n", SIZES)
def test_kernels_match_reference_loops(n):
    rng = random.Random(f"sweep:{n}")
    space = _space("x", n)
    mu = _idempotent(rng, space)
    nu = _classical(rng, space)
    phi = TestFunction(space, tuple(rng.uniform(-10.0, 10.0) for _ in space))

    # Evaluation: the largest w + v over finite weights, and the exactly
    # rounded expectation.
    best = None
    for w, v in zip(mu.weights, phi.values):
        if w is not BOTTOM and (best is None or w + v > best):
            best = w + v
    assert evaluate(mu, phi) == best
    assert evaluate(nu, phi) == math.fsum(w * v for w, v in zip(nu.weights, phi.values))

    # Pushforward onto a codomain a tenth the size, some fibers empty.
    m = max(1, n // 10)
    codomain = _space("y", m)
    assignment = [rng.randrange(m) for _ in range(n)]
    f = PointMap(space, codomain, tuple(codomain.points[j] for j in assignment))
    peaks: list = [BOTTOM] * m
    fibers: list[list[float]] = [[] for _ in range(m)]
    for i, j in enumerate(assignment):
        w = mu.weights[i]
        if w is not BOTTOM and (peaks[j] is BOTTOM or w > peaks[j]):
            peaks[j] = w
        fibers[j].append(nu.weights[i])
    assert pushforward(f, mu).weights == tuple(peaks)
    pushed = pushforward(f, nu)
    assert pushed.weights == _stored([math.fsum(fiber) for fiber in fibers])
    assert abs(math.fsum(pushed.weights) - 1.0) <= 1e-12

    # Products of two factors of about sqrt(n) points (316 x 316 at 1e5).
    k = math.isqrt(n)
    left, right = _space("a", k), _space("b", k)
    mu1, mu2 = _idempotent(rng, left), _idempotent(rng, right)
    nu1, nu2 = _classical(rng, left), _classical(rng, right)
    assert product_idempotent(mu1, mu2).weights == tuple(
        BOTTOM if a is BOTTOM or b is BOTTOM else a + b
        for a in mu1.weights
        for b in mu2.weights
    )
    prod = product_classical(nu1, nu2)
    assert prod.weights == _stored([a * b for a in nu1.weights for b in nu2.weights])
    assert abs(math.fsum(prod.weights) - 1.0) <= 1e-12

    # Conversions keep the support exactly.
    finite = frozenset(p for p, w in zip(space.points, mu.weights) if w is not BOTTOM)
    massive = frozenset(p for p, w in zip(space.points, nu.weights) if w > 0.0)
    assert support(to_classical(mu)) == finite
    assert support(to_idempotent(nu)) == massive


def test_masses_off_by_half_the_gate_are_rescaled_at_scale():
    # At n = 1e5, masses that sum to about 1 + 5e-10, inside the 1e-9
    # input gate but outside the 1e-12 invariant, are divided by their
    # fsum, both by the constructor and by the decoder.
    n = SIZES[-1]
    rng = random.Random(f"gate:{n}")
    space = _space("x", n)
    raw = [w * (1.0 + 5e-10) for w in _classical(rng, space).weights]
    assert 1e-12 < abs(math.fsum(raw) - 1.0) <= 1e-9
    massive = frozenset(p for p, w in zip(space.points, raw) if w > 0.0)
    direct = ClassicalMeasure(space, tuple(raw))
    doc = {
        "space": list(space.points),
        "kind": "classical",
        "weights": dict(zip(space.points, raw)),
    }
    decoded = decode_measure(doc)
    for mu in (direct, decoded):
        assert mu.weights == _stored(raw)
        assert abs(math.fsum(mu.weights) - 1.0) <= 1e-12
        assert support(mu) == massive
