"""Conversion between classical and idempotent measures.

The two kinds correspond through the logarithm on fixed finite support:
classical masses map to log-ratio weights ``ln(a_i) - max_j ln(a_j)``,
and idempotent weights map back through the softmax ``e^{w_i} / sum_j
e^{w_j}``.  On a fixed support the two maps invert each other, argmax
atoms correspond to weight-0 atoms, and both directions are continuous.

The correspondence is not natural for pushforwards: fiber sums and
fiber maxima disagree after conversion whenever a fiber merges atoms.
``naturality_gap`` quantifies that mismatch for a concrete map and
measure; it is 0 for injective maps.
"""

from __future__ import annotations

import math

from .functors import PointMap, pushforward_classical, pushforward_idempotent
from .measures import (
    ClassicalMeasure,
    IdempotentMeasure,
    Measure,
    normalize_idempotent,
)
from .semiring import BOTTOM, _of_kind

__all__ = [
    "naturality_gap",
    "roundtrip_gap",
    "to_classical",
    "to_idempotent",
]


def to_idempotent(mu: ClassicalMeasure) -> IdempotentMeasure:
    """Log-ratio conversion: atom ``i`` gets ``ln(a_i) - max_j ln(a_j)``.

    Atoms with mass 0 leave the support (weight BOTTOM).  The largest
    mass maps to weight exactly 0.
    """
    _of_kind(mu, ClassicalMeasure)
    logs = [math.log(w) if w > 0.0 else BOTTOM for w in mu.weights]
    return normalize_idempotent(mu.space, logs)


def to_classical(mu: IdempotentMeasure) -> ClassicalMeasure:
    """Softmax conversion: atom ``i`` gets ``e^{w_i} / sum_j e^{w_j}``.

    Weights are at most 0, so every exponential is at most 1 and the
    denominator is at least 1; nothing can overflow.  A finite weight so
    low that its stored mass underflows to 0 (``e^{w_i}`` itself, or the
    division by the total) would leave the support; that raises
    ``ValueError`` instead of dropping the atom.
    """
    _of_kind(mu, IdempotentMeasure)
    masses = [0.0 if w is BOTTOM else math.exp(w) for w in mu.weights]
    total = math.fsum(masses)
    stored = [m / total for m in masses]
    # Only BOTTOM weights may give mass 0; name the first other one.
    if stored.count(0.0) != mu.weights.count(BOTTOM):
        for label, w, p in zip(mu.space.points, mu.weights, stored):
            if p == 0.0 and w is not BOTTOM:
                raise ValueError(
                    f"weight {w!r} of point {label!r} underflows to mass 0;"
                    " the conversion would drop it from the support"
                )
    return ClassicalMeasure(mu.space, tuple(stored))


def _weight_gap(a: Measure, b: Measure) -> float:
    if a.space != b.space:
        raise ValueError("space mismatch between measures")
    gap = 0.0
    for x, y in zip(a.weights, b.weights):
        if x is BOTTOM and y is BOTTOM:
            continue
        if x is BOTTOM or y is BOTTOM:
            return math.inf
        gap = max(gap, abs(x - y))
    return gap


def roundtrip_gap(mu: Measure) -> float:
    """Largest atomwise weight change after converting there and back.

    BOTTOM only matches BOTTOM; a support change reports ``inf``.
    Point measures of either kind round-trip with gap exactly 0.  For an
    idempotent ``mu`` with smallest exact mass ``m = e^{w_min} / sum_j
    e^{w_j}`` the gap is at most ``2 * 2**-1074 / m + 4 * ulp(1 + |w_min|)``:
    the stored mass is rounded by ``exp`` and by the division, each by up
    to 2**-1074 once it is subnormal, and the logs by a few ulps.  So the
    gap is 0 to 3e-12 down to ``w_min = -720``, 2.6e-3 at -740 and 0.56 at
    -745, and a mass that rounds to 0 raises (see ``to_classical``).
    """
    classical = _of_kind(mu, Measure).kind == "classical"
    there, back = (to_idempotent, to_classical) if classical else (to_classical, to_idempotent)
    return _weight_gap(mu, back(there(mu)))


def naturality_gap(f: PointMap, mu: ClassicalMeasure) -> float:
    """How far conversion is from commuting with the pushforward along ``f``.

    Compares converting after pushing (classical transport, then
    log-ratio) against pushing after converting (log-ratio, then
    max-plus transport), atom by atom over the codomain; returns the
    largest absolute weight difference.  Injective maps give exactly 0;
    maps that merge atoms of unequal mass give a positive gap.
    """
    _of_kind(mu, ClassicalMeasure)
    via_classical = to_idempotent(pushforward_classical(f, mu))
    via_idempotent = pushforward_idempotent(f, to_idempotent(mu))
    return _weight_gap(via_classical, via_idempotent)
