"""Segment geometry for idempotent measures.

Weights live in ``[-inf, 0]``, and the exponential carries that segment
onto ``[0, 1]`` with ``exp(BOTTOM) = 0``.  The distance between two
scalars is ``|e^y - e^x|``, and a max-plus segment between measures
``{alpha (.) mu (+) beta (.) delta : alpha oplus beta = 0}`` is metrized
coefficientwise:

    rho((a1, b1), (a2, b2)) = |e^{a2} - e^{a1}| + |e^{b2} - e^{b1}|

``approx_toward_point`` and ``approx_toward_measure`` implement the
mixing maps that nudge a measure toward a point mass or a second
measure.  For mixing rate ``eps`` the coefficients are

    alpha = ln(1 - eps) - max(ln(1 - eps), ln(eps))
    beta  = ln(eps)     - max(ln(1 - eps), ln(eps))

``eps = 1`` makes ``alpha`` exactly BOTTOM and the result collapses to
the target; every ``eps`` in (0, 1] is accepted.  The mixed measure
evaluates any test function exactly like the original once ``eps`` is
below ``1 / (1 + e^{2 * sup_norm})``.

A note on ``approx_distance_closed_form``: its upper branch returns
``1 / eps`` for ``eps > 1/2`` because that is the stated contract, but
the value does not agree with the metric above, whose distance along
the mixing path is ``3 - 1/eps`` on that branch (both branches meet at
1 for ``eps = 1/2``; the endpoints sit at distance 2, not 1).  The
lower branch ``eps / (1 - eps)`` is consistent.  See the geometry tests
for the derivation.
"""

from __future__ import annotations

import math
from typing import Iterable

from .measures import (
    IdempotentMeasure,
    Measure,
    TestFunction,
    dirac,
    maxplus_combine,
    support,
)
from .record import Record
from .semiring import (
    BOTTOM, MaxPlusValue, _collection, _floats, _of_kind, _shown, as_scalar, mp_exp, mp_ln,
    odot, oplus,
)

__all__ = [
    "SegmentPoint",
    "approx_coefficients",
    "approx_distance_closed_form",
    "approx_toward_measure",
    "approx_toward_point",
    "exactness_threshold",
    "scalar_distance",
    "segment_distance",
    "support_meets",
]


class SegmentPoint(Record):
    """A point of a max-plus segment, named by its coefficient pair.

    Both coefficients are at most 0 and their maximum is exactly 0,
    matching the normalization of the measures the segment carries.
    """

    alpha: MaxPlusValue
    beta: MaxPlusValue
    noun = "segment point"

    def __post_init__(self) -> None:
        alpha = as_scalar(self.alpha)
        beta = as_scalar(self.beta)
        self.__dict__["alpha"] = alpha
        self.__dict__["beta"] = beta
        if oplus(alpha, beta) != 0.0:
            raise ValueError(
                "a segment point needs alpha oplus beta == 0, so both <= 0 and one"
                f" of them 0, got ({alpha!r}, {beta!r})"
            )


def scalar_distance(x: MaxPlusValue, y: MaxPlusValue) -> float:
    """Distance ``|e^y - e^x|`` between scalars in ``[-inf, 0]``."""
    x = as_scalar(x)
    y = as_scalar(y)
    for v in (x, y):
        if v is not BOTTOM and v > 0.0:
            raise ValueError(f"segment scalars must be <= 0 or BOTTOM, got {v!r}")
    return abs(mp_exp(y) - mp_exp(x))


def segment_distance(p: SegmentPoint, q: SegmentPoint) -> float:
    """Coefficientwise metric on a common segment (see the module notes)."""
    p, q = _of_kind(p, SegmentPoint), _of_kind(q, SegmentPoint)
    return scalar_distance(p.alpha, q.alpha) + scalar_distance(p.beta, q.beta)


def _check_eps(eps: float) -> float:
    (value,) = _floats((eps,))
    if not 0.0 < value <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {_shown(eps)}")
    return value


def approx_coefficients(eps: float) -> SegmentPoint:
    """The normalized mixing coefficients for rate ``eps``.

    The larger of ``ln(1 - eps)`` and ``ln(eps)`` is subtracted from
    both, so one coefficient is exactly 0.  At ``eps = 1`` the stay
    coefficient is exactly BOTTOM.
    """
    eps = _check_eps(eps)
    stay = mp_ln(1.0 - eps)
    move = math.log(eps)
    peak = oplus(stay, move)
    return SegmentPoint(odot(stay, -peak), move - peak)


def approx_toward_point(
    mu: IdempotentMeasure, target: str, eps: float
) -> IdempotentMeasure:
    """Mix ``mu`` with the point measure at ``target`` at rate ``eps``.

    The target point always enters the support; for ``eps < 1`` the
    original support is kept as well.
    """
    point, space = approx_coefficients(eps), _of_kind(mu, IdempotentMeasure).space
    return maxplus_combine(point.alpha, mu, point.beta, dirac(space, target))


def approx_toward_measure(
    mu: IdempotentMeasure, nu: IdempotentMeasure, eps: float
) -> IdempotentMeasure:
    """Mix ``mu`` with a second measure ``nu`` at rate ``eps``.

    The support of ``nu`` always enters the result, so mixing with a
    wide measure enlarges the support: useful for escaping the family
    of measures with few atoms.
    """
    point = approx_coefficients(eps)
    return maxplus_combine(point.alpha, mu, point.beta, nu)


def approx_distance_closed_form(eps: float) -> float:
    """The stated two-case distance table for the mixing path.

    Returns ``eps / (1 - eps)`` for ``eps <= 1/2`` and ``1 / eps``
    above; see the module notes on the upper branch.
    """
    eps = _check_eps(eps)
    if eps <= 0.5:
        return eps / (1.0 - eps)
    return 1.0 / eps


def exactness_threshold(phi: TestFunction) -> float:
    """Mixing rates strictly below this leave ``mu(phi)`` exactly unchanged.

    The threshold is ``1 / (1 + e^{2s})`` with ``s = sup_norm(phi)``:
    below it the moved branch can never beat the kept branch inside the
    evaluation maximum, so the mixed measure returns bit-identical
    values.  Where ``e^{2s}`` overflows, the same quantity is computed as
    ``e^{-2s} / (1 + e^{-2s})``, which underflows to 0.0 for large ``s``:
    conservative, since no rate lies below 0.
    """
    s = _of_kind(phi, TestFunction).sup_norm
    try:
        return 1.0 / (1.0 + math.exp(2.0 * s))
    except OverflowError:
        tail = math.exp(-2.0 * s)
        return tail / (1.0 + tail)


def support_meets(mu: Measure, targets: Iterable[str]) -> bool:
    """Whether the support of ``mu`` intersects the given set of points.

    ``targets`` is a collection of labels, such as ``{"ab"}``; a bare
    string or a mapping raises ``TypeError`` rather than being read as its
    characters or its keys.

    The family of measures hitting a fixed target set is monotone in
    the set and closed under max-plus convex combinations, but it does
    not respect intersections; the geometry tests carry a two-set
    counterexample.
    """
    given = _collection(targets, "targets", "labels", ordered=False)
    space = _of_kind(mu, Measure).space
    # Membership first, on the labels as given: an unhashable one is in no space.
    # Each label once, the first of equal ones kept, as a set keeps it.
    unknown = []
    for label in given:
        if label not in space and label not in unknown:
            unknown.append(label)
    # Strings in order, then other labels by their text: no two types are compared.
    unknown.sort(key=lambda label: (0, label) if isinstance(label, str) else (1, _shown(label)))
    if unknown:
        raise ValueError(f"points not in space: {_shown(unknown)}")
    return not support(mu).isdisjoint(given)
