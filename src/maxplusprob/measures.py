"""Finite spaces, test functions, and two kinds of probability measure.

A finite space is an ordered list of distinct string labels.  On top of
it live:

* ``TestFunction``: a real-valued function given by one finite value per
  point.
* ``Measure``: the common base; it carries the weights and the
  ``Semiring`` they live in, so evaluation, support and (in
  ``functors``) transport are written once for both kinds.
* ``IdempotentMeasure``: atom weights in the max-plus scalar domain,
  every weight at most 0 and the largest exactly 0.  Such a measure acts
  on a test function by ``max_i (weight_i + phi(x_i))``.
* ``ClassicalMeasure``: nonnegative atom masses summing to 1, acting by
  the usual expectation.

Weights are stored densely, one slot per point of the space, so that a
measure and a function on the same space always align index by index.
Points carrying the semiring's zero (``BOTTOM``, or mass 0 on the
classical side) simply do not belong to the support.

Every type here is a frozen ``Record``: its constructor binds the
annotated fields and then runs ``__post_init__``, which checks them and
may normalize them.  ``FiniteSpace._index``, the label lookup, is a cache
built on the first lookup.  For a measure kind ``__post_init__`` is the
only place its weights are checked, by the number rules of ``semiring``.
``normalize_idempotent`` and ``classical_measure`` only align raw
weights (a table keyed by label through ``in_space_order``, the one
reader of such tables) and shift or rescale them; other operations
build their results through the same constructors.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import repeat
from operator import is_
from typing import Union

from .record import Record
from .semiring import (
    BOTTOM,
    MAX_PLUS,
    SUM_PRODUCT,
    MaxPlusValue,
    _count,
    _floats,
    as_scalar,
    oplus,
)

__all__ = [
    "ClassicalMeasure",
    "FiniteSpace",
    "IdempotentMeasure",
    "Measure",
    "TestFunction",
    "classical_measure",
    "dirac",
    "evaluate",
    "evaluate_classical",
    "evaluate_idempotent",
    "has_support_at_most",
    "maxplus_combine",
    "normalize_idempotent",
    "point_mass",
    "support",
]

# A classical mass vector must sum to 1 this tightly once constructed.
_SUM_TOL = 1e-12
# Looser gate for raw input: beyond this the caller must ask for rescaling.
_INPUT_SUM_TOL = 1e-9


class FiniteSpace(Record):
    """An ordered finite set of points, each named by a distinct label.

    Parameters
    ----------
    points : tuple of str
        The labels, in a fixed order.  Order matters: measures and
        functions store their values aligned with it.
    """

    points: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.points)
        self.__dict__["points"] = labels
        if not labels:
            raise ValueError("a space needs at least one point")
        if all(map(isinstance, labels, repeat(str))):
            distinct = set(labels)
            if len(distinct) == len(labels) and "" not in distinct:
                return
        # Some label is bad: name the first one, in order.
        seen: set[str] = set()
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"point labels must be nonempty strings: {label!r}")
            if label in seen:
                raise ValueError(f"duplicate point label: {label!r}")
            seen.add(label)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _index(self) -> dict:
        # Label -> position, built on the first lookup: decoding and
        # products make 1e5-point spaces that are never looked up.
        return dict(zip(self.points, range(len(self.points))))

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"point not in space: {label!r}") from None


class TestFunction(Record):
    """A real-valued function on a finite space, one finite value per point."""

    __test__ = False  # keep pytest from collecting this as a test class

    space: FiniteSpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = _floats(self.values)
        if len(values) != len(self.space):
            raise ValueError("one value per point of the space is required")
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"test function values must be finite: {bad!r}")
        self.__dict__["values"] = values

    @classmethod
    def from_mapping(cls, space: FiniteSpace, values: Mapping[str, float]) -> "TestFunction":
        if not isinstance(values, Mapping):
            raise TypeError(f"function values must be a mapping, got {type(values).__name__}")
        return cls(space, in_space_order(space, values, "function values"))

    def __call__(self, label: str) -> float:
        return self.values[self.space.index(label)]

    @property
    def sup_norm(self) -> float:
        """The largest absolute value taken by the function."""
        return max(abs(v) for v in self.values)

    def shift(self, constant: float) -> "TestFunction":
        """Max-plus scaling: add ``constant`` to every value."""
        (c,) = _floats((constant,))
        if not math.isfinite(c):
            raise ValueError(f"the shift must be finite, got {constant!r}")
        return TestFunction(self.space, tuple(v + c for v in self.values))

    def pointwise_max(self, other: "TestFunction") -> "TestFunction":
        """Max-plus sum of two functions on the same space."""
        if self.space != other.space:
            raise ValueError("space mismatch between functions")
        return TestFunction(
            self.space,
            tuple(a if a >= b else b for a, b in zip(self.values, other.values)),
        )


class Measure(Record):
    """A probability measure of either kind on a finite space.

    Subclasses set the class attributes ``semiring``, the scalars the
    weights live in, and ``kind``, the JSON tag.  Each subclass's
    ``__post_init__`` is the one place its weight invariant is checked.

    Attributes
    ----------
    space : FiniteSpace
    weights : tuple
        One weight per point of the space.
    """

    space: FiniteSpace
    weights: tuple

    def __init__(self, space: FiniteSpace, weights: tuple) -> None:
        # Half the cost of ``Record.__init__``, in verify_counterexample's loop.
        fields = self.__dict__
        fields["space"] = space
        fields["weights"] = weights
        self.__post_init__()

    def __post_init__(self) -> None:
        # Each kind validates its own weights; the base has no invariant.
        raise TypeError("build an IdempotentMeasure or a ClassicalMeasure")

    @property
    def support(self) -> frozenset[str]:
        zero = self.semiring.zero
        return frozenset(
            p for p, w in zip(self.space.points, self.weights) if w != zero
        )


class IdempotentMeasure(Measure):
    """A max-plus probability measure on a finite space.

    Attributes
    ----------
    space : FiniteSpace
    weights : tuple
        One max-plus scalar per point; every weight is <= 0 and the
        largest finite weight is exactly 0.  ``BOTTOM`` marks points
        outside the support.
    """

    semiring = MAX_PLUS
    kind = "idempotent"

    def __post_init__(self) -> None:
        weights, peak = _scalars(self.weights)
        if len(weights) != len(self.space):
            raise ValueError("one weight per point of the space is required")
        if peak is BOTTOM:
            raise ValueError("empty support: every weight is BOTTOM")
        if peak > 0.0:
            raise ValueError(f"idempotent weights must be <= 0, got {peak!r}")
        if peak != 0.0:
            raise ValueError(f"idempotent weights must have maximum 0, got {peak!r}")
        self.__dict__["weights"] = weights


class ClassicalMeasure(Measure):
    """An ordinary probability measure on a finite space.

    Attributes
    ----------
    space : FiniteSpace
    weights : tuple of float
        One nonnegative mass per point, summing to 1 within 1e-12.
        Given masses may miss 1 by up to 1e-9 (rounding in a computed
        vector); those are divided by their sum.  Masses already within
        1e-12 are kept bit for bit, so decode(encode(m)) is exact.
    """

    semiring = SUM_PRODUCT
    kind = "classical"

    def __post_init__(self) -> None:
        weights = _floats(self.weights)
        if len(weights) != len(self.space.points):
            raise ValueError("one weight per point of the space is required")
        # ``min`` skips a NaN that is not first, but the sum then is NaN;
        # the sum runs only once no -inf can make it raise, and counts as
        # infinite when finite masses overflow it.
        try:
            total = math.fsum(weights) if min(weights) >= 0.0 else math.nan
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) <= _SUM_TOL:  # the common case; False for a NaN
            self.__dict__["weights"] = weights
            return
        if not math.isfinite(total):
            for w in weights:
                if not 0.0 <= w < math.inf:
                    raise ValueError(f"classical weights must be finite and >= 0, got {w!r}")
        if total <= 0.0:
            raise ValueError("empty support: weights sum to 0")
        if abs(total - 1.0) > _INPUT_SUM_TOL:
            raise ValueError(
                f"weights sum to {total!r}, not 1; pass renormalize=True to rescale"
            )
        self.__dict__["weights"] = tuple(w / total for w in weights)


# -- constructors ------------------------------------------------------------


def dirac(space: FiniteSpace, point: str) -> IdempotentMeasure:
    """The idempotent point measure: weight 0 at ``point``, BOTTOM elsewhere."""
    weights = [BOTTOM] * len(space)
    weights[space.index(point)] = 0.0
    return IdempotentMeasure(space, tuple(weights))


def point_mass(space: FiniteSpace, point: str) -> ClassicalMeasure:
    """The classical point measure: mass 1 at ``point``, 0 elsewhere."""
    weights = [0.0] * len(space)
    weights[space.index(point)] = 1.0
    return ClassicalMeasure(space, tuple(weights))


def normalize_idempotent(
    space: FiniteSpace,
    raw: Union[Mapping[str, object], Sequence[object]],
) -> IdempotentMeasure:
    """Shift raw max-plus weights so their maximum is exactly 0.

    ``raw`` is either a mapping keyed by every point label or a sequence
    aligned with the space order.  All-BOTTOM input stays all-BOTTOM,
    which the constructor rejects as empty support.
    """
    values, peak = _scalars(_aligned(space, raw))
    return IdempotentMeasure(
        space, tuple([BOTTOM if v is BOTTOM else v - peak for v in values])
    )


def classical_measure(
    space: FiniteSpace,
    weights: Union[Mapping[str, object], Sequence[object]],
    renormalize: bool = False,
) -> ClassicalMeasure:
    """Build a classical measure from masses keyed by label or in order.

    ``ClassicalMeasure`` checks the masses: sums further than 1e-9 from 1
    are rejected, since silent rescaling of malformed input tends to
    hide ingestion bugs.  With ``renormalize`` set, valid masses outside
    that gate are divided by their sum first (by the largest mass before
    that, when the sum overflows), and a positive mass that the
    division rounds to 0 raises ``ValueError`` naming its point; anything
    else goes to the constructor as given, so its error names the value
    passed.
    """
    values = _floats(_aligned(space, weights))
    if renormalize and len(values) == len(space.points) and min(values) >= 0.0:
        given, top = values, 1.0
        try:
            total = math.fsum(values)
        except OverflowError:  # finite masses summing beyond the float range
            top = max(values)
            values = tuple([v / top for v in values])
            total = math.fsum(values)
        if 0.0 < total < math.inf and abs(total - 1.0) > _INPUT_SUM_TOL:
            values = tuple([v / total for v in values])
        if values is not given and values.count(0.0) != given.count(0.0):
            label, mass = next(
                (p, v) for p, v, r in zip(space.points, given, values) if r == 0.0 < v
            )
            raise ValueError(
                f"mass {mass!r} of point {label!r} underflows to 0 when divided by"
                f" the total {top * total!r}; the rescale would drop it from the support"
            )
    return ClassicalMeasure(space, values)


# -- evaluation and support --------------------------------------------------


def evaluate(mu: Measure, phi: TestFunction) -> float:
    """The integral ``(+)_i weight_i (.) phi(x_i)`` in the measure's semiring.

    Idempotent: ``max_i (weight_i + phi(x_i))`` over the support, always
    finite because some weight is exactly 0.  Classical: the expectation,
    exactly rounded.
    """
    if not isinstance(mu, Measure):
        raise TypeError(f"not a measure: {mu!r}")
    if mu.space != phi.space:
        raise ValueError("space mismatch between measure and function")
    return mu.semiring.dot(mu.weights, phi.values)


evaluate_idempotent = evaluate_classical = evaluate


def support(mu: Measure) -> frozenset[str]:
    """The set of points carrying weight: finite weights, or positive mass."""
    if not isinstance(mu, Measure):
        raise TypeError(f"not a measure: {mu!r}")
    return mu.support


def maxplus_combine(
    alpha: MaxPlusValue,
    mu: IdempotentMeasure,
    beta: MaxPlusValue,
    nu: IdempotentMeasure,
) -> IdempotentMeasure:
    """Max-plus convex combination ``alpha (.) mu (+) beta (.) nu``.

    Requires ``alpha oplus beta == 0`` exactly, which is what keeps the
    result normalized.  With one coefficient BOTTOM the other endpoint
    is returned unchanged.
    """
    alpha = as_scalar(alpha)
    beta = as_scalar(beta)
    if mu.space != nu.space:
        raise ValueError("space mismatch between measures")
    if oplus(alpha, beta) != 0.0:
        raise ValueError(
            "not a max-plus convex combination: alpha oplus beta must equal 0"
        )
    # A BOTTOM coefficient makes its whole side BOTTOM.
    bottoms = (BOTTOM,) * len(mu.space)
    left = bottoms if alpha is BOTTOM else mu.weights
    right = bottoms if beta is BOTTOM else nu.weights
    weights = [
        (BOTTOM if v is BOTTOM else v + beta) if w is BOTTOM
        else w + alpha if v is BOTTOM
        else a if (a := w + alpha) >= (b := v + beta) else b
        for w, v in zip(left, right)
    ]
    try:
        return IdempotentMeasure(mu.space, tuple(weights))
    except ValueError:
        # A finite weight plus its coefficient overflowed to -inf: name it.
        for label, out, w, v in zip(mu.space.points, weights, left, right):
            if out == -math.inf:
                a, b = (w, alpha) if w is not BOTTOM and w + alpha == out else (v, beta)
                raise ValueError(
                    f"point {label!r} of the combination: the weight sum"
                    f" {a!r} + {b!r} overflows the float range"
                ) from None
        raise


def has_support_at_most(mu: Measure, n: int) -> bool:
    """Whether the support of ``mu`` has at most ``n`` atoms (n >= 1)."""
    return len(support(mu)) <= _count(n, "the atom budget")


# -- helpers -----------------------------------------------------------------


_ABSENT = object()  # what ``in_space_order`` reads for a missing point


def in_space_order(space: FiniteSpace, table: Mapping, what: str) -> list:
    """The values of a table keyed by exactly the points of ``space``, in order.

    An in-order table is read without lookups, any other by ``get``,
    which never inserts a key; missing or unknown keys raise ``ValueError``.
    """
    points = space.points
    if len(table) == len(points):
        if tuple(table) == points:
            return list(table.values())
        values = list(map(table.get, points, repeat(_ABSENT)))
        if not any(map(is_, values, repeat(_ABSENT))):
            return values
    missing = [p for p in points if p not in table]
    if missing:
        raise ValueError(f"missing {what} for points: {missing!r}")
    extra = [k for k in table if k not in space]
    raise ValueError(f"{what} given for unknown points: {extra!r}")


def _aligned(
    space: FiniteSpace, raw: Union[Mapping[str, object], Sequence[object]]
) -> Sequence[object]:
    # Raw weights keyed by label, in space order; a sequence as given.
    # A list or tuple skips the ``Mapping`` ABC check, the slow part.
    if type(raw) not in (list, tuple) and isinstance(raw, Mapping):
        return in_space_order(space, raw, "weights")
    return raw


def _scalars(values: Sequence[object]) -> tuple[tuple, MaxPlusValue]:
    # The values as max-plus scalars, and their peak (BOTTOM if all are).
    # Finite floats pass in bulk, and so do ints (a JSON peak written
    # ``0``), made floats here.  Anything else, an int beyond the float
    # range included, is coerced one by one, so ``as_scalar`` names the
    # first value it rejects.
    values = tuple(values)
    finite = [w for w in values if w is not BOTTOM]
    kinds = set(map(type, finite))
    if int in kinds and kinds <= {int, float}:
        try:
            values = tuple([w if w is BOTTOM else float(w) for w in values])
        except OverflowError:
            pass
        else:
            finite, kinds = [w for w in values if w is not BOTTOM], {float}
    if not (kinds <= {float} and all(map(math.isfinite, finite))):
        values = tuple(map(as_scalar, values))
        finite = [w for w in values if w is not BOTTOM]
    return values, max(finite, default=BOTTOM)

