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
only place its weights are checked, by the number rules of ``semiring``:
``_scalars`` for max-plus weights, ``_floats`` for masses, so
``ClassicalMeasure`` is the only check on masses, and ``classical_measure``
is the same constructor under a function's name.  ``normalize_idempotent``
takes raw weights in space order and only shifts them; other operations
build their results through the same constructors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import repeat

from .record import Record
from .semiring import (
    BOTTOM,
    MAX_PLUS,
    SUM_PRODUCT,
    MaxPlusValue,
    _collection,
    _count,
    _floats,
    _of_kind,
    _scalars,
    _shown,
    _summed,
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
# Looser gate for raw input: masses within it are divided by their sum,
# masses beyond it are rejected.
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
    noun = "space"

    def __post_init__(self) -> None:
        labels = _collection(self.points, "points", "labels")
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
                raise ValueError(f"point labels must be nonempty strings: {_shown(label)}")
            if label in seen:
                raise ValueError(f"duplicate point label: {_shown(label)}")
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
        try:
            return label in self._index
        except TypeError:  # unhashable, so no label
            return False

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValueError(f"point not in space: {_shown(label)}") from None


class TestFunction(Record):
    """A real-valued function on a finite space, one finite value per point."""

    __test__ = False  # keep pytest from collecting this as a test class

    space: FiniteSpace
    values: tuple[float, ...]
    noun = "function"

    def __post_init__(self) -> None:
        values = _floats(_collection(self.values, "values", "real numbers"))
        if len(values) != len(_of_kind(self.space, FiniteSpace)):
            raise ValueError("one value per point of the space is required")
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"test function values must be finite: {bad!r}")
        self.__dict__["values"] = values

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
            raise ValueError(f"the shift must be finite, got {_shown(constant)}")
        values = tuple(v + c for v in self.values)
        return _summed(
            TestFunction, self.space, values, "point {!r} of the shift", "value",
            lambda i: (self.values[i], c),
        )

    def pointwise_max(self, other: "TestFunction") -> "TestFunction":
        """Max-plus sum of two functions on the same space."""
        if self.space != _of_kind(other, TestFunction).space:
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
    noun = "measure"

    def __init__(self, space: FiniteSpace, weights: tuple) -> None:
        # Half the cost of ``Record.__init__``, in verify_counterexample's loop.
        fields = self.__dict__
        fields["space"] = _of_kind(space, FiniteSpace)
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
        weights, peak = _scalars(_collection(self.weights, "weights", "max-plus scalars"))
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
        weights = _floats(_collection(self.weights, "weights", "real numbers"))
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
            # Every mass is finite and >= 0, so their sum overflowed.
            raise ValueError("the weights' sum exceeds the float range")
        if total <= 0.0:
            raise ValueError("empty support: weights sum to 0")
        if abs(total - 1.0) > _INPUT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        self.__dict__["weights"] = tuple(w / total for w in weights)


# -- constructors ------------------------------------------------------------


def dirac(space: FiniteSpace, point: str) -> IdempotentMeasure:
    """The idempotent point measure: weight 0 at ``point``, BOTTOM elsewhere."""
    weights = [BOTTOM] * len(_of_kind(space, FiniteSpace))
    weights[space.index(point)] = 0.0
    return IdempotentMeasure(space, tuple(weights))


def point_mass(space: FiniteSpace, point: str) -> ClassicalMeasure:
    """The classical point measure: mass 1 at ``point``, 0 elsewhere."""
    weights = [0.0] * len(_of_kind(space, FiniteSpace))
    weights[space.index(point)] = 1.0
    return ClassicalMeasure(space, tuple(weights))


def normalize_idempotent(space: FiniteSpace, raw: Sequence[object]) -> IdempotentMeasure:
    """Shift raw max-plus weights, in space order, so their maximum is exactly 0.

    All-BOTTOM input stays all-BOTTOM, which the constructor rejects as
    empty support.
    """
    values, peak = _scalars(_collection(raw, "weights", "max-plus scalars"))
    weights = tuple([BOTTOM if v is BOTTOM else v - peak for v in values])
    return _summed(
        IdempotentMeasure, space, weights, "point {!r} of the normalization", "weight",
        lambda i: (values[i], -peak),
    )


classical_measure = ClassicalMeasure


# -- evaluation and support --------------------------------------------------


def evaluate(mu: Measure, phi: TestFunction) -> float:
    """The integral ``(+)_i weight_i (.) phi(x_i)`` in the measure's semiring.

    Idempotent: ``max_i (weight_i + phi(x_i))`` over the support, always
    finite because some weight is exactly 0.  Classical: the expectation,
    exactly rounded.
    """
    if _of_kind(mu, Measure).space != _of_kind(phi, TestFunction).space:
        raise ValueError("space mismatch between measure and function")
    return mu.semiring.dot(mu.weights, phi.values)


evaluate_idempotent = evaluate_classical = evaluate


def support(mu: Measure) -> frozenset[str]:
    """The set of points carrying weight: finite weights, or positive mass."""
    return _of_kind(mu, Measure).support


def maxplus_combine(
    alpha: MaxPlusValue,
    mu: IdempotentMeasure,
    beta: MaxPlusValue,
    nu: IdempotentMeasure,
) -> IdempotentMeasure:
    """Max-plus convex combination ``alpha (.) mu (+) beta (.) nu``.

    Requires ``alpha oplus beta == 0`` exactly, which is what keeps the
    result normalized.  With one coefficient BOTTOM the other endpoint
    is returned unchanged.  With ``u = 2**-53`` and ``S`` the largest
    ``|c| + |w_i| + |phi_i|`` over the support atoms of each side, ``c``
    its coefficient, ``|maxplus_combine(a, mu, b, nu)(phi) - max(a + mu(phi),
    b + nu(phi))| <= 4u * S``: an atom's term rounds as ``(c + w_i) + phi_i``
    on the left and ``c + (w_i + phi_i)`` on the right, each within ``2u * S``
    of exact, and a maximum moves no further than its terms.
    """
    alpha = as_scalar(alpha)
    beta = as_scalar(beta)
    if _of_kind(mu, IdempotentMeasure).space != _of_kind(nu, IdempotentMeasure).space:
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
    # Every side an overflowed weight takes in is -inf: name the left one if present.
    return _summed(
        IdempotentMeasure, mu.space, weights, "point {!r} of the combination", "weight",
        lambda i: (left[i], alpha) if left[i] is not BOTTOM else (right[i], beta),
    )


def has_support_at_most(mu: Measure, n: int) -> bool:
    """Whether the support of ``mu`` has at most ``n`` atoms (n >= 1)."""
    return len(support(mu)) <= _count(n, "the atom budget")

