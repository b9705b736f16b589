"""Scalar arithmetic for the max-plus semiring.

Scalars are finite floats extended by ``BOTTOM`` (minus infinity).
``oplus`` is the maximum and ``odot`` is ordinary addition; ``BOTTOM``
is neutral for the former and absorbing for the latter.  ``BOTTOM`` is
a tagged singleton rather than ``float("-inf")`` so these identities
hold exactly and no IEEE special cases (``-inf + inf``, signed zero
surprises under exponentiation) can leak into results.

A ``Semiring`` record bundles what a measure kind computes with, so
each measure operation is written once: ``MAX_PLUS`` for idempotent
measures and ``SUM_PRODUCT`` for classical ones.

Every number a caller passes in is checked here: one scalar by
``as_scalar``, reals by ``_floats``, max-plus weights with their peak by
``_scalars`` and counts by ``_count``; each raises ``ValueError`` naming
what it rejects.  ``_shown`` formats a rejected value or label, so no int
is too long to name.  ``_summed`` builds a value from max-plus sums and,
when one of them leaves the float range, names its point and both terms:
the one overflow rule, so no sum changes a support silently.
``_of_kind`` is the one kind rule: every public parameter and ``Record``
field annotated with a package class passes it there, and anything else
raises ``TypeError`` naming the measure kind or the class's ``noun``.
``_collection`` is the one collection rule: it reads every collection a
caller passes, and a bare string, a mapping, a non-collection or, where
order matters, a set raises ``TypeError`` naming what was expected.
``oplus``, ``odot`` and ``big_oplus`` check nothing: they are the inner
steps of the product and pushforward kernels, given checked weights.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from typing import Callable, Iterable, Sequence, Union

from .record import Record

__all__ = [
    "BOTTOM",
    "BottomType",
    "MAX_PLUS",
    "MaxPlusValue",
    "SUM_PRODUCT",
    "Semiring",
    "as_scalar",
    "big_oplus",
    "mp_exp",
    "mp_ln",
    "odot",
    "oplus",
]


class BottomType:
    """The minus-infinity scalar, as a singleton tag."""

    __slots__ = ()
    _instance: "BottomType | None" = None

    def __new__(cls) -> "BottomType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = BottomType()

# A max-plus scalar: a finite float, or BOTTOM.
MaxPlusValue = Union[float, BottomType]


def as_scalar(value: object) -> MaxPlusValue:
    """Coerce ``value`` to a max-plus scalar.

    Ints are widened to float.  NaN and the IEEE infinities are
    rejected; minus infinity must be passed as ``BOTTOM``.
    """
    if value is BOTTOM:
        return BOTTOM
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = as_float(value)
        if math.isfinite(out):
            return out
    raise ValueError(f"not a max-plus scalar (finite number or BOTTOM): {_shown(value)}")


def as_float(value: object) -> float:
    """``float(value)``, except that an int beyond the float range gives +-inf.

    ``float`` raises ``OverflowError`` for such an int; as an infinity it
    fails the caller's finiteness check and is reported like one.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# ``_FLOAT.issuperset(map(type, v))``: every value is a float, in one C pass.
_FLOAT = frozenset((float,))


def _floats(values: Sequence[object]) -> tuple[float, ...]:
    # Ints and floats (never bools) as floats; anything else is named.
    # An int beyond the float range becomes +-inf, so the caller's
    # finiteness check rejects it by name.  A caller's collection reaches
    # it through ``_collection``.
    values = tuple(values)
    if _FLOAT.issuperset(map(type, values)):
        return values
    if not {float, int}.issuperset(map(type, values)):
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"not a real number: {_shown(v)}")
    return tuple(map(as_float, values))


def _scalars(values: tuple) -> tuple[tuple, MaxPlusValue]:
    # The values as max-plus scalars, and their peak (BOTTOM if all are).
    # Finite floats pass in one bulk check; anything else is coerced one
    # by one, so ``as_scalar`` names the first value it rejects.
    finite = [w for w in values if w is not BOTTOM]
    if not (_FLOAT.issuperset(map(type, finite)) and all(map(math.isfinite, finite))):
        values = tuple(map(as_scalar, values))
        finite = [w for w in values if w is not BOTTOM]
    return values, max(finite, default=BOTTOM)


def _summed(cls: type, space, sums: Sequence, where: str, what: str, terms: Callable):
    # ``cls(space, sums)``.  When the constructor rejects a sum that left
    # the float range, the ``ValueError`` names the first such sum's point
    # by ``where`` and the two finite terms ``terms(i)`` that ``sums[i]``
    # added (``terms`` is asked only there); other rejections propagate.
    try:
        return cls(space, sums)
    except ValueError:
        for i, out in enumerate(sums):
            if out in (math.inf, -math.inf):
                a, b = terms(i)
                raise ValueError(
                    f"{where.format(space.points[i])}: the {what} sum {a!r} + {b!r}"
                    " overflows the float range"
                ) from None
        raise


def _of_kind(value: object, cls: type):
    # ``value`` if it is a ``cls``, for any package class ``cls``; ``Measure``
    # sets no ``kind``, so it takes either measure kind.  Otherwise
    # ``TypeError`` names the need, by the kind ``cls.kind`` or by ``cls.noun``.
    if isinstance(value, cls):
        return value
    if hasattr(cls, "kind"):
        raise TypeError(f"{cls.kind} measure required, got {type(value).__name__}")
    raise TypeError(f"not a {cls.noun}: {_shown(value)}")


def _collection(value: object, what: str, of: str, ordered: bool = True) -> tuple:
    # ``value`` as a tuple of ``of``, never a bare string's characters, a
    # mapping's keys or, where order matters, a set's items in hash order.
    if type(value) is tuple:
        return value
    needed = f"{what} must be a collection of {of}, got"
    if isinstance(value, str):
        raise TypeError(f"{needed} the string {value!r}")
    if isinstance(value, Mapping) or ordered and isinstance(value, (set, frozenset)):
        raise TypeError(f"{needed} a {type(value).__name__}")
    try:
        return tuple(value)
    except TypeError:
        raise TypeError(f"{needed} {_shown(value)}") from None


# The size budget of a space built from sizes: a grid's cells, a product's pairs.
_MAX_SIZE = 10**6


def _count(value: object, what: str, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(
            f"{what} must be an integer of at least {least}, got {_shown(value)}"
        )
    return value


def _shown(value: object) -> str:
    """``repr(value)``, or an int too long for it as its sign, lead and length.

    Python refuses the repr of an int past 4,300 digits (its int-to-string
    limit) with a message that names neither the check nor the value.  A
    list, tuple, set, frozenset or mapping holding such an int is shown
    item by item.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple, set, frozenset, Mapping)):
            items = ", ".join(
                f"{_shown(k)}: {_shown(value[k])}" if isinstance(value, Mapping) else _shown(k)
                for k in value
            )
            if isinstance(value, tuple):
                return f"({items},)" if len(value) == 1 else f"({items})"
            if isinstance(value, list):
                return f"[{items}]"
            return f"frozenset({{{items}}})" if isinstance(value, frozenset) else f"{{{items}}}"
        size = abs(value)
    digits = int(math.log10(size)) + 1
    digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
    sign = "-" if value < 0 else ""
    return f"{sign}{size // 10 ** (digits - 12)}... ({digits} digits)"


def oplus(a: MaxPlusValue, b: MaxPlusValue) -> MaxPlusValue:
    """Max-plus addition: the maximum of ``a`` and ``b``."""
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    return a if a >= b else b


def odot(a: MaxPlusValue, b: MaxPlusValue) -> MaxPlusValue:
    """Max-plus multiplication: the sum, with BOTTOM absorbing."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    return a + b


def big_oplus(values: Iterable[MaxPlusValue]) -> MaxPlusValue:
    """Fold of ``oplus`` over ``values``; the empty fold is BOTTOM."""
    return max([v for v in values if v is not BOTTOM], default=BOTTOM)


def mp_exp(value: MaxPlusValue) -> float:
    """Exponential extended by ``exp(BOTTOM) = 0``; a result past the float range is an error."""
    x = as_scalar(value)
    try:
        return 0.0 if x is BOTTOM else math.exp(x)
    except OverflowError:
        raise ValueError(f"exp of {_shown(value)} overflows the float range") from None


def mp_ln(x: float) -> MaxPlusValue:
    """Logarithm extended by ``ln(0) = BOTTOM``; negative or non-finite input is an error."""
    (value,) = _floats((x,))
    if value < 0.0:
        raise ValueError(f"ln of a negative number: {_shown(x)}")
    if not value < math.inf:
        raise ValueError(f"ln of a non-finite number: {_shown(x)}")
    return BOTTOM if value == 0.0 else math.log(value)


class Semiring(Record):
    """The scalar operations a measure kind evaluates and transports with.

    Attributes
    ----------
    zero : scalar
        The neutral element of the sum; weights equal to it mark points
        outside the support.
    sum : callable
        Fold over an iterable of scalars; the empty fold is ``zero``.
    times : callable
        The multiplication of two scalars.
    dot : callable
        ``dot(weights, values)``, the fold of ``times`` over aligned
        pairs: the evaluation kernel, written out per instance because
        it is the hot loop.
    """

    zero: MaxPlusValue
    sum: Callable[[Iterable[MaxPlusValue]], MaxPlusValue]
    times: Callable[[MaxPlusValue, MaxPlusValue], MaxPlusValue]
    dot: Callable[[Sequence[MaxPlusValue], Sequence[float]], MaxPlusValue]


def _max_plus_dot(
    weights: Sequence[MaxPlusValue], values: Sequence[float]
) -> MaxPlusValue:
    best: float | None = None
    for w, v in zip(weights, values):
        if w is BOTTOM:
            continue
        s = w + v
        if best is None or s > best:
            best = s
    return BOTTOM if best is None else best


def _sum_product_dot(weights: Sequence[float], values: Sequence[float]) -> float:
    # The sum overflows when its partial sums pass the float maximum; a
    # product does when a mass over 1 (within the 1e-12 gate) meets it.
    try:
        total = math.fsum(map(operator.mul, weights, values))
    except OverflowError:
        total = math.inf
    return total if math.isfinite(total) else _halved_dot(weights, values)


def _halved_dot(weights: Sequence[float], values: Sequence[float]) -> float:
    # Halving is exact above the subnormals, and the products of the
    # halved values sum to about half the float maximum at most, so
    # doubling their fold undoes the scaling.  An expectation lies
    # between the least and the greatest value on the support, which the
    # doubled fold may pass only by its rounding.
    total = 2.0 * math.fsum([w * (v * 0.5) for w, v in zip(weights, values)])
    on_support = [v for w, v in zip(weights, values) if w != 0.0]
    return min(max(total, min(on_support)), max(on_support))


MAX_PLUS = Semiring(zero=BOTTOM, sum=big_oplus, times=odot, dot=_max_plus_dot)
SUM_PRODUCT = Semiring(
    zero=0.0, sum=math.fsum, times=operator.mul, dot=_sum_product_dot
)
