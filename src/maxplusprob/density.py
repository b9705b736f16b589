"""Grid discretization of max-plus densities on the unit interval.

A density here is a piecewise-linear function ``d`` on ``[0, 1]`` with
``sup d = 0`` and ``d <= 0``; it plays the role of a continuous
idempotent measure, acting on a continuous test function ``phi`` by
``sup_x (d(x) + phi(x))``.

Discretization samples ``d`` on the uniform grid ``{k/n : k = 0..n}``
and normalizes.  Evaluating the discretized measure against the
sampled test function approximates the continuous supremum with error
at most ``(L_phi + L_d) / n`` where the ``L`` are the declared
Lipschitz bounds: the true argmax lies within ``1/(2n)`` of a grid
point, and the normalization shift is itself at most ``L_d / (2n)``.
``convergence_report`` tabulates the observed errors against that
bound.  Its reference is the supremum itself: ``d + phi`` is linear
between consecutive breakpoints of the two, so the supremum is the
largest sum at a breakpoint of either.  ``eval_density_measure``, the
maximum over a grid of ``resolution`` cells, lies below it by at most
``(L_d + L_phi) / (2 * resolution)`` and above it by at most the
rounding of the sampled sums, a few ulps of the largest breakpoint values.

Sampling computes each value in plain floats the way ``numpy.interp``
does, so the outputs match it bit for bit.  ``PiecewiseLinear`` checks
that each breakpoint is a pair of two entries before it reads a number.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import repeat
from operator import add

from .measures import (
    FiniteSpace,
    IdempotentMeasure,
    TestFunction,
    evaluate_idempotent,
    normalize_idempotent,
)
from .record import Record
from .semiring import _MAX_SIZE, _collection, _count, _floats, _of_kind, _shown

__all__ = [
    "ContinuousTestFunction",
    "ConvergenceReport",
    "ConvergenceRow",
    "DensityMeasure",
    "PiecewiseLinear",
    "convergence_report",
    "discretize",
    "eval_density_measure",
    "grid_points",
    "grid_space",
    "sample_function",
]

_MIN_RESOLUTION = 10_000
# Slack for the declared-Lipschitz check: breakpoint slopes are computed
# in floats, so an exact bound like 3 may come out a few ulps high.
_SLOPE_TOL = 1e-9
# A density may miss sup = 0 by this much before it is rejected.
_SUP_TOL = 1e-9


class PiecewiseLinear(Record):
    """A piecewise-linear function on ``[0, 1]`` with a declared Lipschitz bound.

    Parameters
    ----------
    breakpoints : tuple of (x, y) pairs
        Strictly increasing in x, starting at 0 and ending at 1.
    lipschitz : float
        Declared bound; every segment slope must respect it.
    """

    breakpoints: tuple[tuple[float, float], ...]
    lipschitz: float
    _lines: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        given = _collection(self.breakpoints, "breakpoints", "(x, y) pairs")
        for item in given:
            if not isinstance(item, (tuple, list)) or len(item) != 2:
                raise ValueError(f"a breakpoint must be an (x, y) pair, got {_shown(item)}")
        xs = _floats([x for x, _ in given])
        ys = _floats([y for _, y in given])
        self.__dict__["breakpoints"] = pairs = tuple(zip(xs, ys))
        (self.__dict__["lipschitz"],) = _floats((self.lipschitz,))
        if len(pairs) < 2:
            raise ValueError("at least two breakpoints are required")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("breakpoints must start at x=0 and end at x=1")
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError("breakpoint x values must be strictly increasing")
        for y in ys:
            if not math.isfinite(y):
                raise ValueError(f"breakpoint values must be finite: {y!r}")
        if not math.isfinite(self.lipschitz) or self.lipschitz < 0.0:
            raise ValueError("the Lipschitz bound must be finite and >= 0")
        slopes = tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]))
        for slope in slopes:
            if abs(slope) > self.lipschitz + _SLOPE_TOL:
                raise ValueError(
                    f"segment slope {slope!r} exceeds the declared"
                    f" Lipschitz bound {self.lipschitz!r}"
                )
        self.__dict__["_lines"] = tuple((*p, s) for p, s in zip(pairs, slopes))

    @property
    def peak(self) -> float:
        """The supremum over [0, 1]; attained at a breakpoint."""
        return max(y for _, y in self.breakpoints)

    def sample(self, xs: Sequence[float]) -> list[float]:
        """A list of the values at a sequence of points, by linear interpolation.

        Each value is ``numpy.interp``'s: ``y0`` at a breakpoint, else
        ``slope * (x - x0) + y0``; the first value below 0 and the last
        from 1 on.
        """
        xs = _floats(_collection(xs, "the points", "real numbers"))
        knots = [x for x, _ in self.breakpoints]
        first, last = self.breakpoints[0][1], self.breakpoints[-1][1]
        # Row i serves the x with i breakpoints at or below it; a NaN x
        # counts them all and takes the last segment, as numpy does.
        rows = (self._lines[0], *self._lines, self._lines[-1])
        return [
            last if x >= 1.0 else first if x < 0.0
            else y0 if x == x0 else slope * (x - x0) + y0
            for x, (x0, y0, slope) in zip(
                xs, map(rows.__getitem__, map(bisect_right, repeat(knots), xs))
            )
        ]

    def __call__(self, x: float) -> float:
        return self.sample([x])[0]


class DensityMeasure(PiecewiseLinear):
    """A piecewise-linear max-plus density: nonpositive with supremum 0.

    The supremum of a piecewise-linear function is attained at a
    breakpoint, so the constraint is checked there exactly instead of
    on a probe grid.
    """

    noun = "density"

    def __post_init__(self) -> None:
        super().__post_init__()
        top = self.peak
        if top > 0.0:
            raise ValueError(f"a density must be <= 0 everywhere, peak is {top!r}")
        if top < -_SUP_TOL:
            raise ValueError(
                f"a density must have supremum 0 (within {_SUP_TOL}), peak is {top!r}"
            )


class ContinuousTestFunction(PiecewiseLinear):
    """A piecewise-linear test function on ``[0, 1]``."""

    noun = "continuous function"


def _grid_size(n: object, what: str = "the grid size", least: int = 1) -> int:
    if _count(n, what, least) > _MAX_SIZE:
        raise ValueError(f"{what} must be at most {_MAX_SIZE}, got {_shown(n)}")
    return n


def grid_points(n: int) -> list[float]:
    """The uniform grid ``k / n`` for ``k = 0..n`` (n + 1 points), ``n <= 10**6``."""
    _grid_size(n)
    return [k / n for k in range(n + 1)]


def grid_space(n: int) -> FiniteSpace:
    """The grid as a finite space; labels are the shortest float reprs."""
    return FiniteSpace(tuple(repr(x) for x in grid_points(n)))


def discretize(d: DensityMeasure, n: int) -> IdempotentMeasure:
    """Sample a density on the ``n``-grid and normalize the weights."""
    weights = _of_kind(d, DensityMeasure).sample(grid_points(n))
    return normalize_idempotent(grid_space(n), weights)


def sample_function(phi: ContinuousTestFunction, n: int) -> TestFunction:
    """Restrict a continuous test function to the ``n``-grid."""
    values = _of_kind(phi, ContinuousTestFunction).sample(grid_points(n))
    return TestFunction(grid_space(n), tuple(values))


def eval_density_measure(
    d: DensityMeasure, phi: ContinuousTestFunction, resolution: int
) -> float:
    """The maximum of ``d + phi`` over the grid points ``k / resolution``.

    ``resolution`` is the cell count, from 10000 to 10**6; the value is
    ``numpy.interp``'s fine-grid maximum bit for bit.
    """
    d, phi = _of_kind(d, DensityMeasure), _of_kind(phi, ContinuousTestFunction)
    _grid_size(resolution, "the resolution", _MIN_RESOLUTION)
    xs = grid_points(resolution)
    return max(map(add, d.sample(xs), phi.sample(xs)))


class ConvergenceRow(Record):
    """One grid size: the observed error and its Lipschitz bound."""

    n: int
    error: float
    bound: float
    noun = "convergence row"


class ConvergenceReport(Record):
    """Observed discretization errors against the ``(L_phi + L_d) / n`` bound.

    ``within_bound`` holds when every row respects its bound;
    ``non_increasing`` when errors do not grow as the grid refines
    (with 1e-12 slack, and rows ordered by increasing ``n``).
    """

    rows: tuple[ConvergenceRow, ...]
    reference: float
    within_bound: bool
    non_increasing: bool
    noun = "convergence report"

    def __post_init__(self) -> None:
        rows = _collection(self.rows, "rows", "convergence rows")
        self.__dict__["rows"] = tuple([_of_kind(row, ConvergenceRow) for row in rows])


def convergence_report(
    d: DensityMeasure, phi: ContinuousTestFunction, ns: list[int]
) -> ConvergenceReport:
    """Tabulate discretization errors for the given grid sizes.

    Grid sizes are deduplicated and sorted; each row compares the
    discretized evaluation with the reference ``sup_x (d(x) + phi(x))``,
    the largest sum at a breakpoint of ``d`` or ``phi``.  Lipschitz bounds
    whose sum leaves the float range raise ``ValueError``.
    """
    d, phi = _of_kind(d, DensityMeasure), _of_kind(phi, ContinuousTestFunction)
    given = _collection(ns, "the grid sizes", "integers", ordered=False)
    sizes = sorted({_grid_size(n) for n in given})
    if not sizes:
        raise ValueError("at least one grid size is required")
    if not math.isfinite(phi.lipschitz + d.lipschitz):
        raise ValueError(
            f"the Lipschitz bounds {d.lipschitz!r} (density) + {phi.lipschitz!r}"
            " (function) overflow the float range, so no error bound is finite"
        )
    cuts = sorted({x for x, _ in d.breakpoints} | {x for x, _ in phi.breakpoints})
    reference = max(map(add, d.sample(cuts), phi.sample(cuts)))
    rows = []
    for n in sizes:
        mu = discretize(d, n)
        values = TestFunction(mu.space, tuple(phi.sample(grid_points(n))))
        error = abs(evaluate_idempotent(mu, values) - reference)
        bound = (phi.lipschitz + d.lipschitz) / n
        rows.append(ConvergenceRow(n=n, error=error, bound=bound))
    within = all(r.error <= r.bound for r in rows)
    monotone = all(b.error <= a.error + 1e-12 for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(
        rows=tuple(rows),
        reference=reference,
        within_bound=within,
        non_increasing=monotone,
    )
