from __future__ import annotations

import ast
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from maxplusprob import density
from maxplusprob import (
    ContinuousTestFunction,
    DensityMeasure,
    PiecewiseLinear,
    convergence_report,
    discretize,
    eval_density_measure,
    evaluate_idempotent,
    grid_points,
    grid_space,
    normalize_idempotent,
    sample_function,
)

FLAT = DensityMeasure(((0.0, 0.0), (1.0, 0.0)), 0.0)
RAMP = ContinuousTestFunction(((0.0, 0.0), (1.0, 1.0)), 1.0)

# Supremum of d + phi sits at x = 1/3, off every 10^k grid.
TENT = DensityMeasure(((0.0, -1.0), (1.0 / 3.0, 0.0), (1.0, -2.0)), 3.001)
SLOPE_HALF = ContinuousTestFunction(((0.0, 0.5), (1.0, -0.5)), 1.0)


# -- piecewise-linear plumbing ---------------------------------------------------


def test_breakpoint_validation():
    with pytest.raises(ValueError, match="at least two"):
        PiecewiseLinear(((0.0, 0.0),), 1.0)
    with pytest.raises(ValueError, match="start at x=0"):
        PiecewiseLinear(((0.1, 0.0), (1.0, 0.0)), 1.0)
    with pytest.raises(ValueError, match="end at x=1"):
        PiecewiseLinear(((0.0, 0.0), (0.9, 0.0)), 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (0.5, 0.0), (1.0, 0.0)), 10.0)
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinear(((0.0, 0.0), (1.0, math.inf)), 1.0)
    with pytest.raises(ValueError, match="Lipschitz"):
        PiecewiseLinear(((0.0, 0.0), (1.0, 0.0)), -1.0)


def test_declared_lipschitz_bound_is_enforced():
    PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)), 2.0)
    with pytest.raises(ValueError, match="exceeds the declared"):
        PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)), 1.5)


def test_interpolation_and_peak():
    f = PiecewiseLinear(((0.0, -1.0), (0.25, 1.0), (1.0, 0.0)), 8.0)
    assert f(0.0) == -1.0
    assert f(0.25) == 1.0
    assert f(0.125) == pytest.approx(0.0, abs=1e-15)
    assert f.peak == 1.0
    assert f.sample([0.0, 0.25, 1.0]) == [-1.0, 1.0, 0.0]


def test_density_must_be_nonpositive_with_zero_sup():
    DensityMeasure(((0.0, -1e-10), (1.0, -2.0)), 2.0)
    with pytest.raises(ValueError, match="<= 0 everywhere"):
        DensityMeasure(((0.0, 0.5), (1.0, 0.0)), 1.0)
    with pytest.raises(ValueError, match="supremum 0"):
        DensityMeasure(((0.0, -0.5), (1.0, -1.0)), 1.0)


def test_breakpoints_and_bound_must_be_real_numbers():
    with pytest.raises(ValueError, match="not a real number: '0'"):
        PiecewiseLinear(((0, "0"), (1, True)), "1")
    with pytest.raises(ValueError, match="not a real number: True"):
        PiecewiseLinear(((0, 0.0), (1, True)), 1.0)
    with pytest.raises(ValueError, match="not a real number: '1'"):
        ContinuousTestFunction(((0.0, 0.0), (1.0, 0.0)), "1")
    with pytest.raises(ValueError, match="must be finite: inf"):
        PiecewiseLinear(((0, 0.0), (1, 10**400)), 1.0)
    with pytest.raises(ValueError, match="Lipschitz bound must be finite"):
        DensityMeasure(((0.0, 0.0), (1.0, 0.0)), 10**400)
    f = PiecewiseLinear(((0, 0), (1, 1)), 1)
    assert f.breakpoints == ((0.0, 0.0), (1.0, 1.0)) and f.lipschitz == 1.0
    assert all(type(v) is float for pair in f.breakpoints for v in pair)
    assert type(f.lipschitz) is float


@pytest.mark.parametrize(
    "item, shown",
    [(5, "5"), ((1, 0, 0), "(1, 0, 0)"), ({"x": 1, "y": 0}, "{'x': 1, 'y': 0}"), ([1], "[1]")],
)
def test_a_malformed_breakpoint_is_named_before_any_number(item, shown):
    # The pair rule comes first: a scalar is not unpacked, a 3-entry pair
    # not cut short, and a dict not read as its keys.
    message = f"^a breakpoint must be an \\(x, y\\) pair, got {re.escape(shown)}$"
    for cls in (PiecewiseLinear, DensityMeasure, ContinuousTestFunction):
        with pytest.raises(ValueError, match=message):
            cls(((0, 0), item), 1.0)
        with pytest.raises(ValueError, match=message):
            cls(((0, "x"), item), "bound")


def test_continuous_functions_may_change_sign():
    ContinuousTestFunction(((0.0, -3.0), (0.5, 2.0), (1.0, -1.0)), 10.0)


# -- grids ------------------------------------------------------------------------


def test_grid_points_and_space():
    assert grid_points(1) == [0.0, 1.0]
    assert grid_points(4) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid_space(2).points == ("0.0", "0.5", "1.0")
    for bad in (0, -3, True, 2.5):
        with pytest.raises(ValueError):
            grid_points(bad)


def test_discretize_renormalizes_off_grid_peaks():
    # The tent peaks at 1/3, between the points of every decimal grid,
    # so the raw samples top out below 0 and the shift restores the
    # normalization exactly.
    mu = discretize(TENT, 10)
    assert len(mu.weights) == 11
    assert max(mu.weights) == 0.0
    assert mu.weights[3] == 0.0  # 0.3 is the closest grid point to 1/3


def test_sample_function_matches_pointwise():
    phi = sample_function(SLOPE_HALF, 4)
    assert phi.values == pytest.approx((0.5, 0.25, 0.0, -0.25, -0.5), abs=1e-15)


def test_reference_evaluator_validates_resolution():
    with pytest.raises(ValueError, match="at least"):
        eval_density_measure(FLAT, RAMP, 100)
    with pytest.raises(ValueError, match="integer"):
        eval_density_measure(FLAT, RAMP, 1e6)
    with pytest.raises(ValueError, match="integer"):
        eval_density_measure(FLAT, RAMP, True)
    assert eval_density_measure(FLAT, RAMP, 10_000) == 1.0


def test_reference_evaluator_refuses_a_resolution_above_one_million():
    # One call builds up to ``resolution`` floats; the grid sizes' ceiling holds.
    with pytest.raises(ValueError) as err:
        eval_density_measure(FLAT, RAMP, 10**6 + 1)
    assert str(err.value) == "the resolution must be at most 1000000, got 1000001"
    assert eval_density_measure(FLAT, RAMP, 10**6) == 1.0


# -- convergence ---------------------------------------------------------------------


def test_flat_density_with_ramp_function_is_exact_on_every_grid():
    report = convergence_report(FLAT, RAMP, [1, 10, 100])
    assert all(row.error == 0.0 for row in report.rows)
    assert report.reference == 1.0
    assert report.within_bound
    assert report.non_increasing


def test_constant_function_has_zero_bound_and_zero_error():
    constant = ContinuousTestFunction(((0.0, 2.5), (1.0, 2.5)), 0.0)
    report = convergence_report(FLAT, constant, [10, 100])
    assert all(row.bound == 0.0 for row in report.rows)
    assert all(row.error == 0.0 for row in report.rows)
    assert report.within_bound


def test_off_grid_peak_errors_shrink_with_refinement():
    report = convergence_report(TENT, SLOPE_HALF, [10, 100, 1000, 10_000])
    errors = [row.error for row in report.rows]
    assert report.within_bound
    assert report.non_increasing
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_grid_aligned_peak_gives_zero_error():
    spike = DensityMeasure(((0.0, 0.0), (0.5, -1.0), (1.0, 0.0)), 2.0)
    tent = ContinuousTestFunction(((0.0, -1.0), (0.5, 1.0), (1.0, -1.0)), 4.0)
    report = convergence_report(spike, tent, [2, 10, 100])
    assert all(row.error == 0.0 for row in report.rows)
    assert report.within_bound


def test_rows_are_sorted_and_deduplicated():
    report = convergence_report(FLAT, RAMP, [100, 10, 10, 1000])
    assert [row.n for row in report.rows] == [10, 100, 1000]
    with pytest.raises(ValueError, match="at least one grid size"):
        convergence_report(FLAT, RAMP, [])


def test_every_grid_size_is_checked_before_sorting():
    # A size that is not a count would otherwise reach ``sorted`` next to
    # the ints and raise TypeError there.
    for bad in ("a", None, 2.5, True, 0):
        with pytest.raises(ValueError, match=f"the grid size must be an integer.*{bad!r}"):
            convergence_report(FLAT, RAMP, [10, bad])


def test_grid_sizes_stop_at_one_million(monkeypatch):
    # Checked before anything is built: no grid above 10**6 is ever made.
    too_big = 10**6 + 1
    message = f"^the grid size must be at most 1000000, got {too_big}$"
    for build in (grid_points, grid_space, lambda n: discretize(TENT, n)):
        with pytest.raises(ValueError, match=message):
            build(too_big)

    def no_rows(*args):
        raise AssertionError("a row was computed before the sizes were checked")

    monkeypatch.setattr(density, "discretize", no_rows)
    with pytest.raises(ValueError, match=message):
        convergence_report(FLAT, RAMP, [10, too_big])


def test_off_grid_reference_is_the_supremum_above_the_fine_grid():
    # The peak at 1/3 lies on no decimal grid: the reference is the
    # value there, which the 1e6-cell grid misses by at most half a cell
    # times the summed Lipschitz bounds, plus rounding (``_bracketed``).
    report = convergence_report(TENT, SLOPE_HALF, [10])
    assert report.reference.hex() == "0x1.5555555555556p-3"
    np = pytest.importorskip("numpy")
    grid, reference = _bracketed(np, TENT, SLOPE_HALF, 1_000_000)
    # Every grid point is at least 1/3e6 from the peak, where d + phi
    # falls with slope 2 or steeper: far below it, beyond any rounding.
    assert grid <= reference


def test_report_never_evaluates_the_fine_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("the report must not scan a fine grid")

    monkeypatch.setattr(density, "eval_density_measure", refuse)
    flat = ContinuousTestFunction(tuple((x, 1.5 - y) for x, y in TENT.breakpoints), 3.001)
    for d, phi in ((FLAT, RAMP), (TENT, SLOPE_HALF), (TENT, flat)):
        report = convergence_report(d, phi, [10, 100, 1000])
        assert report.within_bound


def test_no_package_or_workload_code_calls_the_fine_grid_evaluator():
    # ``eval_density_measure`` scans every grid point; it stays out of the
    # package's own paths and the benchmark's workloads.
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "maxplusprob").glob("*.py"))
    for path in [*sources, root / "bench" / "workloads.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert name != "eval_density_measure", f"{path.name}:{node.lineno}"


def _random_piecewise(rng: random.Random, lo: float, hi: float, cls):
    cuts = sorted(rng.sample([k / 16 for k in range(1, 16)], rng.randint(1, 4)))
    xs = [0.0, *cuts, 1.0]
    ys = [rng.uniform(lo, hi) for _ in xs]
    if cls is DensityMeasure:
        top = max(ys)
        ys = [y - top for y in ys]
    slopes = [
        abs((y1 - y0) / (x1 - x0))
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))
    ]
    return cls(tuple(zip(xs, ys)), max(slopes))


def test_error_bound_holds_on_random_instances():
    rng = random.Random(47)
    for _ in range(30):
        d = _random_piecewise(rng, -2.0, 0.0, DensityMeasure)
        phi = _random_piecewise(rng, -3.0, 3.0, ContinuousTestFunction)
        report = convergence_report(d, phi, [5, 16, 50, 160])
        assert report.within_bound, report


def test_discretized_value_agrees_with_direct_grid_supremum():
    # Discretizing and evaluating must equal max(d + phi) over the grid
    # shifted by the normalization constant folded back in; with the
    # tent renormalized the two routes differ only by reassociation.
    n = 10
    mu = discretize(TENT, n)
    phi = sample_function(SLOPE_HALF, n)
    direct = max(
        TENT(x) + SLOPE_HALF(x) for x in grid_points(n)
    ) - max(TENT(x) for x in grid_points(n))
    assert evaluate_idempotent(mu, phi) == pytest.approx(direct, abs=1e-12)


def test_raw_grid_peak_never_drops_when_the_grid_is_subdivided():
    # Doubling n keeps every old node (k/n == 2k/(2n) exactly in floats),
    # so the pre-normalization maximum of d over the grid can only grow.
    rng = random.Random(59)
    for _ in range(30):
        d = _random_piecewise(rng, -2.0, 0.0, DensityMeasure)
        peaks = [max(d(x) for x in grid_points(n)) for n in (5, 10, 20, 40, 80)]
        assert all(a <= b for a, b in zip(peaks, peaks[1:]))


# -- bit identity with numpy.interp ---------------------------------------------------


def _oracle_piecewise(rng: random.Random, lo: float, hi: float, placement: str):
    # Breakpoints on the 1/1000 grid land exactly on every fine grid whose
    # size is a multiple of 1000; random ones fall between grid points.
    inner = rng.randint(0, 6)
    if placement == "on-grid":
        cuts = [k / 1000 for k in sorted(rng.sample(range(1, 1000), inner))]
    else:
        cuts = sorted({rng.random() for _ in range(inner)})
    return [(x, rng.uniform(lo, hi)) for x in [0.0, *cuts, 1.0]]


def _steepest(pairs) -> float:
    return max(abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]))


def _oracle_pair(rng: random.Random, kind: str):
    """A density and a test function whose sum ``kind`` describes.

    ``flat`` sums are constant; ``tilted`` ones rise or fall by 1e-14 to
    1e-9 across [0, 1], near the rounding noise, so the maximum may sit
    inside the window at a segment end; the others put every breakpoint
    on or off the 1/1000 grid.
    """
    placement = "off-grid" if kind == "off-grid" else "on-grid"
    d = _oracle_piecewise(rng, -3.0, 0.0, placement)
    top = max(y for _, y in d)
    d = [(x, y - top) for x, y in d]
    if kind in ("flat", "tilted"):
        c = rng.uniform(-2.0, 2.0)
        tilt = 0.0 if kind == "flat" else rng.choice([-1, 1]) * 10 ** rng.uniform(-14, -9)
        phi = [(x, c - y + tilt * x) for x, y in d]
    else:
        phi = _oracle_piecewise(rng, -2.0, 2.0, placement)
    return (
        DensityMeasure(tuple(d), _steepest(d)),
        ContinuousTestFunction(tuple(phi), _steepest(phi)),
    )


def _interp(np, f, xs):
    return np.interp(xs, [x for x, _ in f.breakpoints], [y for _, y in f.breakpoints])


def _numpy_grid_max(np, d, phi, resolution: int) -> float:
    """numpy's maximum of ``d + phi`` over the grid points ``k / resolution``."""
    xs = np.arange(resolution + 1, dtype=np.float64) / float(resolution)
    return float(np.max(_interp(np, d, xs) + _interp(np, phi, xs)))


def _rounding(d, phi) -> Fraction:
    """How far a grid maximum may exceed the reference by rounding alone.

    Both read sampled sums ``fl(d(x) + phi(x))``: the grid at its points,
    the reference at the breakpoints.  On a segment from ``(x0, y0)`` to
    ``(x1, y1)`` of a function whose breakpoint values are at most ``M``
    in size, a sample is ``fl(fl(s * fl(x - x0)) + y0)`` with slope
    ``s = fl(fl(y1 - y0) / fl(x1 - x0))``.  The exact increment is at most
    ``|y1 - y0| <= 2M`` and passes five roundings of relative size
    ``u = 2**-53``, so it is off by under ``6u * 2M``; adding ``y0`` costs
    under ``u * 1.01M`` more, and a subnormal quotient or product loses up
    to ``2**-1075`` absolutely, twice.  A sample is thus within
    ``14u M + 2**-1074`` of the exact value, and the rounded sum of two
    within ``e = 16u (M_d + M_phi) + 2**-1073`` of ``d(x) + phi(x)``.
    Every exact sum is at most the supremum, and the reference is within
    ``e`` of it (it reads the sum at the supremum's breakpoint), so the
    grid maximum exceeds the reference by at most ``2e``.

    Returned as an exact rational, so that the bounds built on it round
    nothing themselves.
    """
    m = sum(Fraction(max(abs(y) for _, y in f.breakpoints)) for f in (d, phi))
    return 2 * (16 * Fraction(1, 2**53) * m + Fraction(1, 2**1073))


def _reach(d, phi, resolution: int) -> Fraction:
    """How far below the supremum ``d + phi`` may be at its nearest grid point.

    The supremum is reached at some ``x*``; the float grid point nearest
    to it, ``fl(k / resolution)``, is within ``1 / (2 * resolution)`` plus
    one rounding, ``2**-54``, of ``x*``.  Over that distance the exact sum
    falls by at most ``S`` times it, where ``S`` bounds the true slopes of
    ``d`` and ``phi`` together.  The constructor admits a float slope up to
    ``lipschitz + _SLOPE_TOL``, and a float slope is within three roundings,
    a factor ``1 + 2**-51``, of the true one, or ``2**-1074`` absolutely if
    the quotient is subnormal.
    """
    tol = Fraction(density._SLOPE_TOL)
    slopes = sum(
        (Fraction(f.lipschitz) + tol) * (1 + Fraction(1, 2**51)) + Fraction(1, 2**1074)
        for f in (d, phi)
    )
    return slopes * (Fraction(1, 2 * resolution) + Fraction(1, 2**54))


def _bracketed(np, d, phi, resolution: int) -> tuple[float, float]:
    """numpy's grid maximum and the reference, checked against each other."""
    grid = _numpy_grid_max(np, d, phi, resolution)
    reference = convergence_report(d, phi, [10]).reference
    # Below: rounding alone, ``2e`` (``_rounding``).  Above: the reference
    # is at most ``e`` over the supremum, the nearest grid point's exact sum
    # at most ``_reach`` under it, and that point's sample at most ``e``
    # under its exact sum, so ``2e`` again on top of ``_reach``.
    r, grid_q, reference_q = _rounding(d, phi), Fraction(grid), Fraction(reference)
    assert grid_q - r <= reference_q <= grid_q + _reach(d, phi, resolution) + r, (d, phi)
    return grid, reference


def test_reference_is_the_largest_sum_at_the_union_breakpoints():
    rng = random.Random(71)
    on_grid_pairs = []
    for k in range(24):
        on_grid = k % 4 == 0
        d, phi = _oracle_pair(rng, "on-grid" if on_grid else "off-grid")
        cuts = sorted({x for x, _ in d.breakpoints} | {x for x, _ in phi.breakpoints})
        want = max(d(x) + phi(x) for x in cuts)
        reference = convergence_report(d, phi, [10, 100]).reference
        assert reference.hex() == want.hex(), (d, phi)
        if on_grid:
            on_grid_pairs.append((d, phi))
    np = pytest.importorskip("numpy")
    for d, phi in on_grid_pairs:
        # Every breakpoint is a point of the 1e6-cell grid, sampled alike
        # by both, and the random slopes of ``d + phi`` put every other
        # grid point a cell's rise below the peak, far beyond rounding.
        grid, reference = _bracketed(np, d, phi, 1_000_000)
        assert reference.hex() == grid.hex(), (d, phi)


KINDS = ("flat", "tilted", "off-grid", "on-grid")


@pytest.mark.parametrize(
    "resolution, cases", [(10_000, 200), (12_347, 40), (100_000, 40), (1_000_000, 12)]
)
def test_reference_brackets_the_numpy_fine_grid_maximum(resolution, cases):
    np = pytest.importorskip("numpy")
    rng = random.Random(resolution)
    for k in range(cases):
        kind = KINDS[k % 4]
        d, phi = _oracle_pair(rng, kind)
        grid, reference = _bracketed(np, d, phi, resolution)
        if kind != "off-grid" and resolution % 1000 == 0:
            # Every breakpoint k/1000 is the grid point with the same float,
            # so the grid maximum reads the reference's largest sum too; on
            # the on-grid kind the random slopes of ``d + phi`` put every
            # other grid point a cell's rise below it, far beyond rounding.
            assert reference <= grid, (d, phi)
            if kind == "on-grid":
                assert reference.hex() == grid.hex(), (d, phi)


def test_fine_grid_evaluator_matches_numpy_bit_for_bit():
    # The same 200 seeded pairs as the reference's check at 10_000 cells.
    np = pytest.importorskip("numpy")
    rng = random.Random(10_000)
    for k in range(200):
        d, phi = _oracle_pair(rng, KINDS[k % 4])
        want = _numpy_grid_max(np, d, phi, 10_000)
        assert eval_density_measure(d, phi, 10_000).hex() == want.hex(), (d, phi)


def test_reference_matches_numpy_when_the_peak_is_a_grid_point():
    # The peak m/1000 is a grid point, where numpy reads its value 0.0 as
    # the reference does; every other grid point lies a cell or more down
    # a slope of at least 0.1, far beyond rounding, so the two are equal.
    np = pytest.importorskip("numpy")
    rng = random.Random(67)
    zero = ContinuousTestFunction(((0.0, 0.0), (1.0, 0.0)), 0.0)
    for resolution in (10_000, 100_000):
        for m in range(1, 1000):
            pairs = ((0.0, rng.uniform(-3.0, -0.1)), (m / 1000, 0.0), (1.0, rng.uniform(-3.0, -0.1)))
            d = DensityMeasure(pairs, _steepest(pairs))
            want = _numpy_grid_max(np, d, zero, resolution)
            assert convergence_report(d, zero, [10]).reference.hex() == want.hex(), pairs


def test_reference_matches_numpy_for_subnormal_slopes():
    # Slopes this small sample to subnormals, where rounding is absolute.
    np = pytest.importorskip("numpy")
    d = DensityMeasure(((0.0, 0.0), (1.0, -1e-320)), 1.0)
    phi = ContinuousTestFunction(((0.0, 0.0), (0.5, 1e-320), (1.0, 5e-321)), 1.0)
    grid, _ = _bracketed(np, d, phi, 10_000)
    assert eval_density_measure(d, phi, 10_000).hex() == grid.hex()


def test_grid_sampling_matches_numpy_bit_for_bit():
    np = pytest.importorskip("numpy")
    rng = random.Random(61)
    for n in (10, 11, 100, 999, 1000, 4099, 10_000):
        d, phi = _oracle_pair(rng, rng.choice(["off-grid", "on-grid"]))
        xs = np.array(grid_points(n))
        raw = [float(v) for v in _interp(np, d, xs)]
        want = normalize_idempotent(grid_space(n), raw).weights
        assert [w.hex() for w in discretize(d, n).weights] == [w.hex() for w in want]
        want = [float(v).hex() for v in _interp(np, phi, xs)]
        assert [v.hex() for v in sample_function(phi, n).values] == want


def test_sample_matches_numpy_off_the_unit_interval():
    np = pytest.importorskip("numpy")
    f = PiecewiseLinear(((0.0, -1.0), (0.25, 1.0), (0.6, 0.5), (1.0, 0.0)), 8.0)
    xs = [-2.0, -0.0, 0.0, 0.1, 0.25, 0.5999, 0.6, 0.99, 1.0, 1.5, math.inf, -math.inf, math.nan]
    want = [float(v).hex() for v in _interp(np, f, np.array(xs))]
    assert [v.hex() for v in f.sample(xs)] == want
