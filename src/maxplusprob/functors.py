"""Pushforwards, product measures, and the paired-pushforward probe.

A ``PointMap`` between finite spaces transports measures: each image
point gets the semiring sum of its fiber, the maximum for idempotent
weights and the sum for classical masses.  Products pair two measures of
one kind on the product space, with atom weight the semiring product,
``w_x + w_y`` (idempotent) or ``w_x * w_y`` (classical).

``PointMap.__post_init__`` checks every image and caches the fibers the
pushforwards fold (``_fibers``).  Like ``FiniteSpace._index``, the label
lookup built on a space's first lookup, the cache takes no part in
equality, hashing or the repr.

``verify_counterexample`` runs a fixed three-point scenario in which the
pair of pushforwards under two maps separates classical measures but
fails to separate idempotent ones, and measures how far the
classical-to-idempotent conversion is from commuting with a
non-injective pushforward.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Sequence

from .measures import (
    ClassicalMeasure,
    FiniteSpace,
    IdempotentMeasure,
    Measure,
    TestFunction,
    classical_measure,  # not called here; bench/spans.py wraps functors.classical_measure
    dirac,
    in_space_order,
)
from .record import Record
from .semiring import _MAX_SIZE, MAX_PLUS, _count, _of_kind, _shown, _summed

__all__ = [
    "CounterexampleReport",
    "PointMap",
    "ProductSpace",
    "compose",
    "pair_map_image",
    "product",
    "product_classical",
    "product_function",
    "product_idempotent",
    "pushforward",
    "pushforward_classical",
    "pushforward_idempotent",
    "reconstruct_product",
    "verify_counterexample",
]


class PointMap(Record):
    """A total map between finite spaces, one image label per domain point.

    Parameters
    ----------
    domain, codomain : FiniteSpace
    assignment : tuple of str
        Image labels aligned with the domain order.
    """

    domain: FiniteSpace
    codomain: FiniteSpace
    assignment: tuple[str, ...]
    _fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        assignment = tuple(self.assignment)
        self.__dict__["assignment"] = assignment
        if len(assignment) != len(_of_kind(self.domain, FiniteSpace)):
            raise ValueError("one image per domain point is required")
        index = _of_kind(self.codomain, FiniteSpace)._index
        try:
            images = list(map(index.__getitem__, assignment))
        except (KeyError, TypeError):
            # Name the first image that is not a codomain label; a failed lookup has one.
            for point, label in zip(self.domain.points, assignment):
                if not isinstance(label, str) or label not in index:
                    raise ValueError(
                        f"image {_shown(label)} of point {point!r} is not in the codomain"
                    ) from None
        fibers: list[list[int]] = [[] for _ in range(len(self.codomain))]
        for i, j in enumerate(images):
            fibers[j].append(i)
        self.__dict__["_fibers"] = tuple(map(tuple, fibers))

    @classmethod
    def from_mapping(
        cls,
        domain: FiniteSpace,
        codomain: FiniteSpace,
        mapping: Mapping[str, str],
    ) -> "PointMap":
        return cls(domain, codomain, in_space_order(domain, mapping, "images"))

    @classmethod
    def identity(cls, space: FiniteSpace) -> "PointMap":
        return cls(space, space, space.points)

    def __call__(self, label: str) -> str:
        return self.assignment[self.domain.index(label)]


def compose(outer: PointMap, inner: PointMap) -> PointMap:
    """The map ``outer after inner``; domains must chain."""
    if inner.codomain != outer.domain:
        raise ValueError("maps do not compose: inner codomain differs from outer domain")
    return PointMap(
        inner.domain,
        outer.codomain,
        tuple(outer(label) for label in inner.assignment),
    )


class ProductSpace(Record):
    """The product of two finite spaces, with points labeled ``(x,y)``.

    ``space`` is a plain ``FiniteSpace`` over the pair labels, ordered
    left-major, so product measures live on an ordinary space and
    serialize like any other measure.  Inside ``x`` and ``y`` each of
    ``\\``, ``,``, ``(`` and ``)`` is escaped by a backslash, so distinct
    pairs get distinct labels; a label with none of them is kept as is.
    ``of`` refuses more than 10**6 pairs before it builds any label.
    """

    left: FiniteSpace
    right: FiniteSpace
    space: FiniteSpace

    @classmethod
    def of(cls, left: FiniteSpace, right: FiniteSpace) -> "ProductSpace":
        n, m = len(left.points), len(right.points)
        if n * m > _MAX_SIZE:
            raise ValueError(f"a product space has at most {_MAX_SIZE} points, got {n} x {m}")
        labels = _pair_labels(left.points, right.points)
        return cls(left, right, FiniteSpace(labels))

    def pair_label(self, x: str, y: str) -> str:
        return _pair_labels((x,), (y,))[0]

    def pair_index(self, i: int, j: int) -> int:
        return i * len(self.right) + j


# The characters that structure a pair label, and their escapes.
_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,()"})


def _pair_labels(xs: Sequence[str], ys: Sequence[str]) -> tuple[str, ...]:
    # "(x,y)" for every pair, left-major.
    heads = [f"({x.translate(_ESCAPES)}," for x in xs]
    tails = [f"{y.translate(_ESCAPES)})" for y in ys]
    return tuple([head + tail for head in heads for tail in tails])


def product_function(phi: TestFunction, psi: TestFunction) -> TestFunction:
    """The function ``(x, y) -> phi(x) + psi(y)`` on the product space."""
    prod = ProductSpace.of(phi.space, psi.space)
    values = tuple(a + b for a in phi.values for b in psi.values)
    m = len(psi.values)
    return _summed(
        TestFunction, prod.space, values, "atom {} of the product function", "value",
        lambda i: (phi.values[i // m], psi.values[i % m]),
    )


# -- pushforwards ------------------------------------------------------------


def pushforward(f: PointMap, mu: Measure) -> Measure:
    """Transport a measure along ``f``: each image point gets its fiber's sum.

    Idempotent weights take the fiber maximum, BOTTOM for an empty fiber;
    the overall maximum is still exactly 0, so the image is normalized by
    construction.  Classical masses take the exactly rounded fiber sum.
    Along the identity the image equals ``mu`` for either kind.  Along
    ``g o f`` idempotent images agree bit for bit with pushing twice;
    classical ones agree per atom within ``4u * max(a, b) + n * 2**-1074``
    (``u = 2**-53``, ``n`` the domain size), since pushing twice rounds the
    inner fiber sums and then the outer one.
    """
    if _of_kind(mu, Measure).space != f.domain:
        raise ValueError("space mismatch: measure does not live on the map domain")
    fold, weight = mu.semiring.sum, mu.weights.__getitem__
    weights = [fold(map(weight, fiber)) for fiber in f._fibers]
    return type(mu)(f.codomain, tuple(weights))


pushforward_idempotent = pushforward_classical = pushforward


# -- products ----------------------------------------------------------------


def product(mu: Measure, nu: Measure) -> Measure:
    """The product measure: atom ``(x, y)`` weighs ``w_x (.) w_y``.

    Idempotent factors give ``w_x + w_y``, the unique measure with
    ``m(phi (.) psi) = mu(phi) + nu(psi)`` for split functions, up to
    float absorption near the float maximum (``M - 745`` rounds to ``M``);
    ``reconstruct_product`` checks that uniqueness constructively.
    Classical factors give ``w_x * w_y``.  Each factor sums to 1 within
    1e-12, so the products can miss by about twice that; the
    constructor renormalizes them within its 1e-9 gate and keeps
    products that already meet 1e-12 bit for bit.  A pair of support
    atoms whose weight sum overflows, or whose mass product underflows
    to 0, raises ``ValueError`` naming the pair.
    """
    if type(_of_kind(mu, Measure)) is not type(_of_kind(nu, Measure)):
        raise ValueError("product requires two measures of the same kind")
    prod = ProductSpace.of(mu.space, nu.space)
    return _product_measure(type(mu), prod, mu.weights, nu.weights)


def _product_measure(
    cls: type, prod: ProductSpace, left: Sequence, right: Sequence
) -> Measure:
    # Atom (x, y) weighs w_x (.) w_y.  ``_summed`` names a max-plus sum
    # that overflows to -inf.  A classical product that underflows to 0
    # passes the constructor, and a max-plus one is never 0; rounding is
    # monotone, so some pair of support atoms gives 0 exactly when the two
    # smallest do, and only then are pairs searched.
    times, zero = cls.semiring.times, cls.semiring.zero
    weights = tuple(itertools.starmap(times, itertools.product(left, right)))
    if times(min(w for w in left if w != zero), min(w for w in right if w != zero)) == zero:
        pairs = itertools.product(left, right)
        for label, (a, b), w in zip(prod.space.points, pairs, weights):
            if a != zero and b != zero and w == zero:
                raise ValueError(
                    f"atom {label} of the product: the mass product {a!r} * {b!r}"
                    " underflows to 0"
                )
    m = len(right)
    return _summed(
        cls, prod.space, weights, "atom {} of the product", "weight",
        lambda i: (left[i // m], right[i % m]),
    )


product_idempotent = product_classical = product


def reconstruct_product(
    mu: IdempotentMeasure, nu: IdempotentMeasure
) -> IdempotentMeasure:
    """Rebuild the product measure from factor evaluations alone.

    Every function on the product space is a max-plus combination of
    paired indicators, so a product candidate is pinned down by the
    numbers ``mu(chi_x) + nu(chi_y)``.  Computing the atoms that way,
    through the evaluation functional rather than by reading weights,
    must reproduce ``product_idempotent`` exactly.
    """

    def integral(m: IdempotentMeasure, label: str):
        # m(chi_label): the indicator (0 at label, BOTTOM elsewhere) is
        # the weight vector of the point measure, and it takes BOTTOM
        # values, so it is folded here rather than passed to evaluate.
        chi = dirac(m.space, label).weights
        return MAX_PLUS.sum(map(MAX_PLUS.times, m.weights, chi))

    prod = ProductSpace.of(
        _of_kind(mu, IdempotentMeasure).space, _of_kind(nu, IdempotentMeasure).space
    )
    left = [integral(mu, x) for x in mu.space.points]
    right = [integral(nu, y) for y in nu.space.points]
    return _product_measure(IdempotentMeasure, prod, left, right)


# -- the paired-pushforward probe --------------------------------------------


def pair_map_image(f: PointMap, g: PointMap, mu: Measure) -> tuple[Measure, Measure]:
    """Push ``mu`` forward under both maps, returning the pair of images."""
    if f.domain != g.domain:
        raise ValueError("the two maps must share a domain")
    return (pushforward(f, mu), pushforward(g, mu))


class CounterexampleReport(Record):
    """Outcome of the paired-pushforward separation probe.

    ``classical_injective`` holds when the exact linear-algebra check
    and every sampled pair agree that equal classical images force equal
    measures.  The witness fields exhibit two distinct idempotent
    measures with identical images, and ``naturality_gap`` is the
    conversion mismatch observed under the non-injective map.
    """

    classical_injective: bool
    exact_solution_unique: bool
    random_pairs_checked: int
    grid_pairs_checked: int
    witness_mu: IdempotentMeasure
    witness_nu: IdempotentMeasure
    witness_image_under_f: IdempotentMeasure
    witness_image_under_g: IdempotentMeasure
    witness_images_equal: bool
    naturality_gap: float


def _fixture() -> tuple[FiniteSpace, PointMap, PointMap]:
    domain = FiniteSpace(("a", "b", "c"))
    into_y = FiniteSpace(("a", "b"))
    into_z = FiniteSpace(("a", "c"))
    f = PointMap(domain, into_y, ("a", "b", "a"))
    g = PointMap(domain, into_z, ("a", "a", "c"))
    return domain, f, g


def _full_rank(rows: Sequence[Sequence[int]]) -> bool:
    # The paired image is the linear map of the mass vector with these
    # integer rows; it is injective exactly when some three rows have a
    # nonzero determinant, which integer arithmetic decides exactly.
    return any(
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
        for a, b, c in itertools.combinations(rows, 3)
    )


def _paired_image(mu: ClassicalMeasure) -> tuple[float, ...]:
    # The masses of (f_* mu, g_* mu) for the fixture's maps, as the
    # linear forms (a + c, b, a + b, c).  Each fiber has at most two
    # points, so each coordinate is the one float addition that
    # pushforward makes: the values are bit-identical.
    a, b, c = mu.weights
    return (a + c, b, a + b, c)


def verify_counterexample(
    random_pairs: int = 10_000, seed: int = 0
) -> CounterexampleReport:
    """Run the separation probe on the fixed three-point scenario.

    The domain is ``{a, b, c}`` with maps ``f: a,c -> a, b -> b`` and
    ``g: a,b -> a, c -> c``.  Classically the paired image determines
    the measure (checked by an exact integer rank test and on randomized
    plus gridded samples; each random measure is a uniform point of the
    simplex, cut from two sorted draws).  Idempotently it does not: the
    report carries two distinct measures sharing one image, and the
    naturality gap of the conversion under ``f``.
    """
    _count(random_pairs, "the number of random pairs", least=0)
    _count(seed, "the seed", least=0)
    import random

    # Imported here: the conversion module itself builds on pushforwards.
    from .convert import naturality_gap

    domain, f, g = _fixture()

    # (i) exact reasoning: image coordinates as linear forms in the masses.
    coordinate_forms = ((1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1))
    exact_unique = _full_rank(coordinate_forms)

    # (i) sampled and gridded search for an implication failure.
    rng = random.Random(seed)
    draw = rng.random

    # A uniform point of the simplex: the spacings of two sorted draws.
    # Each draw is a multiple of 2**-53 in [0, 1), so the three masses
    # are exact and sum to exactly 1, and the constructor keeps them bit
    # for bit.  Each measure travels with its paired image, computed once.
    def random_classical() -> tuple[ClassicalMeasure, tuple[float, ...]]:
        u, v = draw(), draw()
        if u > v:
            u, v = v, u
        mu = ClassicalMeasure(domain, (u, v - u, 1.0 - v))
        return mu, _paired_image(mu)

    def sampled_pairs():
        for k in range(random_pairs):
            mu = random_classical()
            yield mu, (mu if k % 8 == 0 else random_classical())

    # The whole simplex at step 1/12, boundary included.
    step = 12
    simplex = [
        ClassicalMeasure(domain, (i / step, j / step, (step - i - j) / step))
        for i in range(step + 1)
        for j in range(step + 1 - i)
    ]
    grid = [(mu, _paired_image(mu)) for mu in simplex]
    grid_pairs = list(itertools.combinations_with_replacement(grid, 2))

    def distance(x: Sequence[float], y: Sequence[float]) -> float:
        return max(map(abs, map(operator.sub, x, y)))

    # Every pair is checked: images within 1e-9 need measures within 1e-9.
    # The max-norm is within 1e-9 only if each coordinate is, so one
    # subtraction turns away almost every pair before the full distance.
    implication_holds = True
    for (mu, mu_image), (nu, nu_image) in itertools.chain(sampled_pairs(), grid_pairs):
        if -1e-9 <= mu_image[1] - nu_image[1] <= 1e-9 and distance(mu_image, nu_image) <= 1e-9:
            implication_holds &= distance(mu.weights, nu.weights) <= 1e-9

    # (ii) the idempotent witness: distinct measures, one image.
    witness_mu = IdempotentMeasure(domain, (-1.0, 0.0, 0.0))
    witness_nu = IdempotentMeasure(domain, (-2.0, 0.0, 0.0))
    image_mu = pair_map_image(f, g, witness_mu)
    image_nu = pair_map_image(f, g, witness_nu)
    images_equal = image_mu == image_nu and witness_mu != witness_nu

    # (iii) the conversion does not commute with the non-injective f.
    probe = ClassicalMeasure(domain, (0.4, 0.2, 0.4))

    return CounterexampleReport(
        classical_injective=exact_unique and implication_holds,
        exact_solution_unique=exact_unique,
        random_pairs_checked=random_pairs,
        grid_pairs_checked=len(grid_pairs),
        witness_mu=witness_mu,
        witness_nu=witness_nu,
        witness_image_under_f=image_mu[0],
        witness_image_under_g=image_mu[1],
        witness_images_equal=images_equal,
        naturality_gap=naturality_gap(f, probe),
    )
