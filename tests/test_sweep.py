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
import sys

import pytest

from maxplusprob import (
    BOTTOM,
    ClassicalMeasure,
    FiniteSpace,
    IdempotentMeasure,
    PointMap,
    SchemaError,
    TestFunction,
    approx_toward_measure,
    approx_toward_point,
    classical_measure,
    compose,
    decode_measure,
    dirac,
    evaluate,
    maxplus_combine,
    normalize_idempotent,
    point_mass,
    product_classical,
    product_idempotent,
    pushforward,
    reconstruct_product,
    support,
    to_classical,
    to_idempotent,
)
from maxplusprob import jsonio, measures

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


# -- decoding at scale: one bulk pass, and the element path only on failure --

# Where the one bad element sits in a 1e5-point document.
POSITIONS = (0, SIZES[-1] // 2, SIZES[-1] - 1)


def _document(kind: str, n: int) -> dict:
    rng = random.Random(f"decode:{kind}:{n}")
    space = _space("x", n)
    mu = _idempotent(rng, space) if kind == "idempotent" else _classical(rng, space)
    weights = ["-inf" if w is BOTTOM else w for w in mu.weights]
    return {
        "space": list(space.points),
        "kind": kind,
        "weights": dict(zip(space.points, weights)),
    }


def _with_entry(table: dict, i: int, key: str, value: object, drop: bool) -> dict:
    # ``table`` with ``key: value`` at dict position ``i``, in place of
    # the entry there when ``drop`` is set.
    items = list(table.items())
    items[i:i + drop] = [(key, value)]
    return dict(items)


# Messages of the element-by-element decoder, for the bad element at
# label ``{p}`` (position ``{i}``).  Space errors come before the weights
# are read, so those cases use one kind.
SPACE_CASES = {
    "non-string label": (7, "space[{i}]: expected a string, got int"),
    "empty label": ("", "space: point labels must be nonempty strings: ''"),
    "duplicate label": (None, "space: duplicate point label: '{p}'"),
}
TABLE_CASES = {
    "missing key": (True, "weights: missing entries for points: ['{p}']"),
    "extra key": (False, "weights: entries given for unknown points: ['zzz']"),
}
WEIGHT_CASES = {
    "bool": (True, {
        "idempotent": "weights.{p}: expected a number, got bool",
        "classical": "weights.{p}: expected a number, got bool",
    }),
    "numeric string": ("0.5", {
        "idempotent": "weights.{p}: expected a number or \"-inf\", got '0.5'",
        "classical": "weights.{p}: expected a number, got str",
    }),
    "NaN": (math.nan, {
        "idempotent": "weights.{p}: expected a finite number",
        "classical": "weights.{p}: expected a finite number",
    }),
    "Infinity": (math.inf, {
        "idempotent": "weights.{p}: expected a finite number",
        "classical": "weights.{p}: expected a finite number",
    }),
    "-Infinity": (-math.inf, {
        "idempotent": "weights.{p}: expected a finite number",
        "classical": "weights.{p}: expected a finite number",
    }),
    "huge integer": (10**400, {
        "idempotent": "weights.{p}: expected a finite number",
        "classical": "weights.{p}: expected a finite number",
    }),
}


@pytest.fixture(scope="module")
def documents():
    return {kind: _document(kind, SIZES[-1]) for kind in ("idempotent", "classical")}


def _rejects(doc: dict, message: str) -> None:
    with pytest.raises(SchemaError) as info:
        decode_measure(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("i", POSITIONS)
@pytest.mark.parametrize("case", sorted(SPACE_CASES))
def test_decode_names_the_first_bad_label_at_scale(documents, case, i):
    doc = documents["classical"]
    labels = doc["space"]
    bad, template = SPACE_CASES[case]
    if bad is None:
        # A copy of a neighbouring label.
        bad = labels[i + 1] if i + 1 < len(labels) else labels[i - 1]
    message = template.format(i=i, p=bad)
    _rejects({**doc, "space": labels[:i] + [bad] + labels[i + 1:]}, message)


@pytest.mark.parametrize("i", POSITIONS)
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_decode_names_missing_and_extra_keys_at_scale(documents, case, i):
    doc = documents["idempotent"]
    drop, template = TABLE_CASES[case]
    p = doc["space"][i]
    table = _with_entry(doc["weights"], i, "zzz", 0.0, drop)
    _rejects({**doc, "weights": table}, template.format(p=p))


@pytest.mark.parametrize("i", POSITIONS)
@pytest.mark.parametrize("kind", ("idempotent", "classical"))
@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_decode_names_the_first_bad_weight_at_scale(documents, case, kind, i):
    doc = documents[kind]
    bad, messages = WEIGHT_CASES[case]
    p = doc["space"][i]
    table = _with_entry(doc["weights"], i, p, bad, True)
    _rejects({**doc, "weights": table}, messages[kind].format(p=p))


@pytest.mark.parametrize("kind", ("idempotent", "classical"))
def test_valid_documents_decode_without_the_element_path(documents, kind, monkeypatch):
    # A valid document is checked in bulk: the element decoders, which
    # format a path per element, are never called.
    calls = []
    for name in ("_expect_string", "_expect_number", "_decode_scalar"):
        original = getattr(jsonio, name)

        def counting(node, path, original=original, name=name):
            calls.append(name)
            return original(node, path)

        monkeypatch.setattr(jsonio, name, counting)
    doc = documents[kind]
    mu = decode_measure(doc)
    assert calls == []
    expected = tuple(BOTTOM if w == "-inf" else w for w in doc["weights"].values())
    assert mu.weights == expected


def test_integer_weights_decode_in_the_bulk_pass(documents, monkeypatch):
    # JSON integers, the peak written 0 among them, become floats in the
    # bulk pass: no weight goes through the per-weight ``as_scalar``.
    calls = []
    original = measures.as_scalar

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(measures, "as_scalar", counting)
    doc = documents["idempotent"]
    table = {p: int(w) if w == 0.0 else w for p, w in doc["weights"].items()}
    table[doc["space"][1]] = -3
    assert 0 in table.values()
    mu = decode_measure({**doc, "weights": table})
    assert calls == []
    assert all(type(w) is float for w in mu.weights if w is not BOTTOM)
    expected = tuple(BOTTOM if w == "-inf" else float(w) for w in table.values())
    assert mu.weights == expected


# -- conversion and mixing, bit for bit, signed zeros included --------------


def _bits(values) -> list:
    # ``==`` takes -0.0 for 0.0; the hex spelling keeps the sign bit.
    return [v if v is BOTTOM else float.hex(v) for v in values]


def _with_negative_zero(rng: random.Random, values: tuple) -> tuple:
    raw = list(values)
    raw[rng.randrange(len(raw))] = -0.0
    return tuple(raw)


def _softmax(weights) -> tuple:
    masses = []
    for w in weights:
        masses.append(0.0 if w is BOTTOM else math.exp(w))
    total = math.fsum(masses)
    return _stored([m / total for m in masses])


def _shifted_to_peak(values) -> tuple:
    peak = None
    for v in values:
        if v is not BOTTOM and (peak is None or v > peak):
            peak = v
    return tuple(BOTTOM if v is BOTTOM else v - peak for v in values)


def _log_ratios(masses) -> tuple:
    return _shifted_to_peak([math.log(w) if w > 0.0 else BOTTOM for w in masses])


def _indicator(n: int, at: int, hit, miss) -> tuple:
    out = []
    for i in range(n):
        out.append(hit if i == at else miss)
    return tuple(out)


def _coefficients(eps: float) -> tuple:
    # alpha = ln(1 - eps) - peak and beta = ln(eps) - peak, with ln(0) BOTTOM.
    stay = BOTTOM if eps == 1.0 else math.log(1.0 - eps)
    move = math.log(eps)
    peak = move if stay is BOTTOM or move > stay else stay
    return (BOTTOM if stay is BOTTOM else stay - peak), move - peak


def _mix(alpha, left, beta, right) -> tuple:
    out = []
    for w, v in zip(left, right):
        a = BOTTOM if alpha is BOTTOM or w is BOTTOM else alpha + w
        b = BOTTOM if beta is BOTTOM or v is BOTTOM else beta + v
        if a is BOTTOM:
            out.append(b)
        elif b is BOTTOM or a >= b:
            out.append(a)
        else:
            out.append(b)
    return tuple(out)


@pytest.mark.parametrize("n", SIZES)
def test_conversion_and_mixing_match_reference_loops(n):
    rng = random.Random(f"convert:{n}")
    space = _space("x", n)
    mu = IdempotentMeasure(space, _with_negative_zero(rng, _idempotent(rng, space).weights))
    other = IdempotentMeasure(
        space, _with_negative_zero(rng, _idempotent(rng, space).weights)
    )
    masses = _with_negative_zero(rng, _classical(rng, space).weights)
    nu = classical_measure(space, masses, renormalize=True)
    phi = TestFunction(
        space, _with_negative_zero(rng, tuple(rng.uniform(-10.0, 10.0) for _ in space))
    )
    assert -0.0 in mu.weights and -0.0 in nu.weights and -0.0 in phi.values

    # Evaluation with a -0.0 weight and a -0.0 function value.
    best = None
    for w, v in zip(mu.weights, phi.values):
        if w is not BOTTOM and (best is None or w + v > best):
            best = w + v
    expected = math.fsum(w * v for w, v in zip(nu.weights, phi.values))
    assert _bits([evaluate(mu, phi), evaluate(nu, phi)]) == _bits([best, expected])

    # Conversions in both directions, and the shift to peak 0.
    assert _bits(to_classical(mu).weights) == _bits(_softmax(mu.weights))
    assert _bits(to_idempotent(nu).weights) == _bits(_log_ratios(nu.weights))
    raw = [BOTTOM if w is BOTTOM else w - 2.5 for w in mu.weights]
    raw[rng.randrange(n)] = -3
    assert _bits(normalize_idempotent(space, raw).weights) == _bits(_shifted_to_peak(raw))

    # Point measures, and mixing toward them or toward a second measure
    # at a mid rate and at eps = 1, where ``0.0 + -0.0`` gives 0.0.
    at = rng.randrange(n)
    target = space.points[at]
    point = _indicator(n, at, 0.0, BOTTOM)
    assert _bits(dirac(space, target).weights) == _bits(point)
    assert _bits(point_mass(space, target).weights) == _bits(_indicator(n, at, 1.0, 0.0))
    for eps in (0.375, 1.0):
        alpha, beta = _coefficients(eps)
        assert _bits(approx_toward_point(mu, target, eps).weights) == _bits(
            _mix(alpha, mu.weights, beta, point)
        )
        assert _bits(approx_toward_measure(other, mu, eps).weights) == _bits(
            _mix(alpha, other.weights, beta, mu.weights)
        )


# -- no Python call per atom --------------------------------------------------


def _calls(op) -> int:
    # Python-level ``call`` events, generator resumes included; calls into
    # C functions report ``c_call`` and are not counted.
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(previous)
    return count


def test_kernels_make_no_python_call_per_atom(documents):
    # Each op at n = 1e5 runs as a few whole-list passes, so it makes
    # far fewer Python calls than there are atoms.  Left out: the
    # max-plus ``product``, which multiplies each pair through ``odot``.
    n = SIZES[-1]
    rng = random.Random(f"calls:{n}")
    space = _space("x", n)
    mu, nu = _idempotent(rng, space), _classical(rng, space)
    phi = TestFunction(space, tuple(rng.uniform(-10.0, 10.0) for _ in space))
    codomain = _space("y", n // 10)
    images = tuple(codomain.points[rng.randrange(n // 10)] for _ in space)
    f = PointMap(space, codomain, images)
    target = space.points[rng.randrange(n)]
    ops = {
        "evaluate idempotent": lambda: evaluate(mu, phi),
        "evaluate classical": lambda: evaluate(nu, phi),
        "pushforward idempotent": lambda: pushforward(f, mu),
        "pushforward classical": lambda: pushforward(f, nu),
        "to_classical": lambda: to_classical(mu),
        "to_idempotent": lambda: to_idempotent(nu),
        "approx_toward_point": lambda: approx_toward_point(mu, target, 0.375),
        "PointMap": lambda: PointMap(space, codomain, images),
        "decode idempotent": lambda: decode_measure(documents["idempotent"]),
        "decode classical": lambda: decode_measure(documents["classical"]),
    }
    calls = {name: _calls(op) for name, op in ops.items()}
    assert {name: c for name, c in calls.items() if c >= n // 2} == {}


# -- an oracle for max-plus evaluation from Maslov dequantization -------------


@pytest.mark.parametrize("h", (1.0, 1e-3))
@pytest.mark.parametrize("n", SIZES)
def test_evaluate_lies_within_the_dequantization_bounds(n, h):
    # Litvinov, "Maslov dequantization, idempotent and tropical
    # mathematics" (2007): for the k sums s = w + v over finite weights,
    # with m their maximum, m <= m + h*ln(sum exp((s - m) / h)) <= m + h*ln(k).
    # The soft maximum uses ``fsum`` and no max-plus kernel.  An ``evaluate``
    # below the true maximum makes a term exceed 1, and one above it makes
    # every term fall below 1; at h = 1e-3 either breaks a bound.
    rng = random.Random(f"dequantize:{n}:{h}")
    space = _space("x", n)
    mu = _idempotent(rng, space)
    phi = TestFunction(space, tuple(rng.uniform(-10.0, 10.0) for _ in space))
    m = evaluate(mu, phi)
    sums = [w + v for w, v in zip(mu.weights, phi.values) if w is not BOTTOM]
    soft = m + h * math.log(math.fsum(math.exp((s - m) / h) for s in sums))
    slack = 1e-12  # rounding in the soft maximum
    assert m - slack <= soft <= m + h * math.log(len(sums)) + slack


# -- the exact laws at n = 1e5 ---------------------------------------------------


def test_exact_laws_hold_at_scale():
    # Functoriality along 1e5 -> 1e4 -> 1e3 and the pushforward/evaluate
    # adjunction, both with ``==``: each side takes the maximum of the same
    # rounded sums.  Test values reach +-1e308, so those sums round.
    n = SIZES[-1]
    rng = random.Random(f"laws:{n}")
    x, y, z = _space("x", n), _space("y", n // 10), _space("z", n // 100)
    mu = _idempotent(rng, x)
    images = [rng.randrange(len(y)) for _ in x]
    f = PointMap(x, y, tuple(y.points[j] for j in images))
    g = PointMap(y, z, tuple(z.points[rng.randrange(len(z))] for _ in y))
    pushed = pushforward(f, mu)
    assert pushforward(compose(g, f), mu) == pushforward(g, pushed)
    assert pushforward(PointMap.identity(x), mu) == mu
    scale = (1.0, 1e300, 1e308)
    psi = TestFunction(y, tuple(rng.uniform(-1.0, 1.0) * rng.choice(scale) for _ in y))
    pulled = TestFunction(x, tuple(psi.values[j] for j in images))
    assert evaluate(pushed, psi) == evaluate(mu, pulled)


def test_product_laws_hold_at_scale():
    # Both marginals of a 316 x 316 idempotent product are its factors, and
    # rebuilding the product from factor evaluations gives it bit for bit.
    k = math.isqrt(SIZES[-1])
    rng = random.Random(f"product laws:{k}")
    left, right = _space("a", k), _space("b", k)
    mu, nu = _idempotent(rng, left), _idempotent(rng, right)
    both = product_idempotent(mu, nu)
    first = PointMap(both.space, left, tuple(p for p in left.points for _ in right.points))
    second = PointMap(both.space, right, tuple(q for _ in left.points for q in right.points))
    assert pushforward(first, both) == mu
    assert pushforward(second, both) == nu
    assert reconstruct_product(mu, nu) == both


def test_pushforward_commutes_with_maxplus_combination_at_scale():
    # Along 1e5 -> 1e4, pushing a max-plus combination equals combining the
    # pushed measures, with ``==``: both sides take the maximum of the same
    # rounded sums ``alpha + w``, at coefficients near 0, near -1e300 and
    # at BOTTOM.
    n = SIZES[-1]
    rng = random.Random(f"combine laws:{n}")
    x, y = _space("x", n), _space("y", n // 10)
    mu, lam = _idempotent(rng, x), _idempotent(rng, x)
    f = PointMap(x, y, tuple(y.points[rng.randrange(len(y))] for _ in x))
    pushed_mu, pushed_lam = pushforward(f, mu), pushforward(f, lam)
    for alpha, beta in ((0.0, -2.5), (-1e300, 0.0), (0.0, BOTTOM), _coefficients(0.375)):
        mixed = maxplus_combine(alpha, mu, beta, lam)
        assert pushforward(f, mixed) == maxplus_combine(alpha, pushed_mu, beta, pushed_lam)
