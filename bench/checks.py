"""Reference computations for the benchmark's output checks.

Nothing here imports the package under test, so a defect in the package
cannot hide inside its own oracle.  Data is plain Python:

* a measure is a ``(kind, labels, weights)`` triple, ``kind`` being
  ``"idempotent"`` or ``"classical"`` and ``None`` standing for BOTTOM;
* a piecewise-linear function is a tuple of ``(x, y)`` breakpoints;
* a reference to a large output is kept packed (``pack``), or as a
  digest of its JSON document (``digest_doc``).

``corrupt`` perturbs one value of any such structure; every check must
reject the corrupted copy, which the benchmark verifies during warm-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from math import fsum

# In-process results differ from these references at most by summation order.
TOL = 1e-12
# The CLI prints 12 significant digits.
CLI_TOL = 1e-10
# Slack the convergence report allows when it calls errors non-increasing.
_MONOTONE_SLACK = 1e-12
_NAN = float("nan")


def close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= tol * max(1.0, abs(want))


def same_values(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(
        close(a, b, tol) for a, b in zip(got, want)
    )


def same_measure(got, want, tol: float) -> bool:
    return (
        got[0] == want[0]
        and tuple(got[1]) == tuple(want[1])
        and same_values(got[2], want[2], tol)
    )


def digest(labels) -> str:
    return hashlib.sha256("\x1f".join(labels).encode()).hexdigest()


def digest_doc(doc) -> str:
    """A digest of a JSON document that ignores the order of object keys."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def pack(measure) -> tuple:
    """A compact copy of a measure: ``(kind, digest of labels, array of weights)``.

    BOTTOM is stored as NaN.  A packed measure takes 8 bytes per point,
    so the benchmark can keep its references without holding plain
    copies of 1e5-point measures next to the program's.
    """
    kind, labels, weights = measure
    return (kind, digest(labels), array("d", (_NAN if w is None else w for w in weights)))


def matches(got, packed, tol: float) -> bool:
    """Whether the plain measure ``got`` equals the packed one within ``tol``."""
    kind, labels, weights = got
    want = packed[2]
    return (
        kind == packed[0]
        and len(weights) == len(want)
        and digest(labels) == packed[1]
        and all(close(g, None if w != w else w, tol) for g, w in zip(weights, want))
    )


def corrupt(value):
    """A copy of ``value`` with its last leaf changed."""
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 0.5
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, bytes):
        return value + b"!"
    if isinstance(value, (tuple, list)):
        return type(value)([*value[:-1], corrupt(value[-1])])
    if isinstance(value, dict):
        last = max(value)
        return {**value, last: corrupt(value[last])}
    raise TypeError(f"cannot corrupt {type(value).__name__}")


# -- measures ----------------------------------------------------------------


def normalized(raw) -> tuple:
    """Idempotent weights shifted so the largest is exactly 0."""
    peak = max(v for v in raw if v is not None)
    return tuple(None if v is None else v - peak for v in raw)


def stored_masses(raw) -> tuple:
    """Classical masses as a constructor stores them: rescaled unless the sum is 1."""
    total = fsum(raw)
    if abs(total - 1.0) <= 1e-12:
        return tuple(raw)
    return tuple(v / total for v in raw)


def evaluate(measure, values) -> float:
    kind, _, weights = measure
    if kind == "idempotent":
        return max(w + v for w, v in zip(weights, values) if w is not None)
    return fsum(w * v for w, v in zip(weights, values))


def pushforward(measure, codomain, assignment) -> tuple:
    """``assignment[i]`` is the codomain index of domain point ``i``."""
    kind, _, weights = measure
    fibers: list[list] = [[] for _ in codomain]
    for w, j in zip(weights, assignment):
        fibers[j].append(w)
    if kind == "idempotent":
        out = []
        for fiber in fibers:
            finite = [w for w in fiber if w is not None]
            out.append(max(finite) if finite else None)
        return (kind, tuple(codomain), tuple(out))
    return (kind, tuple(codomain), tuple(fsum(f) for f in fibers))


def product(left, right) -> tuple:
    kind = left[0]
    labels = tuple(f"({x},{y})" for x in left[1] for y in right[1])
    if kind == "idempotent":
        weights = tuple(
            None if a is None or b is None else a + b
            for a in left[2]
            for b in right[2]
        )
    else:
        weights = tuple(a * b for a in left[2] for b in right[2])
    return (kind, labels, weights)


def softmax(measure) -> tuple:
    masses = [0.0 if w is None else math.exp(w) for w in measure[2]]
    total = fsum(masses)
    return ("classical", tuple(measure[1]), tuple(m / total for m in masses))


def log_ratio(measure) -> tuple:
    logs = [math.log(a) if a > 0.0 else None for a in measure[2]]
    return ("idempotent", tuple(measure[1]), normalized(logs))


def support(measure) -> list[bool]:
    """Which points carry weight: a finite weight, or a positive mass."""
    kind, _, weights = measure
    return [w is not None and (kind == "idempotent" or w > 0.0) for w in weights]


def _oplus(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def _odot(a, b):
    return None if a is None or b is None else a + b


def mixing_coefficients(eps: float) -> tuple:
    """``alpha = ln(1-eps) - m``, ``beta = ln(eps) - m``, m the larger log."""
    stay = None if eps == 1.0 else math.log(1.0 - eps)
    move = math.log(eps)
    peak = _oplus(stay, move)
    return (_odot(stay, -peak), move - peak)


def mix(measure, target_weights, eps: float) -> tuple:
    """``alpha (.) measure (+) beta (.) target`` for rate ``eps``."""
    alpha, beta = mixing_coefficients(eps)
    weights = tuple(
        _oplus(_odot(alpha, w), _odot(beta, t))
        for w, t in zip(measure[2], target_weights)
    )
    return (measure[0], tuple(measure[1]), weights)


def dirac_weights(size: int, at: int) -> tuple:
    return tuple(0.0 if i == at else None for i in range(size))


def path_distances(eps: float) -> tuple[float, float]:
    """Measured segment distance from the origin, and the stated closed form."""
    alpha, beta = mixing_coefficients(eps)
    e_alpha = 0.0 if alpha is None else math.exp(alpha)
    measured = abs(e_alpha - 1.0) + abs(math.exp(beta) - 0.0)
    stated = eps / (1.0 - eps) if eps <= 0.5 else 1.0 / eps
    return measured, stated


# -- densities ---------------------------------------------------------------


def interp(breakpoints, x: float) -> float:
    """Linear interpolation between breakpoints, as numpy.interp computes it."""
    if x >= breakpoints[-1][0]:
        return breakpoints[-1][1]
    lo, hi = 0, len(breakpoints) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if breakpoints[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    (x0, y0), (x1, y1) = breakpoints[lo], breakpoints[lo + 1]
    return (y1 - y0) / (x1 - x0) * (x - x0) + y0


def exact_sup(d, phi) -> float:
    """``sup (d + phi)`` on [0, 1]: attained at a breakpoint of either."""
    xs = sorted({x for x, _ in d} | {x for x, _ in phi})
    return max(interp(d, x) + interp(phi, x) for x in xs)


def discretized_value(d, phi, n: int) -> float:
    """Evaluation of the renormalized n-grid measure on the sampled function."""
    xs = [k / n for k in range(n + 1)]
    dv = [interp(d, x) for x in xs]
    peak = max(dv)
    return max((w - peak) + interp(phi, x) for w, x in zip(dv, xs))


def convergence_expectation(d, lip_d, phi, lip_phi, ns, resolution) -> dict:
    """What a convergence report must satisfy, computed once per input."""
    sizes = sorted(set(ns))
    return {
        "sup": exact_sup(d, phi),
        "slack": (lip_d + lip_phi) / resolution,
        "sizes": sizes,
        "values": [discretized_value(d, phi, n) for n in sizes],
        "bounds": [(lip_phi + lip_d) / n for n in sizes],
    }


def check_convergence(got: dict, want: dict, tol: float) -> bool:
    """``got`` holds ``rows`` of ``(n, error, bound)``, ``reference`` and verdicts."""
    reference = got["reference"]
    if abs(reference - want["sup"]) > want["slack"] + tol:
        return False
    rows = got["rows"]
    if [n for n, _, _ in rows] != want["sizes"]:
        return False
    for (_, error, bound), value, want_bound in zip(rows, want["values"], want["bounds"]):
        if not close(bound, want_bound, tol):
            return False
        if abs(error - abs(value - reference)) > tol:
            return False
    errors = [e for _, e, _ in rows]
    within = all(e <= b for _, e, b in rows)
    monotone = all(b <= a + _MONOTONE_SLACK for a, b in zip(errors, errors[1:]))
    return got["within_bound"] is within and got["non_increasing"] is monotone
