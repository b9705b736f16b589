"""Command line interface: JSON files in, one JSON document out.

Exit codes: 0 on success, 2 on any input problem (bad flags, unreadable
files, schema violations, invalid values), 1 on an internal error.
Errors are reported as ``{"error": message}`` on stdout.  Numbers are
printed with 12 significant digits and object keys are sorted, so a
given invocation is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import convert, density, functors, geometry, jsonio, measures
from .semiring import BOTTOM

__all__ = ["main", "run"]


class _CliError(Exception):
    """A user-input problem; message goes out as the JSON error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxplusprob", description=__doc__)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    sub = commands.add_parser("eval", help="evaluate a test function under a measure")
    sub.add_argument("--measure", required=True)
    sub.add_argument("--function", required=True)

    sub = commands.add_parser("push", help="push a measure forward along a point map")
    sub.add_argument("--measure", required=True)
    sub.add_argument("--map", required=True)

    sub = commands.add_parser("product", help="product of two measures of one kind")
    sub.add_argument("--measure", required=True)
    sub.add_argument("--measure2", required=True)

    sub = commands.add_parser("convert", help="convert between measure kinds")
    sub.add_argument("--measure", required=True)
    sub.add_argument("--to", required=True, choices=("idempotent", "classical"))

    sub = commands.add_parser(
        "dist", help="measured and tabulated mixing-path distance for a rate"
    )
    sub.add_argument("--epsilon", required=True, type=float)

    sub = commands.add_parser(
        "approx", help="mix a measure toward a point or a second measure"
    )
    sub.add_argument("--measure", required=True)
    sub.add_argument("--epsilon", required=True, type=float)
    sub.add_argument("--point")
    sub.add_argument("--measure2")

    commands.add_parser(
        "verify-counterexample", help="run the paired-pushforward separation probe"
    )

    sub = commands.add_parser(
        "density-converge", help="discretization error table for a density"
    )
    sub.add_argument("--density", required=True)
    sub.add_argument("--function", required=True)
    sub.add_argument("--grid", required=True, type=int, action="append")

    return parser


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err.strerror or err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise _CliError(f"{path} is not valid JSON: {err}") from None


def _load_measure(path: str) -> measures.Measure:
    return jsonio.decode_measure(_load_json(path))


def _cmd_eval(args: argparse.Namespace) -> dict:
    mu = _load_measure(args.measure)
    phi = jsonio.decode_function(_load_json(args.function))
    return {"value": measures.evaluate(mu, phi)}


def _cmd_push(args: argparse.Namespace) -> dict:
    mu = _load_measure(args.measure)
    mapping = jsonio.decode_point_map(_load_json(args.map))
    return jsonio.encode_measure(functors.pushforward(mapping, mu))


def _cmd_product(args: argparse.Namespace) -> dict:
    mu = _load_measure(args.measure)
    nu = _load_measure(args.measure2)
    return jsonio.encode_measure(functors.product(mu, nu))


def _cmd_convert(args: argparse.Namespace) -> dict:
    mu = _load_measure(args.measure)
    if mu.kind == args.to:
        raise _CliError(f"the measure is already {args.to}")
    to = convert.to_classical if args.to == "classical" else convert.to_idempotent
    return jsonio.encode_measure(to(mu))


def _cmd_dist(args: argparse.Namespace) -> dict:
    origin = geometry.SegmentPoint(0.0, BOTTOM)
    mixed = geometry.approx_coefficients(args.epsilon)
    return {
        "epsilon": args.epsilon,
        "measured": geometry.segment_distance(origin, mixed),
        "closed_form": geometry.approx_distance_closed_form(args.epsilon),
    }


def _cmd_approx(args: argparse.Namespace) -> dict:
    mu = _load_measure(args.measure)
    if not isinstance(mu, measures.IdempotentMeasure):
        raise _CliError("approx requires an idempotent measure")
    if (args.point is None) == (args.measure2 is None):
        raise _CliError("approx needs exactly one of --point or --measure2")
    if args.point is not None:
        out = geometry.approx_toward_point(mu, args.point, args.epsilon)
    else:
        nu = _load_measure(args.measure2)
        if not isinstance(nu, measures.IdempotentMeasure):
            raise _CliError("approx requires an idempotent second measure")
        out = geometry.approx_toward_measure(mu, nu, args.epsilon)
    return jsonio.encode_measure(out)


def _cmd_verify(args: argparse.Namespace) -> dict:
    return jsonio.encode_counterexample_report(functors.verify_counterexample())


def _cmd_density_converge(args: argparse.Namespace) -> dict:
    d = jsonio.decode_density(_load_json(args.density))
    phi = jsonio.decode_continuous_function(_load_json(args.function))
    report = density.convergence_report(d, phi, args.grid)
    return jsonio.encode_convergence_report(report)


_HANDLERS = {
    "eval": _cmd_eval,
    "push": _cmd_push,
    "product": _cmd_product,
    "convert": _cmd_convert,
    "dist": _cmd_dist,
    "approx": _cmd_approx,
    "verify-counterexample": _cmd_verify,
    "density-converge": _cmd_density_converge,
}


def _present(node: object) -> object:
    # 12 significant digits; floats that land on integers print as such.
    if isinstance(node, bool) or isinstance(node, (str, int)) or node is None:
        return node
    if isinstance(node, float):
        value = float(f"{node:.12g}")
        if value.is_integer() and abs(value) < 1e15:
            return int(value)
        return value
    if isinstance(node, dict):
        return {key: _present(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_present(value) for value in node]
    raise TypeError(f"cannot serialize {type(node).__name__}")


def run(argv: Sequence[str]) -> int:
    """Execute one invocation; returns the exit code and prints the result."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise _CliError("a subcommand is required (see --help)")
        payload = _HANDLERS[args.command](args)
    except (_CliError, ValueError) as err:
        # Bad flags, schema violations and invalid values all land here.
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 2
    except SystemExit as err:
        # argparse exits directly for --help; let that behave as usual.
        return int(err.code or 0)
    except Exception as err:  # pragma: no cover - defensive
        print(json.dumps({"error": f"internal error: {err}"}, sort_keys=True))
        return 1
    print(json.dumps(_present(payload), sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
