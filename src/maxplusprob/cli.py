"""Command line interface: JSON files in, one JSON document out.

Exit codes: 0 on success, 2 on any input problem (bad flags, unreadable
files, schema violations, invalid values), 1 on an internal error.
Errors are reported as ``{"error": message}`` on stdout.  Numbers are
printed with 12 significant digits and object keys are sorted, so a
given invocation is byte-stable.

Each subcommand is one row of ``_COMMANDS``; ``run`` parses, reads its
JSON files through ``_read`` (``approx`` reads ``--measure2`` through it
too, after its own checks), runs its step and prints the result.  ``run`` is
the in-process entry and may be called any number of times; ``main``, the
process entry, freezes the heap once ``run`` has returned, so that
interpreter shutdown does not garbage-collect what the process loaded.
"""

from __future__ import annotations

import argparse
import gc
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


def _read(path: str, decoder: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:  # not UTF-8; it has no strerror
        raise _CliError(f"cannot read {path}: {err}") from None
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as err:  # malformed, too long an int, too deep
        raise _CliError(f"{path} is not valid JSON: {err}") from None
    return getattr(jsonio, decoder)(document)


def _convert(args: argparse.Namespace) -> dict:
    if args.measure.kind == args.to:
        raise _CliError(f"the measure is already {args.to}")
    to = convert.to_classical if args.to == "classical" else convert.to_idempotent
    return jsonio.encode_measure(to(args.measure))


def _dist(args: argparse.Namespace) -> dict:
    mixed = geometry.approx_coefficients(args.epsilon)
    return {
        "epsilon": args.epsilon,
        "measured": geometry.segment_distance(geometry.SegmentPoint(0.0, BOTTOM), mixed),
        "closed_form": geometry.approx_distance_closed_form(args.epsilon),
    }


def _approx(args: argparse.Namespace) -> dict:
    mu = args.measure
    if mu.kind != "idempotent":
        raise _CliError("approx requires an idempotent measure")
    if (args.point is None) == (args.measure2 is None):
        raise _CliError("approx needs exactly one of --point or --measure2")
    if args.point is not None:
        out = geometry.approx_toward_point(mu, args.point, args.epsilon)
    else:
        nu = _read(args.measure2, "decode_measure")
        if nu.kind != "idempotent":
            raise _CliError("approx requires an idempotent second measure")
        out = geometry.approx_toward_measure(mu, nu, args.epsilon)
    return jsonio.encode_measure(out)


# Subcommand -> (help, flags, step).  A flag whose spec names a ``jsonio``
# decoder is a JSON file that ``run`` loads and decodes, in row order,
# before the step; any other spec is ``add_argument`` keywords, required
# unless they say otherwise.  Steps look kernels and encoders up on their
# modules when called, so wrappers installed after import see each call.
_COMMANDS = {
    "eval": (
        "evaluate a test function under a measure",
        {"measure": "decode_measure", "function": "decode_function"},
        lambda a: {"value": measures.evaluate(a.measure, a.function)},
    ),
    "push": (
        "push a measure forward along a point map",
        {"measure": "decode_measure", "map": "decode_point_map"},
        lambda a: jsonio.encode_measure(functors.pushforward(a.map, a.measure)),
    ),
    "product": (
        "product of two measures of one kind",
        {"measure": "decode_measure", "measure2": "decode_measure"},
        lambda a: jsonio.encode_measure(functors.product(a.measure, a.measure2)),
    ),
    "convert": (
        "convert between measure kinds",
        {"measure": "decode_measure", "to": {"choices": ("idempotent", "classical")}},
        _convert,
    ),
    "dist": (
        "measured and tabulated mixing-path distance for a rate",
        {"epsilon": {"type": float}},
        _dist,
    ),
    "approx": (
        "mix a measure toward a point or a second measure",
        {
            "measure": "decode_measure",
            "epsilon": {"type": float},
            "point": {"required": False},
            "measure2": {"required": False},
        },
        _approx,
    ),
    "verify-counterexample": (
        "run the paired-pushforward separation probe",
        {},
        lambda a: jsonio.encode_counterexample_report(functors.verify_counterexample()),
    ),
    "density-converge": (
        "discretization error table for a density",
        {
            "density": "decode_density",
            "function": "decode_continuous_function",
            "grid": {"type": int, "action": "append"},
        },
        lambda a: jsonio.encode_convergence_report(
            density.convergence_report(a.density, a.function, a.grid)
        ),
    ),
}


def _build_parser() -> _Parser:
    # --help shows the docstring's user-facing part, not its last paragraph.
    parser = _Parser(prog="maxplusprob", description=__doc__.rsplit("\n\n", 1)[0])
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_text, flags, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            keywords = {} if isinstance(spec, str) else spec
            sub.add_argument(f"--{flag}", **{"required": True, **keywords})
    return parser


def _present(node: object) -> object:
    # 12 significant digits; floats that land on integers print as such.
    if isinstance(node, (str, int)) or node is None:
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
        _, flags, step = _COMMANDS[args.command]
        for flag, spec in flags.items():
            if isinstance(spec, str):
                setattr(args, flag, _read(getattr(args, flag), spec))
        document = _present(step(args))
    except (_CliError, ValueError) as err:
        # Bad flags, schema violations and invalid values all land here.
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 2
    except SystemExit as err:
        # argparse exits directly for --help; let that behave as usual.
        return int(err.code or 0)
    except Exception as err:
        print(json.dumps({"error": f"internal error: {err}"}, sort_keys=True))
        return 1
    print(json.dumps(document, sort_keys=True))
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    # Shutdown's collections would walk every object the process holds; they
    # skip frozen ones, which the OS reclaims.  atexit and flushes still run.
    gc.freeze()
    sys.exit(code)
