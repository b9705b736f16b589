"""A seeded corpus of CLI invocations, with the exit code and stdout of each.

``golden/cli-corpus.jsonl`` holds one invocation per line: its ``id``, the
``argv`` (file names relative to the folder it runs in), the ``files``
written to that folder first, the exit ``code`` and the ``stdout``.  A file
is its text, ``{"json": ...}`` for a document written by ``json.dumps``,
``{"hex": ...}`` for raw bytes, or ``{"folder": true}`` for a folder in its
place; a name that the argv uses and ``files`` lacks is a missing file.
Stdout of up to 200 bytes is kept as it is, a longer one as
``{"sha256": ..., "length": ...}``.  Each invocation runs in a fresh folder
with ``COLUMNS=80``, so ``--help`` wraps the same way everywhere.

The invocations are drawn with ``random.Random`` from fixed seeds, not with
hypothesis, so the list does not change with the hypothesis version.  They
cover every subcommand and the help forms; missing, unreadable, non-UTF-8,
malformed, too deep and too-long-int files; schema, invariant, flag, value
and kind errors; piecewise documents holding a bad pair shape, a bad number
and a bad bound together; and documents drawn like ``gen.py``'s ``extreme_*``
strategies.

    python tests/corpus.py --write    # regenerate the golden file
    python tests/corpus.py            # replay it; print each line that differs

``test_corpus.py`` replays the file in process through ``cli.run``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli-corpus.jsonl"
_VERBATIM = 200  # the longest stdout, in bytes, kept as it is

FLOAT_MAX = 1.7976931348623157e308
LEAST_SUBNORMAL = 5e-324
LEAST_NORMAL = 2.2250738585072014e-308
_LABELS = "abcdefgh"
SUBCOMMANDS = (
    "eval", "push", "product", "convert", "dist", "approx",
    "verify-counterexample", "density-converge",
)
# Each file flag of each subcommand, with a valid document for it.
IDEMPOTENT = {"space": ["a", "b"], "kind": "idempotent", "weights": {"a": 0, "b": -1}}
CLASSICAL = {"space": ["a", "b"], "kind": "classical", "weights": {"a": 0.25, "b": 0.75}}
FUNCTION = {"space": ["a", "b"], "values": {"a": 2, "b": 4}}
MAP = {"domain": ["a", "b"], "codomain": ["x"], "map": {"a": "x", "b": "x"}}
DENSITY = {"breakpoints": [[0, -1], [0.5, 0], [1, -0.5]], "lipschitz": 2}
LINE = {"breakpoints": [[0, 1], [1, -1]], "lipschitz": 2}
FILE_FLAGS = {
    "eval": {"measure": IDEMPOTENT, "function": FUNCTION},
    "push": {"measure": CLASSICAL, "map": MAP},
    "product": {"measure": IDEMPOTENT, "measure2": IDEMPOTENT},
    "convert": {"measure": CLASSICAL},
    "approx": {"measure": IDEMPOTENT, "measure2": IDEMPOTENT},
    "density-converge": {"density": DENSITY, "function": LINE},
}
OTHER_FLAGS = {
    "convert": ["--to", "idempotent"],
    "approx": ["--epsilon", "0.25"],
    "density-converge": ["--grid", "10", "--grid", "100"],
}


# -- replay ----------------------------------------------------------------------


def _stored(stdout: str) -> object:
    data = stdout.encode("utf-8")
    if len(data) <= _VERBATIM:
        return stdout
    return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


def _write(files: dict, folder: Path) -> None:
    for name, content in files.items():
        path = folder / name
        if isinstance(content, str) or "json" in content:
            text = content if isinstance(content, str) else json.dumps(content["json"])
            path.write_text(text, encoding="utf-8")
        elif "hex" in content:
            path.write_bytes(bytes.fromhex(content["hex"]))
        else:
            path.mkdir()


def outcomes(cases: list, root: Path) -> list:
    """``{"code", "stdout"}`` of each case, run in process in a folder under ``root``."""
    from maxplusprob import cli

    columns, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    results = []
    try:
        for i, case in enumerate(cases):
            folder = root / str(i)
            folder.mkdir()
            _write(case["files"], folder)
            os.chdir(folder)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(case["argv"])
            results.append({"code": code, "stdout": _stored(out.getvalue())})
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return results


def load() -> list:
    """The committed cases, one dict per line."""
    with GOLDEN.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def differences(cases: list, root: Path) -> list:
    """``(case, outcome)`` for each case whose replay differs from its record."""
    return [
        (case, got)
        for case, got in zip(cases, outcomes(cases, root))
        if got != {"code": case["code"], "stdout": case["stdout"]}
    ]


# -- the invocations -------------------------------------------------------------


FOLDER = object()  # in a case's files: a folder where a file should be


def _content(doc: object) -> object:
    # A file as the golden file stores it; text (a ``str``) as it is.
    if doc is FOLDER:
        return {"folder": True}
    if isinstance(doc, bytes):
        return {"hex": doc.hex()}
    return doc if isinstance(doc, str) else {"json": doc}


class _Cases:
    def __init__(self) -> None:
        self.cases: list = []
        self._counts: dict = {}

    def add(self, group: str, argv: list, files: dict | None = None) -> None:
        n = self._counts.get(group, 0)
        self._counts[group] = n + 1
        files = {name: _content(doc) for name, doc in (files or {}).items()}
        self.cases.append({"id": f"{group}-{n:03d}", "argv": argv, "files": files})

    def invoke(self, group: str, command: str, documents: dict, flags: list = ()) -> None:
        # ``command`` with each document written to ``<flag>.json``.
        argv = [command, *flags]
        for flag in documents:
            argv += [f"--{flag}", f"{flag}.json"]
        self.add(group, argv, {f"{flag}.json": doc for flag, doc in documents.items()})


def _help(out: _Cases) -> None:
    for argv in (["--help"], ["-h"]):
        out.add("help", argv)
    for command in SUBCOMMANDS:
        out.add("help", [command, "--help"])
    for command in ("eval", "density-converge"):
        out.add("help", [command, "-h"])


def _happy(out: _Cases, rng: random.Random) -> None:
    for command, documents in FILE_FLAGS.items():
        out.invoke("run", command, documents, OTHER_FLAGS.get(command, []))
    out.invoke("run", "convert", {"measure": IDEMPOTENT}, ["--to", "classical"])
    out.invoke("run", "approx", {"measure": IDEMPOTENT}, ["--epsilon", "0.5", "--point", "b"])
    out.add("run", ["verify-counterexample"])
    for eps in ("0", "0.25", "0.5", "2e-1", "1", "0.75"):
        out.add("run", ["dist", "--epsilon", eps])
    for _ in range(40):
        labels = [f"p{i}" for i in range(rng.randint(1, 6))]
        if rng.random() < 0.3:  # labels that products escape, or that look like numbers
            labels[0] = rng.choice(("(a,b)", "a\\b", "\u00e9", " ", "-inf", "0"))
        mu, nu = _idempotent(rng, labels), _classical(rng, labels)
        phi = {"space": labels, "values": {p: round(rng.uniform(-9, 9), 3) for p in labels}}
        codomain = ["u", "v", "w"][: rng.randint(1, 3)]
        f = {"domain": labels, "codomain": codomain,
             "map": {p: rng.choice(codomain) for p in labels}}
        measure = rng.choice((mu, nu))
        eps = repr(round(rng.random(), 3))
        out.invoke("run", "eval", {"measure": measure, "function": phi})
        out.invoke("run", "push", {"measure": measure, "map": f})
        other = rng.choice(labels)
        second = _idempotent(rng, [other, "q"]) if measure is mu else _classical(rng, ["q"])
        out.invoke("run", "product", {"measure": measure, "measure2": second})
        to = "classical" if measure is mu else "idempotent"
        out.invoke("run", "convert", {"measure": measure}, ["--to", to])
        if rng.random() < 0.5:
            out.invoke("run", "approx", {"measure": mu}, ["--epsilon", eps, "--point", other])
        else:
            documents = {"measure": mu, "measure2": _idempotent(rng, labels)}
            out.invoke("run", "approx", documents, ["--epsilon", eps])
    for _ in range(15):
        sizes = (1, 7, 10, 37, 100, 250, 1000)
        grids = [str(rng.choice(sizes)) for _ in range(rng.randint(1, 3))]
        documents = {"density": _density(rng), "function": _line(rng)}
        out.invoke("run", "density-converge", documents,
                   [flag for n in grids for flag in ("--grid", n)])


def _idempotent(rng: random.Random, labels: list) -> dict:
    weights = {
        p: "-inf" if rng.random() < 0.25 else round(rng.uniform(-5, 0), 4) for p in labels
    }
    weights[rng.choice(labels)] = 0
    return {"space": labels, "kind": "idempotent", "weights": weights}


def _classical(rng: random.Random, labels: list) -> dict:
    raw = [rng.choice((0, 1, 2, 3, 5)) for _ in labels]
    raw[rng.randrange(len(raw))] = 4
    return {"space": labels, "kind": "classical",
            "weights": {p: r / sum(raw) for p, r in zip(labels, raw)}}


def _knots(rng: random.Random) -> list:
    inner = {round(rng.random(), 3) for _ in range(rng.randint(0, 4))} - {0.0, 1.0}
    return [0.0, *sorted(inner), 1.0]


def _density(rng: random.Random) -> dict:
    xs = _knots(rng)
    ys = [-round(rng.uniform(0, 2), 3) for _ in xs]
    ys[rng.randrange(len(ys))] = 0.0
    bound = rng.choice((100, 1e4, 1e4))
    return {"breakpoints": [list(p) for p in zip(xs, ys)], "lipschitz": bound}


def _line(rng: random.Random) -> dict:
    xs = _knots(rng)
    ys = [round(rng.uniform(-3, 3), 3) for _ in xs]
    bound = rng.choice((100, 1e4))
    return {"breakpoints": [list(p) for p in zip(xs, ys)], "lipschitz": bound}


def _files(out: _Cases) -> None:
    # Each file flag of each subcommand, read as each kind of bad file; the
    # large ones only as the first measure and as approx's second.
    bad_files = (
        None,  # missing
        FOLDER,
        b'{"space"\xff\xfe}',  # not UTF-8
        "{",
        "",
        '{"space": ["a"], }',
    )
    large = ("[" * 2_000 + "]" * 2_000, "1" * 4_301)
    for command, documents in FILE_FLAGS.items():
        for flag in documents:
            wide = (command, flag) in (("eval", "measure"), ("approx", "measure2"))
            for bad in bad_files + (large if wide else ()):
                files = {f"{f}.json": doc for f, doc in documents.items()}
                if bad is None:
                    del files[f"{flag}.json"]
                else:
                    files[f"{flag}.json"] = bad
                argv = [command, *OTHER_FLAGS.get(command, [])]
                for f in documents:
                    argv += [f"--{f}", f"{f}.json"]
                out.add("file", argv, files)
    wide_int = '{"space": ["a"], "kind": "idempotent", "weights": {"a": %s}}' % ("1" * 401)
    out.invoke("file", "convert", {"measure": wide_int}, ["--to", "classical"])


def _schema(out: _Cases) -> None:
    measures = (
        [1, 2], '"m"', None,
        {"space": ["a"], "kind": "idempotent"},
        {"space": ["a"], "weights": {"a": 0}},
        {"kind": "idempotent", "weights": {"a": 0}},
        {**IDEMPOTENT, "extra": 1},
        {**IDEMPOTENT, "space": "ab"},
        {**IDEMPOTENT, "space": []},
        {**IDEMPOTENT, "space": ["a", 1]},
        {**IDEMPOTENT, "space": ["a", ""]},
        {**IDEMPOTENT, "space": ["a", "a"]},
        {**IDEMPOTENT, "space": ["a", "b", ["c"]], "weights": {"a": 0}},
        {**IDEMPOTENT, "kind": "Idempotent"},
        {**IDEMPOTENT, "kind": 3},
        {**IDEMPOTENT, "kind": None},
        {**IDEMPOTENT, "weights": [0, -1]},
        {**IDEMPOTENT, "weights": {"a": 0}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": -1, "c": -2}},
        {**IDEMPOTENT, "weights": {"b": -1, "a": 0}},
        {**IDEMPOTENT, "weights": {"a": 0, "c": -1}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": "x"}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": True}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": None}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": [-1]}},
        {**IDEMPOTENT, "weights": {"a": 0, "b": "inf"}},
        {**IDEMPOTENT, "weights": {"a": "x", "b": True}},
        {**CLASSICAL, "weights": {"a": "-inf", "b": 1}},
        {**CLASSICAL, "weights": {"a": "x", "b": None}},
        {**CLASSICAL, "weights": {"a": 0.5, "b": False}},
    )
    for doc in measures:
        out.invoke("schema", "eval", {"measure": doc, "function": FUNCTION})
    # Non-finite numbers, as Python's JSON reads and writes them.
    for text in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400"):
        weights = '{"space": ["a", "b"], "kind": "%s", "weights": {"a": 0, "b": %s}}'
        for kind in ("idempotent", "classical"):
            out.invoke("schema", "eval", {"measure": weights % (kind, text), "function": FUNCTION})
        out.invoke("schema", "eval", {
            "measure": IDEMPOTENT,
            "function": '{"space": ["a", "b"], "values": {"a": 1, "b": %s}}' % text,
        })
    functions = (
        [], {"space": ["a", "b"]}, {**FUNCTION, "values": [1, 2]},
        {**FUNCTION, "values": {"a": "1", "b": 2}}, {**FUNCTION, "values": {"a": 1}},
        {**FUNCTION, "space": ["a", "c"]}, {**FUNCTION, "values": {"a": 1, "b": False}},
    )
    for doc in functions:
        out.invoke("schema", "eval", {"measure": IDEMPOTENT, "function": doc})
    maps = (
        {"domain": ["a", "b"], "codomain": ["x"]},
        {**MAP, "map": {"a": "x"}},
        {**MAP, "map": {"a": "x", "b": "y"}},
        {**MAP, "map": {"a": "x", "b": 1}},
        {**MAP, "codomain": []},
        {**MAP, "domain": ["a", "c"]},
        {**MAP, "map": ["x", "x"]},
    )
    for doc in maps:
        out.invoke("schema", "push", {"measure": CLASSICAL, "map": doc})
    lines = (
        [], {"breakpoints": [[0, 0], [1, 0]]}, {"lipschitz": 1},
        {**DENSITY, "extra": 1}, {**DENSITY, "breakpoints": {"0": 0}},
        {**DENSITY, "breakpoints": "[[0, 0]]"}, {**DENSITY, "breakpoints": []},
    )
    for doc in lines:
        for density, function in ((doc, LINE), (DENSITY, doc)):
            documents = {"density": density, "function": function}
            out.invoke("schema", "density-converge", documents, ["--grid", "10"])


def _invariants(out: _Cases) -> None:
    measures = (
        {**CLASSICAL, "weights": {"a": 0.5, "b": 0.6}},
        {**CLASSICAL, "weights": {"a": 1, "b": 1}},
        {**CLASSICAL, "weights": {"a": 1e308, "b": 1e308}},
        {**CLASSICAL, "weights": {"a": FLOAT_MAX, "b": 1.0}},
        {**CLASSICAL, "weights": {"a": 0.5, "b": 0.5 + 5e-10}},
        {**CLASSICAL, "weights": {"a": 0.5, "b": 0.5 + 2e-9}},
        {**CLASSICAL, "weights": {"a": -0.5, "b": 1.5}},
        {**CLASSICAL, "weights": {"a": 0, "b": 0}},
        {**IDEMPOTENT, "weights": {"a": 1, "b": 0}},
        {**IDEMPOTENT, "weights": {"a": -1, "b": -2}},
        {**IDEMPOTENT, "weights": {"a": "-inf", "b": "-inf"}},
        {**IDEMPOTENT, "weights": {"a": -FLOAT_MAX, "b": 0}},
    )
    for doc in measures:
        out.invoke("invariant", "eval", {"measure": doc, "function": FUNCTION})
        out.invoke("invariant", "convert", {"measure": doc}, ["--to", "classical"])
    for doc in (
        {**DENSITY, "breakpoints": [[0, 0], [1, 0.5]]},
        {**DENSITY, "breakpoints": [[0, -1], [1, -0.5]]},
        {**DENSITY, "breakpoints": [[0, 0], [1, -3]]},
        {**DENSITY, "breakpoints": [[0, 0], [0, -1], [1, -1]]},
        {**DENSITY, "breakpoints": [[0.1, 0], [1, 0]]},
        {**DENSITY, "breakpoints": [[0, 0]]},
        {**DENSITY, "lipschitz": -1},
    ):
        documents = {"density": doc, "function": LINE}
        out.invoke("invariant", "density-converge", documents, ["--grid", "10"])
    huge = {"breakpoints": [[0, 0], [1, 0]], "lipschitz": FLOAT_MAX}
    out.invoke("invariant", "density-converge", {"density": huge, "function": huge},
            ["--grid", "10"])


def _flags(out: _Cases) -> None:
    out.add("flag", [])
    out.add("flag", ["frobnicate"])
    out.add("flag", ["eval"])
    out.add("flag", ["eval", "--bogus", "1"])
    out.invoke("flag", "eval", {"measure": IDEMPOTENT})
    out.invoke("flag", "eval", {"measure": IDEMPOTENT, "function": FUNCTION}, ["--extra"])
    for eps in ("x", "nan", "-1", "1.5", "inf", "-0.0", "1e-400", "5e-324", ""):
        out.add("flag", ["dist", "--epsilon", eps])
        out.invoke("flag", "approx", {"measure": IDEMPOTENT}, ["--epsilon", eps, "--point", "a"])
    out.invoke("flag", "convert", {"measure": CLASSICAL}, ["--to", "tropical"])
    out.invoke("flag", "convert", {"measure": CLASSICAL})
    for grid in ("x", "0", "-5", "1000001", "2.5", ""):
        documents = {"density": DENSITY, "function": LINE}
        out.invoke("flag", "density-converge", documents, ["--grid", grid])
    out.invoke("flag", "density-converge", {"density": DENSITY, "function": LINE})
    out.invoke("flag", "approx", {"measure": IDEMPOTENT}, ["--epsilon", "0.5"])
    out.invoke("flag", "approx", {"measure": IDEMPOTENT, "measure2": IDEMPOTENT},
            ["--epsilon", "0.5", "--point", "a"])
    for point in ("z", "", "A"):
        flags = ["--epsilon", "0.5", "--point", point]
        out.invoke("flag", "approx", {"measure": IDEMPOTENT}, flags)
    out.add("flag", ["verify-counterexample", "--seed", "3"])


def _kinds(out: _Cases) -> None:
    wide = {"space": ["a", "b", "c"], "kind": "idempotent", "weights": {"a": 0, "b": -1, "c": -2}}
    out.invoke("kind", "convert", {"measure": IDEMPOTENT}, ["--to", "idempotent"])
    out.invoke("kind", "convert", {"measure": CLASSICAL}, ["--to", "classical"])
    out.invoke("kind", "approx", {"measure": CLASSICAL}, ["--epsilon", "0.5", "--point", "a"])
    out.invoke("kind", "approx", {"measure": CLASSICAL}, ["--epsilon", "0.5"])
    out.add("kind", ["approx", "--measure", "m.json", "--epsilon", "0.5", "--measure2", "n.json"],
            {"m.json": CLASSICAL})
    out.add("kind", ["approx", "--measure", "m.json", "--epsilon", "0.5", "--point", "a",
                     "--measure2", "n.json"], {"m.json": IDEMPOTENT})
    for second in (CLASSICAL, wide):
        documents = {"measure": IDEMPOTENT, "measure2": second}
        out.invoke("kind", "approx", documents, ["--epsilon", "0.5"])
    out.invoke("kind", "product", {"measure": IDEMPOTENT, "measure2": CLASSICAL})
    out.invoke("kind", "product", {"measure": CLASSICAL, "measure2": IDEMPOTENT})
    out.invoke("kind", "eval", {"measure": wide, "function": FUNCTION})
    out.invoke("kind", "push", {"measure": wide, "map": MAP})


def _precedence(out: _Cases, rng: random.Random) -> None:
    # Piecewise documents with several faults at once: the first pair's
    # shape, then its x, then its y, then the next pair, and the bound last.
    shapes = ([0], [0, 0, 0], 0, "xy", {"x": 0, "y": 0}, None, [])
    numbers = ("x", True, None, [0], "NaN", "Infinity", "-Infinity", "1" * 401, "1e400")
    bounds = ("x", False, None, "NaN", "-Infinity", "1" * 401, -1, 0, 1, 100)

    def pair(x: float, y: float) -> str:
        roll = rng.random()
        if roll < 0.15:
            return json.dumps(rng.choice(shapes))
        if roll < 0.3:
            return f"[{_number(rng.choice(numbers))}, {json.dumps(y)}]"
        if roll < 0.45:
            return f"[{json.dumps(x)}, {_number(rng.choice(numbers))}]"
        return json.dumps([x, y])

    for i in range(100):
        xs = [0.0, *sorted(round(rng.random(), 2) for _ in range(rng.randint(0, 3))), 1.0]
        ys = [-round(rng.uniform(0, 1), 2) for _ in xs]
        ys[0] = 0.0
        pairs = ", ".join(pair(x, y) for x, y in zip(xs, ys))
        text = f'{{"breakpoints": [{pairs}], "lipschitz": {_number(rng.choice(bounds))}}}'
        documents = {"density": text, "function": LINE} if i % 2 else {
            "density": DENSITY, "function": text,
        }
        out.invoke("precedence", "density-converge", documents, ["--grid", "10"])


def _number(token: object) -> str:
    # A JSON token: strings here that spell a number or a constant stay bare.
    bare = ("NaN", "Infinity", "-Infinity")
    if isinstance(token, str) and (token in bare or token[-1].isdigit()):
        return token
    return json.dumps(token)


def _extreme_weight(rng: random.Random) -> object:
    if rng.random() < 0.5:
        return rng.choice((0.0, -FLOAT_MAX, FLOAT_MAX, -745.0, -745.2, "-inf"))
    return rng.choice((-0.0, -LEAST_SUBNORMAL, -rng.random(), -(10 ** rng.uniform(-320, 308))))


def _extreme_mass(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.4:
        return rng.choice((LEAST_SUBNORMAL, rng.uniform(0.0, LEAST_NORMAL)))
    if roll < 0.7:
        return rng.choice((0.0, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, FLOAT_MAX))
    return rng.choice((rng.random(), 10 ** rng.uniform(-320, 308)))


def _extreme_value(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice((FLOAT_MAX, -FLOAT_MAX))
    return rng.choice((-1.0, 1.0)) * rng.choice((rng.random(), 10 ** rng.uniform(-320, 308)))


def _extreme_measure(rng: random.Random, labels: list) -> dict:
    if rng.random() < 0.5:
        weights = {p: _extreme_weight(rng) for p in labels}
        if rng.random() < 0.75:
            weights[rng.choice(labels)] = 0.0
        return {"space": labels, "kind": "idempotent", "weights": weights}
    masses = {p: rng.choice((LEAST_SUBNORMAL, rng.uniform(0.0, LEAST_NORMAL))) for p in labels}
    masses[rng.choice(labels)] = rng.choice((1.0, 1.0 + 1e-12, 0.5, _extreme_mass(rng)))
    return {"space": labels, "kind": "classical", "weights": masses}


def _extreme_line(rng: random.Random, density: bool) -> dict:
    xs = sorted({rng.random() for _ in range(rng.randint(0, 2))})
    points = [0.0, *(x for x in xs if 0.0 < x < 1.0), 1.0]
    if density:
        ys = [w if w != "-inf" else -745.0 for w in (_extreme_weight(rng) for _ in points)]
        if rng.random() < 0.75:
            ys[rng.randrange(len(ys))] = 0.0
    else:
        ys = [_extreme_value(rng) for _ in points]
    lipschitz = rng.choice((FLOAT_MAX, 0.0, 1.0))
    return {"breakpoints": [list(p) for p in zip(points, ys)], "lipschitz": lipschitz}


def _extreme(out: _Cases, rng: random.Random) -> None:
    commands = [c for c in SUBCOMMANDS if c != "verify-counterexample"]
    for _ in range(260):
        command = rng.choice(commands)
        labels = list(_LABELS[: rng.randint(1, 3)])
        documents = {"measure": _extreme_measure(rng, labels)}
        epsilon = ["--epsilon", repr(rng.choice((
            LEAST_SUBNORMAL, 1e-320, LEAST_NORMAL, 1.0, rng.uniform(LEAST_SUBNORMAL, 1.0),
        )))]
        flags: list = []
        if command == "eval":
            documents["function"] = {
                "space": labels, "values": {p: _extreme_value(rng) for p in labels},
            }
        elif command == "push":
            images = {p: rng.choice(("x", "y")) for p in labels}
            documents["map"] = {"domain": labels, "codomain": ["x", "y"], "map": images}
        elif command == "product":
            documents["measure2"] = _extreme_measure(rng, list(_LABELS[: rng.randint(1, 3)]))
        elif command == "convert":
            flags = ["--to", rng.choice(("idempotent", "classical"))]
        elif command == "approx":
            flags = epsilon
            if rng.random() < 0.5:
                flags = [*epsilon, "--point", rng.choice(labels)]
            else:
                documents["measure2"] = _extreme_measure(rng, labels)
        elif command == "density-converge":
            documents = {
                "density": _extreme_line(rng, True), "function": _extreme_line(rng, False),
            }
            grids = [rng.choice(("10", "37", "100")) for _ in range(rng.randint(1, 3))]
            flags = [flag for n in grids for flag in ("--grid", n)]
        else:
            documents, flags = {}, epsilon
        out.invoke("extreme", command, documents, flags)
    out.add("extreme", ["verify-counterexample"])


def cases() -> list:
    """Every invocation of the corpus, without its outcome."""
    out = _Cases()
    _help(out)
    _happy(out, random.Random(4101))
    _files(out)
    _schema(out)
    _invariants(out)
    _flags(out)
    _kinds(out)
    _precedence(out, random.Random(4102))
    _extreme(out, random.Random(4103))
    return out.cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    write = parser.parse_args().write
    with tempfile.TemporaryDirectory() as folder:
        if write:
            todo = cases()
            lines = [{**case, **got} for case, got in zip(todo, outcomes(todo, Path(folder)))]
            GOLDEN.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            print(f"wrote {len(lines)} invocations to {GOLDEN}")
            return 0
        differ = differences(load(), Path(folder))
    for case, got in differ:
        print(json.dumps({"id": case["id"], "argv": case["argv"], "recorded":
                          {"code": case["code"], "stdout": case["stdout"]}, "replayed": got}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
