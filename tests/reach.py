"""Print the ``src/`` lines that the tier-1 suite leaves unreached.

Usage: python3 tests/reach.py   (from the repository root; about 2 minutes)

Runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, with the red-by-design criterion 5 deselected,
and records every line executed in ``src/maxplusprob``.  A statement is
reached when a line of it ran; a compound statement counts its header
only, and constants (docstrings) are not statements.  Prints each
unreached ``file:line``, or ``unreached: none``, and exits 1 if any.
``__main__.py`` is skipped: only subprocess tests run it, and a tracer
sees one process.  Needs no ``coverage`` package; pytest collects only
``test_*.py``, so it does not collect this file.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxplusprob"
RED = "tests/test_acceptance.py::test_criterion_5_mixing_path_closed_forms"
reached: set = set()
inside: dict = {}


def _line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    path = frame.f_code.co_filename
    if path not in inside:
        inside[path] = Path(path).resolve().parent == PACKAGE
    return _line if inside[path] else None


def statements(source: str):
    """Each statement's lines: a simple one's whole span, a compound one's header."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        yield range(first, max(first, last) + 1)


def main() -> int:
    # This tree's package, in this process and in the CLI subprocesses.
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                     "--deselect", RED, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {(str(Path(p).resolve()), n) for p, n in reached}
    spans = [
        (str(path.relative_to(ROOT)), span)
        for path in PACKAGE.glob("*.py") if path.name != "__main__.py"
        for span in statements(path.read_text(encoding="utf-8"))
    ]
    missed = sorted({(name, span.start) for name, span in spans
                     if not any((str(ROOT / name), n) in lines for n in span)})
    print(f"statements: {len({(name, span.start) for name, span in spans})}")
    print("\n".join(f"{name}:{n}" for name, n in missed) or "unreached: none")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
