"""README's Python blocks run as written.

Each ```` ```python ```` block of README.md runs in a fresh namespace
with its stdout captured: the quick tour's stated value must hold,
and each timing recipe must print ``<name>: <number> ms`` lines that
name its entries.  An edit that breaks a block fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from maxplusprob import evaluate

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
TIMING = re.compile(r"[^:\n]+: \d+\.\d+ ms")


def _run(i: int, capsys) -> tuple[dict, list[str]]:
    namespace: dict = {"__name__": f"readme_block_{i}"}
    exec(compile(BLOCKS[i], f"{README.name}, python block {i + 1}", "exec"), namespace)
    return namespace, capsys.readouterr().out.splitlines()


def test_readme_has_a_tour_and_two_recipes():
    assert len(BLOCKS) == 3


def test_quick_tour_runs_and_its_stated_value_holds(capsys):
    namespace, out = _run(0, capsys)
    assert out == []
    assert evaluate(namespace["mu"], namespace["phi"]) == 3.0  # "# 3.0" in the tour


@pytest.mark.parametrize("i", (1, 2))
def test_timing_recipes_run_and_name_their_entries(i, capsys):
    _, out = _run(i, capsys)
    assert out and all(TIMING.fullmatch(line) for line in out), out
    names = [line.rsplit(": ", 1)[0] for line in out]
    assert all(f'"{name}"' in BLOCKS[i] for name in names), out
