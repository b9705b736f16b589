"""The committed CLI corpus replays byte for byte: see ``corpus.py``."""

from __future__ import annotations

import json

import corpus


def test_cli_corpus_replays_byte_for_byte(tmp_path):
    cases = corpus.load()
    assert len({case["id"] for case in cases}) == len(cases)
    differ = corpus.differences(cases, tmp_path)
    shown = [
        json.dumps({"id": case["id"], "recorded": [case["code"], case["stdout"]],
                    "replayed": [got["code"], got["stdout"]]})
        for case, got in differ[:5]
    ]
    assert not differ, f"{len(differ)} of {len(cases)} invocations differ:\n" + "\n".join(shown)


def test_cli_corpus_is_the_generated_one():
    # The committed argv and files are what ``corpus.py --write`` draws today.
    recorded = [{k: case[k] for k in ("id", "argv", "files")} for case in corpus.load()]
    assert recorded == corpus.cases()
