"""The golden-output corpus: every command line of ``golden_corpus.json``
gives, through ``cli.main`` in process, the exit code, stdout, stderr and
warning count recorded there.  ``tests/golden_corpus.py`` regenerates it.

Stdout hashes and warning counts are compared only on the numpy version
that made the corpus: another numpy may round the last bit of a complex
``exp`` differently or warn on other steps.  Exit codes and stderr, which
hold only messages about the inputs, are compared on every version.

Every JSON document the corpus prints is also checked against json
itself: it must be ``json.dumps(json.loads(out), indent=2)``.
"""

import json

import numpy as np

from golden_corpus import CORPUS, run_case

CORPUS_DOC = json.loads(CORPUS.read_text(encoding="utf-8"))
SAME_NUMPY = np.__version__ == CORPUS_DOC["numpy"]


def test_corpus_replays(tmp_path):
    differ = []
    for case in CORPUS_DOC["cases"]:
        got, _ = run_case(case, str(tmp_path))
        keys = ["exit", "stderr_sha256"]
        if SAME_NUMPY:
            keys += ["stdout_sha256", "warnings"]
        if any(got[key] != case[key] for key in keys):
            differ.append((case["id"], {key: (case[key], got[key]) for key in keys
                                        if got[key] != case[key]}))
    assert not differ, f"{len(differ)} of {len(CORPUS_DOC['cases'])} entries differ: {differ}"


def test_json_output_is_json_dumps(tmp_path):
    """Every JSON document the corpus prints is json.dumps(indent=2) of what
    json reads back from it."""
    documents = 0
    for case in CORPUS_DOC["cases"]:
        got, out = run_case(case, str(tmp_path))
        if got["exit"] == 0 and out.startswith("{"):
            assert out == json.dumps(json.loads(out), indent=2) + "\n", case["id"]
            documents += 1
    assert documents >= 37
