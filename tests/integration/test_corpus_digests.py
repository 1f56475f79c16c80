"""Committed byte-identity gate over two generator corpora.

``corpus_digests.json`` holds the sha256 of every generated source and
of its annotated output (or the error a rejected program reports) for
``ArrayProgramGenerator(size=30, max_depth=3)`` programs at seed 301,
structured (``goto_probability`` 0) and jumpy (0.3).  A change that
keeps output byte-identical keeps this test green under any
``PYTHONHASHSEED``; a change that means to alter output regenerates the
file and says why::

    PYTHONPATH=src python tests/integration/test_corpus_digests.py
"""

import hashlib
import json
import os

from repro.batch.driver import compile_one
from repro.lang.printer import format_program
from repro.testing.generator import ArrayProgramGenerator

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "corpus_digests.json")
SEED = 301
SIZE = 30
MAX_DEPTH = 3
#: corpus name -> (goto_probability, number of programs)
CORPORA = {"structured": (0.0, 48), "jumpy": (0.3, 48)}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_digests():
    """``{corpus: [[source sha256, output sha256 or error], ...]}``."""
    digests = {}
    for corpus, (goto_probability, count) in CORPORA.items():
        gen = ArrayProgramGenerator(seed=SEED, max_depth=MAX_DEPTH,
                                    goto_probability=goto_probability)
        rows = []
        for index in range(count):
            text = format_program(gen.program(size=SIZE))
            compiled = compile_one(f"{corpus}{index:03d}", text)
            output = (_sha256(compiled.annotated_source) if compiled.ok
                      else f"{compiled.error_type}: {compiled.error}")
            rows.append([_sha256(text), output])
        digests[corpus] = rows
    return digests


def test_corpus_sources_and_outputs_match_committed_digests():
    with open(DATA) as handle:
        expected = json.load(handle)
    actual = corpus_digests()
    assert list(actual) == list(expected)
    for corpus, rows in expected.items():
        assert len(actual[corpus]) == len(rows)
        for index, (want, got) in enumerate(zip(rows, actual[corpus])):
            assert got[0] == want[0], f"{corpus}{index:03d}: source changed"
            assert got[1] == want[1], f"{corpus}{index:03d}: output changed"


if __name__ == "__main__":
    with open(DATA, "w") as handle:
        json.dump(corpus_digests(), handle, indent=1)
        handle.write("\n")
