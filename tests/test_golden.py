"""Golden digests of the result bytes: the output contract every refactor keeps.

Each digest is the SHA-256 over the result of every document in a corpus,
in order, each followed by the per-document ``dropped_mentions``,
``dropped_events`` and ``counters`` as sorted JSON. ``GOLDEN_LINE`` pins the
result bytes, ``Resolution.to_bytes``, one compact NDJSON line per result,
which is also the whole of a result file. ``GOLDEN`` pins their content:
each result is parsed and dumped again with ``indent=2``, the layout that
result files had before they became their own stream line, so the digests
pinned then still hold and show that the parsed results, keys in order, did
not change with the layout. A change that moves a single byte of any
result, with or without provenance, changes a ``GOLDEN_LINE`` digest.
Update the pinned values only for a deliberate change of output, and record
that change in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from biocoref.resolver import ResolverConfig, resolve_document
from biocoref.standoff import load_document

import fixture_corpus
from synth import synth_corpus, synth_doc

GOLDEN = {
    ("fixtures", False):
        "0360a9bc0db88067b534ed8e2084cc57070cf789db7336c0877c59b8c9dd98e5",
    ("fixtures", True):
        "ce08025508f3ee94aa807894b9cf38def493d2e0f74f7c4319be34052eaaa8db",
    ("synth", False):
        "df720cea14450f42cea03f7a690a21299dda77ff31c41c98c2c4ac82b6d6361e",
    ("synth", True):
        "687956dfd9e24ec1964d3b2a4cfc9ad862a9df6b2511f30068432d00f9feb476",
    ("long", False):
        "d4357a75d56669a10493dfd811f1c505cd9d6abee01f921c775c32e075a1f793",
    ("long", True):
        "de112de453c2c7f663741eecf8fd7ac72781009ab189ed4b19ba037a422127fa",
}

GOLDEN_LINE = {
    ("fixtures", False):
        "4c3fca7fb8ed8af94e101981a21471f43b30fda5e7dbf1f71c86250a12902b55",
    ("fixtures", True):
        "c3ff8664106c46c36e5f427fe431858404d5eaaa3892f8c08349860831800844",
    ("synth", False):
        "b4b5243d33f345fd035aa5e900aff3288a87173805d00e518732fed1cc6e9ee7",
    ("synth", True):
        "ea55b6b2f47305426c6d0025746288e502e528d9f73dea830b6689bef28aa066",
    ("long", False):
        "a722b6aef24adb8576e5471b2d4c77d633b5ebf4aca3c8b55850040be5f2970d",
    ("long", True):
        "592e0c1c2a65d06fbebb9b22bc99a94b363df2ebb55d13969a812c009d6b8539",
}


def _corpus(name):
    if name == "fixtures":
        return list(fixture_corpus.corpus_documents().values())
    if name == "synth":
        return synth_corpus(23, 400)
    rng = random.Random(5)
    return [synth_doc(rng, i, sentences=n) for i, n in enumerate((150, 300))]


def _indented(result):
    """A result as it is laid out by ``json.dumps(indent=2)``."""
    return (json.dumps(json.loads(result), ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def _digest(docs, provenance, layout=lambda result: result):
    config = ResolverConfig.default(trace=provenance)
    h = hashlib.sha256()
    for raw in docs:
        res = resolve_document(load_document(json.dumps(raw)), config)
        h.update(layout(res.to_bytes(emit_provenance=provenance)))
        # The digests were pinned when the counters also held these three
        # counts, which no reader used; they are rebuilt here from the
        # resolution and its input, so the pinned digests still hold.
        counters = res.counters | {"links": len(res.links), "chains": len(res.chains),
                                   "events_in": len(raw["events"])}
        h.update(json.dumps([res.dropped_mentions, res.dropped_events, counters],
                            sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name,provenance", sorted(GOLDEN))
def test_result_bytes_match_golden_digest(name, provenance):
    assert _digest(_corpus(name), provenance, _indented) == GOLDEN[(name, provenance)]


@pytest.mark.parametrize("name,provenance", sorted(GOLDEN_LINE))
def test_stream_line_bytes_match_golden_digest(name, provenance):
    assert _digest(_corpus(name), provenance) == GOLDEN_LINE[(name, provenance)]
