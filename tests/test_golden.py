"""Golden digests of the result bytes: the output contract every refactor keeps.

Each digest is the SHA-256 over ``Resolution.to_bytes`` of every document in
a corpus, in order, followed by the per-document ``dropped_mentions``,
``dropped_events`` and ``counters`` as sorted JSON. ``GOLDEN`` pins the
indented result files, ``GOLDEN_LINE`` the compact stream lines
(``to_bytes(line=True)``). A change that moves a single byte of any result,
in either layout, with or without provenance, changes a digest.
Update the pinned values only for a deliberate change of output, and record
that change in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from biocoref import fixtures
from biocoref.resolver import ResolverConfig, resolve_document
from biocoref.standoff import load_document
from synth import synth_corpus, synth_doc

GOLDEN = {
    ("fixtures", False):
        "0360a9bc0db88067b534ed8e2084cc57070cf789db7336c0877c59b8c9dd98e5",
    ("fixtures", True):
        "4a8ea9ec70cb75270adb4ece5b34005257482fbe7a7d52613a5e0990feb3a9af",
    ("synth", False):
        "df720cea14450f42cea03f7a690a21299dda77ff31c41c98c2c4ac82b6d6361e",
    ("synth", True):
        "c28a7d3fe524ba4eca8eaa9a95ff9be4d8c8fc432166f007a69ef6d8aed57f27",
    ("long", False):
        "d4357a75d56669a10493dfd811f1c505cd9d6abee01f921c775c32e075a1f793",
    ("long", True):
        "4b669bac04395f2db29c3431f808817e2c6314944f83d66663e21d60ab901297",
}

GOLDEN_LINE = {
    ("fixtures", False):
        "4c3fca7fb8ed8af94e101981a21471f43b30fda5e7dbf1f71c86250a12902b55",
    ("fixtures", True):
        "0550129a2d52790f541faf7867b0f5b49283a521da1ecb450b8f03bdf4c4ea66",
    ("synth", False):
        "b4b5243d33f345fd035aa5e900aff3288a87173805d00e518732fed1cc6e9ee7",
    ("synth", True):
        "e454ce71e8291c3450fda3e8d16229de9a4ff886fd84f544a102f87541c34b3c",
    ("long", False):
        "a722b6aef24adb8576e5471b2d4c77d633b5ebf4aca3c8b55850040be5f2970d",
    ("long", True):
        "a3b05d52c29c02e20b77acf24ee8d2a2738ee2fe95df981bf1d98b1ed414c234",
}


def _corpus(name):
    if name == "fixtures":
        return list(fixtures.corpus_documents().values())
    if name == "synth":
        return synth_corpus(23, 400)
    rng = random.Random(5)
    return [synth_doc(rng, i, sentences=n) for i, n in enumerate((150, 300))]


def _digest(docs, provenance, line=False):
    config = ResolverConfig.default(trace=provenance)
    h = hashlib.sha256()
    for raw in docs:
        res = resolve_document(load_document(json.dumps(raw)), config)
        h.update(res.to_bytes(emit_provenance=provenance, line=line))
        h.update(json.dumps([res.dropped_mentions, res.dropped_events, res.counters],
                            sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name,provenance", sorted(GOLDEN))
def test_result_bytes_match_golden_digest(name, provenance):
    assert _digest(_corpus(name), provenance) == GOLDEN[(name, provenance)]


@pytest.mark.parametrize("name,provenance", sorted(GOLDEN_LINE))
def test_stream_line_bytes_match_golden_digest(name, provenance):
    assert _digest(_corpus(name), provenance, line=True) == GOLDEN_LINE[(name, provenance)]
