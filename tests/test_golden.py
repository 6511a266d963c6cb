"""Golden digests of the result bytes: the output contract every refactor keeps.

Each digest is the SHA-256 over ``Resolution.to_bytes`` of every document in
a corpus, in order, followed by the per-document ``dropped_mentions``,
``dropped_events`` and ``counters`` as sorted JSON. A change that moves a
single byte of any result, with or without provenance, changes a digest.
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


def _corpus(name):
    if name == "fixtures":
        return list(fixtures.corpus_documents().values())
    if name == "synth":
        return synth_corpus(23, 400)
    rng = random.Random(5)
    return [synth_doc(rng, i, sentences=n) for i, n in enumerate((150, 300))]


def _digest(docs, provenance):
    config = ResolverConfig.default(trace=provenance)
    h = hashlib.sha256()
    for raw in docs:
        res = resolve_document(load_document(json.dumps(raw)), config)
        h.update(res.to_bytes(emit_provenance=provenance))
        h.update(json.dumps([res.dropped_mentions, res.dropped_events, res.counters],
                            sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name,provenance", sorted(GOLDEN))
def test_result_bytes_match_golden_digest(name, provenance):
    assert _digest(_corpus(name), provenance) == GOLDEN[(name, provenance)]
