import json

import pytest

from biocoref import resolver, standoff

import fixture_corpus


@pytest.fixture(scope="session")
def config():
    return resolver.ResolverConfig.default()

@pytest.fixture(scope="session")
def corpus():
    return fixture_corpus.corpus_documents()

@pytest.fixture(scope="session")
def manifest():
    return fixture_corpus.corpus_manifest()

@pytest.fixture(scope="session")
def resolved_corpus(corpus, config):
    """doc_id -> (Document, Resolution) for the whole bundled corpus."""
    out = {}
    for doc_id, raw in corpus.items():
        doc = standoff.load_document(json.dumps(raw))
        out[doc_id] = (doc, resolver.resolve_document(doc, config))
    return out


def load_fixture(corpus, doc_id):
    return standoff.load_document(json.dumps(corpus[doc_id]))


def completed_key(ev):
    """Comparable shape for a CompletedEvent: type, args, polarity, coref flag."""
    return (ev.event_type, frozenset((a.role, a.ref) for a in ev.args),
            ev.polarity, bool(ev.provenance))


def expected_key(entry):
    return (entry["type"], frozenset(entry["args"].items()),
            entry["polarity"], entry["coref"])
