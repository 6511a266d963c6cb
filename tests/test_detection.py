import json

import pytest

from biocoref import detection as det
from biocoref.detection import (
    Cardinality,
    cardinality_of,
    classify_mutant_np,
    default_lexicon,
    detect_candidates,
    load_lexicon,
)
from biocoref.model import SchemaViolation
from biocoref.schema import default_schema, load_schema
from biocoref.standoff import load_document

from conftest import load_fixture


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


@pytest.fixture(scope="module")
def schema():
    return default_schema()


def _candidates(corpus, doc_id, lex, schema):
    doc = load_fixture(corpus, doc_id)
    return doc, detect_candidates(doc, lex, schema)


def test_ex12_pronoun_candidate(corpus, lex, schema):
    _, cands = _candidates(corpus, "ex12_foxp3", lex, schema)
    assert [(c.mention_id, c.kind) for c in cands] == [("T2", det.PRONOUN)]
    assert cands[0].cardinality == Cardinality.one()
    assert cands[0].hosts == (("E1", "theme"),)


def test_ex13_class_np_candidate(corpus, lex, schema):
    _, cands = _candidates(corpus, "ex13_rb_e2f", lex, schema)
    assert [(c.mention_id, c.kind, c.target_class) for c in cands] == [
        ("T3", det.CLASS_NP, "Protein")]


def test_indefinite_np_is_never_a_candidate(corpus, lex, schema):
    _, cands = _candidates(corpus, "ex24_indefinite_negative", lex, schema)
    assert cands == []


def test_ex18_nominal_event_candidate(corpus, lex, schema):
    doc, cands = _candidates(corpus, "ex18_ll37_igf1r", lex, schema)
    assert [(c.mention_id, c.kind, c.target_class) for c in cands] == [
        ("E2", det.NOMINAL_EVENT, "Binding")]
    # The candidate span stretches over the demonstrative.
    assert doc.text[cands[0].start:cands[0].end] == "this binding"


def test_expletive_pronoun_is_still_emitted(corpus, lex, schema):
    _, cands = _candidates(corpus, "ex26_expletive", lex, schema)
    assert [(c.mention_id, c.kind) for c in cands] == [("T1", det.PRONOUN)]


def test_entity_not_in_any_event_is_ignored(lex, schema):
    raw = {
        "doc_id": "d", "text": "RAF1 waited. The protein waited.",
        "sentences": [
            {"index": 0, "start": 0, "end": 12,
             "tokens": [{"start": 0, "end": 4}, {"start": 5, "end": 11}]},
            {"index": 1, "start": 13, "end": 32,
             "tokens": [{"start": 13, "end": 16}, {"start": 17, "end": 24},
                        {"start": 25, "end": 31}]},
        ],
        "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein"},
                     {"id": "T2", "start": 13, "end": 24, "label": "Protein"}],
        "events": [],
    }
    doc = load_document(json.dumps(raw))
    assert detect_candidates(doc, lex, schema) == []


def test_candidates_sorted_and_unique(resolved_corpus):
    for doc_id, (_, res) in resolved_corpus.items():
        spans = [(c.start, c.end) for c in res.candidates]
        assert spans == sorted(spans), doc_id
        ids = [c.mention_id for c in res.candidates]
        assert len(ids) == len(set(ids)), doc_id


def test_classify_mutation_only(lex):
    got = classify_mutant_np(["the", "S34A", "mutant"], lex)
    assert got == (det.MUTATION_ONLY, "S34A", Cardinality.one())


def test_classify_protein_only_with_numeral(lex):
    got = classify_mutant_np(["all", "six", "FGFR3", "mutants"], lex)
    assert got == (det.PROTEIN_ONLY, "FGFR3", Cardinality.exactly(6))


def test_classify_generic_mutant(lex):
    got = classify_mutant_np(["the", "deletion", "mutant"], lex)
    assert got == (det.GENERIC_MUTANT, None, Cardinality.one())
    got = classify_mutant_np(["The", "truncation", "mutant"], lex)
    assert got == (det.GENERIC_MUTANT, None, Cardinality.one())


def test_classify_non_mutant_is_absent(lex):
    assert classify_mutant_np(["the", "protein"], lex) is None


def test_cardinality_of_pronouns_and_numerals(lex):
    assert cardinality_of(["its"], lex) == Cardinality.one()
    assert cardinality_of(["their"], lex) == Cardinality.at_least_two()
    assert cardinality_of(["all", "six", "FGFR3", "mutants"], lex) == Cardinality.exactly(6)
    assert cardinality_of(["The", "R-Smads"], lex) == Cardinality.at_least_two()
    assert cardinality_of(["the", "protein"], lex) == Cardinality.one()


def test_lexicon_rejects_stopword_overlap():
    bad = json.dumps({
        "event_triggers": {"binding": "Binding"},
        "class_lexicon": {"the": "Protein"},
        "pronouns": {"it": "One"},
        "stopwords": ["the"],
    })
    with pytest.raises(SchemaViolation, match="overlap"):
        load_lexicon(bad)


@pytest.mark.parametrize("load, config, message", [
    (load_lexicon, [1], "lexicon config: top level must be an object"),
    (load_lexicon, {"pronouns": ["it"]}, "lexicon config: pronouns must be an object"),
    (load_lexicon, {"stopwords": "the"}, "lexicon config: stopwords must be a list of strings"),
    (load_lexicon, {"mutant_nouns": [1]}, "lexicon config: mutant_nouns must be a list of strings"),
    (load_schema, {"Binding": {"theme": ["Protein"]}},
     "schema config: bad role spec Binding.theme: must be an object"),
    (load_schema, {"Binding": {"theme": {"classes": [1], "count": 1}}},
     "schema config: bad role spec Binding.theme: classes must be a list of strings"),
    (load_schema, {"Binding": {"theme": {"classes": ["Protein"], "count": True}}},
     "schema config: bad role spec Binding.theme: count must be an integer of at least 0"),
], ids=["lexicon list", "pronouns list", "stopwords string", "mutant noun number",
        "role spec list", "class number", "count bool"])
def test_config_of_the_wrong_shape_is_refused_by_name(load, config, message):
    with pytest.raises(SchemaViolation) as exc:
        load(json.dumps(config))
    assert str(exc.value) == message


def test_default_lexicon_keeps_class_nouns_out_of_stopwords(lex):
    assert not lex.is_stopword("protein")
    assert not lex.is_stopword("proteins")
    assert lex.is_stopword("the")


def test_relative_pronouns_are_not_anaphor_candidates(lex):
    # Relative "which" constructions are resolved upstream by grammar rules,
    # so the pronoun lexicon deliberately excludes them.
    assert "which" not in lex.pronouns
    assert "that" not in lex.pronouns
