import json

import pytest

from biocoref.detection import default_lexicon, detect_candidates
from biocoref.index import DocIndex
from biocoref.resolver import ResolverConfig, resolve_document
from biocoref.schema import SchemaMissing, default_schema, load_schema
from biocoref.search import build_constraints, linear_search
from biocoref.standoff import load_document
from biocoref.unionfind import UnionFind

from conftest import load_fixture
from fixture_corpus import Ent, Ev, _doc
from synth import regulation_chain

LEX = default_lexicon()
SCHEMA = default_schema()


def _setup(doc):
    index = DocIndex(doc, SCHEMA)
    cands = detect_candidates(doc, LEX, SCHEMA, index=index)
    return index, {c.mention_id: c for c in cands}


def test_ex1b_excludes_chained_participant(corpus):
    doc = load_fixture(corpus, "ex1b_axin_gbd")
    index, cands = _setup(doc)
    uf = UnionFind()
    uf.union("T1", "T4")  # the exact-string chain over the two GSK3B mentions
    cons = build_constraints(index, cands["T3"], SCHEMA,
                             banned=frozenset(cands))
    result = linear_search(index, cands["T3"], cons, uf)
    assert result.satisfied and result.ids == ["T2"]


def test_ex2b_untyped_noun_is_invisible(corpus):
    doc = load_fixture(corpus, "ex2b_pax8")
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T2"], SCHEMA, banned=frozenset(cands))
    result = linear_search(index, cands["T2"], cons, uf)
    assert result.ids == ["T1"]  # "The only previous study" is not a mention at all


def test_ex12_scan_starts_at_sentence_beginning(corpus):
    doc = load_fixture(corpus, "ex12_foxp3")
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T2"], SCHEMA, banned=frozenset(cands))
    assert linear_search(index, cands["T2"], cons, uf).ids == ["T1"]


def test_ex16_collects_two_for_plural(corpus):
    doc = load_fixture(corpus, "ex16_baf_emerin")
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T3"], SCHEMA, banned=frozenset(cands))
    result = linear_search(index, cands["T3"], cons, uf)
    assert result.satisfied and result.ids == ["T1", "T2"]


def test_first_sentence_anaphor_finds_nothing():
    d = _doc("lead", ["It phosphorylates MEK1."],
             [Ent("T1", 0, "It", "Protein"), Ent("T2", 0, "MEK1", "Protein")],
             [Ev("E1", 0, "phosphorylates", "Phosphorylation",
                 [("cause", "T1"), ("theme", "T2")])])
    doc = load_document(json.dumps(d))
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T1"], SCHEMA, banned=frozenset(cands))
    result = linear_search(index, cands["T1"], cons, uf)
    assert result.ids == [] and not result.satisfied


def test_search_never_reaches_two_sentences_back():
    d = _doc("far", ["RAF1 was purified.", "The buffer was changed.",
                     "It phosphorylates MEK1."],
             [Ent("T1", 0, "RAF1", "Protein"),
              Ent("T2", 2, "It", "Protein"),
              Ent("T3", 2, "MEK1", "Protein")],
             [Ev("E1", 2, "phosphorylates", "Phosphorylation",
                 [("cause", "T2"), ("theme", "T3")])])
    doc = load_document(json.dumps(d))
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T2"], SCHEMA, banned=frozenset(cands))
    assert linear_search(index, cands["T2"], cons, uf).ids == []


def test_class_filter_skips_cellular_component():
    d = _doc("loc", ["In the cytoplasm, RAF1 phosphorylates it after STAT3 release."],
             [Ent("T1", 0, "cytoplasm", "CellularComponent"),
              Ent("T2", 0, "RAF1", "Protein"),
              Ent("T3", 0, "it", "Protein")],
             [Ev("E1", 0, "phosphorylates", "Phosphorylation",
                 [("cause", "T2"), ("theme", "T3")])])
    doc = load_document(json.dumps(d))
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T3"], SCHEMA, banned=frozenset(cands))
    # cytoplasm fails the theme class filter, RAF1 is the excluded cause, so nothing is left
    assert linear_search(index, cands["T3"], cons, uf).ids == []


def test_build_constraints_phosphorylation_theme(corpus):
    doc = load_fixture(corpus, "ex11_gsk3b_alias")
    index, cands = _setup(doc)
    uf = UnionFind()
    cons = build_constraints(index, cands["T4"], SCHEMA)
    assert cons.excluded_ids == frozenset({"T5"})
    assert cons.allowed_classes == frozenset(
        {"Protein", "Gene", "GeneOrGeneProduct", "Family", "SimpleChemical"})


def test_build_constraints_binding_excludes_other_theme(corpus):
    doc = load_fixture(corpus, "ex1b_axin_gbd")
    index, cands = _setup(doc)
    cons = build_constraints(index, cands["T3"], SCHEMA)
    assert cons.excluded_ids == frozenset({"T4"})


def test_build_constraints_anaphor_as_only_argument():
    d = _doc("solo", ["RAF1 increased, and its expression was studied."],
             [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "its", "Protein")],
             [Ev("E1", 0, "expression", "Expression", [("theme", "T2")])])
    doc = load_document(json.dumps(d))
    index, cands = _setup(doc)
    cons = build_constraints(index, cands["T2"], SCHEMA)
    assert cons.excluded_ids == frozenset()


def test_schema_missing_event_type_row():
    schema = load_schema(json.dumps(
        {"Binding": {"theme1": {"classes": ["Protein"], "count": 1},
                     "theme2": {"classes": ["Protein"], "count": 1}}}))
    with pytest.raises(SchemaMissing):
        schema.roles_for("Phosphorylation")
    with pytest.raises(SchemaMissing):
        schema.role_spec("Binding", "cause")


def test_ex18_completeness_follows_nested_events(corpus):
    # The nominal binding E2 has no arguments, so the regulation E4 built on it
    # is incomplete too; the binding E1 and the activation E3 are complete.
    index = DocIndex(load_fixture(corpus, "ex18_ll37_igf1r"), SCHEMA)
    assert {"E1", "E3"} <= index.complete
    assert not {"E2", "E4"} & index.complete


def test_completeness_of_a_deep_regulation_chain():
    # 1,500 levels, past the recursion limit: every regulation above the
    # argument-less nominal B2 is incomplete, so only the binding B1 is complete.
    doc = load_document(json.dumps(regulation_chain(1500)))
    assert DocIndex(doc, SCHEMA).complete == {"B1"}


def test_a_sentence_holds_the_mentions_that_start_in_it(corpus):
    # The runs found by bisection are the mentions grouped by the sentence
    # holding their start, in the index's order.
    for name in corpus:
        index = DocIndex(load_fixture(corpus, name), SCHEMA)
        for i in range(-1, len(index.doc.sentences)):
            assert index.entities_in(i) == [e for e in index.entities
                                            if i >= 0 and index.sentence_index_at(e.start) == i]
            assert index.events_in(i) == [
                ev for ev in index.events
                if i >= 0 and index.sentence_index_at(ev.trigger_start) == i]


def _traced(doc: dict):
    """The resolution of ``doc`` with a trace, and its trace entries by anaphor."""
    config = ResolverConfig.default(trace=True)
    res = resolve_document(load_document(json.dumps(doc)), config)
    return res, {entry["anaphor"]: entry for entry in res.trace}


def test_a_plural_anaphor_takes_one_antecedent_per_chain():
    # The window holds RAF1 twice, chained by exact_string: the second is
    # excluded_duplicate_chain, so "They" takes RAF1 once, and MEK1.
    d = _doc("per_chain", ["RAF1 and MEK1 were purified, and RAF1 was labelled.",
                           "They phosphorylate STAT3."],
             [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 0, "RAF1", "Protein", occ=2), Ent("T4", 1, "They", "Protein"),
              Ent("T5", 1, "STAT3", "Protein")],
             [Ev("E1", 1, "phosphorylate", "Phosphorylation", [("cause", "T4"), ("theme", "T5")])])
    res, trace = _traced(d)
    assert [attempt["considered"] for attempt in trace["T4"]["attempts"]] == [[
        {"id": "T1", "verdict": "accepted"}, {"id": "T2", "verdict": "accepted"},
        {"id": "T3", "verdict": "excluded_duplicate_chain"}]]
    assert [(l.anaphor_id, l.antecedent_ids) for l in res.links] == [("T4", ("T1", "T2"))]


def test_the_other_participant_of_a_self_binding_is_excluded_as_a_participant():
    # ex1b_axin_gbd, the paper's example, restated so that the pronoun's
    # fellow participant, GSK3B, comes before it: "it" must not bind GSK3B,
    # which is excluded as the participant, not only as a chain mate like
    # the first GSK3B.
    d = _doc("self_binding", ["We incubated GSK3β with excess Axin GBD protein.",
                              "Binding of GSK3β to it was saturated."],
             [Ent("T1", 0, "GSK3β", "Protein"), Ent("T2", 0, "Axin GBD", "Protein"),
              Ent("T3", 1, "GSK3β", "Protein"), Ent("T4", 1, "it", "Protein")],
             [Ev("E1", 1, "Binding", "Binding", [("theme1", "T3"), ("theme2", "T4")])])
    res, trace = _traced(d)
    assert trace["T4"]["attempts"][0]["considered"] == [
        {"id": "T3", "verdict": "excluded_participant"},
        {"id": "T1", "verdict": "excluded_chain"}, {"id": "T2", "verdict": "accepted"}]
    assert [(l.anaphor_id, l.antecedent_ids) for l in res.links] == [("T4", ("T2",))]
