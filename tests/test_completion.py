import json
import time

from biocoref import completion, resolver
from biocoref.standoff import load_document

from conftest import completed_key, load_fixture
from fixture_corpus import Ent, Ev, _doc
from synth import regulation_chain


def _resolve(raw):
    doc = load_document(json.dumps(raw))
    return resolver.resolve_document(doc, resolver.ResolverConfig.default())


def test_conjoined_themes_split_against_fixed_participant(corpus):
    res = _resolve(corpus["ex5_ras_binding"])
    got = {completed_key(c) for c in res.completed}
    assert got == {
        ("Binding", frozenset({("theme1", "T1"), ("theme2", "T3")}), "Unspecified", False),
        ("Binding", frozenset({("theme1", "T2"), ("theme2", "T3")}), "Unspecified", False),
    }
    # Conjoined entities never pair with each other.
    for c in res.completed:
        refs = {a.ref for a in c.args}
        assert not {"T1", "T2"} <= refs


def test_plural_anaphor_split(corpus):
    res = _resolve(corpus["ex16_baf_emerin"])
    pairs = sorted(tuple(sorted(a.ref for a in c.args)) for c in res.completed)
    assert pairs == [("T1", "T4"), ("T2", "T4")]
    assert all(c.provenance == ("T3",) for c in res.completed)
    assert sorted(c.id for c in res.completed) == ["E1.c0", "E1.c1"]


def test_event_without_anaphors_passes_through():
    d = _doc("plain", ["RAF1 phosphorylates MEK1."],
             [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein")],
             [Ev("E1", 0, "phosphorylates", "Phosphorylation",
                 [("cause", "T1"), ("theme", "T2")])])
    res = _resolve(d)
    assert len(res.completed) == 1
    c = res.completed[0]
    assert c.id == "E1" and c.derived_from == "E1" and c.provenance == ()
    assert [(a.role, a.ref) for a in c.args] == [("cause", "T1"), ("theme", "T2")]


def test_engine_matches_left_to_right_assignment(corpus, config):
    doc = load_fixture(corpus, "ex6_ccbl_mlk3")
    res = resolver.resolve_document(doc, config)
    # Text-order pairing: the first anaphor takes the first antecedent.
    assert [(l.anaphor_id, l.antecedent_ids) for l in res.links] == [
        ("T3", ("T1",)), ("T4", ("T2",))]


def test_regulation_duplicated_per_split_child():
    d = _doc("regdup",
             ["RAF1 and MEK1 form a complex with ERK2.",
              "This binding results in STAT3 activation."],
             [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 0, "ERK2", "Protein"), Ent("T4", 1, "STAT3", "Protein")],
             [Ev("E1", 0, "complex", "Binding",
                 [("theme1", "T1"), ("theme1", "T2"), ("theme2", "T3")]),
              Ev("E2", 1, "binding", "Binding", []),
              Ev("E3", 1, "activation", "Activation", [("theme", "T4")]),
              Ev("E4", 1, "results", "Regulation",
                 [("controller", "E2"), ("controlled", "E3")])])
    res = _resolve(d)
    regs = [c for c in res.completed if c.event_type == "Regulation"]
    assert sorted(c.args[0].ref for c in regs) == ["E1.c0", "E1.c1"]
    assert all(c.args[1].ref == "E3" for c in regs)
    assert all("E2" in c.provenance for c in regs)


def test_deep_regulation_chain_resolves():
    # 1,500 levels, past the default recursion limit of 1,000.
    res = _resolve(regulation_chain(1500))
    assert [(l.anaphor_id, l.antecedent_ids) for l in res.links] == [("B2", ("B1",))]
    assert len(res.completed) == 1501  # R1500 down to R1, then B1
    top = res.completed[0]
    assert top.id == "R1500" and top.args[1].ref == "R1499" and top.provenance == ("B2",)


def test_self_relation_suppressed():
    d = _doc("selfbind", ["STAT3 binds STAT3 directly."],
             [Ent("T1", 0, "STAT3", "Protein"),
              Ent("T2", 0, "STAT3", "Protein", occ=2)],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")])])
    res = _resolve(d)
    assert res.completed == []
    assert res.dropped_events == {"E1": "self_relation"}


def test_split_count_is_product_of_role_multiplicities():
    d = _doc("product", ["RAF1 and MEK1 bind ERK2 and STAT3 together."],
             [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 0, "ERK2", "Protein"), Ent("T4", 0, "STAT3", "Protein")],
             [Ev("E1", 0, "bind", "Binding",
                 [("theme1", "T1"), ("theme1", "T2"),
                  ("theme2", "T3"), ("theme2", "T4")])])
    res = _resolve(d)
    pairs = sorted(tuple(a.ref for a in c.args) for c in res.completed)
    assert pairs == [("T1", "T3"), ("T1", "T4"), ("T2", "T3"), ("T2", "T4")]


def test_incomplete_after_substitution_is_dropped():
    d = _doc("gap", ["The interaction with MEK1 was strong."],
             [Ent("T1", 0, "MEK1", "Protein")],
             [Ev("E1", 0, "interaction", "Binding", [("theme2", "T1")])])
    res = _resolve(d)
    assert res.completed == []
    assert res.dropped_events == {"E1": "incomplete_after_substitution"}


def test_derived_from_preserves_source_event(resolved_corpus):
    for doc_id, (doc, res) in resolved_corpus.items():
        event_ids = {ev.id for ev in doc.events}
        for c in res.completed:
            assert c.derived_from in event_ids, doc_id


def test_event_past_the_expansion_limit_is_dropped_unexpanded():
    # 40 themes x 40 causes x 40 sites would complete as 64,000 events.
    names = [f"P{i}" for i in range(80)]
    sites = [f"S{i}" for i in range(40)]
    sentence = " ".join(names + sites) + " phosphorylation."
    ents = [Ent(f"T{i}", 0, name, "Protein") for i, name in enumerate(names)]
    ents += [Ent(f"T{80 + i}", 0, site, "Site") for i, site in enumerate(sites)]
    roles = ["theme"] * 40 + ["cause"] * 40 + ["site"] * 40
    d = _doc("fanout", [sentence], ents,
             [Ev("E1", 0, "phosphorylation", "Phosphorylation",
                 [(role, ent.id) for role, ent in zip(roles, ents)])])
    assert 40 ** 3 > completion.EXPANSION_LIMIT
    start = time.perf_counter()
    res = _resolve(d)
    assert time.perf_counter() - start < 1.0
    assert res.completed == []
    assert res.dropped_events == {"E1": "expansion_limit"}
    assert res.counters["events_dropped"] == 1
