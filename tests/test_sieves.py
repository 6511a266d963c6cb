import json
import random

import pytest

from biocoref import detection as det
from biocoref import resolver, sieves
from biocoref.search import ACCEPTED, build_constraints, verdict_for
from biocoref.standoff import load_document

from fixture_corpus import Ent, Ev, _doc, _mut
from synth import regulation_chain, synth_corpus, synth_doc

# A link's sieve precedence: its sieve's place in the pipeline, from 1.
SIEVE_RANK = {name: i + 1 for i, name in enumerate(sieves.SIEVE_ORDER)}


def _resolve(raw, disabled=frozenset(), trace=False):
    cfg = resolver.ResolverConfig.default(disabled_sieves=frozenset(disabled), trace=trace)
    doc = load_document(json.dumps(raw))
    return resolver.resolve_document(doc, cfg)


def _links(res):
    return [(l.anaphor_id, tuple(l.antecedent_ids), l.sieve_name) for l in res.links]


def _chain_of(res, mention_id):
    for chain in res.chains:
        if mention_id in chain:
            return set(chain)
    return {mention_id}


# --- exact string match ---------------------------------------------------

def test_exact_string_merges_identical_surfaces(corpus):
    res = _resolve(corpus["ex10_gsk3b"])
    assert {"T1", "T4"} <= _chain_of(res, "T1")
    assert "T2" not in _chain_of(res, "T1")


def test_exact_string_is_character_literal():
    d = _doc("lit", ["GSK3β binds GSK-3β weakly."],
             [Ent("T1", 0, "GSK3β", "Protein"),
              Ent("T2", 0, "GSK-3β", "Protein")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")])])
    res = _resolve(d, disabled={"shared_grounding"})
    assert _chain_of(res, "T1") == {"T1"}  # hyphen makes the surfaces differ


def test_exact_string_merges_transitively():
    d = _doc("triple", ["STAT3 binds JAK2, then STAT3 binds FYN, then STAT3 returned."],
             [Ent("T1", 0, "STAT3", "Protein"), Ent("T2", 0, "JAK2", "Protein"),
              Ent("T3", 0, "STAT3", "Protein", occ=2), Ent("T4", 0, "FYN", "Protein"),
              Ent("T5", 0, "STAT3", "Protein", occ=3)],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")])])
    res = _resolve(d)
    # Brute-force oracle: repeatedly merge any two same-surface mentions.
    surfaces = {"T1": "STAT3", "T2": "JAK2", "T3": "STAT3", "T4": "FYN", "T5": "STAT3"}
    groups = [{m} for m in surfaces]
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(groups):
            for j, b in enumerate(groups):
                if i < j and any(surfaces[x] == surfaces[y] for x in a for y in b):
                    groups[i] = a | b
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    oracle = sorted(sorted(g) for g in groups if len(g) > 1)
    assert res.chains == oracle == [["T1", "T3", "T5"]]


# --- shared grounding -----------------------------------------------------

def test_shared_grounding_merges_aliases(corpus):
    res = _resolve(corpus["ex11_gsk3b_alias"])
    assert {"T2", "T3", "T5"} <= _chain_of(res, "T2")
    assert _links(res) == [("T4", ("T1",), "pronominal")]


def test_shared_grounding_leaves_distinct_ids_alone():
    d = _doc("two", ["RAF1 binds MEK1 tightly."],
             [Ent("T1", 0, "RAF1", "Protein", grounding="uniprot:P04049"),
              Ent("T2", 0, "MEK1", "Protein", grounding="uniprot:Q02750")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")])])
    res = _resolve(d)
    assert res.chains == []


def test_precomputed_grounding_wins_over_table_lookup():
    # Both surfaces would miss the bundled table, but the upstream extractor
    # grounded them to one accession, so they chain anyway.
    d = _doc("pre", ["Tau-A binds Axin, and Tau-B binds Axin too."],
             [Ent("T1", 0, "Tau-A", "Protein", grounding="uniprot:P10636"),
              Ent("T2", 0, "Axin", "Protein"),
              Ent("T3", 0, "Tau-B", "Protein", grounding="uniprot:P10636"),
              Ent("T4", 0, "Axin", "Protein", occ=2)],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")])])
    res = _resolve(d, disabled={"exact_string"})
    assert _chain_of(res, "T1") == {"T1", "T3"}


def test_shared_grounding_respects_mutation_labels(corpus):
    # The six FGFR3 variants share a grounding but carry different spelled-out
    # mutations, so the grounding sieve must not collapse them.
    res = _resolve(corpus["ex9_fgfr3_mutants"], disabled={"mutant_match"})
    assert res.chains == []


# --- mutant match ----------------------------------------------------------

def test_mutant_match_links_all_six(corpus, manifest):
    res = _resolve(corpus["ex9_fgfr3_mutants"])
    assert _links(res) == [("T7", ("T1", "T2", "T3", "T4", "T5", "T6"), "mutant_match")]


def test_mutant_match_singular_with_one_prior():
    d = _doc("single",
             ["Cells expressed the G380R-FGFR3 protein.",
              "The FGFR3 mutant induced ERK phosphorylation."],
             [Ent("T1", 0, "G380R-FGFR3", "Protein", grounding="uniprot:P22607",
                  mutations=[_mut("PointSubstitution", "G380R")]),
              Ent("T2", 1, "The FGFR3 mutant", "Protein",
                  mutations=[_mut("UnknownMutation")]),
              Ent("T3", 1, "ERK", "Protein")],
             [Ev("E1", 1, "phosphorylation", "Phosphorylation",
                 [("cause", "T2"), ("theme", "T3")])])
    res = _resolve(d)
    assert _links(res) == [("T2", ("T1",), "mutant_match")]


def test_exact_numeral_takes_first_matches_in_scan_order():
    # Three qualifying mutants but the anaphor asks for exactly two: the
    # first two in text order win.
    muts = ["N540K", "G380R", "R248C"]
    ents = [Ent(f"T{i + 1}", 0, m, "Protein", grounding="uniprot:P22607",
                mutations=[_mut("PointSubstitution", m)]) for i, m in enumerate(muts)]
    d = _doc("overfull",
             ["Cells were transfected with N540K, G380R and R248C-FGFR3 mutants.",
              "The two FGFR3 mutants induced ERK phosphorylation."],
             ents + [Ent("T4", 1, "The two FGFR3 mutants", "Protein",
                         mutations=[_mut("UnknownMutation")]),
                     Ent("T5", 1, "ERK", "Protein")],
             [Ev("E1", 1, "phosphorylation", "Phosphorylation",
                 [("cause", "T4"), ("theme", "T5")])])
    res = _resolve(d)
    assert _links(res) == [("T4", ("T1", "T2"), "mutant_match")]


def test_mutant_match_strict_cardinality_fails_on_five():
    muts = ["N540K", "G380R", "R248C", "Y373C", "K650M"]
    ents = [Ent(f"T{i + 1}", 0, m, "Protein", grounding="uniprot:P22607",
                mutations=[_mut("PointSubstitution", m)]) for i, m in enumerate(muts)]
    d = _doc("five",
             ["Cells were transfected with N540K, G380R, R248C, Y373C and "
              "K650M-FGFR3 mutants.",
              "All six FGFR3 mutants induced ERK phosphorylation."],
             ents + [Ent("T6", 1, "All six FGFR3 mutants", "Protein",
                         mutations=[_mut("UnknownMutation")]),
                     Ent("T7", 1, "ERK", "Protein")],
             [Ev("E1", 1, "phosphorylation", "Phosphorylation",
                 [("cause", "T6"), ("theme", "T7")])])
    res = _resolve(d)
    assert res.links == []
    assert res.dropped_mentions == {"T6": "unresolved_anaphor"}
    # The event keeps going without its optional cause.
    assert [(c.event_type, [(a.role, a.ref) for a in c.args]) for c in res.completed] == [
        ("Phosphorylation", [("theme", "T7")])]


# --- strict head match -----------------------------------------------------

def test_strict_head_enzyme(corpus):
    res = _resolve(corpus["ex20_enzyme_head"])
    assert _links(res) == [("T3", ("T2",), "strict_head")]


def test_strict_head_requires_all_content_words(corpus):
    assert _links(_resolve(corpus["ex21_aspp2_head"])) == [("T2", ("T1",), "strict_head")]
    neg = _resolve(corpus["ex22_aspp2_negative"])
    assert neg.links == []
    assert neg.dropped_mentions == {"T3": "unresolved_anaphor"}


def test_strict_head_bare_name_with_determiner():
    # "The ASPP2" is fully contained in the earlier NP, so it links.
    d = _doc("bare", ["A phosphorylated ASPP2 protein was purified.",
                      "The ASPP2 binds p53."],
             [Ent("T1", 0, "phosphorylated ASPP2 protein", "Protein"),
              Ent("T2", 1, "The ASPP2", "Protein"),
              Ent("T3", 1, "p53", "Protein")],
             [Ev("E1", 1, "binds", "Binding", [("theme1", "T2"), ("theme2", "T3")])])
    assert _links(_resolve(d)) == [("T2", ("T1",), "strict_head")]


def test_strict_head_rejects_ikb_kinase(corpus):
    res = _resolve(corpus["ex23_ikb_negative"])
    assert res.links == []
    assert res.chains == []
    assert res.completed == []


def _scan_strict_head(ctx, state):
    """Reference strict_head: a nearest-first scan over every earlier entity,
    re-tokenizing each one, for every class NP. Only the entities holding the
    head word are recorded; anaphors, never antecedents, hold no words here."""
    for cand in ctx.candidates:
        if cand.kind != det.CLASS_NP:
            continue
        if cand.mention_id in state.resolved:
            ctx.record(cand.mention_id, "strict_head", "skipped_resolved")
            continue
        words = sieves._np_words(ctx, cand.start, cand.end, cand.surface)
        if len(words) < 2:
            continue
        content = [w.lower() for w in words if not ctx.lexicon.is_stopword(w)]
        if not content:
            continue
        head = content[-1]
        cons = build_constraints(ctx.index, cand, ctx.schema, banned=ctx.candidate_ids)
        considered = [] if ctx.trace is not None else None
        linked = False
        pool = [e for e in ctx.index.entities
                if e.start < cand.start and e.id not in ctx.candidate_ids]
        for ent in sorted(pool, key=lambda e: (-e.start, e.id)):
            ant_words = [w.lower() for w in
                         sieves._np_words(ctx, ent.start, ent.end, ent.surface)]
            if head not in ant_words:
                continue
            if all(w in ant_words for w in content):
                verdict = verdict_for(ent, cand, cons, state.uf, [])
            else:
                verdict = "excluded_word_containment"
            if considered is not None:
                considered.append({"id": ent.id, "verdict": verdict})
            if verdict == ACCEPTED:
                sieves._link(ctx, state, cand, [ent.id], "strict_head", considered)
                linked = True
                break
        if not linked:
            ctx.record(cand.mention_id, "strict_head", "no_match", considered=considered)


def _strict_head_bytes(raws, monkeypatch, reference):
    """Result bytes per document, with provenance off and on."""
    with monkeypatch.context() as m:
        if reference:
            m.setitem(sieves.RESOLUTION_SIEVES, "strict_head", _scan_strict_head)
        return [_resolve(raw, trace=trace).to_bytes(emit_provenance=trace)
                for raw in raws for trace in (False, True)]


_NESTED = _doc("nested", ["A phosphorylated ASPP2 protein complex was purified.",
                          "The phosphorylated ASPP2 binds p53."],
               [Ent("T1", 0, "phosphorylated ASPP2 protein", "Protein"),
                Ent("T2", 0, "phosphorylated ASPP2", "Protein"),
                Ent("T3", 0, "phosphorylated ASPP2 protein complex", "Protein"),
                Ent("T4", 1, "The phosphorylated ASPP2", "Protein"),
                Ent("T5", 1, "p53", "Protein")],
               [Ev("E1", 1, "binds", "Binding", [("theme1", "T4"), ("theme2", "T5")])])
_FAR_BACK = _doc("far", ["A phosphorylated ASPP2 protein was purified.",
                         "Samples were incubated overnight.",
                         "Lysates were analyzed afterwards.",
                         "The phosphorylated protein binds p53."],
                 [Ent("T1", 0, "phosphorylated ASPP2 protein", "Protein"),
                  Ent("T2", 3, "The phosphorylated protein", "Protein"),
                  Ent("T3", 3, "p53", "Protein")],
                 [Ev("E1", 3, "binds", "Binding", [("theme1", "T2"), ("theme2", "T3")])])
_NO_MATCH = _doc("nomatch", ["RAF1 binds MEK1.", "The activated ASPP2 binds p53."],
                 [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein"),
                  Ent("T3", 1, "The activated ASPP2", "Protein"),
                  Ent("T4", 1, "p53", "Protein")],
                 [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
                  Ev("E2", 1, "binds", "Binding", [("theme1", "T3"), ("theme2", "T4")])])


def test_strict_head_hand_built_cases():
    # Three candidates share a start; the id breaks the tie, not the length.
    assert _links(_resolve(_NESTED)) == [("T4", ("T1",), "strict_head")]
    assert _links(_resolve(_FAR_BACK)) == [("T2", ("T1",), "strict_head")]
    res = _resolve(_NO_MATCH)
    assert res.links == [] and res.dropped_mentions == {"T3": "unresolved_anaphor"}


@pytest.mark.parametrize("source", ["synth", "long_synth", "fixtures", "hand_built"])
def test_strict_head_matches_reference_scan(source, corpus, monkeypatch):
    raws = {
        "synth": lambda: synth_corpus(seed=31, count=150),
        "long_synth": lambda: [synth_doc(random.Random(5), 9999, sentences=400)],
        "fixtures": lambda: list(corpus.values()),
        "hand_built": lambda: [_NESTED, _FAR_BACK, _NO_MATCH],
    }[source]()
    if source == "long_synth":
        far = [l for l in _resolve(raws[0]).links if l.sieve_name == "strict_head"]
        assert far, "the long document should exercise strict_head"
    assert (_strict_head_bytes(raws, monkeypatch, reference=False)
            == _strict_head_bytes(raws, monkeypatch, reference=True))


# --- pronominal ------------------------------------------------------------

def test_pronominal_foxp3(corpus):
    assert _links(_resolve(corpus["ex12_foxp3"])) == [("T2", ("T1",), "pronominal")]


def test_pronominal_self_binding_blocked(corpus):
    res = _resolve(corpus["ex1b_axin_gbd"])
    assert _links(res) == [("T3", ("T2",), "pronominal")]


def test_pronominal_plural(corpus):
    assert _links(_resolve(corpus["ex16_baf_emerin"])) == [
        ("T3", ("T1", "T2"), "pronominal")]


def test_plural_pronoun_accepts_single_plural_mention():
    # One syntactically plural (Family) mention satisfies a plural pronoun alone.
    d = _doc("famone", ["The R-Smads were purified carefully.", "They bind Smad4."],
             [Ent("T1", 0, "R-Smads", "Family"),
              Ent("T2", 1, "They", "Protein"),
              Ent("T3", 1, "Smad4", "Protein")],
             [Ev("E1", 1, "bind", "Binding", [("theme1", "T2"), ("theme2", "T3")])])
    assert _links(_resolve(d)) == [("T2", ("T1",), "pronominal")]


def test_expletive_stays_unresolved_and_is_cleaned(corpus):
    res = _resolve(corpus["ex26_expletive"])
    assert res.links == []
    assert res.dropped_mentions == {"T1": "unresolved_anaphor"}
    assert res.dropped_events == {"E2": "argument_removed"}
    assert [c.id for c in res.completed] == ["E1"]


def test_left_to_right_multi_anaphor(corpus):
    res = _resolve(corpus["ex6_ccbl_mlk3"])
    assert _links(res) == [("T3", ("T1",), "pronominal"),
                           ("T4", ("T2",), "pronominal")]


def test_pronoun_filling_two_events_resolves_once():
    # One pronoun serving as theme of two separate events: exclusions union,
    # the candidate is detected once, and exactly one link comes out.
    d = _doc("twohost", ["RAF1 increased, its phosphorylation and its ubiquitination."],
             [Ent("T1", 0, "RAF1", "Protein"),
              Ent("T2", 0, "its", "Protein")],
             [Ev("E1", 0, "phosphorylation", "Phosphorylation", [("theme", "T2")]),
              Ev("E2", 0, "ubiquitination", "Ubiquitination", [("theme", "T2")])])
    res = _resolve(d)
    assert _links(res) == [("T2", ("T1",), "pronominal")]
    assert len(res.candidates) == 1
    assert res.candidates[0].hosts == (("E1", "theme"), ("E2", "theme"))


# --- class NP --------------------------------------------------------------

def test_class_np_the_protein(corpus):
    assert _links(_resolve(corpus["ex13_rb_e2f"])) == [("T3", ("T1",), "class_np")]


def test_class_np_plural_family(corpus):
    assert _links(_resolve(corpus["ex14_rsmads"])) == [
        ("T4", ("T1", "T2", "T3"), "class_np")]


def test_class_np_mutation_label_match(corpus):
    res = _resolve(corpus["ex8_k134a_mutant"])
    assert _links(res) == [("T3", ("T1",), "class_np")]


def test_class_np_mutation_label_falls_back_to_protein(corpus):
    res = _resolve(corpus["ex7_s34a_mutant"])
    assert _links(res) == [("T3", ("T2",), "class_np")]


def test_class_np_generic_mutant_needs_mutation_record(corpus):
    res = _resolve(corpus["ex27_truncation_mutant"])
    assert _links(res) == [("T2", ("T1",), "class_np")]


def test_generic_mutant_unresolved_without_mutated_antecedent():
    d = _doc("nomut",
             ["RUFY1 was described in detail.",
              "The truncation mutant could not bind to Rab14."],
             [Ent("T1", 0, "RUFY1", "Protein"),
              Ent("T2", 1, "The truncation mutant", "Protein",
                  mutations=[_mut("Truncation")]),
              Ent("T3", 1, "Rab14", "Protein")],
             [Ev("E1", 1, "bind", "Binding",
                 [("theme1", "T2"), ("theme2", "T3")], polarity="Negative")])
    res = _resolve(d)
    assert res.links == []
    assert "T2" in res.dropped_mentions


def test_indefinite_kinase_never_resolves(corpus):
    res = _resolve(corpus["ex24_indefinite_negative"])
    assert res.candidates == [] and res.links == []
    assert len(res.completed) == 2


# --- event coreference -----------------------------------------------------

def test_event_coref_links_nominal_binding(corpus):
    res = _resolve(corpus["ex18_ll37_igf1r"])
    assert _links(res) == [("E2", ("E1",), "event_coref")]


def test_incomplete_event_of_the_right_type_is_excluded_as_incomplete(corpus):
    # Without its theme2, ex18_ll37_igf1r's Binding E1 is of E2's type but not
    # complete, which is not a class mismatch.
    raw = json.loads(json.dumps(corpus["ex18_ll37_igf1r"]))
    e1 = next(ev for ev in raw["events"] if ev["id"] == "E1")
    e1["args"] = [a for a in e1["args"] if a["role"] != "theme2"]
    res = _resolve(raw, trace=True)
    entry = next(t for t in res.trace if t["anaphor"] == "E2")
    attempt = next(a for a in entry["attempts"] if a["sieve"] == "event_coref")
    assert attempt["status"] == "no_match"
    assert attempt["considered"] == [{"id": "E1", "verdict": "excluded_incomplete"}]


def test_regulation_anaphor_is_never_searched(corpus):
    res = _resolve(corpus["ex25_promotion_negative"], trace=True)
    assert res.links == []
    entry = next(t for t in res.trace if t["anaphor"] == "E3")
    statuses = [a["status"] for a in entry["attempts"] if a["sieve"] == "event_coref"]
    assert statuses == ["skipped_regulation"]
    assert not any(a.get("considered") for a in entry["attempts"])


def test_event_coref_unresolved_without_prior_complete_event():
    d = _doc("noprior",
             ["This binding results in STAT3 activation."],
             [Ent("T1", 0, "STAT3", "Protein")],
             [Ev("E1", 0, "binding", "Binding", []),
              Ev("E2", 0, "activation", "Activation", [("theme", "T1")]),
              Ev("E3", 0, "results", "Regulation",
                 [("controller", "E1"), ("controlled", "E2")])])
    res = _resolve(d)
    assert res.links == []
    assert set(res.dropped_events) == {"E1", "E3"}
    assert [c.id for c in res.completed] == ["E2"]


# --- cleanup ---------------------------------------------------------------

def test_cleanup_is_identity_when_all_resolved(corpus):
    res = _resolve(corpus["ex12_foxp3"])
    assert res.dropped_mentions == {} and res.dropped_events == {}
    assert len(res.doc.entities) == 2


def test_cleanup_drops_exactly_the_unresolved_anaphor():
    # One resolved pronoun plus one unresolvable class NP in a single document.
    d = _doc("mixed",
             ["RAF1 binds MEK1 to saturate its activation.",
              "The gene was expressed in cells."],
             [Ent("T1", 0, "RAF1", "Protein"),
              Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 0, "its", "Protein"),
              Ent("T4", 1, "The gene", "Gene")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
              Ev("E2", 0, "activation", "Activation", [("theme", "T3")]),
              Ev("E3", 1, "expressed", "Expression", [("theme", "T4")])])
    res = _resolve(d)
    assert _links(res) == [("T3", ("T1",), "pronominal")]
    assert res.dropped_mentions == {"T4": "unresolved_anaphor"}
    assert res.dropped_events == {"E3": "argument_removed"}
    assert {e.id for e in res.doc.entities} == {"T1", "T2", "T3"}


def test_deep_cleanup_cascade_drops_every_level():
    # 1,600 levels, past the default recursion limit of 1,000.
    res = _resolve(regulation_chain(1600, antecedent=False))
    assert res.dropped_events == {"B2": "unresolved_anaphor",
                                  **{f"R{k}": "argument_removed" for k in range(1, 1601)}}
    assert res.doc.events == () and res.completed == []


def test_sieve_rank_recorded_on_links(resolved_corpus):
    # A link's rank is SIEVE_RANK of its sieve; links come out in rank order.
    for _, res in resolved_corpus.values():
        ranks = [SIEVE_RANK[link.sieve_name] for link in res.links]
        assert ranks == sorted(ranks)
