"""Generator of the example corpus: 22 curated mini-documents, one per resolver behavior.

Each document is built programmatically (text, segmentation, standoff
mentions) so the corpus can be regenerated byte-for-byte. The accompanying
manifest records the hand-checked expectations: which links must appear,
which must not, which mentions get dropped, and how many completed events
are attributable to coreference. The test suite and the throughput
accounting both treat the manifest as ground truth.

The committed ``fixtures/`` directory is this generator's output, and a test
checks that it still is. After changing a document or the manifest here,
regenerate it from the repository root with

    python tests/fixture_corpus.py fixtures/
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

_WORD = re.compile(r"\S+")
_TRAIL_PUNCT = ".,;:!?"


def _tokenize(sentence: str, offset: int) -> list[dict]:
    """Whitespace tokens with punctuation peeled; balanced brackets stay put."""
    tokens = []
    for m in _WORD.finditer(sentence):
        chunk, start = m.group(), m.start()
        while chunk and chunk[0] in "([" and (
                chunk.count("(") + chunk.count("[") > chunk.count(")") + chunk.count("]")):
            chunk, start = chunk[1:], start + 1
        while chunk:
            last = chunk[-1]
            if last in _TRAIL_PUNCT:
                chunk = chunk[:-1]
            elif last in ")]" and (chunk.count(")") + chunk.count("]")
                                   > chunk.count("(") + chunk.count("[")):
                chunk = chunk[:-1]
            else:
                break
        if chunk:
            tokens.append({"start": offset + start, "end": offset + start + len(chunk)})
    return tokens


@dataclass(slots=True)
class Ent:
    id: str
    sent: int
    sub: str
    label: str
    occ: int = 1
    grounding: str | None = None
    mutations: list[dict] = field(default_factory=list)


@dataclass(slots=True)
class Ev:
    id: str
    sent: int
    trigger: str
    type: str
    args: list[tuple[str, str]]
    polarity: str | None = None
    occ: int = 1


def _find(sentence: str, sub: str, occ: int) -> int:
    pos = -1
    for _ in range(occ):
        pos = sentence.find(sub, pos + 1)
        if pos < 0:
            raise ValueError(f"substring {sub!r} (occurrence {occ}) not in {sentence!r}")
    return pos


def _doc(doc_id: str, sentences: list[str], entities: list[Ent], events: list[Ev]) -> dict:
    text = " ".join(sentences)
    sent_dicts = []
    starts = []
    offset = 0
    for i, s in enumerate(sentences):
        starts.append(offset)
        sent_dicts.append({
            "index": i, "start": offset, "end": offset + len(s),
            "tokens": _tokenize(s, offset),
        })
        offset += len(s) + 1

    ent_dicts = []
    for e in entities:
        pos = starts[e.sent] + _find(sentences[e.sent], e.sub, e.occ)
        d: dict = {"id": e.id, "start": pos, "end": pos + len(e.sub), "label": e.label}
        if e.grounding:
            d["grounding"] = e.grounding
        if e.mutations:
            d["mutations"] = e.mutations
        ent_dicts.append(d)

    ev_dicts = []
    for ev in events:
        pos = starts[ev.sent] + _find(sentences[ev.sent], ev.trigger, ev.occ)
        d = {
            "id": ev.id, "trigger_start": pos, "trigger_end": pos + len(ev.trigger),
            "type": ev.type,
        }
        if ev.polarity:
            d["polarity"] = ev.polarity
        d["args"] = [{"role": role, "ref": ref} for role, ref in ev.args]
        ev_dicts.append(d)

    return {
        "doc_id": doc_id, "text": text, "sentences": sent_dicts,
        "entities": ent_dicts, "events": ev_dicts,
    }


def _mut(kind: str, label: str | None = None) -> dict:
    d: dict = {"kind": kind}
    if label is not None:
        d["label"] = label
    return d


def corpus_documents() -> dict[str, dict]:
    """All corpus documents as wire-format dicts, keyed by doc id."""
    docs: dict[str, dict] = {}

    def add(doc: dict) -> None:
        docs[doc["doc_id"]] = doc

    gsk_sentence = ("We incubated GSK3β with excess Axin GBD protein to saturate "
                    "its binding to GSK3β.")
    add(_doc("ex1b_axin_gbd", [gsk_sentence],
             [Ent("T1", 0, "GSK3β", "Protein"),
              Ent("T2", 0, "Axin GBD", "Protein"),
              Ent("T3", 0, "its", "Protein"),
              Ent("T4", 0, "GSK3β", "Protein", occ=2)],
             [Ev("E1", 0, "binding", "Binding",
                 [("theme1", "T3"), ("theme2", "T4")])]))

    add(_doc("ex2b_pax8",
             ["The only previous study concerned the class II paired box gene Pax8 "
              "and its interaction with Smad3."],
             [Ent("T1", 0, "Pax8", "Gene"),
              Ent("T2", 0, "its", "Protein"),
              Ent("T3", 0, "Smad3", "Protein")],
             [Ev("E1", 0, "interaction", "Binding",
                 [("theme1", "T2"), ("theme2", "T3")])]))

    add(_doc("ex5_ras_binding",
             ["PIK3CA and BRAF are regulated by direct binding to activated forms "
              "of the Ras proteins."],
             [Ent("T1", 0, "PIK3CA", "Protein"),
              Ent("T2", 0, "BRAF", "Protein"),
              Ent("T3", 0, "Ras", "Protein")],
             [Ev("E1", 0, "binding", "Binding",
                 [("theme1", "T1"), ("theme1", "T2"), ("theme2", "T3")])]))

    add(_doc("ex6_ccbl_mlk3",
             ["While over-expressed c-Cbl stabilized activated MLK3, it suppressed "
              "its capacity to promote phosphorylation."],
             [Ent("T1", 0, "c-Cbl", "Protein"),
              Ent("T2", 0, "MLK3", "Protein"),
              Ent("T3", 0, "it", "Protein"),
              Ent("T4", 0, "its", "Protein")],
             [Ev("E1", 0, "suppressed", "Regulation",
                 [("controller", "T3"), ("controlled", "T4")], polarity="Negative")]))

    add(_doc("ex7_s34a_mutant",
             ["The anti-pSer34 antibody reacted with AATYK1A but not with the "
              "S34A mutant."],
             [Ent("T1", 0, "anti-pSer34 antibody", "Protein"),
              Ent("T2", 0, "AATYK1A", "Protein"),
              Ent("T3", 0, "the S34A mutant", "Protein",
                  mutations=[_mut("PointSubstitution", "S34A")])],
             [Ev("E1", 0, "reacted", "Binding",
                 [("theme1", "T1"), ("theme2", "T2")], polarity="Positive"),
              Ev("E2", 0, "reacted", "Binding",
                 [("theme1", "T1"), ("theme2", "T3")], polarity="Negative")]))

    add(_doc("ex8_k134a_mutant",
             ["We prepared recombinant H2AX-K134A.",
              "H2AX methylation was significantly diminished in the K134A mutant."],
             [Ent("T1", 0, "H2AX-K134A", "Protein",
                  mutations=[_mut("PointSubstitution", "K134A")]),
              Ent("T2", 1, "H2AX", "Protein"),
              Ent("T3", 1, "the K134A mutant", "Protein",
                  mutations=[_mut("PointSubstitution", "K134A")])],
             [Ev("E1", 1, "methylation", "Methylation", [("theme", "T2")]),
              Ev("E2", 1, "diminished", "Regulation",
                 [("controller", "T3"), ("controlled", "E1")], polarity="Negative")]))

    fgfr = "uniprot:P22607"
    add(_doc("ex9_fgfr3_mutants",
             ["Cells were transfected with N540K, G380R, R248C, Y373C, K650M and "
              "K650E-FGFR3 mutants.",
              "All six FGFR3 mutants induced ERK phosphorylation."],
             [Ent("T1", 0, "N540K", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "N540K")]),
              Ent("T2", 0, "G380R", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "G380R")]),
              Ent("T3", 0, "R248C", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "R248C")]),
              Ent("T4", 0, "Y373C", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "Y373C")]),
              Ent("T5", 0, "K650M", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "K650M")]),
              Ent("T6", 0, "K650E-FGFR3", "Protein", grounding=fgfr,
                  mutations=[_mut("PointSubstitution", "K650E")]),
              Ent("T7", 1, "All six FGFR3 mutants", "Protein",
                  mutations=[_mut("UnknownMutation")]),
              Ent("T8", 1, "ERK", "Protein")],
             [Ev("E1", 1, "phosphorylation", "Phosphorylation",
                 [("cause", "T7"), ("theme", "T8")])]))

    ex10 = _doc("ex10_gsk3b", [gsk_sentence],
                [Ent("T1", 0, "GSK3β", "Protein"),
                 Ent("T2", 0, "Axin GBD", "Protein"),
                 Ent("T3", 0, "its", "Protein"),
                 Ent("T4", 0, "GSK3β", "Protein", occ=2)],
                [Ev("E1", 0, "binding", "Binding",
                    [("theme1", "T3"), ("theme2", "T4")])])
    add(ex10)

    add(_doc("ex11_gsk3b_alias",
             ["Central to the hyperphosphorylation of Tau was the activation of "
              "GSK-3β (glycogen synthase kinase 3 beta).",
              "It phosphorylates GSK-3β."],
             [Ent("T1", 0, "Tau", "Protein"),
              Ent("T2", 0, "GSK-3β", "Protein"),
              Ent("T3", 0, "glycogen synthase kinase 3 beta", "Protein"),
              Ent("T4", 1, "It", "Protein"),
              Ent("T5", 1, "GSK-3β", "Protein")],
             [Ev("E1", 0, "hyperphosphorylation", "Phosphorylation", [("theme", "T1")]),
              Ev("E2", 0, "activation", "Activation", [("theme", "T2")]),
              Ev("E3", 1, "phosphorylates", "Phosphorylation",
                 [("cause", "T4"), ("theme", "T5")])]))

    add(_doc("ex12_foxp3",
             ["FOXP3 is an essential transcription factor; however, the mechanisms "
              "regulating its expression are as yet unknown."],
             [Ent("T1", 0, "FOXP3", "Protein"),
              Ent("T2", 0, "its", "Protein")],
             [Ev("E1", 0, "expression", "Expression", [("theme", "T2")])]))

    add(_doc("ex13_rb_e2f",
             ["Rb binds to E2F.",
              "The protein also inhibits the transactivation capacity of E2F."],
             [Ent("T1", 0, "Rb", "Protein"),
              Ent("T2", 0, "E2F", "Protein"),
              Ent("T3", 1, "The protein", "Protein"),
              Ent("T4", 1, "E2F", "Protein")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
              Ev("E2", 1, "inhibits", "Regulation",
                 [("controller", "T3"), ("controlled", "T4")], polarity="Negative")]))

    add(_doc("ex14_rsmads",
             ["The receptor Smads include Smad-1, Smad-5, and Smad-8.",
              "The R-Smads then form complexes with the co-Smad Smad4."],
             [Ent("T1", 0, "Smad-1", "Protein"),
              Ent("T2", 0, "Smad-5", "Protein"),
              Ent("T3", 0, "Smad-8", "Protein"),
              Ent("T4", 1, "The R-Smads", "Family"),
              Ent("T5", 1, "Smad4", "Protein")],
             [Ev("E1", 1, "complexes", "Binding",
                 [("theme1", "T4"), ("theme2", "T5")])]))

    add(_doc("ex16_baf_emerin",
             ["Endogenous BAF and emerin consistently co-peaked in their "
              "interaction with FLAG-CUL4A after UV-treatment."],
             [Ent("T1", 0, "BAF", "Protein"),
              Ent("T2", 0, "emerin", "Protein"),
              Ent("T3", 0, "their", "Protein"),
              Ent("T4", 0, "FLAG-CUL4A", "Protein")],
             [Ev("E1", 0, "interaction", "Binding",
                 [("theme1", "T3"), ("theme2", "T4")])]))

    add(_doc("ex18_ll37_igf1r",
             ["LL-37 forms a complex together with the IGF-1R in vitro.",
              "Importantly, this binding results in IGF-1R activation."],
             [Ent("T1", 0, "LL-37", "Protein"),
              Ent("T2", 0, "IGF-1R", "Protein"),
              Ent("T3", 1, "IGF-1R", "Protein")],
             [Ev("E1", 0, "complex", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
              Ev("E2", 1, "binding", "Binding", []),
              Ev("E3", 1, "activation", "Activation", [("theme", "T3")]),
              Ev("E4", 1, "results", "Regulation",
                 [("controller", "E2"), ("controlled", "E3")], polarity="Positive")]))

    add(_doc("ex20_enzyme_head",
             ["Nitric oxide binds to the enzyme guanylate cyclase.",
              "As a result, the enzyme becomes active."],
             [Ent("T1", 0, "Nitric oxide", "SimpleChemical"),
              Ent("T2", 0, "enzyme guanylate cyclase", "Protein"),
              Ent("T3", 1, "the enzyme", "Protein")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
              Ev("E2", 1, "active", "Activation", [("theme", "T3")])]))

    add(_doc("ex21_aspp2_head",
             ["A phosphorylated ASPP2 protein was purified.",
              "The phosphorylated protein binds p53."],
             [Ent("T1", 0, "phosphorylated ASPP2 protein", "Protein"),
              Ent("T2", 1, "The phosphorylated protein", "Protein"),
              Ent("T3", 1, "p53", "Protein")],
             [Ev("E1", 1, "binds", "Binding", [("theme1", "T2"), ("theme2", "T3")])]))

    add(_doc("ex22_aspp2_negative",
             ["A phosphorylated ASPP2 protein binds RAS.",
              "The activated ASPP2 interacts with p53."],
             [Ent("T1", 0, "phosphorylated ASPP2 protein", "Protein"),
              Ent("T2", 0, "RAS", "Protein"),
              Ent("T3", 1, "The activated ASPP2", "Protein"),
              Ent("T4", 1, "p53", "Protein")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]),
              Ev("E2", 1, "interacts", "Binding", [("theme1", "T3"), ("theme2", "T4")])]))

    add(_doc("ex23_ikb_negative",
             ["Two related kinases, IκB kinase α and IKKβ, "
              "phosphorylate the IκB proteins."],
             [Ent("T1", 0, "IκB kinase α", "Protein"),
              Ent("T2", 0, "IKKβ", "Protein"),
              Ent("T3", 0, "the IκB proteins", "Protein")],
             [Ev("E1", 0, "phosphorylate", "Phosphorylation",
                 [("cause", "T1"), ("theme", "T3")]),
              Ev("E2", 0, "phosphorylate", "Phosphorylation",
                 [("cause", "T2"), ("theme", "T3")])]))

    add(_doc("ex24_indefinite_negative",
             ["RAF1 activates MEK1.",
              "A kinase phosphorylates ERK2."],
             [Ent("T1", 0, "RAF1", "Protein"),
              Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 1, "A kinase", "Protein"),
              Ent("T4", 1, "ERK2", "Protein")],
             [Ev("E1", 0, "activates", "Activation",
                 [("controller", "T1"), ("theme", "T2")]),
              Ev("E2", 1, "phosphorylates", "Phosphorylation",
                 [("cause", "T3"), ("theme", "T4")])]))

    add(_doc("ex25_promotion_negative",
             ["MEK1 promotes ERK2 phosphorylation.",
              "The promotion was blocked by U0126."],
             [Ent("T1", 0, "MEK1", "Protein"),
              Ent("T2", 0, "ERK2", "Protein"),
              Ent("T3", 1, "U0126", "SimpleChemical")],
             [Ev("E1", 0, "phosphorylation", "Phosphorylation", [("theme", "T2")]),
              Ev("E2", 0, "promotes", "Regulation",
                 [("controller", "T1"), ("controlled", "E1")]),
              Ev("E3", 1, "promotion", "Regulation", []),
              Ev("E4", 1, "blocked", "Regulation",
                 [("controller", "T3"), ("controlled", "E3")], polarity="Negative")]))

    add(_doc("ex26_expletive",
             ["It is hypothesized that MEK1 binds ERK2."],
             [Ent("T1", 0, "It", "Protein"),
              Ent("T2", 0, "MEK1", "Protein"),
              Ent("T3", 0, "ERK2", "Protein")],
             [Ev("E1", 0, "binds", "Binding", [("theme1", "T2"), ("theme2", "T3")]),
              Ev("E2", 0, "hypothesized", "Regulation",
                 [("controller", "T1"), ("controlled", "E1")])]))

    add(_doc("ex27_truncation_mutant",
             ["RUFY1(1-420) was truncated from the C-terminus.",
              "The truncation mutant could not bind to Rab14."],
             [Ent("T1", 0, "RUFY1(1-420)", "Protein",
                  mutations=[_mut("Truncation", "1-420")]),
              Ent("T2", 1, "The truncation mutant", "Protein",
                  mutations=[_mut("Truncation")]),
              Ent("T3", 1, "Rab14", "Protein")],
             [Ev("E1", 1, "bind", "Binding",
                 [("theme1", "T2"), ("theme2", "T3")], polarity="Negative")]))

    return docs


def _ce(event_type: str, args: dict[str, str], coref: bool, polarity: str = "Unspecified") -> dict:
    return {"type": event_type, "args": args, "polarity": polarity, "coref": coref}


def corpus_manifest() -> dict:
    """Hand-checked expectations for every corpus document."""
    m: dict[str, dict] = {}

    m["ex1b_axin_gbd"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T2"], "sieve": "pronominal"}],
        "not_antecedents": {"T3": ["T1", "T4"]},
        "together": [["T1", "T4"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Binding", {"theme1": "T2", "theme2": "T4"}, True)],
    }
    m["ex2b_pax8"] = {
        "links": [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "pronominal"}],
        "not_antecedents": {"T2": ["T3"]},
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Binding", {"theme1": "T1", "theme2": "T3"}, True)],
    }
    m["ex5_ras_binding"] = {
        "links": [],
        "forbidden_pairs": [["T1", "T2"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T3"}, False),
            _ce("Binding", {"theme1": "T2", "theme2": "T3"}, False),
        ],
    }
    m["ex6_ccbl_mlk3"] = {
        "links": [
            {"anaphor": "T3", "antecedents": ["T1"], "sieve": "pronominal"},
            {"anaphor": "T4", "antecedents": ["T2"], "sieve": "pronominal"},
        ],
        "not_antecedents": {"T4": ["T1"]},
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Regulation", {"controller": "T1", "controlled": "T2"}, True, "Negative"),
        ],
    }
    m["ex7_s34a_mutant"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T2"], "sieve": "class_np"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T2"}, False, "Positive"),
            _ce("Binding", {"theme1": "T1", "theme2": "T2"}, True, "Negative"),
        ],
    }
    m["ex8_k134a_mutant"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T1"], "sieve": "class_np"}],
        "not_antecedents": {"T3": ["T2"]},
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Methylation", {"theme": "T2"}, False),
            _ce("Regulation", {"controller": "T1", "controlled": "E1"}, True, "Negative"),
        ],
    }
    m["ex9_fgfr3_mutants"] = {
        "links": [{"anaphor": "T7", "antecedents": ["T1", "T2", "T3", "T4", "T5", "T6"],
                   "sieve": "mutant_match"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Phosphorylation", {"cause": t, "theme": "T8"}, True)
            for t in ("T1", "T2", "T3", "T4", "T5", "T6")
        ],
    }
    m["ex10_gsk3b"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T2"], "sieve": "pronominal"}],
        "together": [["T1", "T4"]],
        "apart": [["T1", "T2"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Binding", {"theme1": "T2", "theme2": "T4"}, True)],
    }
    m["ex11_gsk3b_alias"] = {
        "links": [{"anaphor": "T4", "antecedents": ["T1"], "sieve": "pronominal"}],
        "not_antecedents": {"T4": ["T2", "T3", "T5"]},
        "together": [["T2", "T3", "T5"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Phosphorylation", {"theme": "T1"}, False),
            _ce("Activation", {"theme": "T2"}, False),
            _ce("Phosphorylation", {"cause": "T1", "theme": "T5"}, True),
        ],
    }
    m["ex12_foxp3"] = {
        "links": [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "pronominal"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Expression", {"theme": "T1"}, True)],
    }
    m["ex13_rb_e2f"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T1"], "sieve": "class_np"}],
        "not_antecedents": {"T3": ["T2", "T4"]},
        "together": [["T2", "T4"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T2"}, False),
            _ce("Regulation", {"controller": "T1", "controlled": "T4"}, True, "Negative"),
        ],
    }
    m["ex14_rsmads"] = {
        "links": [{"anaphor": "T4", "antecedents": ["T1", "T2", "T3"], "sieve": "class_np"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": t, "theme2": "T5"}, True)
            for t in ("T1", "T2", "T3")
        ],
    }
    m["ex16_baf_emerin"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T1", "T2"], "sieve": "pronominal"}],
        "not_antecedents": {"T3": ["T4"]},
        "forbidden_pairs": [["T1", "T2"]],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T4"}, True),
            _ce("Binding", {"theme1": "T2", "theme2": "T4"}, True),
        ],
    }
    m["ex18_ll37_igf1r"] = {
        "links": [{"anaphor": "E2", "antecedents": ["E1"], "sieve": "event_coref"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T2"}, False),
            _ce("Activation", {"theme": "T3"}, False),
            _ce("Regulation", {"controller": "E1", "controlled": "E3"}, True, "Positive"),
        ],
    }
    m["ex20_enzyme_head"] = {
        "links": [{"anaphor": "T3", "antecedents": ["T2"], "sieve": "strict_head"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Binding", {"theme1": "T1", "theme2": "T2"}, False),
            _ce("Activation", {"theme": "T2"}, True),
        ],
    }
    m["ex21_aspp2_head"] = {
        "links": [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "strict_head"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Binding", {"theme1": "T1", "theme2": "T3"}, True)],
    }
    m["ex22_aspp2_negative"] = {
        "links": [],
        "dropped_mentions": ["T3"], "dropped_events": ["E2"],
        "completed": [_ce("Binding", {"theme1": "T1", "theme2": "T2"}, False)],
    }
    m["ex23_ikb_negative"] = {
        "links": [],
        "dropped_mentions": ["T3"], "dropped_events": ["E1", "E2"],
        "completed": [],
    }
    m["ex24_indefinite_negative"] = {
        "links": [],
        "candidates": 0,
        "dropped_mentions": [], "dropped_events": [],
        "completed": [
            _ce("Activation", {"controller": "T1", "theme": "T2"}, False),
            _ce("Phosphorylation", {"cause": "T3", "theme": "T4"}, False),
        ],
    }
    m["ex25_promotion_negative"] = {
        "links": [],
        "dropped_mentions": [], "dropped_events": ["E3", "E4"],
        "completed": [
            _ce("Phosphorylation", {"theme": "T2"}, False),
            _ce("Regulation", {"controller": "T1", "controlled": "E1"}, False),
        ],
    }
    m["ex26_expletive"] = {
        "links": [],
        "dropped_mentions": ["T1"], "dropped_events": ["E2"],
        "completed": [_ce("Binding", {"theme1": "T2", "theme2": "T3"}, False)],
    }
    m["ex27_truncation_mutant"] = {
        "links": [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "class_np"}],
        "dropped_mentions": [], "dropped_events": [],
        "completed": [_ce("Binding", {"theme1": "T1", "theme2": "T3"}, True, "Negative")],
    }

    for doc_id, entry in m.items():
        entry["file"] = f"{doc_id}.json"
        entry["coref_events"] = sum(1 for c in entry["completed"] if c["coref"])
        entry["baseline_events"] = sum(1 for c in entry["completed"] if not c["coref"])
    return m


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def write_corpus(directory: str | Path) -> list[Path]:
    """Write all corpus documents plus manifest.json into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for doc_id, doc in sorted(corpus_documents().items()):
        path = directory / f"{doc_id}.json"
        path.write_bytes(_dump(doc))
        written.append(path)
    manifest_path = directory / "manifest.json"
    manifest_path.write_bytes(_dump(corpus_manifest()))
    written.append(manifest_path)
    return written


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python tests/fixture_corpus.py DIRECTORY")
    written = write_corpus(sys.argv[1])
    print(f"wrote {len(written)} files to {sys.argv[1]}", file=sys.stderr)
