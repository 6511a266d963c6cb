"""Seeded synthetic standoff documents for the benchmark.

Every document is built sentence by sentence from a small set of patterns,
and each pattern records what the resolver must do with it. Those
expectations follow from how the text was written, not from running the
program:

* ``event_coref``: "This binding results in X activation." links its nominal
  trigger to the complete "complex" Binding of the sentence before;
* ``mutant_match``: "The X mutant ..." links to exactly the spelled-out
  "<label>-X" mention of the sentence before;
* ``strict_head``: "The phosphorylated protein ..." links to the
  "phosphorylated X protein" mention of the sentence before;
* ``indefinite``: "A kinase" is never an anaphor and is never removed;
* ``self_binding``: "X binds X" never yields a completed event.

The generator uses only the standard library and the wire format, so the
inputs stay the same whatever happens to the package's own helpers.
"""

from __future__ import annotations

import json
import random
import re

PROTEINS = [
    "RAF1", "MEK1", "ERK2", "STAT3", "AKT1", "GSK3β", "BRAF", "JAK2",
    "FYN", "ABL1", "MDM2", "CCND1", "SMAD4", "PTEN", "EGFR", "NRAS",
    "MAPK1", "MAP2K1",
]
# Mentions of these surfaces carry a grounding ID; synonyms share one, so the
# shared_grounding sieve has work that exact_string cannot do.
GROUNDED = {
    "ERK2": "uniprot:P28482", "MAPK1": "uniprot:P28482",
    "MEK1": "uniprot:Q02750", "MAP2K1": "uniprot:Q02750",
}
FILLERS = [
    "The experiments were reproducible.",
    "Samples were incubated overnight.",
    "Lysates were analyzed afterwards.",
]
EXPECT_KINDS = ("event_coref", "mutant_match", "strict_head", "indefinite", "self_binding")

_MARK = re.compile(r"(\[[^\]]*\])")
_WORD = re.compile(r"\S+")
_POS_FOR = {"the": "DET", "this": "DET", "a": "DET",
            "it": "PRON", "its": "PRON", "they": "PRON", "both": "PRON"}


class _Doc:
    """Accumulates text, segmentation, mentions and expectations."""

    def __init__(self, doc_id: str, rng: random.Random) -> None:
        self.doc_id = doc_id
        self.rng = rng
        self.parts: list[str] = []
        self.length = 0
        self.sentences: list[dict] = []
        self.entities: list[dict] = []
        self.events: list[dict] = []
        self.expect: dict[str, list] = {k: [] for k in EXPECT_KINDS}

    def sentence(self, marked: str) -> list[tuple[int, int]]:
        """Append a sentence; bracketed pieces are returned as character spans."""
        if self.parts:
            self.parts.append(" ")
            self.length += 1
        start = self.length
        spans = []
        text = ""
        for piece in _MARK.split(marked):
            if piece.startswith("["):
                piece = piece[1:-1]
                spans.append((start + len(text), start + len(text) + len(piece)))
            text += piece
        tokens = []
        for m in _WORD.finditer(text):
            word = m.group().rstrip(".,;:!?")
            if word:
                tokens.append({"start": start + m.start(), "end": start + m.start() + len(word)})
        self.sentences.append({"index": len(self.sentences), "start": start,
                               "end": start + len(text), "tokens": tokens})
        self.parts.append(text)
        self.length += len(text)
        return spans

    def entity(self, span: tuple[int, int], surface: str, label: str = "Protein",
               mutations: list[dict] | None = None) -> str:
        ent_id = f"T{len(self.entities) + 1}"
        d: dict = {"id": ent_id, "start": span[0], "end": span[1], "label": label}
        if surface in GROUNDED:
            d["grounding"] = GROUNDED[surface]
        if mutations:
            d["mutations"] = mutations
        self.entities.append(d)
        return ent_id

    def event(self, span: tuple[int, int], event_type: str, args: list[tuple[str, str]]) -> str:
        ev_id = f"E{len(self.events) + 1}"
        self.events.append({"id": ev_id, "trigger_start": span[0], "trigger_end": span[1],
                            "type": event_type,
                            "args": [{"role": r, "ref": ref} for r, ref in args]})
        return ev_id

    def protein(self) -> str:
        return self.rng.choice(PROTEINS)

    def to_dict(self) -> dict:
        text = "".join(self.parts)
        if self.rng.random() < 0.3:
            for sent in self.sentences:
                for tok in sent["tokens"]:
                    if self.rng.random() < 0.5:
                        word = text[tok["start"]:tok["end"]].lower()
                        tok["pos"] = _POS_FOR.get(word, self.rng.choice(["NOUN", "OTHER"]))
        return {"doc_id": self.doc_id, "text": text, "sentences": self.sentences,
                "entities": self.entities, "events": self.events}


def _phos(d: _Doc) -> None:
    p1, p2 = d.rng.sample(PROTEINS, 2)
    a, trig, b = d.sentence(f"[{p1}] [phosphorylates] [{p2}].")
    t1, t2 = d.entity(a, p1), d.entity(b, p2)
    d.event(trig, "Phosphorylation", [("cause", t1), ("theme", t2)])


def _bind(d: _Doc) -> None:
    p1, p2 = d.protein(), d.protein()
    a, trig, b = d.sentence(f"[{p1}] [binds] [{p2}] in cells.")
    t1, t2 = d.entity(a, p1), d.entity(b, p2)
    ev = d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)])
    if p1 == p2:
        d.expect["self_binding"].append(ev)


def _conj_bind(d: _Doc) -> None:
    p1, p2, p3 = d.rng.sample(PROTEINS, 3)
    a, b, trig, c = d.sentence(f"[{p1}] and [{p2}] [bind] [{p3}].")
    t1, t2, t3 = d.entity(a, p1), d.entity(b, p2), d.entity(c, p3)
    d.event(trig, "Binding", [("theme1", t1), ("theme1", t2), ("theme2", t3)])


def _pronoun(d: _Doc) -> None:
    p = d.protein()
    a, trig, b = d.sentence(f"[It] [phosphorylates] [{p}].")
    t1, t2 = d.entity(a, "It"), d.entity(b, p)
    d.event(trig, "Phosphorylation", [("cause", t1), ("theme", t2)])


def _its(d: _Doc) -> None:
    p = d.protein()
    a, trig, b = d.sentence(f"Researchers observed [its] [binding] to [{p}].")
    t1, t2 = d.entity(a, "its"), d.entity(b, p)
    d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)])


def _plural(d: _Doc) -> None:
    p = d.protein()
    word = d.rng.choice(["They", "Both"])
    a, trig, b = d.sentence(f"[{word}] [bind] [{p}] strongly.")
    t1, t2 = d.entity(a, word), d.entity(b, p)
    d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)])


def _class_np(d: _Doc) -> None:
    p = d.protein()
    noun = d.rng.choice(["protein", "kinase", "enzyme"])
    a, trig, b = d.sentence(f"[The {noun}] [binds] [{p}].")
    t1, t2 = d.entity(a, f"The {noun}"), d.entity(b, p)
    d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)])


def _self_bind(d: _Doc) -> None:
    p = d.protein()
    a, trig, b = d.sentence(f"[{p}] [binds] [{p}] directly.")
    t1, t2 = d.entity(a, p), d.entity(b, p)
    d.expect["self_binding"].append(d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)]))


def _indefinite(d: _Doc) -> None:
    p = d.protein()
    a, trig, b = d.sentence(f"[A kinase] [phosphorylates] [{p}].")
    t1, t2 = d.entity(a, "A kinase"), d.entity(b, p)
    d.expect["indefinite"].append(t1)
    d.event(trig, "Phosphorylation", [("cause", t1), ("theme", t2)])


def _filler(d: _Doc) -> None:
    d.sentence(d.rng.choice(FILLERS))


def _mutant(d: _Doc) -> None:
    p = d.protein()
    label = f"{d.rng.choice('KSTY')}{d.rng.randint(10, 99)}{d.rng.choice('AEF')}"
    (m,) = d.sentence(f"Cells expressed [{label}-{p}] protein.")
    spelled = d.entity(m, f"{label}-{p}",
                       mutations=[{"kind": "PointSubstitution", "label": label}])
    p2 = d.protein()
    a, trig, b = d.sentence(f"[The {p} mutant] [binds] [{p2}].")
    anaphor = d.entity(a, f"The {p} mutant", mutations=[{"kind": "UnknownMutation"}])
    t2 = d.entity(b, p2)
    d.event(trig, "Binding", [("theme1", anaphor), ("theme2", t2)])
    d.expect["mutant_match"].append((anaphor, spelled))


def _nominal_event(d: _Doc) -> None:
    p1, p2, p3 = d.rng.sample(PROTEINS, 3)
    a, trig, b = d.sentence(f"[{p1}] forms a [complex] with [{p2}].")
    t1, t2 = d.entity(a, p1), d.entity(b, p2)
    binding = d.event(trig, "Binding", [("theme1", t1), ("theme2", t2)])
    nominal, result, c, act = d.sentence(f"This [binding] [results] in [{p3}] [activation].")
    t3 = d.entity(c, p3)
    e2 = d.event(nominal, "Binding", [])
    e3 = d.event(act, "Activation", [("theme", t3)])
    d.event(result, "Regulation", [("controller", e2), ("controlled", e3)])
    d.expect["event_coref"].append((e2, binding))


def _strict_head(d: _Doc) -> None:
    p, p2 = d.protein(), d.protein()
    (m,) = d.sentence(f"Cells expressed [phosphorylated {p} protein] at high levels.")
    full = d.entity(m, f"phosphorylated {p} protein")
    a, trig, b = d.sentence(f"[The phosphorylated protein] [binds] [{p2}].")
    anaphor = d.entity(a, "The phosphorylated protein")
    t2 = d.entity(b, p2)
    d.event(trig, "Binding", [("theme1", anaphor), ("theme2", t2)])
    d.expect["strict_head"].append((anaphor, full))


ONE_SENTENCE = [_phos, _bind, _conj_bind, _pronoun, _its, _plural, _class_np,
                _self_bind, _indefinite, _filler]
TWO_SENTENCE = [_mutant, _nominal_event, _strict_head]


def build_doc(rng: random.Random, doc_id: str, n_sentences: int) -> tuple[dict, dict]:
    """One valid wire-format document of exactly ``n_sentences`` sentences,
    with its expectations."""
    d = _Doc(doc_id, rng)
    while len(d.sentences) < n_sentences:
        if n_sentences - len(d.sentences) >= 2 and rng.random() < 0.25:
            rng.choice(TWO_SENTENCE)(d)
        else:
            rng.choice(ONE_SENTENCE)(d)
    return d.to_dict(), d.expect


def small_docs(seed: int, count: int) -> list[tuple[dict, dict]]:
    """``count`` documents of 1 to 4 sentences each."""
    rng = random.Random(seed)
    return [build_doc(rng, f"d{i:05d}", rng.randint(1, 4)) for i in range(count)]


def long_docs(seed: int, sizes: tuple[int, ...], copies: int) -> list[tuple[dict, dict]]:
    """``copies`` documents per sentence count in ``sizes``."""
    rng = random.Random(seed)
    return [build_doc(rng, f"long{n:05d}-{k}", n) for n in sizes for k in range(copies)]


def encode(doc: dict) -> bytes:
    """One document as a single line of UTF-8 JSON."""
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")
