"""Seeded random generator of valid standoff documents for property tests."""

from __future__ import annotations

import random

from fixture_corpus import Ent, Ev, _doc, _mut

PROTEINS = [
    "RAF1", "MEK1", "ERK2", "STAT3", "AKT1", "GSK3B", "BRAF", "JAK2",
    "FYN", "ABL1", "MDM2", "CCND1", "SMAD4", "PTEN", "EGFR", "NRAS",
]
CHEMICALS = ["ATP", "GTP", "U0126", "rapamycin"]
COMPONENTS = ["nucleus", "cytoplasm", "membrane"]

_POS_FOR = {
    "the": "DET", "this": "DET", "a": "DET",
    "it": "PRON", "its": "PRON", "they": "PRON", "both": "PRON",
}


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.sentences: list[str] = []
        self.entities: list[Ent] = []
        self.events: list[Ev] = []
        self._t = 0
        self._e = 0

    def tid(self) -> str:
        self._t += 1
        return f"T{self._t}"

    def eid(self) -> str:
        self._e += 1
        return f"E{self._e}"

    def protein(self) -> str:
        return self.rng.choice(PROTEINS)

    def add(self, text: str, ents: list[Ent], evs: list[Ev]) -> None:
        self.sentences.append(text)
        self.entities.extend(ents)
        self.events.extend(evs)


def _pattern_phos(b: _Builder, s: int) -> None:
    p1, p2 = b.protein(), b.protein()
    while p2 == p1:
        p2 = b.rng.choice(PROTEINS)
    t1, t2 = b.tid(), b.tid()
    b.add(f"{p1} phosphorylates {p2}.",
          [Ent(t1, s, p1, "Protein"), Ent(t2, s, p2, "Protein")],
          [Ev(b.eid(), s, "phosphorylates", "Phosphorylation",
              [("cause", t1), ("theme", t2)])])


def _pattern_bind(b: _Builder, s: int) -> None:
    p1, p2 = b.protein(), b.protein()
    t1, t2 = b.tid(), b.tid()
    occ2 = 2 if p2 == p1 else 1
    b.add(f"{p1} binds {p2} in cells.",
          [Ent(t1, s, p1, "Protein"), Ent(t2, s, p2, "Protein", occ=occ2)],
          [Ev(b.eid(), s, "binds", "Binding", [("theme1", t1), ("theme2", t2)])])


def _pattern_conj_bind(b: _Builder, s: int) -> None:
    names = b.rng.sample(PROTEINS, 3)
    t1, t2, t3 = b.tid(), b.tid(), b.tid()
    b.add(f"{names[0]} and {names[1]} bind {names[2]}.",
          [Ent(t1, s, names[0], "Protein"), Ent(t2, s, names[1], "Protein"),
           Ent(t3, s, names[2], "Protein")],
          [Ev(b.eid(), s, "bind", "Binding",
              [("theme1", t1), ("theme1", t2), ("theme2", t3)])])


def _pattern_pronoun(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    b.add(f"It phosphorylates {p}.",
          [Ent(t1, s, "It", "Protein"), Ent(t2, s, p, "Protein")],
          [Ev(b.eid(), s, "phosphorylates", "Phosphorylation",
              [("cause", t1), ("theme", t2)])])


def _pattern_its(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    b.add(f"Researchers observed its binding to {p}.",
          [Ent(t1, s, "its", "Protein"), Ent(t2, s, p, "Protein")],
          [Ev(b.eid(), s, "binding", "Binding", [("theme1", t1), ("theme2", t2)])])


def _pattern_plural(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    word = b.rng.choice(["They", "Both"])
    b.add(f"{word} bind {p} strongly.",
          [Ent(t1, s, word, "Protein"), Ent(t2, s, p, "Protein")],
          [Ev(b.eid(), s, "bind", "Binding", [("theme1", t1), ("theme2", t2)])])


def _pattern_class_np(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    noun = b.rng.choice(["protein", "kinase", "enzyme"])
    b.add(f"The {noun} binds {p}.",
          [Ent(t1, s, f"The {noun}", "Protein"), Ent(t2, s, p, "Protein")],
          [Ev(b.eid(), s, "binds", "Binding", [("theme1", t1), ("theme2", t2)])])


def _pattern_self_bind(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    b.add(f"{p} binds {p} directly.",
          [Ent(t1, s, p, "Protein"), Ent(t2, s, p, "Protein", occ=2)],
          [Ev(b.eid(), s, "binds", "Binding", [("theme1", t1), ("theme2", t2)])])


def _pattern_indefinite(b: _Builder, s: int) -> None:
    p = b.protein()
    t1, t2 = b.tid(), b.tid()
    b.add(f"A kinase phosphorylates {p}.",
          [Ent(t1, s, "A kinase", "Protein"), Ent(t2, s, p, "Protein")],
          [Ev(b.eid(), s, "phosphorylates", "Phosphorylation",
              [("cause", t1), ("theme", t2)])])


def _pattern_mutant(b: _Builder, s: int) -> None:
    p = b.protein()
    label = f"{b.rng.choice('KSTY')}{b.rng.randint(10, 99)}{b.rng.choice('AEF')}"
    t1 = b.tid()
    b.add(f"Cells expressed {label}-{p} protein.",
          [Ent(t1, s, f"{label}-{p}", "Protein",
               mutations=[_mut("PointSubstitution", label)])],
          [])
    t2, t3 = b.tid(), b.tid()
    p2 = b.protein()
    occ2 = 2 if p2 == p else 1
    b.add(f"The {p} mutant binds {p2}.",
          [Ent(t2, s + 1, f"The {p} mutant", "Protein",
               mutations=[_mut("UnknownMutation")]),
           Ent(t3, s + 1, p2, "Protein", occ=occ2)],
          [Ev(b.eid(), s + 1, "binds", "Binding", [("theme1", t2), ("theme2", t3)])])


def _pattern_nominal_event(b: _Builder, s: int) -> None:
    p1, p2, p3 = (b.rng.sample(PROTEINS, 3))
    t1, t2, t3 = b.tid(), b.tid(), b.tid()
    e1 = b.eid()
    b.add(f"{p1} forms a complex with {p2}.",
          [Ent(t1, s, p1, "Protein"), Ent(t2, s, p2, "Protein")],
          [Ev(e1, s, "complex", "Binding", [("theme1", t1), ("theme2", t2)])])
    e2, e3, e4 = b.eid(), b.eid(), b.eid()
    b.add(f"This binding results in {p3} activation.",
          [Ent(t3, s + 1, p3, "Protein")],
          [Ev(e2, s + 1, "binding", "Binding", []),
           Ev(e3, s + 1, "activation", "Activation", [("theme", t3)]),
           Ev(e4, s + 1, "results", "Regulation",
              [("controller", e2), ("controlled", e3)])])


def _pattern_filler(b: _Builder, s: int) -> None:
    b.add(b.rng.choice([
        "The experiments were reproducible.",
        "Samples were incubated overnight.",
        "Lysates were analyzed afterwards.",
    ]), [], [])


_ONE_SENTENCE = [
    _pattern_phos, _pattern_bind, _pattern_conj_bind, _pattern_pronoun,
    _pattern_its, _pattern_plural, _pattern_class_np, _pattern_self_bind,
    _pattern_indefinite, _pattern_filler,
]
_TWO_SENTENCE = [_pattern_mutant, _pattern_nominal_event]


def synth_doc(rng: random.Random, idx: int, sentences: int | None = None) -> dict:
    """One random valid wire-format document of ``sentences`` sentences, or of
    1 to 4 when not given."""
    b = _Builder(rng)
    target = rng.randint(1, 4) if sentences is None else sentences
    while len(b.sentences) < target:
        s = len(b.sentences)
        if target - s >= 2 and rng.random() < 0.25:
            rng.choice(_TWO_SENTENCE)(b, s)
        else:
            rng.choice(_ONE_SENTENCE)(b, s)
    doc = _doc(f"synth{idx:04d}", b.sentences, b.entities, b.events)
    _sprinkle_pos(rng, doc)
    return doc


def _sprinkle_pos(rng: random.Random, doc: dict) -> None:
    if rng.random() > 0.3:
        return
    text = doc["text"]
    for sent in doc["sentences"]:
        for tok in sent["tokens"]:
            if rng.random() < 0.5:
                surface = text[tok["start"]:tok["end"]].lower()
                tok["pos"] = _POS_FOR.get(surface, rng.choice(["NOUN", "OTHER"]))


def synth_corpus(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [synth_doc(rng, i) for i in range(count)]


def regulation_chain(levels: int, antecedent: bool = True) -> dict:
    """A regulation nested ``levels`` deep, listed outermost first.

    "The binding activates STAT3." is level 1: an incomplete nominal binding
    event controls STAT3. Each further sentence "AKT1 regulates this."
    regulates the level below it. With ``antecedent`` the document opens
    with "RAF1 binds MEK1.", which the nominal binding resolves to; without
    it the binding finds no antecedent, and cleanup removes every level.
    """
    sentences, entities, events = [], [], []
    if antecedent:
        sentences.append("RAF1 binds MEK1.")
        entities += [Ent("T1", 0, "RAF1", "Protein"), Ent("T2", 0, "MEK1", "Protein")]
        events.append(Ev("B1", 0, "binds", "Binding", [("theme1", "T1"), ("theme2", "T2")]))
    s = len(sentences)
    sentences.append("The binding activates STAT3.")
    entities.append(Ent("S1", s, "STAT3", "Protein"))
    events += [Ev("B2", s, "binding", "Binding", []),
               Ev("R1", s, "activates", "Regulation", [("controller", "B2"), ("controlled", "S1")])]
    for level in range(2, levels + 1):
        s = len(sentences)
        sentences.append("AKT1 regulates this.")
        entities.append(Ent(f"A{level}", s, "AKT1", "Protein"))
        events.append(Ev(f"R{level}", s, "regulates", "Regulation",
                         [("controller", f"A{level}"), ("controlled", f"R{level - 1}")]))
    events.reverse()
    return _doc(f"chain{levels}", sentences, entities, events)
