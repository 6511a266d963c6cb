"""Anaphor candidate detection.

Only mentions that take part in biochemical events are considered: entity
anaphors must be arguments of an extracted event, nominal event anaphors must
be incomplete event mentions serving as regulation arguments, and mutant noun
phrases are picked up wherever they occur. Everything else is ignored.

Detection casts a wide net on purpose. Harmless candidates (an expletive
"it", a first-mention definite NP) are emitted anyway; the sieve constraints
keep them from resolving and cleanup removes them afterwards.
"""

from __future__ import annotations

import json
import os
import re
from functools import cache
from typing import NamedTuple

from .index import DocIndex
from .model import (
    Document,
    EntityMention,
    MalformedInput,
    POINT_SUBSTITUTION_RE,
    SchemaViolation,
    Token,
)
from .schema import ArgSchema

# Pronoun / class-NP / mutant-NP / nominal-event anaphor kinds.
PRONOUN = "Pronoun"
CLASS_NP = "ClassNP"
MUTANT_NP = "MutantNP"
NOMINAL_EVENT = "NominalEvent"

# Mutant NP sub-kinds and where they are routed.
GENERIC_MUTANT = "GenericMutant"    # "the deletion mutant"  -> class-NP sieve
MUTATION_ONLY = "MutationOnly"      # "the K134A mutant"     -> class-NP sieve
PROTEIN_ONLY = "ProteinOnly"        # "all six FGFR3 mutants" -> mutant-match sieve

DEFINITE_DETERMINERS = frozenset({"the", "this", "that", "these", "those"})

NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}

_UPPER_OR_DIGIT = re.compile(r"[A-Z0-9]")


class Cardinality(NamedTuple):
    """How many antecedents an anaphor demands: One, AtLeastTwo, or Exactly(n)."""

    kind: str
    n: int = 1

    @classmethod
    def one(cls) -> "Cardinality":
        return cls("One", 1)

    @classmethod
    def at_least_two(cls) -> "Cardinality":
        return cls("AtLeastTwo", 2)

    @classmethod
    def exactly(cls, n: int) -> "Cardinality":
        return cls("Exactly", n)


class AnaphorCandidate(NamedTuple):
    mention_id: str
    kind: str
    start: int
    end: int
    surface: str
    cardinality: Cardinality
    target_class: str | None = None          # entity class or event type demanded
    mutant_subkind: str | None = None
    mutant_payload: str | None = None        # mutation label or protein surface
    hosts: tuple[tuple[str, str], ...] = ()  # (event id, role) pairs this anaphor fills


class TriggerDictionary(NamedTuple):
    """Closed-word lexicons driving detection.

    ``event_triggers`` maps nominal trigger nouns to event types,
    ``class_lexicon`` maps class nouns to entity classes, ``pronouns`` maps
    pronoun surfaces to their number, and mutant nouns mark mutant NPs.
    All lexicons are disjoint from the stopword list.
    """

    event_triggers: dict[str, str]
    class_lexicon: dict[str, str]
    pronouns: dict[str, Cardinality]
    mutant_nouns: frozenset[str]
    mutation_kind_nouns: frozenset[str]
    stopwords: frozenset[str]

    def is_stopword(self, word: str) -> bool:
        return word.lower() in self.stopwords


def load_lexicon(data: bytes | str) -> TriggerDictionary:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"lexicon config: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaViolation("lexicon config: top level must be an object")
    for key in ("event_triggers", "class_lexicon", "pronouns"):
        if not isinstance(raw.setdefault(key, {}), dict):
            raise SchemaViolation(f"lexicon config: {key} must be an object")
    for key in ("mutant_nouns", "mutation_kind_nouns", "stopwords"):
        words = raw.setdefault(key, [])
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise SchemaViolation(f"lexicon config: {key} must be a list of strings")
    pronouns = {}
    for surface, number in raw["pronouns"].items():
        if number == "One":
            pronouns[surface.lower()] = Cardinality.one()
        elif number == "AtLeastTwo":
            pronouns[surface.lower()] = Cardinality.at_least_two()
        else:
            raise SchemaViolation(f"lexicon config: pronoun {surface!r} has bad number {number!r}")
    for key in ("event_triggers", "class_lexicon"):
        for word, value in raw[key].items():
            if not isinstance(value, str):
                raise SchemaViolation(f"lexicon config: {key} entry {word!r} must be a string")
    lex = TriggerDictionary(
        event_triggers={k.lower(): v for k, v in raw["event_triggers"].items()},
        class_lexicon={k.lower(): v for k, v in raw["class_lexicon"].items()},
        pronouns=pronouns,
        mutant_nouns=frozenset(w.lower() for w in raw["mutant_nouns"]),
        mutation_kind_nouns=frozenset(w.lower() for w in raw["mutation_kind_nouns"]),
        stopwords=frozenset(w.lower() for w in raw["stopwords"]),
    )
    overlap = lex.stopwords & (
        set(lex.event_triggers) | set(lex.class_lexicon) | set(lex.pronouns) | set(lex.mutant_nouns)
    )
    if overlap:
        raise SchemaViolation(f"lexicon config: stopwords overlap lexicon entries {sorted(overlap)}")
    return lex


def load_lexicon_file(path) -> TriggerDictionary:
    with open(path, "rb") as fh:
        return load_lexicon(fh.read())


@cache
def default_lexicon() -> TriggerDictionary:
    return load_lexicon_file(os.path.join(os.path.dirname(__file__), "data", "lexicon.json"))


def _is_plural_noun(word: str) -> bool:
    # Crude but adequate for periphrastic NPs: long lowercase-final s-forms.
    return len(word) >= 5 and word.endswith("s") and not word.endswith("ss") and word[-2].islower()


def cardinality_of(tokens: list[Token] | list[str], lex: TriggerDictionary) -> Cardinality:
    """Number demanded by a candidate span.

    Singular pronouns give One, plural pronouns AtLeastTwo, and an explicit
    numeral anywhere in the span pins the count exactly.
    """
    words = [t.surface if isinstance(t, Token) else t for t in tokens]
    if len(words) == 1 and words[0].lower() in lex.pronouns:
        return lex.pronouns[words[0].lower()]
    for w in words:
        lw = w.lower()
        if lw in NUMBER_WORDS:
            return Cardinality.exactly(NUMBER_WORDS[lw])
        if lw.isdigit():
            return Cardinality.exactly(int(lw))
    head = _head_word(words, lex)
    if head is not None and _is_plural_noun(head.lower()):
        return Cardinality.at_least_two()
    return Cardinality.one()


def _head_word(words: list[str], lex: TriggerDictionary) -> str | None:
    """Rightmost non-stopword of the NP; word order stands in for structure."""
    for w in reversed(words):
        if not lex.is_stopword(w):
            return w
    return None


def classify_mutant_np(tokens: list[Token] | list[str], lex: TriggerDictionary
                       ) -> tuple[str, str | None, Cardinality] | None:
    """Classify a mutant shorthand NP into its resolution route.

    Returns (subkind, payload, cardinality) or None for non-mutant spans.
    A mutation label like K134A makes it MutationOnly; a remaining protein
    token (uppercase or digit bearing) makes it ProteinOnly; otherwise the
    span only asserts that some mutant is meant (GenericMutant).
    """
    words = [t.surface if isinstance(t, Token) else t for t in tokens]
    lowered = [w.lower() for w in words]
    if not any(w in lex.mutant_nouns for w in lowered):
        return None
    card = cardinality_of(words, lex)
    for w in words:
        if POINT_SUBSTITUTION_RE.match(w):
            return MUTATION_ONLY, w, card
    for w, lw in zip(words, lowered):
        if lw in lex.mutant_nouns or lw in lex.mutation_kind_nouns:
            continue
        if lex.is_stopword(lw) or lw in DEFINITE_DETERMINERS or lw in NUMBER_WORDS or lw.isdigit():
            continue
        if _UPPER_OR_DIGIT.search(w):
            return PROTEIN_ONLY, w, card
    return GENERIC_MUTANT, None, card


def detect_candidates(doc: Document, lex: TriggerDictionary, schema: ArgSchema,
                      index: DocIndex | None = None) -> list[AnaphorCandidate]:
    """Scan a document for anaphoric candidates, ordered by character offset.

    Emitted are: pronoun and definite-NP entity mentions that fill an event
    argument, mutant NPs, and definite nominal triggers of incomplete events
    that are regulation arguments. Indefinite NPs never qualify.
    """
    if index is None:
        index = DocIndex(doc, schema)

    hosts: dict[str, list[tuple[str, str]]] = {}
    for ev in index.events:
        for arg in ev.args:
            hosts.setdefault(arg.ref, []).append((ev.id, arg.role))

    out: dict[str, AnaphorCandidate] = {}

    for ent in index.entities:
        cand = _classify_entity(ent, hosts.get(ent.id, []), index, lex)
        if cand is not None:
            out[cand.mention_id] = cand

    regulation_types = schema.regulation_types
    for ev in index.events:
        if ev.id in index.complete or ev.id not in hosts:
            continue
        if not any(index.by_id[h].event_type in regulation_types for h, _ in hosts[ev.id]):
            continue
        trigger_tokens = index.tokens_in(ev.trigger_start, ev.trigger_end)
        if not trigger_tokens:
            continue
        trigger_word = trigger_tokens[-1].surface.lower()
        if lex.event_triggers.get(trigger_word) != ev.event_type:
            continue
        det = index.token_before(ev.trigger_start)
        if det is None or det.surface.lower() not in DEFINITE_DETERMINERS:
            continue
        out[ev.id] = AnaphorCandidate(
            mention_id=ev.id,
            kind=NOMINAL_EVENT,
            start=det.start,
            end=ev.trigger_end,
            surface=doc.text[det.start:ev.trigger_end],
            cardinality=Cardinality.one(),
            target_class=ev.event_type,
            hosts=tuple(sorted(hosts[ev.id])),
        )

    return sorted(out.values(), key=lambda c: (c.start, c.end, c.mention_id))


def _classify_entity(ent: EntityMention, ent_hosts: list[tuple[str, str]],
                     index: DocIndex, lex: TriggerDictionary) -> AnaphorCandidate | None:
    tokens = index.tokens_in(ent.start, ent.end)
    if not tokens:
        return None
    words = [t.surface for t in tokens]
    host_key = tuple(sorted(ent_hosts))

    if len(words) == 1 and words[0].lower() in lex.pronouns:
        if not ent_hosts:
            return None
        return AnaphorCandidate(
            mention_id=ent.id, kind=PRONOUN, start=ent.start, end=ent.end,
            surface=ent.surface, cardinality=lex.pronouns[words[0].lower()],
            hosts=host_key,
        )

    mutant = classify_mutant_np(tokens, lex)
    if mutant is not None:
        subkind, payload, card = mutant
        return AnaphorCandidate(
            mention_id=ent.id, kind=MUTANT_NP, start=ent.start, end=ent.end,
            surface=ent.surface, cardinality=card, target_class="Protein",
            mutant_subkind=subkind, mutant_payload=payload, hosts=host_key,
        )

    if not ent_hosts:
        return None
    if len(words) < 2 or words[0].lower() not in DEFINITE_DETERMINERS:
        return None
    head = _head_word(words, lex)
    target = lex.class_lexicon.get(head.lower()) if head else None
    if target is None and ent.label == "Family":
        # A definite family NP stands for its member proteins.
        target = "Protein"
    return AnaphorCandidate(
        mention_id=ent.id, kind=CLASS_NP, start=ent.start, end=ent.end,
        surface=ent.surface, cardinality=cardinality_of(words, lex),
        target_class=target, hosts=host_key,
    )
