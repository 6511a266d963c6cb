"""Document and mention data model for standoff-annotated biomedical text.

All offsets are character offsets into the Unicode document text, never byte
offsets; multi-byte characters such as Greek letters count as one position.
Documents are immutable after construction and safe to share across threads.

Every record here is a ``typing.NamedTuple``: assigning a field raises
AttributeError, and ``_replace`` returns a changed copy. Being tuples, records
also index, iterate and compare equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

ENTITY_CLASSES = frozenset({
    "Protein",
    "Gene",
    "GeneOrGeneProduct",
    "Family",
    "SimpleChemical",
    "CellularComponent",
    "Site",
})

MUTATION_KINDS = frozenset({
    "PointSubstitution",
    "Deletion",
    "Truncation",
    "Insertion",
    "UnknownMutation",
})

POLARITIES = frozenset({"Positive", "Negative", "Unspecified"})

POS_HINTS = frozenset({"DET", "PRON", "NOUN", "OTHER"})

# Point substitutions are written as reference residue, position, new residue.
POINT_SUBSTITUTION_RE = re.compile(r"^[A-Z]\d+[A-Z]$")


class MalformedInput(ValueError):
    """Raised when input bytes are not parseable as a document at all."""


class SchemaViolation(ValueError):
    """Raised when parseable input violates the document schema.

    The message always names the offending ID or character offset.
    """


class Token(NamedTuple):
    start: int
    end: int
    surface: str
    pos_hint: str | None = None


class Sentence(NamedTuple):
    index: int
    start: int
    end: int
    tokens: tuple[Token, ...] = ()


class MutationRecord(NamedTuple):
    kind: str
    label: str | None = None

    @property
    def specified(self) -> bool:
        """True when the mutation identity is spelled out (a label exists)."""
        return self.label is not None


class EntityMention(NamedTuple):
    id: str
    start: int
    end: int
    label: str
    surface: str
    grounding_id: str | None = None
    mutations: tuple[MutationRecord, ...] = ()


class EventArg(NamedTuple):
    role: str
    ref: str


class EventMention(NamedTuple):
    id: str
    trigger_start: int
    trigger_end: int
    event_type: str
    args: tuple[EventArg, ...] = ()
    polarity: str = "Unspecified"


class CorefLink(NamedTuple):
    """One anaphor resolved to an ordered, non-empty list of antecedents.

    Every antecedent starts strictly before the anaphor: the resolver never
    links forward in the text.
    """

    anaphor_id: str
    antecedent_ids: tuple[str, ...]
    sieve_name: str


class CompletedEvent(NamedTuple):
    """A fully specified event emitted after substitution and splitting."""

    id: str
    trigger_start: int
    trigger_end: int
    event_type: str
    args: tuple[EventArg, ...]
    polarity: str
    derived_from: str
    provenance: tuple[str, ...] = ()


class Document(NamedTuple):
    doc_id: str
    text: str
    sentences: tuple[Sentence, ...] = ()
    entities: tuple[EntityMention, ...] = ()
    events: tuple[EventMention, ...] = ()


def validate_document(doc: Document, event_types: frozenset[str] | None) -> None:
    """Check every document invariant, raising SchemaViolation on the first failure.

    ``event_types`` is the configured inventory, so unknown types are rejected
    at the boundary; None checks none. Surfaces are not compared with the text: the loader
    slices each from the text, an entity's only once its span is in bounds.
    """
    text_len = len(doc.text)
    prev_end = 0
    for i, sent in enumerate(doc.sentences):
        if sent.index != i:
            raise SchemaViolation(f"sentence {sent.index}: expected index {i}")
        if sent.start < prev_end or sent.end > text_len or sent.start >= sent.end:
            raise SchemaViolation(f"sentence {sent.index}: bad span [{sent.start},{sent.end})")
        prev_end = sent.end
        tok_end = sent.start
        for tok in sent.tokens:
            if tok.start < tok_end or tok.end > sent.end or tok.start >= tok.end:
                raise SchemaViolation(f"sentence {sent.index}: bad token span [{tok.start},{tok.end})")
            if tok.pos_hint is not None and tok.pos_hint not in POS_HINTS:
                raise SchemaViolation(f"token at {tok.start}: unknown pos hint {tok.pos_hint!r}")
            tok_end = tok.end

    starts = [s.start for s in doc.sentences]
    seen: set[str] = set()
    for ent in doc.entities:
        if ent.id in seen:
            raise SchemaViolation(f"duplicate mention id {ent.id}")
        seen.add(ent.id)
        if not (0 <= ent.start < ent.end <= text_len):
            raise SchemaViolation(f"{ent.id}: span [{ent.start},{ent.end}) out of bounds")
        if ent.label not in ENTITY_CLASSES:
            raise SchemaViolation(f"{ent.id}: unknown entity class {ent.label!r}")
        if not _covered_by_sentence(doc, starts, ent.start, ent.end):
            raise SchemaViolation(f"{ent.id}: span not covered by any sentence")
        for mut in ent.mutations:
            if mut.kind not in MUTATION_KINDS:
                raise SchemaViolation(f"{ent.id}: unknown mutation kind {mut.kind!r}")
            if mut.kind == "PointSubstitution":
                if mut.label is None or not POINT_SUBSTITUTION_RE.match(mut.label):
                    raise SchemaViolation(f"{ent.id}: point substitution needs a label like S34A")

    event_ids = set()
    for ev in doc.events:
        if ev.id in seen or ev.id in event_ids:
            raise SchemaViolation(f"duplicate mention id {ev.id}")
        event_ids.add(ev.id)
        if not (0 <= ev.trigger_start < ev.trigger_end <= text_len):
            raise SchemaViolation(f"{ev.id}: trigger span out of bounds")
        if not _covered_by_sentence(doc, starts, ev.trigger_start, ev.trigger_end):
            raise SchemaViolation(f"{ev.id}: trigger not covered by any sentence")
        if event_types is not None and ev.event_type not in event_types:
            raise SchemaViolation(f"{ev.id}: unknown event type {ev.event_type!r}")
        if ev.polarity not in POLARITIES:
            raise SchemaViolation(f"{ev.id}: unknown polarity {ev.polarity!r}")

    known = seen | event_ids
    for ev in doc.events:
        for arg in ev.args:
            if arg.ref not in known:
                raise SchemaViolation(f"{arg.ref}")

    event_order(doc)


def _covered_by_sentence(doc: Document, starts: list[int], start: int, end: int) -> bool:
    # Sentences are sorted and disjoint here: only the last to start by ``start`` can cover.
    i = bisect_right(starts, start) - 1
    return i >= 0 and end <= doc.sentences[i].end


def event_order(doc: Document, children: dict[str, list[str]] | None = None) -> list[str]:
    """Event ids of ``doc`` children first, walked from each event in document order.

    ``children`` maps every event id to the ids of the events it is built
    from, each of them a key too; by default, the event-valued arguments.
    The walk is iterative, so nesting depth is not bounded by the recursion
    limit. A cycle raises SchemaViolation naming the path that closes it.
    """
    if children is None:
        ids = {ev.id for ev in doc.events}
        children = {ev.id: [a.ref for a in ev.args if a.ref in ids] for ev in doc.events}
    order: list[str] = []
    placed: set[str] = set()
    for ev in doc.events:
        root, kids = ev.id, children[ev.id]
        if root in placed:
            continue
        if not kids:
            order.append(root)
            placed.add(root)
            continue
        path, todo, on_path = [root], [iter(kids)], {root}
        while todo:
            for child in todo[-1]:
                if child in placed:
                    continue
                if child in on_path:
                    raise SchemaViolation(
                        f"{child}: event reference cycle via {'->'.join(path)}->{child}")
                path.append(child)
                todo.append(iter(children[child]))
                on_path.add(child)
                break
            else:
                todo.pop()
                node = path.pop()
                on_path.discard(node)
                order.append(node)
                placed.add(node)
    return order
