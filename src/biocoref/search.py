"""Linear antecedent search shared by the resolution sieves.

The heuristic walks the anaphor's sentence left to right over mentions that
end before the anaphor starts, collecting candidates that survive every
filter, and falls back to one pass over the immediately previous sentence.
It never looks further back than that, and it never looks forward: full
mentions are assumed to precede their anaphors.

Filters encode the domain constraints: participants of the current event and
anything chained to them are excluded (nothing reacts with itself), entity
classes must satisfy the event's argument schema, and detected anaphors are
never offered as antecedents.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .detection import AnaphorCandidate, Cardinality, _is_plural_noun
from .index import DocIndex
from .model import EntityMention, EventMention
from .schema import ArgSchema
from .unionfind import UnionFind

ACCEPTED = "accepted"
EXCLUDED_OFFSET = "excluded_offset"
EXCLUDED_SELF = "excluded_self"
EXCLUDED_ANAPHOR = "excluded_anaphor"
EXCLUDED_PARTICIPANT = "excluded_participant"
EXCLUDED_CHAIN = "excluded_chain"
EXCLUDED_CLASS = "excluded_class"
EXCLUDED_INCOMPLETE = "excluded_incomplete"
EXCLUDED_DUPLICATE_CHAIN = "excluded_duplicate_chain"

# When a class noun names a broad class, gene-or-gene-product mentions count.
_CLASS_EXPANSION = {
    "Protein": frozenset({"Protein", "GeneOrGeneProduct"}),
    "Gene": frozenset({"Gene", "GeneOrGeneProduct"}),
}


class SearchConstraints(NamedTuple):
    need: Cardinality
    excluded_ids: frozenset[str] = frozenset()
    allowed_classes: frozenset[str] | None = None
    banned_antecedents: frozenset[str] = frozenset()  # detected anaphor mentions
    antecedent_test: Callable[[EntityMention], str | None] | None = None


class SearchResult:
    __slots__ = ("ids", "satisfied")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.satisfied = False


def expand_target_class(target: str | None) -> frozenset[str] | None:
    if target is None:
        return None
    return _CLASS_EXPANSION.get(target, frozenset({target}))


def build_constraints(index: DocIndex, anaphor: AnaphorCandidate,
                      schema: ArgSchema, banned: frozenset[str] = frozenset(),
                      antecedent_test: Callable[[EntityMention], str | None] | None = None,
                      ) -> SearchConstraints:
    """Assemble the filters for one anaphor from its hosting events.

    Excluded are the other participants of every event the anaphor fills;
    their chain mates are rejected at scan time against the live union-find.
    The class filter is the schema row for the anaphor's role, narrowed by
    the class the anaphor itself demands, when any.
    """
    excluded: set[str] = set()
    schema_classes: set[str] = set()
    for event_id, role in anaphor.hosts:
        host = index.by_id[event_id]
        assert isinstance(host, EventMention)
        spec = schema.role_spec(host.event_type, role)  # raises SchemaMissing
        schema_classes.update(spec.classes - {"Event"})
        for arg in host.args:
            if arg.ref != anaphor.mention_id:
                excluded.add(arg.ref)

    target = expand_target_class(anaphor.target_class)
    if anaphor.hosts:
        allowed: frozenset[str] | None = frozenset(schema_classes)
        if target is not None:
            allowed = allowed & target
    else:
        allowed = target
    return SearchConstraints(
        need=anaphor.cardinality,
        excluded_ids=frozenset(excluded),
        allowed_classes=allowed,
        banned_antecedents=banned,
        antecedent_test=antecedent_test,
    )


def _plural_mention(index: DocIndex, mention_id: str) -> bool:
    mention = index.by_id[mention_id]
    if not isinstance(mention, EntityMention):
        return False
    if mention.label == "Family":
        return True
    words = mention.surface.split()
    return bool(words) and _is_plural_noun(words[-1])


def verdict_for(ent: EntityMention, anaphor: AnaphorCandidate, cons: SearchConstraints,
                uf: UnionFind, collected: list[str]) -> str:
    if ent.end > anaphor.start:
        return EXCLUDED_OFFSET
    if ent.id == anaphor.mention_id:
        return EXCLUDED_SELF
    if ent.id in cons.banned_antecedents:
        return EXCLUDED_ANAPHOR
    if ent.id in cons.excluded_ids:
        return EXCLUDED_PARTICIPANT
    for ex in cons.excluded_ids:
        if uf.same(ent.id, ex):
            return EXCLUDED_CHAIN
    if cons.allowed_classes is not None and ent.label not in cons.allowed_classes:
        return EXCLUDED_CLASS
    if cons.antecedent_test is not None:
        failure = cons.antecedent_test(ent)
        if failure is not None:
            return failure
    for got in collected:
        if uf.same(ent.id, got):
            return EXCLUDED_DUPLICATE_CHAIN
    return ACCEPTED


def linear_search(index: DocIndex, anaphor: AnaphorCandidate, cons: SearchConstraints,
                  uf: UnionFind, trace: list | None = None) -> SearchResult:
    """Collect antecedent mention IDs for one anaphor.

    Need handling: One stops at the first qualifying mention; Exactly(n)
    collects until n and fails outright when the window holds fewer;
    AtLeastTwo gathers every qualifying mention in the sentence under scan
    and accepts a single syntactically plural (or Family) mention alone.
    Results come back in text order.
    """
    result = SearchResult()
    sent = index.sentence_index_at(anaphor.start)
    windows = [sent]
    if sent > 0:
        windows.append(sent - 1)

    need = cons.need
    for window in windows:
        for ent in index.entities_in(window):
            if ent.start >= anaphor.start:
                break
            verdict = verdict_for(ent, anaphor, cons, uf, result.ids)
            if trace is not None:
                trace.append({"id": ent.id, "verdict": verdict})
            if verdict != ACCEPTED:
                continue
            result.ids.append(ent.id)
            if need.kind == "One" or (need.kind == "Exactly" and len(result.ids) >= need.n):
                result.satisfied = True
                return _finish(result, index)
        if need.kind == "AtLeastTwo" and (len(result.ids) >= 2 or (
                len(result.ids) == 1 and _plural_mention(index, result.ids[0]))):
            result.satisfied = True
            return _finish(result, index)
    return _finish(result, index)


def _finish(result: SearchResult, index: DocIndex) -> SearchResult:
    result.ids.sort(key=index.mention_start)
    return result


def event_antecedent_search(index: DocIndex, anaphor: AnaphorCandidate,
                            event_type: str, excluded_ids: frozenset[str],
                            uf: UnionFind, trace: list | None = None) -> SearchResult:
    """Nearest prior complete event of the same type, this sentence then last."""
    result = SearchResult()
    sent = index.sentence_index_at(anaphor.start)
    windows = [sent]
    if sent > 0:
        windows.append(sent - 1)
    for window in windows:
        pool = [ev for ev in index.events_in(window)
                if ev.trigger_end <= anaphor.start]
        for ev in sorted(pool, key=lambda e: (-e.trigger_start, e.id)):
            verdict = _event_verdict(ev, anaphor, event_type, excluded_ids, uf, index.complete)
            if trace is not None:
                trace.append({"id": ev.id, "verdict": verdict})
            if verdict == ACCEPTED:
                result.ids.append(ev.id)
                result.satisfied = True
                return result
    return result


def _event_verdict(ev: EventMention, anaphor: AnaphorCandidate, event_type: str,
                   excluded_ids: frozenset[str], uf: UnionFind, complete: frozenset[str]) -> str:
    if ev.id == anaphor.mention_id:
        return EXCLUDED_SELF
    if ev.id in excluded_ids:
        return EXCLUDED_PARTICIPANT
    if ev.event_type != event_type:
        return EXCLUDED_CLASS
    if ev.id not in complete:
        return EXCLUDED_INCOMPLETE
    for ex in excluded_ids:
        if uf.same(ev.id, ex):
            return EXCLUDED_CHAIN
    return ACCEPTED
