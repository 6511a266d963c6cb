"""The deterministic resolution sieves.

Passes run in a fixed order, from the most precise to the most permissive:

    1. exact_string      cluster identical entity surfaces (chain merges only)
    2. shared_grounding  cluster mentions grounded to one canonical ID
    3. mutant_match      "all six FGFR3 mutants" back to spelled-out mutants
    4. strict_head       definite NPs fully contained in an earlier mention
    5. pronominal        it/its/they/their/both via the linear search
    6. class_np          "the protein", "this kinase", mutant shorthand NPs
    7. event_coref       incomplete nominal events inside regulations
    8. cleanup           drop whatever found no antecedent

Sieves only ever add links and chain merges; an anaphor resolved by one
sieve is never touched by a later one. Cleanup is the only pass that
removes anything. Relaxed matching passes common in open-domain resolvers
(relaxed string match, relaxed head match, and kin) are deliberately absent:
they are too permissive for this domain.

The sieves built on the linear search (mutant_match, pronominal, class_np)
are rows of SEARCH_SIEVES, after the precision-ranked rule tables of Lee et
al. (2013): a filter choosing the candidates, and per candidate an ordered
list of passes, each a failure status and an optional antecedent test. One
driver runs every row: it skips candidates an earlier sieve resolved,
searches once per pass, links on the first satisfied pass and records the
status of each failed one.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Iterator

from . import detection as det
from .detection import AnaphorCandidate, TriggerDictionary
from .grounding import GroundingTable
from .index import DocIndex
from .model import CorefLink, Document, EntityMention, EventMention
from .schema import ArgSchema, structurally_complete
from .search import (
    ACCEPTED,
    build_constraints,
    event_antecedent_search,
    linear_search,
    verdict_for,
)
from .unionfind import UnionFind

SIEVE_ORDER = (
    "exact_string",
    "shared_grounding",
    "mutant_match",
    "strict_head",
    "pronominal",
    "class_np",
    "event_coref",
    "cleanup",
)

_SURFACE_COMPONENTS = re.compile(r"[\s\-/()]+")

# One search pass: the status recorded when it fails, and an extra test an
# antecedent must pass (None when the search constraints suffice).
SearchPass = tuple[str, Callable[[EntityMention], str | None] | None]


class CorefState:
    """Shared mutable state threaded through the pipeline.

    Chains are disjoint sets over mention IDs; links are append-only; a
    resolved anaphor is never re-resolved.
    """

    __slots__ = ("uf", "links", "resolved")

    def __init__(self) -> None:
        self.uf = UnionFind()
        self.links: list[CorefLink] = []
        self.resolved: set[str] = set()

    def chains(self) -> list[list[str]]:
        """Non-singleton chains, each sorted, in deterministic order."""
        groups = [g for g in self.uf.groups().values() if len(g) > 1]
        return sorted(groups)


class ResolveContext:
    __slots__ = ("index", "lexicon", "schema", "grounding", "candidates", "candidate_ids",
                 "trace")

    def __init__(self, index: DocIndex, lexicon: TriggerDictionary, schema: ArgSchema,
                 grounding: GroundingTable, candidates: list[AnaphorCandidate],
                 trace: dict[str, dict] | None = None) -> None:
        self.index = index
        self.lexicon = lexicon
        self.schema = schema
        self.grounding = grounding
        self.candidates = candidates
        self.candidate_ids = frozenset(c.mention_id for c in candidates)
        self.trace = trace

    def record(self, anaphor_id: str, sieve: str, status: str,
               considered: list | None = None, antecedents: list[str] | None = None) -> None:
        if self.trace is None:
            return
        attempt: dict = {"sieve": sieve, "status": status}
        if considered:
            attempt["considered"] = considered
        if antecedents:
            attempt["antecedents"] = antecedents
        self.trace[anaphor_id]["attempts"].append(attempt)


def _link(ctx: ResolveContext, state: CorefState, anaphor: AnaphorCandidate,
          antecedents: list[str], sieve: str, considered: list | None = None) -> None:
    state.links.append(CorefLink(
        anaphor_id=anaphor.mention_id,
        antecedent_ids=tuple(antecedents),
        sieve_name=sieve,
    ))
    state.resolved.add(anaphor.mention_id)
    for ant in antecedents:
        state.uf.union(anaphor.mention_id, ant)
    ctx.record(anaphor.mention_id, sieve, "linked", considered=considered,
               antecedents=antecedents)


def _pending(ctx: ResolveContext, state: CorefState, sieve: str,
             wanted: Callable[[AnaphorCandidate], bool]) -> Iterator[AnaphorCandidate]:
    """The candidates ``wanted`` accepts, in text order, less those an
    earlier sieve resolved, which are recorded as ``skipped_resolved``."""
    for cand in ctx.candidates:
        if not wanted(cand):
            continue
        if cand.mention_id in state.resolved:
            ctx.record(cand.mention_id, sieve, "skipped_resolved")
            continue
        yield cand


def _search(sieve: str, ctx: ResolveContext, state: CorefState) -> None:
    """Run the SEARCH_SIEVES row ``sieve`` over its pending candidates."""
    wanted, passes = SEARCH_SIEVES[sieve]
    for cand in _pending(ctx, state, sieve, wanted):
        for status, test in passes(ctx, cand):
            cons = build_constraints(ctx.index, cand, ctx.schema,
                                     banned=ctx.candidate_ids, antecedent_test=test)
            considered: list = [] if ctx.trace is not None else None
            result = linear_search(ctx.index, cand, cons, state.uf, trace=considered)
            if result.satisfied:
                _link(ctx, state, cand, result.ids, sieve, considered)
                break
            ctx.record(cand.mention_id, sieve, status, considered=considered)


def _merge_full_entities(ctx: ResolveContext, state: CorefState,
                         key: Callable[[EntityMention], object]) -> None:
    """Merge the entity mentions that are not anaphor candidates and share a
    key; a mention whose key is None is left alone."""
    by_key: dict[object, list[str]] = {}
    for ent in ctx.index.entities:
        if ent.id not in ctx.candidate_ids:
            k = key(ent)
            if k is not None:
                by_key.setdefault(k, []).append(ent.id)
    for ids in by_key.values():
        for first, other in zip(ids, ids[1:]):
            state.uf.union(first, other)


def sieve_exact_string(ctx: ResolveContext, state: CorefState) -> None:
    """Merge full entity mentions with character-identical surfaces.

    Case-sensitive by design: surface identity means the same characters in
    the same order, nothing looser. Produces chain merges, not links.
    """
    _merge_full_entities(ctx, state, lambda ent: ent.surface)


def sieve_shared_grounding(ctx: ResolveContext, state: CorefState) -> None:
    """Merge full entity mentions grounded to the same canonical ID.

    A grounding ID supplied on the mention wins over table lookup. Mentions
    whose spelled-out mutations differ are left apart: N540K-FGFR3 and
    K650E-FGFR3 share a gene but are not the same molecule.
    """
    def key(ent: EntityMention) -> tuple | None:
        gid = ent.grounding_id or ctx.grounding.ground(ent.surface)
        if gid is None:
            return None
        return gid, tuple(sorted(m.label for m in ent.mutations if m.specified))

    _merge_full_entities(ctx, state, key)


def _same_protein(ent: EntityMention, protein_surface: str, grounding: GroundingTable) -> bool:
    target_gid = grounding.ground(protein_surface)
    if target_gid is not None:
        ent_gid = ent.grounding_id or grounding.ground(ent.surface)
        if ent_gid == target_gid:
            return True
    return protein_surface in _SURFACE_COMPONENTS.split(ent.surface)


def _mutant_match_passes(ctx: ResolveContext, cand: AnaphorCandidate) -> list[SearchPass]:
    """Resolve protein-named mutant NPs with unknown mutations.

    "All six FGFR3 mutants" links to every prior FGFR3 mention whose
    mutation is spelled out, one-to-many when the anaphor is plural. An
    explicit numeral is strict: six means six, anything less stays
    unresolved rather than asserting the wrong biology.
    """
    protein = cand.mutant_payload or ""

    def mutant_test(ent: EntityMention) -> str | None:
        if not any(m.specified for m in ent.mutations):
            return "excluded_no_specified_mutation"
        if not _same_protein(ent, protein, ctx.grounding):
            return "excluded_protein_mismatch"
        return None

    return [("no_match", mutant_test)]


def _pronominal_passes(ctx: ResolveContext, cand: AnaphorCandidate) -> list[SearchPass]:
    """Resolve pronouns with the linear search under event constraints.

    Candidates go left to right, and each resolution immediately extends a
    chain, so a later pronoun in the same event complex cannot reuse an
    earlier pronoun's antecedent: with several anaphors and no better signal,
    assignment falls out left to right.
    """
    return [("no_match", None)]


def _any_mutation_test(ent: EntityMention) -> str | None:
    return None if ent.mutations else "excluded_no_mutation"


def _class_np_passes(ctx: ResolveContext, cand: AnaphorCandidate) -> list[SearchPass]:
    """Resolve class-referential NPs and mutant shorthand routed through them.

    "The protein" searches only for proteins; generic mutant NPs require an
    antecedent carrying some mutation record; mutation-labelled NPs ("the
    K134A mutant") first demand a matching spelled-out mutation and fall
    back to the bare protein when no mention carries the label, which still
    names the right molecule even if not the right variant.
    """
    if cand.mutant_subkind == det.MUTATION_ONLY:
        label = cand.mutant_payload

        def label_test(ent: EntityMention) -> str | None:
            if any(m.specified and m.label == label for m in ent.mutations):
                return None
            return "excluded_mutation_label"

        return [("no_match_mutation_label", label_test), ("no_match_protein_fallback", None)]
    if cand.mutant_subkind == det.GENERIC_MUTANT:
        return [("no_match_any_mutation", _any_mutation_test)]
    return [("no_match_class", None)]


def _takes_class_np(cand: AnaphorCandidate) -> bool:
    if cand.kind == det.CLASS_NP:
        return cand.target_class is not None
    return cand.kind == det.MUTANT_NP and cand.mutant_subkind in (
        det.GENERIC_MUTANT, det.MUTATION_ONLY)


# Search sieve name -> (which candidates it takes, the passes for one candidate).
SEARCH_SIEVES = {
    "mutant_match": (lambda c: c.kind == det.MUTANT_NP and c.mutant_subkind == det.PROTEIN_ONLY,
                     _mutant_match_passes),
    "pronominal": (lambda c: c.kind == det.PRONOUN, _pronominal_passes),
    "class_np": (_takes_class_np, _class_np_passes),
}


def _np_words(ctx: ResolveContext, start: int, end: int, surface: str) -> list[str]:
    tokens = ctx.index.tokens_in(start, end)
    if tokens:
        return [t.surface for t in tokens]
    return surface.split()


def _head_index(ctx: ResolveContext):
    """Entities nearest first by ``(-start, id)``, and per lowercase word the
    positions in that order, ascending, of the entities containing it.
    Anaphors are never antecedents, so their words are left out."""
    order = sorted(ctx.index.entities, key=lambda e: (-e.start, e.id))
    by_word: dict[str, list[int]] = {}
    for i, e in enumerate(order):
        if e.id not in ctx.candidate_ids:
            for w in _np_words(ctx, e.start, e.end, e.surface):
                holders = by_word.setdefault(w.lower(), [])
                if not holders or holders[-1] != i:  # a word twice in one mention
                    holders.append(i)
    return order, [-e.start for e in order], by_word


def _holds(holders: list[int], i: int) -> bool:
    """Whether the ascending positions ``holders`` include ``i``."""
    k = bisect_left(holders, i)
    return k < len(holders) and holders[k] == i


def sieve_strict_head(ctx: ResolveContext, state: CorefState) -> None:
    """Link a definite NP to the nearest prior mention containing all its words.

    The head word must appear in the antecedent and every non-stopword of the
    anaphor must too. "The phosphorylated protein" matches "phosphorylated
    ASPP2 protein"; "the activated ASPP2" does not, because "activated" is
    absent. Matching is mention-local and ignores chain members, and the
    search reaches back to the start of the document.

    Only the earlier entities holding the head word are walked, nearest
    first, so the trace lists those alone: one lacking another content word
    is ``excluded_word_containment``, any other gets the search verdict.
    """
    head_index = None
    for cand in _pending(ctx, state, "strict_head", lambda c: c.kind == det.CLASS_NP):
        words = _np_words(ctx, cand.start, cand.end, cand.surface)
        if len(words) < 2:
            continue
        content = [w.lower() for w in words if not ctx.lexicon.is_stopword(w)]
        if not content:
            continue
        cons = build_constraints(ctx.index, cand, ctx.schema, banned=ctx.candidate_ids)
        if head_index is None:
            head_index = _head_index(ctx)
        order, neg_starts, by_word = head_index
        first = bisect_right(neg_starts, -cand.start)  # first entity starting earlier
        hits = by_word.get(content[-1], [])  # the entities holding the head word
        considered: list = [] if ctx.trace is not None else None
        for i in hits[bisect_left(hits, first):]:
            contained = all(_holds(by_word.get(w, ()), i) for w in content)
            if not contained and considered is None:
                continue
            ent = order[i]
            verdict = (verdict_for(ent, cand, cons, state.uf, []) if contained
                       else "excluded_word_containment")
            if considered is not None:
                considered.append({"id": ent.id, "verdict": verdict})
            if verdict == ACCEPTED:
                _link(ctx, state, cand, [ent.id], "strict_head", considered)
                break
        else:
            ctx.record(cand.mention_id, "strict_head", "no_match", considered=considered)


def sieve_event_coref(ctx: ResolveContext, state: CorefState) -> None:
    """Link incomplete nominal event anaphors to prior complete events.

    Search is restricted to events of the same type, nearest first, this
    sentence then the previous one. Anaphors naming regulation-type events
    ("the promotion") are never searched: recursion stops one level down.
    """
    for cand in _pending(ctx, state, "event_coref", lambda c: c.kind == det.NOMINAL_EVENT):
        target_type = cand.target_class or ""
        if target_type in ctx.schema.regulation_types:
            ctx.record(cand.mention_id, "event_coref", "skipped_regulation")
            continue
        excluded: set[str] = set()
        for event_id, _role in cand.hosts:
            excluded.add(event_id)
            host = ctx.index.by_id[event_id]
            assert isinstance(host, EventMention)
            for arg in host.args:
                if arg.ref != cand.mention_id:
                    excluded.add(arg.ref)
        considered: list = [] if ctx.trace is not None else None
        result = event_antecedent_search(ctx.index, cand, target_type,
                                         frozenset(excluded), state.uf, trace=considered)
        if result.satisfied:
            _link(ctx, state, cand, result.ids, "event_coref", considered)
        else:
            ctx.record(cand.mention_id, "event_coref", "no_match", considered=considered)


def sieve_cleanup(ctx: ResolveContext, state: CorefState
                  ) -> tuple[Document, dict[str, str], dict[str, str]]:
    """Remove every candidate that found no antecedent, then cascade.

    Events lose arguments that referenced removed mentions; an event that is
    no longer schema-complete afterwards is removed too, and removals ripple
    up through regulations. Returns the cleaned document plus removal reasons
    for mentions and events.
    """
    doc = ctx.index.doc
    dropped: dict[str, str] = {}
    for cand in ctx.candidates:
        if cand.mention_id not in state.resolved:
            dropped[cand.mention_id] = "unresolved_anaphor"
            ctx.record(cand.mention_id, "cleanup", "dropped")

    # Children first, so every removal below an event is known when it is reached.
    by_id = ctx.index.by_id
    live: dict[str, EventMention] = {}
    for ev_id in ctx.index.event_order:
        if ev_id in dropped:
            continue
        ev = by_id[ev_id]
        kept_args = tuple(a for a in ev.args if a.ref not in dropped)
        if len(kept_args) < len(ev.args):
            ev = ev._replace(args=kept_args)
            if not structurally_complete(ev, ctx.schema):
                dropped[ev_id] = "argument_removed"
                continue
        live[ev_id] = ev

    dropped_mentions = {k: v for k, v in dropped.items() if isinstance(by_id[k], EntityMention)}
    dropped_events = {k: v for k, v in dropped.items() if k not in dropped_mentions}

    cleaned = Document(
        doc_id=doc.doc_id,
        text=doc.text,
        sentences=doc.sentences,
        entities=tuple(e for e in doc.entities if e.id not in dropped),
        events=tuple(live[ev.id] for ev in doc.events if ev.id in live),
    )
    return cleaned, dropped_mentions, dropped_events


RESOLUTION_SIEVES = {
    "exact_string": sieve_exact_string,
    "shared_grounding": sieve_shared_grounding,
    "mutant_match": partial(_search, "mutant_match"),
    "strict_head": sieve_strict_head,
    "pronominal": partial(_search, "pronominal"),
    "class_np": partial(_search, "class_np"),
    "event_coref": sieve_event_coref,
}
