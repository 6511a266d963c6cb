"""End-to-end resolution of one document: detect, sieve, clean up, complete.

Per-document work is pure and single-threaded; documents are independent, so
scaling across a corpus is process-level parallelism with no shared state.
"""

from __future__ import annotations

from typing import BinaryIO, Callable, NamedTuple

from .completion import complete_events
from .detection import AnaphorCandidate, TriggerDictionary, default_lexicon, detect_candidates
from .grounding import GroundingTable, default_table
from .index import DocIndex
from .model import CompletedEvent, CorefLink, Document
from .schema import ArgSchema, default_schema
from .sieves import (
    RESOLUTION_SIEVES,
    SIEVE_ORDER,
    CorefState,
    ResolveContext,
    sieve_cleanup,
)
from .standoff import save_result

ALL_SIEVES = frozenset(SIEVE_ORDER)


class ResolverConfig(NamedTuple):
    lexicon: TriggerDictionary
    schema: ArgSchema
    grounding: GroundingTable
    disabled_sieves: frozenset[str] = frozenset()
    trace: bool = False

    @classmethod
    def default(cls, disabled_sieves: frozenset[str] = frozenset(), trace: bool = False
                ) -> "ResolverConfig":
        return cls(lexicon=default_lexicon(), schema=default_schema(),
                   grounding=default_table(), disabled_sieves=disabled_sieves, trace=trace)


class Resolution:
    __slots__ = ("doc", "candidates", "links", "chains", "completed", "dropped_mentions",
                 "dropped_events", "counters", "trace")

    def __init__(self, doc: Document, candidates: list[AnaphorCandidate],
                 links: list[CorefLink], chains: list[list[str]],
                 completed: list[CompletedEvent], dropped_mentions: dict[str, str],
                 dropped_events: dict[str, str], counters: dict[str, object],
                 trace: list[dict] | None = None) -> None:
        self.doc = doc  # cleaned document
        self.candidates = candidates
        self.links = links
        self.chains = chains
        self.completed = completed
        self.dropped_mentions = dropped_mentions
        self.dropped_events = dropped_events
        self.counters = counters
        self.trace = trace

    def to_bytes(self, emit_provenance: bool = False,
                 file: BinaryIO | None = None) -> bytes | None:
        """The result's bytes, or with ``file`` None once they are written to it."""
        return save_result(
            self.doc,
            links=tuple(self.links),
            completed=tuple(self.completed),
            chains=self.chains if emit_provenance else None,
            trace=self.trace if emit_provenance else None,
            file=file,
        )


def validate_disabled(names) -> frozenset[str]:
    names = set(names)
    if "all" in names:
        names.discard("all")
        names |= set(SIEVE_ORDER) - {"cleanup"}
    unknown = names - ALL_SIEVES
    if unknown:
        raise ValueError(f"unknown sieve name(s): {sorted(unknown)}; known: {list(SIEVE_ORDER)}")
    return frozenset(names)


def resolve_document(doc: Document, config: ResolverConfig,
                     observer: Callable[[str, CorefState], None] | None = None) -> Resolution:
    """Run the full pipeline over one document.

    ``observer`` is called after every sieve slot (disabled ones included)
    with the sieve name and the live state; property tests use it to check
    the chain partition and precedence after each pass.
    """
    index = DocIndex(doc, config.schema)
    candidates = detect_candidates(doc, config.lexicon, config.schema, index=index)
    trace: dict[str, dict] | None = None
    if config.trace:
        trace = {
            c.mention_id: {
                "anaphor": c.mention_id,
                "kind": c.kind,
                "surface": c.surface,
                "span": [c.start, c.end],
                "cardinality": _card_str(c),
                "attempts": [],
            }
            for c in candidates
        }
    ctx = ResolveContext(
        index=index,
        lexicon=config.lexicon,
        schema=config.schema,
        grounding=config.grounding,
        candidates=candidates,
        trace=trace,
    )

    state = CorefState()
    cleaned = doc
    dropped_mentions: dict[str, str] = {}
    dropped_events: dict[str, str] = {}
    for name in SIEVE_ORDER:
        if name in config.disabled_sieves:
            if observer:
                observer(name, state)
            continue
        if name == "cleanup":
            cleaned, dropped_mentions, dropped_events = sieve_cleanup(ctx, state)
        else:
            RESOLUTION_SIEVES[name](ctx, state)
        if observer:
            observer(name, state)

    del ctx, index  # not held through completion
    completed, more_dropped = complete_events(cleaned, config.schema, state.links, state.uf)
    dropped_events.update(more_dropped)

    resolved_by_sieve: dict[str, int] = {}
    for link in state.links:
        resolved_by_sieve[link.sieve_name] = resolved_by_sieve.get(link.sieve_name, 0) + 1

    trace_list = None
    if trace is not None:
        link_by_anaphor = {link.anaphor_id: link for link in state.links}
        for c in candidates:
            entry = trace[c.mention_id]
            link = link_by_anaphor.get(c.mention_id)
            if link is not None:
                entry["final"] = {"status": "LINKED", "sieve": link.sieve_name,
                                  "antecedents": list(link.antecedent_ids)}
            elif c.mention_id in dropped_mentions or c.mention_id in dropped_events:
                entry["final"] = {"status": "DROPPED"}
            else:
                entry["final"] = {"status": "UNRESOLVED"}
        trace_list = [trace[c.mention_id] for c in candidates]

    chains = state.chains()
    counters = {
        "anaphors_detected": len(candidates),
        "anaphors_resolved": len(state.resolved),
        "anaphors_dropped": sum(1 for c in candidates if c.mention_id not in state.resolved
                                and (c.mention_id in dropped_mentions
                                     or c.mention_id in dropped_events)),
        "resolved_by_sieve": resolved_by_sieve,
        "events_completed": len(completed),
        "events_coref_derived": sum(1 for c in completed if c.provenance),
        "events_dropped": len(dropped_events),
    }

    return Resolution(
        doc=cleaned,
        candidates=candidates,
        links=list(state.links),
        chains=chains,
        completed=completed,
        dropped_mentions=dropped_mentions,
        dropped_events=dropped_events,
        counters=counters,
        trace=trace_list,
    )


def _card_str(c: AnaphorCandidate) -> str:
    if c.cardinality.kind == "Exactly":
        return f"Exactly({c.cardinality.n})"
    return c.cardinality.kind
