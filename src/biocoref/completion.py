"""Event completion: substitute antecedents for anaphors and split n-ary events.

Every surviving event mention is turned into zero or more fully specified
binary-style events. A role holding several fillers, whether conjoined raw
mentions or the antecedents of one plural anaphor, splits the event into one
copy per filler; fillers of a role pair with the other roles' participants,
never with each other. Regulations wrapping a split event are duplicated per
split child. Events whose two participants end up in one coreference chain
are suppressed: nothing reacts with itself here. An event that would split into
more than EXPANSION_LIMIT copies is dropped instead.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .model import CompletedEvent, CorefLink, Document, EventArg, EventMention, event_order
from .schema import ArgSchema
from .unionfind import UnionFind

# The most events one event mention may split into. The largest split in the
# fixtures and the benchmark corpora is 6; the limit stops a few dozen
# fillers per role from multiplying into tens of thousands of events.
EXPANSION_LIMIT = 1024


def complete_events(doc: Document, schema: ArgSchema, links: list[CorefLink],
                    uf: UnionFind) -> tuple[list[CompletedEvent], dict[str, str]]:
    """Emit the final event set for a cleaned document.

    Returns the completed events plus the events dropped here (still
    incomplete after substitution, suppressed as self-relations, or past
    EXPANSION_LIMIT).
    """
    links_by_anaphor = {l.anaphor_id: l for l in links}
    events = {ev.id: ev for ev in doc.events}  # every other ref names an entity
    dropped: dict[str, str] = {}
    memo: dict[str, list[CompletedEvent]] = {}

    def complete(ev: EventMention) -> list[CompletedEvent]:
        # Every event ``ev`` is built from is already in ``memo``.
        role_order: list[str] = []
        fillers: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for arg in ev.args:
            if arg.role not in fillers:
                fillers[arg.role] = []
                role_order.append(arg.role)
            link = links_by_anaphor.get(arg.ref)
            if arg.ref not in events:
                if link is None:
                    fillers[arg.role].append((arg.ref, frozenset()))
                else:
                    for ant in link.antecedent_ids:
                        fillers[arg.role].append((ant, frozenset({arg.ref})))
            else:
                base = frozenset({arg.ref}) if link is not None else frozenset()
                for child in memo.get(arg.ref, ()):
                    fillers[arg.role].append((child.id, base | frozenset(child.provenance)))

        for role, spec in schema.roles_for(ev.event_type).items():
            if len(fillers.get(role, ())) < spec.count:
                dropped[ev.id] = "incomplete_after_substitution"
                return []

        active_roles = [r for r in role_order if fillers[r]]
        if prod(len(fillers[r]) for r in active_roles) > EXPANSION_LIMIT:
            dropped[ev.id] = "expansion_limit"
            return []
        out: list[CompletedEvent] = []
        suppressed = 0
        for combo in product(*(fillers[r] for r in active_roles)):
            roots = [uf.find(fid) for fid, _ in combo]
            if len(set(roots)) < len(roots):
                suppressed += 1
                continue
            provenance: set[str] = set()
            for _, prov in combo:
                provenance.update(prov)
            out.append(CompletedEvent(
                id=ev.id,  # re-numbered below when the event splits
                trigger_start=ev.trigger_start,
                trigger_end=ev.trigger_end,
                event_type=ev.event_type,
                args=tuple(EventArg(role, fid) for role, (fid, _) in zip(active_roles, combo)),
                polarity=ev.polarity,
                derived_from=ev.id,
                provenance=tuple(sorted(provenance)),
            ))
        if not out:
            dropped[ev.id] = "self_relation" if suppressed else "incomplete_after_substitution"
        elif len(out) > 1:
            out = [c._replace(id=f"{c.derived_from}.c{i}") for i, c in enumerate(out)]
        return out

    # A resolved event anaphor stands for its antecedent event.
    stands_for = {ev_id: links_by_anaphor[ev_id].antecedent_ids[0]
                  for ev_id in events if ev_id in links_by_anaphor}
    children = {ev.id: kids for ev in doc.events
                if (kids := [a.ref for a in ev.args if a.ref in events])}
    for ev_id, target in stands_for.items():
        children[ev_id] = [target] if target in events else []
    for ev_id in event_order(doc, children):
        if ev_id in stands_for:
            memo[ev_id] = memo.get(stands_for[ev_id], [])
        else:
            memo[ev_id] = complete(events[ev_id])

    completed: list[CompletedEvent] = []
    for ev in doc.events:
        if ev.id in links_by_anaphor:
            continue  # resolved event anaphors are represented by their antecedents
        completed.extend(memo[ev.id])
    return completed, dropped
