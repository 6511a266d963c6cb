"""Per-document lookup structures shared by detection and the sieves."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter

from .model import Document, EntityMention, EventMention, Token, event_order
from .schema import ArgSchema, structurally_complete

_START = attrgetter("start")
_TRIGGER_START = attrgetter("trigger_start")


class DocIndex:
    """Read-only views over one document: sorted mentions, sentence lookup,
    the event ids children first, and the ids of its complete events."""

    def __init__(self, doc: Document, schema: ArgSchema) -> None:
        self.doc = doc
        self.entities = sorted(doc.entities, key=lambda e: (e.start, e.end, e.id))
        self.events = sorted(doc.events, key=lambda ev: (ev.trigger_start, ev.trigger_end, ev.id))
        self.by_id: dict[str, EntityMention | EventMention] = {}
        for ent in doc.entities:
            self.by_id[ent.id] = ent
        for ev in doc.events:
            self.by_id[ev.id] = ev
        self._sent_starts = [s.start for s in doc.sentences]
        # An event is complete when its own arity is met and every event it
        # references is complete; children first, so each verdict is known
        # before the events built from it are reached.
        self.event_order = event_order(doc)
        incomplete: set[str] = set()
        for ev_id in self.event_order:
            ev = self.by_id[ev_id]
            if not structurally_complete(ev, schema) or any(a.ref in incomplete for a in ev.args):
                incomplete.add(ev_id)
        self.complete = frozenset(ev.id for ev in doc.events if ev.id not in incomplete)

    def entities_in(self, sentence: int) -> list[EntityMention]:
        """The entities starting in sentence ``sentence``, in ``entities`` order."""
        return self._in_sentence(self.entities, _START, sentence)

    def events_in(self, sentence: int) -> list[EventMention]:
        """The events whose trigger starts in sentence ``sentence``, in ``events`` order."""
        return self._in_sentence(self.events, _TRIGGER_START, sentence)

    def _in_sentence(self, mentions: list, key, sentence: int) -> list:
        # Sentences do not overlap, so the mentions starting in one are a run
        # of a list sorted by start.
        if sentence < 0:
            return []
        s = self.doc.sentences[sentence]
        return mentions[bisect_left(mentions, s.start, key=key):
                        bisect_left(mentions, s.end, key=key)]

    def sentence_index_at(self, pos: int) -> int:
        """Index of the sentence containing character position ``pos``, or -1."""
        i = bisect_right(self._sent_starts, pos) - 1
        if i >= 0 and pos < self.doc.sentences[i].end:
            return i
        return -1

    def tokens_in(self, start: int, end: int) -> list[Token]:
        """Tokens overlapping the span [start, end)."""
        si = self.sentence_index_at(start)
        if si < 0:
            return []
        return [t for t in self.doc.sentences[si].tokens if t.start < end and t.end > start]

    def token_before(self, pos: int) -> Token | None:
        """Last token ending at or before ``pos`` within the same sentence."""
        si = self.sentence_index_at(pos)
        if si < 0:
            return None
        best = None
        for t in self.doc.sentences[si].tokens:
            if t.end <= pos:
                best = t
            else:
                break
        return best

    def mention_start(self, mention_id: str) -> int:
        m = self.by_id[mention_id]
        return m.start if isinstance(m, EntityMention) else m.trigger_start
