"""Reading and writing the standoff JSON interchange format.

Input schema (one document per file, or one per line in an NDJSON stream):

    { "doc_id": str, "text": str,
      "sentences": [ {"index": int, "start": int, "end": int,
                      "tokens": [{"start": int, "end": int, "pos": str?}]} ],
      "entities": [ {"id": str, "start": int, "end": int, "label": str,
                     "grounding": str?, "mutations": [{"kind": str, "label": str?}]} ],
      "events":   [ {"id": str, "trigger_start": int, "trigger_end": int,
                     "type": str, "polarity": str?,
                     "args": [{"role": str, "ref": str}]} ] }

Result files add "links" and "completed_events". Serialization is canonical:
the same inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any

from .model import (
    CompletedEvent,
    CorefLink,
    Document,
    EntityMention,
    EventArg,
    EventMention,
    MalformedInput,
    MutationRecord,
    SchemaViolation,
    Sentence,
    Token,
    validate_document,
)
from .schema import ArgSchema, default_schema


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{where}: expected an object, not {type(obj).__name__}")
    if key not in obj:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    return obj[key]


def _require_int(obj: dict, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(f"{where}: field {key!r} must be an integer")
    return value


def _require_str(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if not isinstance(value, str):
        raise SchemaViolation(f"{where}: field {key!r} must be a string")
    return value


def _optional_str(obj: dict, key: str, where: str, default: str | None = None) -> str | None:
    value = obj.get(key, default)
    return value if value is None or isinstance(value, str) else _require_str(obj, key, where)


def _require_list(obj: dict, key: str, where: str, optional: bool = False) -> list:
    """A list field; the ``_require`` call reading each item rejects non-objects."""
    value = obj.get(key, []) if optional and isinstance(obj, dict) else _require(obj, key, where)
    if not isinstance(value, list):
        raise SchemaViolation(f"{where}: field {key!r} must be a list")
    return value


def _require_strs(obj: dict, key: str, where: str, optional: bool = False) -> list[str]:
    value = _require_list(obj, key, where, optional)
    if not all(type(item) is str for item in value):
        raise SchemaViolation(f"{where}: field {key!r} must be a list of strings")
    return value


# The default of an absent list field on the fast path; never mutated.
_NO_ITEMS: list = []


def _parse_object(data: bytes | str) -> dict:
    """The JSON object ``data`` holds; MalformedInput when it holds none."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(str(exc)) from None
    try:
        raw = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise MalformedInput(str(exc)) from None
    if not isinstance(raw, dict):
        raise MalformedInput("document must be a JSON object")
    return raw


def load_document(data: bytes | str, schema: ArgSchema | None = None) -> Document:
    """Parse one standoff JSON document and validate every invariant.

    Loading is pure: the same bytes always yield the same Document. Event
    types and argument roles are checked against ``schema`` (the bundled
    default when omitted), so unknown ones are rejected here.
    """
    return document_from_dict(_parse_object(data), schema=schema)


def document_from_dict(raw: dict, schema: ArgSchema | None = None) -> Document:
    """Build a Document from one parsed standoff object and validate it.

    A record whose fields all have their exact JSON types is built directly;
    any other record goes through the ``_require*`` checks, which name its
    first fault.
    """
    if schema is None:
        schema = default_schema()
    doc_id = _require_str(raw, "doc_id", "document")
    text = _require_str(raw, "text", doc_id)
    token_where, sentence_where = f"{doc_id} token", f"{doc_id} sentence"

    sentences = []
    for s in _require_list(raw, "sentences", doc_id):
        tokens = []
        for t in _require_list(s, "tokens", sentence_where, optional=True):
            if not (type(t) is dict and type(start := t.get("start")) is int
                    and type(end := t.get("end")) is int
                    and ((pos := t.get("pos")) is None or type(pos) is str)):
                start = _require_int(t, "start", token_where)
                end = _require_int(t, "end", token_where)
                pos = _optional_str(t, "pos", token_where)
            tokens.append(Token(start, end, text[start:end], pos))
        sentences.append(Sentence(
            index=_require_int(s, "index", sentence_where),
            start=_require_int(s, "start", sentence_where),
            end=_require_int(s, "end", sentence_where),
            tokens=tuple(tokens),
        ))

    entities = []
    for e in _require_list(raw, "entities", doc_id):
        fast = (type(e) is dict and type(ent_id := e.get("id")) is str
                and type(start := e.get("start")) is int and type(end := e.get("end")) is int
                and type(items := e.get("mutations", _NO_ITEMS)) is list
                and type(label := e.get("label")) is str
                and ((grounding := e.get("grounding")) is None or type(grounding) is str))
        if not fast:
            ent_id = _require_str(e, "id", f"{doc_id} entity")
            start = _require_int(e, "start", ent_id)
            end = _require_int(e, "end", ent_id)
            items = _require_list(e, "mutations", f"{doc_id} {ent_id}", optional=True)
        mutations = []
        for m in items:
            if not (type(m) is dict and type(kind := m.get("kind")) is str
                    and ((mut_label := m.get("label")) is None or type(mut_label) is str)):
                where = f"{doc_id} {ent_id}"
                kind = _require_str(m, "kind", where)
                mut_label = _optional_str(m, "label", where)
            mutations.append(MutationRecord(kind, mut_label))
        if not fast:
            label = _require_str(e, "label", ent_id)
            grounding = _optional_str(e, "grounding", ent_id)
        surface = text[start:end] if 0 <= start <= end <= len(text) else ""
        entities.append(EntityMention(ent_id, start, end, label, surface, grounding,
                                      tuple(mutations)))

    events = []
    for ev in _require_list(raw, "events", doc_id):
        fast = (type(ev) is dict and type(ev_id := ev.get("id")) is str
                and type(items := ev.get("args", _NO_ITEMS)) is list
                and type(trigger_start := ev.get("trigger_start")) is int
                and type(trigger_end := ev.get("trigger_end")) is int
                and type(event_type := ev.get("type")) is str
                and type(polarity := ev.get("polarity", "Unspecified")) is str)
        if not fast:
            ev_id = _require_str(ev, "id", f"{doc_id} event")
            items = _require_list(ev, "args", f"{doc_id} {ev_id}", optional=True)
        args = []
        for a in items:
            if not (type(a) is dict and type(role := a.get("role")) is str
                    and type(ref := a.get("ref")) is str):
                where = f"{doc_id} {ev_id}"
                role, ref = _require_str(a, "role", where), _require_str(a, "ref", where)
            args.append(EventArg(role, ref))
        if not fast:
            trigger_start = _require_int(ev, "trigger_start", ev_id)
            trigger_end = _require_int(ev, "trigger_end", ev_id)
            event_type = _require_str(ev, "type", ev_id)
            polarity = _optional_str(ev, "polarity", ev_id, "Unspecified")
        events.append(EventMention(ev_id, trigger_start, trigger_end, event_type,
                                   tuple(args), polarity))

    doc = Document(
        doc_id=doc_id,
        text=text,
        sentences=tuple(sentences),
        entities=tuple(entities),
        events=tuple(events),
    )
    validate_document(doc, event_types=schema.event_types)

    # Validate argument roles against the schema so junk roles fail loudly.
    for ev in doc.events:
        roles = schema.roles_for(ev.event_type)
        for arg in ev.args:
            if arg.role not in roles:
                raise SchemaViolation(f"{ev.id}: role {arg.role!r} not in schema for {ev.event_type}")

    return doc


def _sentence_dict(sent: Sentence) -> dict:
    tokens = []
    for tok in sent.tokens:
        td: dict[str, Any] = {"start": tok.start, "end": tok.end}
        if tok.pos_hint is not None:
            td["pos"] = tok.pos_hint
        tokens.append(td)
    return {"index": sent.index, "start": sent.start, "end": sent.end, "tokens": tokens}


def _entity_dict(ent: EntityMention) -> dict:
    d: dict[str, Any] = {"id": ent.id, "start": ent.start, "end": ent.end, "label": ent.label}
    if ent.grounding_id is not None:
        d["grounding"] = ent.grounding_id
    if ent.mutations:
        muts = []
        for m in ent.mutations:
            md: dict[str, Any] = {"kind": m.kind}
            if m.label is not None:
                md["label"] = m.label
            muts.append(md)
        d["mutations"] = muts
    return d


def _event_dict(ev: EventMention | CompletedEvent) -> dict:
    d: dict[str, Any] = {
        "id": ev.id,
        "trigger_start": ev.trigger_start,
        "trigger_end": ev.trigger_end,
        "type": ev.event_type,
    }
    if ev.polarity != "Unspecified":
        d["polarity"] = ev.polarity
    d["args"] = [{"role": a.role, "ref": a.ref} for a in ev.args]
    if isinstance(ev, CompletedEvent):
        d["derived_from"] = ev.derived_from
        d["provenance"] = list(ev.provenance)
    return d


def document_to_dict(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "sentences": [_sentence_dict(s) for s in doc.sentences],
        "entities": [_entity_dict(e) for e in doc.entities],
        "events": [_event_dict(ev) for ev in doc.events],
    }


class _Indents(dict):
    """depth -> (before the first item, between items, before the closing
    bracket) of a container whose items sit at ``depth``."""

    def __missing__(self, depth: int) -> tuple[str, str, str]:
        ind = "\n" + "  " * depth
        self[depth] = value = (ind, "," + ind, ind[:-2])
        return value


_INDENTS = _Indents()


def _write_indented(value: Any, depth: int, out: list[str]) -> None:
    """Append the indented JSON of ``value``, nested ``depth`` deep, to ``out``.
    Strings and integers, most of a result, are written inline in their
    container's loop."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        lead, sep, close = _INDENTS[depth + 1]
        append = out.append
        append("{")
        for key, item in value.items():
            append(lead)
            append(encode_basestring(key))
            append(": ")
            lead = sep
            if type(item) is str:
                append(encode_basestring(item))
            elif type(item) is int:
                append(int.__repr__(item))
            else:
                _write_indented(item, depth + 1, out)
        append(close)
        append("}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        lead, sep, close = _INDENTS[depth + 1]
        append = out.append
        append("[")
        for item in value:
            append(lead)
            lead = sep
            if type(item) is str:
                append(encode_basestring(item))
            elif type(item) is int:
                append(int.__repr__(item))
            else:
                _write_indented(item, depth + 1, out)
        append(close)
        append("]")
    elif value is None or kind is bool or kind is float:
        out.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def indented_json(value: Any) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)``, byte for byte, for
    values built of exact dicts with string keys, lists, tuples, strings,
    ints, floats, bools and None. The stdlib's indented path runs its
    pure-Python generator chain, which re-yields every token once per level
    of nesting; this writer appends each token once to one list."""
    out: list[str] = []
    _write_indented(value, 0, out)
    return "".join(out)


def _check_result(doc: Document, links: tuple[CorefLink, ...] | list,
                  completed: tuple[CompletedEvent, ...] | list) -> None:
    """Reject links or completed events that violate their invariants against
    ``doc``: every id they name is in it, and every antecedent precedes its
    anaphor."""
    starts = {ev.id: ev.trigger_start for ev in doc.events}
    starts.update((e.id, e.start) for e in doc.entities)
    completed_ids = {c.id for c in completed}
    for link in links:
        if not link.antecedent_ids:
            raise SchemaViolation(f"link {link.anaphor_id}: empty antecedent list")
        if link.anaphor_id in link.antecedent_ids:
            raise SchemaViolation(f"link {link.anaphor_id}: anaphor cannot be its own antecedent")
        if link.anaphor_id not in starts:
            raise SchemaViolation(f"link anaphor {link.anaphor_id} not in document")
        a_start = starts[link.anaphor_id]
        for ant in link.antecedent_ids:
            if ant not in starts:
                raise SchemaViolation(f"link antecedent {ant} not in document")
            if starts[ant] >= a_start:
                raise SchemaViolation(f"link {link.anaphor_id}: antecedent {ant} does not precede anaphor")
    for ev in completed:
        if ev.derived_from not in starts:
            raise SchemaViolation(f"completed event {ev.id}: unknown source {ev.derived_from}")
        for arg in ev.args:
            if arg.ref not in starts and arg.ref not in completed_ids:
                raise SchemaViolation(f"completed event {ev.id}: dangling ref {arg.ref}")


def save_result(doc: Document, links: tuple[CorefLink, ...] | list = (),
                completed: tuple[CompletedEvent, ...] | list = (),
                chains: list[list[str]] | None = None,
                trace: list | None = None, line: bool = False) -> bytes:
    """Serialize a resolved document; rejects links or events that violate
    their invariants against ``doc``. Output is deterministic byte-for-byte:
    an indented result file, or with ``line`` one compact NDJSON line.
    """
    _check_result(doc, links, completed)
    out = document_to_dict(doc)
    out["links"] = [
        {"anaphor": l.anaphor_id, "antecedents": list(l.antecedent_ids), "sieve": l.sieve_name}
        for l in links
    ]
    out["completed_events"] = [_event_dict(c) for c in completed]
    if chains is not None:
        out["chains"] = chains
    if trace is not None:
        out["trace"] = trace
    if line:
        return (json.dumps(out, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")
    return (indented_json(out) + "\n").encode("utf-8")


def load_result(data: bytes | str, schema: ArgSchema | None = None
                ) -> tuple[Document, tuple[CorefLink, ...], tuple[CompletedEvent, ...]]:
    """Inverse of save_result; ignores provenance extras it does not model.
    Links and completed events are checked as save_result checks them."""
    raw = _parse_object(data)
    doc = document_from_dict(raw, schema=schema)
    link_where = f"{doc.doc_id} link"
    links = tuple(
        CorefLink(
            anaphor_id=_require_str(l, "anaphor", link_where),
            antecedent_ids=tuple(_require_strs(l, "antecedents", link_where)),
            sieve_name=_require_str(l, "sieve", link_where),
        )
        for l in _require_list(raw, "links", doc.doc_id, optional=True)
    )
    completed = []
    for c in _require_list(raw, "completed_events", doc.doc_id, optional=True):
        ev_id = _require_str(c, "id", f"{doc.doc_id} completed event")
        completed.append(CompletedEvent(
            id=ev_id,
            trigger_start=_require_int(c, "trigger_start", ev_id),
            trigger_end=_require_int(c, "trigger_end", ev_id),
            event_type=_require_str(c, "type", ev_id),
            args=tuple(EventArg(_require_str(a, "role", ev_id), _require_str(a, "ref", ev_id))
                       for a in _require_list(c, "args", ev_id, optional=True)),
            polarity=_optional_str(c, "polarity", ev_id, "Unspecified"),
            derived_from=_require_str(c, "derived_from", ev_id),
            provenance=tuple(_require_strs(c, "provenance", ev_id, optional=True)),
        ))
    _check_result(doc, links, completed)
    return doc, links, tuple(completed)
