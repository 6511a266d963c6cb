"""Reading and writing the standoff JSON interchange format.

Input schema (one document per file, or one per line of an NDJSON stream,
whose lines end at ``"\\n"`` only, so a string may hold U+0085, U+2028 or
U+2029 raw, as JSON allows and as the results written here do; each line
reaches ``load_document`` as its bytes, and a decode error is its
``MalformedInput``):

    { "doc_id": str, "text": str,
      "sentences": [ {"index": int, "start": int, "end": int,
                      "tokens": [{"start": int, "end": int, "pos": str?}]} ],
      "entities": [ {"id": str, "start": int, "end": int, "label": str,
                     "grounding": str?, "mutations": [{"kind": str, "label": str?}]} ],
      "events":   [ {"id": str, "trigger_start": int, "trigger_end": int,
                     "type": str, "polarity": str?,
                     "args": [{"role": str, "ref": str}]} ] }

Result files add "links" and "completed_events". Serialization is canonical:
each result is the bytes ``json.dumps(ensure_ascii=False)`` gives for it as an
indented file (``indent=2``) or a compact stream line. ``save_result`` is the
one writer: it formats the model straight into one table of ``%``-templates
per layout, one template per record shape, the provenance ``chains`` and
``trace`` included, so no generic JSON encoder is involved. It encodes
the text and each record by itself, so that no string of the whole result is
built: returning a result's bytes takes about two to three times its size on
top of the model, whatever characters its text holds, and writing them to a
file as they are encoded takes less than twice. ``read_results`` is the one
reader: it tells a stream as ``resolve`` does and checks as ``load_result``.

``load_document`` parses the whole JSON tree, then ``document_from_dict``
builds the model from it and frees each parsed record, with its token,
mutation or argument lists, as soon as that record's model record is built.
The model is smaller than the tree, so loading peaks at ``json.loads``'s own
peak and never holds the whole tree beside the whole model. A worker decodes
an input's bytes with ``_text`` and drops them before the text is parsed, so
the parse never holds the bytes beside their text. On a 1,600-sentence
document that took loading's traced peak from 7.25 to 6.46 MiB, below the
6.60 MiB of saving the result to its file: saving now sets a long
document's peak in a worker, and is the next ceiling.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Iterator

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
from .schema import EVENT_PSEUDO_CLASS, ArgSchema, default_schema


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


def _drain(records: list) -> Iterator:
    """Each item of ``records`` in order, its slot cleared as it is taken, so
    that a parsed record is freed once the next one is read; the list ends
    empty."""
    for i, record in enumerate(records):
        records[i] = None
        yield record
    records.clear()


def _text(data: bytes | str) -> str:
    """``data`` as text: bytes decoded as UTF-8; MalformedInput when they
    are not."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(exc)) from None


def _parse_object(data: bytes | str) -> dict:
    """The JSON object ``data`` holds; MalformedInput when it holds none."""
    try:
        raw = json.loads(_text(data))
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
    return document_from_dict(_parse_object(data), default_schema() if schema is None else schema)


def document_from_dict(raw: dict, schema: ArgSchema | None) -> Document:
    """Build a Document from one parsed standoff object and validate it:
    its event types, roles and fillers' classes against ``schema``, unless
    it is None, as for a result, whose input was checked when it was loaded.

    A record whose fields all have their exact JSON types is built directly;
    any other record goes through the ``_require*`` checks, which name its
    first fault.

    ``raw`` is consumed: its ``sentences``, ``entities`` and ``events`` lists
    are emptied record by record as the model is built, so a parsed record
    is freed once its model record exists and the dict tree is never held
    beside the whole model. Its other fields are left as they are. A caller
    that needs the records afterwards passes a copy.
    """
    doc_id = _require_str(raw, "doc_id", "document")
    text = _require_str(raw, "text", doc_id)
    token_where, sentence_where = f"{doc_id} token", f"{doc_id} sentence"

    sentences = []
    for s in _drain(_require_list(raw, "sentences", doc_id)):
        # A sentence's tokens are read before its own fields.
        fast = (type(s) is dict and type(items := s.get("tokens", _NO_ITEMS)) is list
                and type(index := s.get("index")) is int
                and type(sent_start := s.get("start")) is int
                and type(sent_end := s.get("end")) is int)
        if not fast:
            items = _require_list(s, "tokens", sentence_where, optional=True)
        tokens = []
        for t in items:
            if not (type(t) is dict and type(start := t.get("start")) is int
                    and type(end := t.get("end")) is int
                    and ((pos := t.get("pos")) is None or type(pos) is str)):
                start = _require_int(t, "start", token_where)
                end = _require_int(t, "end", token_where)
                pos = _optional_str(t, "pos", token_where)
            tokens.append(Token(start, end, text[start:end], pos))
        if not fast:
            index = _require_int(s, "index", sentence_where)
            sent_start = _require_int(s, "start", sentence_where)
            sent_end = _require_int(s, "end", sentence_where)
        sentences.append(Sentence(index, sent_start, sent_end, tuple(tokens)))

    entities = []
    for e in _drain(_require_list(raw, "entities", doc_id)):
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
    for ev in _drain(_require_list(raw, "events", doc_id)):
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
    validate_document(doc, event_types=None if schema is None else schema.event_types)
    if schema is None:
        return doc

    # Validate argument roles and their fillers' classes against the schema
    # so junk arguments fail loudly.
    classes = {ent.id: ent.label for ent in doc.entities}
    classes.update((ev.id, EVENT_PSEUDO_CLASS) for ev in doc.events)
    for ev in doc.events:
        roles = schema.roles_for(ev.event_type)
        for arg in ev.args:
            spec = roles.get(arg.role)
            if spec is None:
                raise SchemaViolation(f"{ev.id}: role {arg.role!r} not in schema for {ev.event_type}")
            if classes[arg.ref] not in spec.classes:
                raise SchemaViolation(f"{ev.id}: {arg.role} filler {arg.ref} of class "
                                      f"{classes[arg.ref]} not in schema for {ev.event_type}")

    return doc


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


class _Layout:
    """The ``%``-templates of one result layout, one per record shape at the
    depth it sits at in a result: with ``indent`` as ``json.dumps(indent=2)``
    lays it out, else as ``json.dumps(separators=(",", ":"))``. A ``%s`` slot
    after a field takes that record's optional tail, or ``""``.

    A record of the result's own lists starts with ``sep``, the separator
    that goes before it. As UTF-8, ``top`` holds the literal text around the
    result's own fields, ``close`` the text that ends one of its lists, and
    ``chains`` and ``trace`` the text before those optional lists."""

    def __init__(self, indent: bool) -> None:
        colon = ": " if indent else ":"

        def pad(depth: int) -> tuple[str, str, str]:
            """Before the first item, between items, and before the closing
            bracket of a container whose items sit at ``depth``."""
            if not indent:
                return "", ",", ""
            lead = "\n" + "  " * depth
            return lead, "," + lead, lead[:-2]

        def tail(depth: int, *keys: str | None) -> str:
            sep = pad(depth)[1]
            return "".join("%s" if k is None else f'{sep}"{k}"{colon}%s' for k in keys)

        def record(depth: int, *keys: str | None) -> str:
            lead, sep, close = pad(depth)
            return "{" + lead + tail(depth, *keys)[len(sep):] + close + "}"

        _, self.sep, close = pad(2)
        self.inner, self.close = pad(4), (close + "]").encode()
        self.token, self.token_pos = record(5, "start", "end"), record(5, "start", "end", "pos")
        self.sentence = self.sep + record(3, "index", "start", "end", "tokens")
        self.entity = self.sep + record(3, "id", "start", "end", "label", None, None)
        self.grounding, self.mutations = tail(3, "grounding"), tail(3, "mutations")
        self.mutation, self.mutation_label = record(5, "kind"), record(5, "kind", "label")
        self.event = self.sep + record(3, "id", "trigger_start", "trigger_end", "type", None,
                                       "args", None)
        self.polarity, self.arg = tail(3, "polarity"), record(5, "role", "ref")
        self.completed = tail(3, "derived_from", "provenance")
        self.link = self.sep + record(3, "anaphor", "antecedents", "sieve")
        self.chain_items = pad(3)
        self.entry = self.sep + record(3, "anaphor", "kind", "surface", "span", "cardinality",
                                       "attempts", "final")
        self.attempt, self.attempt_items = record(5, "sieve", "status", None), pad(6)
        self.considered, self.antecedents = tail(5, "considered"), tail(5, "antecedents")
        self.verdict = record(7, "id", "verdict")
        self.final, self.final_items = record(4, "status", None), pad(5)
        self.linked = tail(4, "sieve", "antecedents")
        self.top = [part.encode() for part in (record(
            1, "doc_id", "text", "sentences", "entities", "events", "links",
            "completed_events") + "\n").split("%s")]
        self.chains, self.trace = (tail(1, key).split("%s")[0].encode()
                                   for key in ("chains", "trace"))


_FILE = _Layout(True)
_LINE = _Layout(False)


def _join(pad: tuple[str, str, str], items: list[str]) -> str:
    """A list of already encoded items, laid out by its items' ``pad``."""
    return "[" + pad[0] + pad[1].join(items) + pad[2] + "]" if items else "[]"


def _event(t: _Layout, ev: EventMention | CompletedEvent, tail: str = "") -> str:
    enc = encode_basestring
    return t.event % (
        enc(ev.id), ev.trigger_start, ev.trigger_end, enc(ev.event_type),
        "" if ev.polarity == "Unspecified" else t.polarity % enc(ev.polarity),
        _join(t.inner, [t.arg % (enc(a.role), enc(a.ref)) for a in ev.args]), tail)


def _trace_entry(t: _Layout, entry: dict) -> str:
    """One trace entry; an attempt's ``considered`` and ``antecedents`` and a
    linked ``final``'s ``sieve`` and ``antecedents`` are written when present."""
    enc, items = encode_basestring, t.attempt_items
    attempts = []
    for a in entry["attempts"]:
        extra = ""
        if "considered" in a:
            extra = t.considered % _join(items, [t.verdict % (enc(c["id"]), enc(c["verdict"]))
                                                 for c in a["considered"]])
        if "antecedents" in a:
            extra += t.antecedents % _join(items, [enc(x) for x in a["antecedents"]])
        attempts.append(t.attempt % (enc(a["sieve"]), enc(a["status"]), extra))
    final = entry["final"]
    return t.entry % (
        enc(entry["anaphor"]), enc(entry["kind"]), enc(entry["surface"]),
        _join(t.inner, [int.__repr__(n) for n in entry["span"]]), enc(entry["cardinality"]),
        _join(t.inner, attempts),
        t.final % (enc(final["status"]), t.linked % (
            enc(final["sieve"]), _join(t.final_items, [enc(x) for x in final["antecedents"]]))
            if "sieve" in final else ""))


def save_result(doc: Document, links: tuple[CorefLink, ...] | list = (),
                completed: tuple[CompletedEvent, ...] | list = (),
                chains: list[list[str]] | None = None,
                trace: list | None = None, line: bool = False,
                file: BinaryIO | None = None) -> bytes | None:
    """Serialize a resolved document; rejects links or events that violate
    their invariants against ``doc``. Output is deterministic byte-for-byte:
    an indented result file, or with ``line`` one compact NDJSON line.

    No string of the whole result is built. The text and each record of the
    result's lists are encoded to UTF-8 by themselves, and each list's
    strings are dropped once they are encoded. So a non-ASCII character,
    which makes a ``str`` take two or four bytes per character, widens only
    its own piece. Without ``file`` the pieces are joined once and returned,
    and the transient stays near two to three times the result. With
    ``file``, a binary file open for writing, each piece is written to it as
    soon as it is encoded and nothing is returned, so no copy of the whole
    result is built.
    """
    _check_result(doc, links, completed)
    t = _LINE if line else _FILE
    enc, inner, top, sep = encode_basestring, t.inner, t.top, t.sep
    token, token_pos, sentence = t.token, t.token_pos, t.sentence
    lists = [
        (top[2], [sentence % (s.index, s.start, s.end, _join(inner, [
            token % (k.start, k.end) if k.pos_hint is None
            else token_pos % (k.start, k.end, enc(k.pos_hint)) for k in s.tokens]))
            for s in doc.sentences]),
        (top[3], [t.entity % (
            enc(e.id), e.start, e.end, enc(e.label),
            "" if e.grounding_id is None else t.grounding % enc(e.grounding_id),
            t.mutations % _join(inner, [
                t.mutation % enc(m.kind) if m.label is None
                else t.mutation_label % (enc(m.kind), enc(m.label)) for m in e.mutations])
            if e.mutations else "")
            for e in doc.entities]),
        (top[4], [_event(t, ev) for ev in doc.events]),
        (top[5], [t.link % (enc(l.anaphor_id), _join(inner, [enc(a) for a in l.antecedent_ids]),
                            enc(l.sieve_name)) for l in links]),
        (top[6], [_event(t, c, t.completed % (
            enc(c.derived_from), _join(inner, [enc(p) for p in c.provenance])))
            for c in completed]),
    ]
    if chains is not None:
        lists.append((t.chains, [sep + _join(t.chain_items, [enc(m) for m in chain])
                                 for chain in chains]))
    if trace is not None:
        lists.append((t.trace, [_trace_entry(t, entry) for entry in trace]))
    pieces: list[bytes] = []
    put = pieces.extend if file is None else file.writelines
    put((top[0], enc(doc.doc_id).encode(), top[1], enc(doc.text).encode()))
    for literal, items in lists:
        if items:
            items[0] = items[0][1:]  # the first item has no "," before it
            put((literal, b"["))
            put(map(str.encode, items))
            put((t.close,))
            items.clear()  # encoded: its strings are not held while the rest is
        else:
            put((literal, b"[]"))
    put((top[7],))
    return b"".join(pieces) if file is None else None


_READ_SIZE = 1 << 16  # bytes per read of an input or result file
_NON_SPACE = re.compile(rb"[^ \t\r\n]")  # a byte other than JSON whitespace


def _two_lines(file: BinaryIO, size: int) -> bool:
    """Whether ``file``, read from where it is ``size`` bytes at a time, has
    at least two non-empty lines: a byte other than JSON whitespace, a
    ``b"\\n"`` after it, and another such byte after that. Each read is
    searched and dropped; nothing is decoded or kept."""
    seen = 0  # how many of the three have been found
    while data := file.read(size):
        start = 0
        if seen == 0:
            first = _NON_SPACE.search(data)
            if first is None:
                continue
            start, seen = first.end(), 1
        if seen == 1:
            start = data.find(b"\n", start)
            if start < 0:
                continue
            seen = 2
        if _NON_SPACE.search(data, start) is not None:
            return True
    return False


def _documents(file: BinaryIO, size: int) -> Iterator[tuple[int, bytes]] | None:
    """An NDJSON stream's documents as ``(line, bytes)``, or None when the
    file is one document. Lines end at ``b"\\n"``, and a ``b"\\r"`` before
    it is dropped; they are numbered from 1, and a line that holds only JSON
    whitespace is skipped. A file is a stream when it has at least two
    non-empty lines and its first non-empty line holds a JSON value by
    itself. The file is first scanned for two non-empty lines, ``size``
    bytes at a time, which keeps no text; only then is its first non-empty
    line read again, and it is the one line decoded and parsed here. A
    stream's other lines are read as they are taken."""
    if not _two_lines(file, size):
        return None
    file.seek(0)
    lines = ((n, line[:-2] if line.endswith(b"\r\n") else line.removesuffix(b"\n"))
             for n, line in enumerate(file, 1) if _NON_SPACE.search(line))
    first = next(lines, (0, b""))  # empty when the file was emptied since it was scanned
    try:
        # Each object parsed becomes None, so no tree of a document is built.
        json.loads(first[1].decode("utf-8"), object_pairs_hook=lambda pairs: None)
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
        return None
    second = next(lines, None)
    if second is None:  # the file changed since it was scanned
        return None
    return chain((first, second), lines)


def load_result(data: bytes | str
                ) -> tuple[Document, tuple[CorefLink, ...], tuple[CompletedEvent, ...]]:
    """Inverse of save_result; ignores provenance extras it does not model.
    Links and completed events are checked as save_result checks them; like
    it, it takes no schema: event types and roles are ``load_document``'s check."""
    return _result(_parse_object(data))[:3]


def _result(raw: dict) -> tuple:
    """``load_result``'s three of the parsed result ``raw``, and its raw ``trace``."""
    doc = document_from_dict(raw, schema=None)
    where = f"{doc.doc_id} link"
    links = tuple(CorefLink(_require_str(l, "anaphor", where),
                            tuple(_require_strs(l, "antecedents", where)),
                            _require_str(l, "sieve", where))
                  for l in _require_list(raw, "links", doc.doc_id, optional=True))
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
    return doc, links, tuple(completed), raw.get("trace")


def read_results(path: str | Path) -> Iterator[tuple[int | None, Document, tuple[CorefLink, ...],
                                                     tuple[CompletedEvent, ...], Any]]:
    """``(line, doc, links, completed, trace)`` for each result of the file
    ``path``, or of the directory's ``*.json`` files in name order, checked
    as ``load_result`` checks it, ``trace`` raw. ``line`` numbers a stream's
    lines, told by ``_documents``'s rule; a refused result's error names its
    file and ``line``."""
    path = Path(path)
    for name in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        with open(name, "rb") as file:
            lines = _documents(file, _READ_SIZE)
            if lines is None:  # one result: read whole through the same handle
                file.seek(0)
                lines = [(None, file.read())]
            for line, data in lines:
                try:
                    result = _result(_parse_object(data))
                except (MalformedInput, SchemaViolation) as exc:
                    where = name if line is None else f"{name}: line {line}"
                    raise type(exc)(f"{where}: {exc}") from None
                yield line, *result
