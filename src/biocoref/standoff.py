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
``trace`` included, so no generic JSON encoder is involved. It formats and
encodes the text and each record by itself as it writes it, so that no
string of the whole result, nor of a whole list, is built: returning a
result's bytes takes about two to three times its size on top of the model,
whatever characters its text holds, and writing them to a file holds a
small fraction of it. ``read_results`` is the one reader: it tells a stream
as ``resolve`` does and checks as ``load_result``.

``load_document`` reads a long document one record at a time (``_scan``):
each record is parsed, built into its model record and dropped before the
next is read, so no JSON tree of the document is ever built. Short ones,
and any input the scan hands off, are read by ``json.loads`` and
``document_from_dict``, the reference path, which frees each parsed record
as its model record is built and names the first fault of a bad input.
Either way a document keeps one string object per distinct value: ids and
the refs that name them, labels, types, roles and surfaces. A worker hands
an input's bytes to ``_load``, which drops them once they are decoded; a
long input whose non-ASCII bytes all lie in its text is decoded one byte per
character (``_SCAN_FROM``). Traced on a 1,600-sentence document with one
non-ASCII character in its text, loading it peaks at 3.7 MiB, resolving it
at 3.9 and saving its result at 3.7, for a model of 2.6 MiB.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

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


def _sentences(records: Iterable, text: str, doc_id: str, share: Callable[[Any, Any], Any]
               ) -> list[Sentence]:
    """The Sentences of the parsed ``records``, taken one at a time, their
    tokens' surfaces sliced from ``text``. A record whose fields all have
    their exact JSON types is built directly; any other goes through the
    ``_require*`` checks, which name its first fault. So do ``_entities``
    and ``_events``.

    ``share`` is the ``setdefault`` of a dict of the document's strings,
    one object per distinct value: each string a record holds is the first
    equal one shared, so a value repeated across records, a ``ref`` and the
    id it names, or a surface and its token's, is held once."""
    sentences = []
    for s in records:
        # A sentence's tokens are read before its own fields.
        fast = (type(s) is dict and type(items := s.get("tokens", _NO_ITEMS)) is list
                and type(index := s.get("index")) is int
                and type(sent_start := s.get("start")) is int
                and type(sent_end := s.get("end")) is int)
        if not fast:
            items = _require_list(s, "tokens", f"{doc_id} sentence", optional=True)
        tokens = []
        for t in items:
            if not (type(t) is dict and type(start := t.get("start")) is int
                    and type(end := t.get("end")) is int
                    and ((pos := t.get("pos")) is None or type(pos) is str)):
                where = f"{doc_id} token"
                start = _require_int(t, "start", where)
                end = _require_int(t, "end", where)
                pos = _optional_str(t, "pos", where)
            surface = text[start:end]
            tokens.append(Token(start, end, share(surface, surface),
                                None if pos is None else share(pos, pos)))
        if not fast:
            where = f"{doc_id} sentence"
            index = _require_int(s, "index", where)
            sent_start = _require_int(s, "start", where)
            sent_end = _require_int(s, "end", where)
        sentences.append(Sentence(index, sent_start, sent_end, tuple(tokens)))
    return sentences


def _entities(records: Iterable, text: str, doc_id: str, share: Callable[[Any, Any], Any]
              ) -> list[EntityMention]:
    entities = []
    for e in records:
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
            if mut_label is not None:
                mut_label = share(mut_label, mut_label)
            mutations.append(MutationRecord(share(kind, kind), mut_label))
        if not fast:
            label = _require_str(e, "label", ent_id)
            grounding = _optional_str(e, "grounding", ent_id)
        surface = text[start:end] if 0 <= start <= end <= len(text) else ""
        entities.append(EntityMention(share(ent_id, ent_id), start, end, share(label, label),
                                      share(surface, surface),
                                      None if grounding is None else share(grounding, grounding),
                                      tuple(mutations)))
    return entities


def _events(records: Iterable, text: str, doc_id: str, share: Callable[[Any, Any], Any]
            ) -> list[EventMention]:
    events = []
    for ev in records:
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
            args.append(EventArg(share(role, role), share(ref, ref)))
        if not fast:
            trigger_start = _require_int(ev, "trigger_start", ev_id)
            trigger_end = _require_int(ev, "trigger_end", ev_id)
            event_type = _require_str(ev, "type", ev_id)
            polarity = _optional_str(ev, "polarity", ev_id, "Unspecified")
        events.append(EventMention(share(ev_id, ev_id), trigger_start, trigger_end,
                                   share(event_type, event_type), tuple(args),
                                   share(polarity, polarity)))
    return events


# How each record list is built, in the order the reference path reads them.
_RECORDS = {"sentences": _sentences, "entities": _entities, "events": _events}


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

    A document of at least ``_SCAN_FROM`` characters, or bytes, is read by
    ``_scan``, one record at a time; what the scan does not take, and every
    shorter document, is read by ``json.loads`` and ``document_from_dict``,
    the reference path, which also names the first fault of an input that
    neither takes.
    """
    return _load([data], schema)


def _load(box: list, schema: ArgSchema | None) -> Document:
    """``load_document`` of the one input ``box`` holds, taken out of it, so
    that bytes the caller drops from its own names are dropped here once
    decoded, before the parse. Long bytes are first decoded as latin-1, one
    character per byte, for ``_scan`` to transcode the text alone."""
    data = box.pop()  # rebound at each decoding, which drops what it held
    schema = default_schema() if schema is None else schema
    if type(data) is bytes and len(data) >= _SCAN_FROM and not data.isascii():
        data = data.decode("latin-1")
        doc = _scan(data, schema, one_byte=True)
        if doc is not None:
            return doc
        data = data.encode("latin-1")
    data = _text(data)
    doc = _scan(data, schema) if len(data) >= _SCAN_FROM else None
    return doc if doc is not None else document_from_dict(_parse_object(data), schema)


def document_from_dict(raw: dict, schema: ArgSchema | None) -> Document:
    """Build a Document from one parsed standoff object and validate it:
    its event types, roles and fillers' classes against ``schema``, unless
    it is None, as for a result, whose input was checked when it was loaded.

    ``raw`` is consumed: its ``sentences``, ``entities`` and ``events`` lists
    are emptied record by record as the model is built, so a parsed record
    is freed once its model record exists and the dict tree is never held
    beside the whole model. Its other fields are left as they are. A caller
    that needs the records afterwards passes a copy.
    """
    doc_id = _require_str(raw, "doc_id", "document")
    text = _require_str(raw, "text", doc_id)
    strings: dict[str, str] = {}
    share = strings.setdefault
    records = [build(_drain(_require_list(raw, key, doc_id)), text, doc_id, share)
               for key, build in _RECORDS.items()]
    del strings, share  # the records hold their strings; the table is not held while checking
    return _checked(Document(doc_id, text, *map(tuple, records)), schema)


# Characters, or bytes, from which a document is read by ``_scan``. Long
# bytes are scanned decoded as latin-1 when every non-ASCII byte lies in the
# "text" value, which holds no \u escape: only that value is transcoded
# from UTF-8, so the source takes one byte per character whatever the text
# holds. Any other input, invalid UTF-8 included, is decoded as UTF-8 first.
_SCAN_FROM = 1 << 16
_SCAN_ONCE = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index
# A punctuation character, with the JSON whitespace around it.
_PUNCT = re.compile(r"[ \t\n\r]*([,:\[\]{}])[ \t\n\r]*")
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")  # the one between a list's items


def _ascii(source: str, start: int, end: int) -> bool:
    """Whether ``source[start:end]`` is ASCII, read a few KiB at a time: a
    copy of the whole range would grow the heap for the rest of the load."""
    return all(source[i:min(i + 4096, end)].isascii() for i in range(start, end, 4096))


def _scan(source: str, schema: ArgSchema | None, one_byte: bool = False) -> Document | None:
    """The Document the JSON text ``source`` holds, read as ``json.loads``
    and ``document_from_dict`` read it, or None for the reference path to
    read instead. With ``one_byte``, ``source`` is bytes decoded as latin-1
    (see ``_SCAN_FROM``), and None also when they do not qualify.

    The top-level object is read key by key, and each record list one
    record at a time: each record is parsed as the code that builds it for
    ``document_from_dict`` takes it, and freed once the next is taken, so no
    tree of the whole document is built. The values of other
    keys are parsed and dropped. None, for the reference path, when the top
    level is not an object, a key repeats, ``doc_id`` or ``text`` is not a
    string read before the first record list, a record list is missing or
    not a list, data follows the object, or on any JSON or schema fault,
    whose message the reference path then gives.
    """
    scan, punct, comma = _SCAN_ONCE, _PUNCT.match, _COMMA.match
    fields: dict[str, Any] = {}  # each key read; the value of doc_id, text and each list
    strings: dict[str, str] = {}
    share = strings.setdefault
    pos = 0

    def records() -> Iterator:
        """Each record of the list that starts at ``pos``, after its "[",
        parsed as it is taken; ``pos`` then follows the list's "]". A fault
        raises ValueError."""
        nonlocal pos
        if source.startswith("]", pos):
            pos += 1
            return
        while True:
            try:
                record, pos = scan(source, pos)
            except StopIteration:  # out of a generator it would be a RuntimeError
                raise ValueError("no JSON value where a record was due") from None
            yield record
            del record  # built: not held here while the next is parsed
            m = comma(source, pos)
            if m is None:
                break
            pos = m.end()
        m = punct(source, pos)
        if m is None or m[1] != "]":
            raise ValueError("no end to a list of records")
        pos = m.end()

    try:
        m = punct(source)
        if m is None or m[1] != "{":
            return None
        while True:
            key, pos = scan(source, m.end())
            if type(key) is not str or key in fields:
                return None
            m = punct(source, pos)
            if m is None or m[1] != ":":
                return None
            build = _RECORDS.get(key)
            if build is None:
                start = m.end()
                value, pos = scan(source, start)
                if one_byte and key == "text" and type(value) is str:
                    if not (_ascii(source, 0, start) and _ascii(source, pos, len(source))) \
                            or source.find("\\u", start, pos) >= 0:
                        return None
                    value = value.encode("latin-1").decode("utf-8")  # ValueError if not UTF-8
                fields[key] = value if key in ("doc_id", "text") else None
                del value
            else:
                doc_id, text = fields.get("doc_id"), fields.get("text")
                m = punct(source, m.end())
                if type(doc_id) is not str or type(text) is not str or m is None or m[1] != "[":
                    return None
                pos = m.end()
                fields[key] = build(records(), text, doc_id, share)
            m = punct(source, pos)
            if m is None or m[1] != ",":
                break
        if m is None or m[1] != "}" or m.end() != len(source) \
                or not all(key in fields for key in _RECORDS):
            return None
        del strings, share  # as in document_from_dict
        return _checked(Document(fields["doc_id"], fields["text"],
                                 *(tuple(fields.pop(key)) for key in _RECORDS)), schema)
    # StopIteration: no JSON value where one was due; RecursionError: nesting too deep.
    except (ValueError, StopIteration, RecursionError):  # ValueError: any other fault
        return None


def _checked(doc: Document, schema: ArgSchema | None) -> Document:
    """``doc``, once it holds every document invariant and, unless
    ``schema`` is None, its event types, argument roles and fillers'
    classes are in ``schema``."""
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
    result's lists are formatted and encoded to UTF-8 by themselves, as they
    are written, so a non-ASCII character, which makes a ``str`` take two or
    four bytes per character, widens only its own piece. Without ``file``
    the pieces are joined once and returned, and the transient stays near
    two to three times the result. With ``file``, a binary file open for
    writing, each piece is written to it as soon as it is encoded and
    nothing is returned: what is held beyond the resolution is the checks'
    id table, the encoded text and one record, and a value that cannot be
    encoded raises part way through the file.
    """
    _check_result(doc, links, completed)
    t = _LINE if line else _FILE
    enc, inner, top, sep = encode_basestring, t.inner, t.top, t.sep
    token, token_pos, sentence = t.token, t.token_pos, t.sentence
    lists = [
        (top[2], (sentence % (s.index, s.start, s.end, _join(inner, [
            token % (k.start, k.end) if k.pos_hint is None
            else token_pos % (k.start, k.end, enc(k.pos_hint)) for k in s.tokens]))
            for s in doc.sentences)),
        (top[3], (t.entity % (
            enc(e.id), e.start, e.end, enc(e.label),
            "" if e.grounding_id is None else t.grounding % enc(e.grounding_id),
            t.mutations % _join(inner, [
                t.mutation % enc(m.kind) if m.label is None
                else t.mutation_label % (enc(m.kind), enc(m.label)) for m in e.mutations])
            if e.mutations else "")
            for e in doc.entities)),
        (top[4], (_event(t, ev) for ev in doc.events)),
        (top[5], (t.link % (enc(l.anaphor_id), _join(inner, [enc(a) for a in l.antecedent_ids]),
                            enc(l.sieve_name)) for l in links)),
        (top[6], (_event(t, c, t.completed % (
            enc(c.derived_from), _join(inner, [enc(p) for p in c.provenance])))
            for c in completed)),
    ]
    if chains is not None:
        lists.append((t.chains, (sep + _join(t.chain_items, [enc(m) for m in chain])
                                 for chain in chains)))
    if trace is not None:
        lists.append((t.trace, (_trace_entry(t, entry) for entry in trace)))
    pieces: list[bytes] = []
    put = pieces.extend if file is None else file.writelines
    put((top[0], enc(doc.doc_id).encode(), top[1], enc(doc.text).encode()))
    for literal, items in lists:
        first = next(items, None)
        if first is None:
            put((literal, b"[]"))
            continue
        # The first item has no "," before it.
        put((literal, b"[", first[1:].encode()))
        put(map(str.encode, items))
        put((t.close,))
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
