import io
import json
import random
import tracemalloc

import pytest

from biocoref import resolver, standoff
from biocoref.model import (
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
)
from biocoref.schema import default_schema
from biocoref.standoff import (document_from_dict, load_document, load_result, read_results,
                               save_result)

import fixture_corpus
from conftest import load_fixture
from synth import synth_corpus, synth_doc
from test_fuzz import FIXTURES, MUTANTS, _mutate, _mutate_loadable
from test_golden import _corpus


def test_ex10_loads_expected_mentions(corpus):
    doc = load_fixture(corpus, "ex10_gsk3b")
    assert sum(1 for e in doc.entities if e.surface == "GSK3β") == 2
    assert [ev.event_type for ev in doc.events] == ["Binding"]


def test_empty_document_loads():
    doc = load_document(b'{"doc_id":"d0","text":"","sentences":[],"entities":[],"events":[]}')
    assert doc.doc_id == "d0"
    assert doc.text == ""
    assert doc.sentences == () and doc.entities == () and doc.events == ()


def test_dangling_argument_reference_names_the_id():
    raw = {
        "doc_id": "d1",
        "text": "RAF1 binds MEK1.",
        "sentences": [{"index": 0, "start": 0, "end": 16,
                       "tokens": [{"start": 0, "end": 4}, {"start": 5, "end": 10},
                                  {"start": 11, "end": 15}]}],
        "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein"}],
        "events": [{"id": "E1", "trigger_start": 5, "trigger_end": 10, "type": "Binding",
                    "args": [{"role": "theme1", "ref": "T1"}, {"role": "theme2", "ref": "T99"}]}],
    }
    with pytest.raises(SchemaViolation, match="T99"):
        load_document(json.dumps(raw))


def test_bad_json_is_malformed_input():
    with pytest.raises(MalformedInput):
        load_document(b"{not json")


def test_deep_nesting_is_malformed_input():
    # Both loaders share one parse step, so they reject the same inputs alike:
    # nesting too deep, bytes that are not UTF-8, and JSON that is not an object.
    deep = '{"doc_id": ' + "[" * 100_000 + "]" * 100_000 + "}"
    cases = [(deep, "recursion"), (b'{"doc_id": "\xff"}', "utf-8"),
             ("[1, 2]", "JSON object"), ('"x"', "JSON object")]
    for load in (load_document, load_result):
        for data, message in cases:
            with pytest.raises(MalformedInput, match=message):
                load(data)


def test_wrongly_typed_offsets_are_schema_violations():
    raw = {"doc_id": "d", "text": "RAF1",
           "sentences": [{"index": 0, "start": 0, "end": 4, "tokens": []}],
           "entities": [{"id": "T1", "start": "0", "end": 4, "label": "Protein"}],
           "events": []}
    with pytest.raises(SchemaViolation, match="integer"):
        load_document(json.dumps(raw))


def test_overlapping_sentences_rejected():
    raw = {"doc_id": "d2", "text": "abcdef",
           "sentences": [{"index": 0, "start": 0, "end": 4, "tokens": []},
                         {"index": 1, "start": 3, "end": 6, "tokens": []}],
           "entities": [], "events": []}
    with pytest.raises(SchemaViolation, match="sentence"):
        load_document(json.dumps(raw))


def test_duplicate_mention_ids_rejected():
    raw = {"doc_id": "d3", "text": "RAF1 RAF1",
           "sentences": [{"index": 0, "start": 0, "end": 9, "tokens": []}],
           "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein"},
                        {"id": "T1", "start": 5, "end": 9, "label": "Protein"}],
           "events": []}
    with pytest.raises(SchemaViolation, match="duplicate"):
        load_document(json.dumps(raw))


def test_unknown_event_type_rejected():
    raw = {"doc_id": "d4", "text": "RAF1 shook.",
           "sentences": [{"index": 0, "start": 0, "end": 11, "tokens": []}],
           "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein"}],
           "events": [{"id": "E1", "trigger_start": 5, "trigger_end": 10, "type": "Shaking",
                       "args": []}]}
    with pytest.raises(SchemaViolation, match="Shaking"):
        load_document(json.dumps(raw))


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["events"][0]["args"][0].update(ref="E3"), "theme1 filler E3 of class Event"),
    (lambda r: r["entities"][0].update(label="Site"), "theme1 filler T1 of class Site"),
], ids=["event-for-an-entity-role", "entity-of-another-class"])
def test_argument_filler_of_a_class_its_role_does_not_allow_is_rejected(corpus, edit, message):
    # ex18_ll37_igf1r's E1 is a Binding whose theme1 is the protein T1.
    raw = json.loads(json.dumps(corpus["ex18_ll37_igf1r"]))
    edit(raw)
    with pytest.raises(SchemaViolation, match=f"E1: {message} not in schema for Binding"):
        load_document(json.dumps(raw))


def test_loading_is_pure(corpus):
    data = json.dumps(corpus["ex12_foxp3"])
    assert load_document(data) == load_document(data)


def test_empty_result_round_trip():
    doc = load_document(b'{"doc_id":"d0","text":"","sentences":[],"entities":[],"events":[]}')
    data = save_result(doc)
    parsed = json.loads(data)
    assert parsed["links"] == [] and parsed["completed_events"] == []
    doc2, links, completed = load_result(data)
    assert doc2 == doc and links == () and completed == ()


def test_ex12_result_contains_pronominal_link(corpus, config):
    doc = load_fixture(corpus, "ex12_foxp3")
    res = resolver.resolve_document(doc, config)
    parsed = json.loads(res.to_bytes())
    assert parsed["links"] == [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "pronominal"}]
    anaphor = next(e for e in parsed["entities"] if e["id"] == "T2")
    antecedent = next(e for e in parsed["entities"] if e["id"] == "T1")
    assert doc.text[anaphor["start"]:anaphor["end"]] == "its"
    assert doc.text[antecedent["start"]:antecedent["end"]] == "FOXP3"


def test_result_round_trip_field_for_field(resolved_corpus):
    for doc_id, (_, res) in resolved_corpus.items():
        data = res.to_bytes()
        doc2, links, completed = load_result(data)
        assert doc2 == res.doc, doc_id
        assert list(links) == res.links, doc_id
        assert list(completed) == res.completed, doc_id


@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
def test_result_round_trip_with_provenance_after_the_records_are_freed(corpus, line):
    # load_result reads links and completed events from the dict whose
    # record lists document_from_dict has emptied.
    config = resolver.ResolverConfig.default(trace=True)
    assert len(corpus) == 22
    linked = completed = 0
    for doc_id, raw in corpus.items():
        res = resolver.resolve_document(load_document(json.dumps(raw)), config)
        data = save_result(res.doc, res.links, res.completed, res.chains, res.trace, line)
        assert load_result(data) == (res.doc, tuple(res.links), tuple(res.completed)), doc_id
        linked += bool(res.links)
        completed += bool(res.completed)
    assert linked and completed


def test_document_from_dict_empties_the_record_lists_it_is_given(corpus):
    raw = json.loads(json.dumps(corpus["ex12_foxp3"]))
    raw["links"] = [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "pronominal"}]
    doc = document_from_dict(raw, default_schema())
    assert doc == load_fixture(corpus, "ex12_foxp3") and doc.entities and doc.events
    assert raw["sentences"] == raw["entities"] == raw["events"] == []
    assert (raw["doc_id"], raw["text"]) == (doc.doc_id, doc.text)
    assert raw["links"] == [{"anaphor": "T2", "antecedents": ["T1"], "sieve": "pronominal"}]


def _outcome(load, data):
    """What ``load(data)`` gives: a Document, or the type and message of
    what it raises."""
    try:
        return load(data)
    except Exception as exc:
        return type(exc), str(exc)


def _equivalence(monkeypatch, inputs, schema):
    """Checks that each input read one record at a time, whatever its size,
    gives what the reference path gives, ``json.loads`` and
    ``document_from_dict``; returns how many the scan itself took."""
    monkeypatch.setattr(standoff, "_SCAN_FROM", 0)
    taken = 0
    for data in inputs:
        expected = _outcome(lambda d: document_from_dict(standoff._parse_object(d), schema), data)
        assert _outcome(lambda d: load_document(d, schema), data) == expected, data[:200]
        doc = standoff._scan(data, schema)
        assert doc is None or doc == expected, data[:200]
        taken += doc is not None
    return taken


def test_both_load_paths_agree_on_fixtures_and_synth_corpora(monkeypatch, corpus):
    # Compact and indented: indent=2 puts whitespace between most tokens.
    schema = default_schema()
    docs = list(corpus.values()) + _corpus("synth") + _corpus("long")
    inputs = [json.dumps(raw, ensure_ascii=False, indent=indent)
              for raw in docs for indent in (None, 2)]
    inputs += [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("ex*.json"))]
    assert _equivalence(monkeypatch, inputs, schema) == len(inputs) == 2 * (22 + 400 + 2) + 22


def test_both_load_paths_agree_on_every_fuzz_mutant(monkeypatch):
    # Both families of tests/test_fuzz.py, drawn as it draws them. Every
    # mutant that loads keeps its keys in order, so the scan takes each.
    schema = default_schema()
    bases = [json.loads(p.read_bytes()) for p in sorted(FIXTURES.glob("ex*.json"))]
    rng, loadable_rng = random.Random(7), random.Random(8)
    inputs = [json.dumps(_mutate(rng, rng.choice(bases)), ensure_ascii=False)
              for _ in range(MUTANTS)]
    loads = sum(isinstance(_outcome(lambda d: load_document(d, schema), data), Document)
                for data in inputs)
    inputs += [json.dumps(_mutate_loadable(loadable_rng, loadable_rng.choice(bases), schema),
                          ensure_ascii=False) for _ in range(MUTANTS)]
    assert _equivalence(monkeypatch, inputs, schema) == loads + MUTANTS
    assert 0 < loads < MUTANTS


def _small_raw() -> dict:
    return {"doc_id": "d1", "text": "RAF1 binds MEK1.",
            "sentences": [{"index": 0, "start": 0, "end": 16,
                           "tokens": [{"start": 0, "end": 4, "pos": "NOUN"},
                                      {"start": 5, "end": 10}, {"start": 11, "end": 15}]}],
            "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein"},
                         {"id": "T2", "start": 11, "end": 15, "label": "Protein",
                          "mutations": [{"kind": "Deletion"}]}],
            "events": [{"id": "E1", "trigger_start": 5, "trigger_end": 10, "type": "Binding",
                        "args": [{"role": "theme1", "ref": "T1"},
                                 {"role": "theme2", "ref": "T2"}]}]}


def _spaced(raw: dict) -> str:
    """``raw`` as JSON with whitespace of every kind JSON allows between
    every two of its tokens, and around the whole."""
    return " \r\n\t" + json.dumps(raw, indent="\t", separators=(" \r, ", " :\n ")) + "\n \t"


@pytest.mark.parametrize("data,taken", [
    (json.dumps(_small_raw()), True),
    (_spaced(_small_raw()), True),
    ('{"doc_id": "d0", "text": "", "sentences": [], "entities": [ ], "events": [\n]}', True),
    ('{"text": "", "doc_id": "d0", "events": [], "entities": [], "sentences": []}', True),
    ('{"doc_id": "d0", "x": {"y": [1, 2.5, null, true]}, "text": "", "sentences": [], '
     '"entities": [], "events": []}', True),
    # Each hand-off to the reference path: text after a record list, a
    # repeated key (the last wins), a doc_id after a record list, an array
    # at the top level, trailing data, nesting past the recursion limit, a
    # record list that is not a list or is missing, and faults in a record.
    ('{"doc_id": "d0", "sentences": [], "text": "", "entities": [], "events": []}', False),
    ('{"doc_id": "d0", "text": "a", "sentences": [], "entities": [], "events": [], '
     '"text": ""}', False),
    ('{"text": "", "sentences": [], "doc_id": "d0", "entities": [], "events": []}', False),
    ('[{"doc_id": "d0", "text": "", "sentences": [], "entities": [], "events": []}]', False),
    ('{"doc_id": "d0", "text": "", "sentences": [], "entities": [], "events": []} {}', False),
    ('{"doc_id": "d0", "text": "", "sentences": [' + "[" * 100_000 + "]" * 100_000 + "]}",
     False),
    ('{"doc_id": "d0", "text": "", "sentences": {}, "entities": [], "events": []}', False),
    ('{"doc_id": "d0", "text": "", "sentences": [], "entities": []}', False),
    ('{"doc_id": "d0", "text": "", "sentences": [], "entities": [], "events": [,]}', False),
    ('{"doc_id": "d0", "text": "", "sentences": [{"index": 0}], "entities": [], '
     '"events": []}', False),
    ('\ufeff{"doc_id": "d0", "text": "", "sentences": [], "entities": [], "events": []}',
     False),
    ('{}', False),
], ids=["compact", "spaced", "empty-lists", "keys-in-any-order", "other-keys",
        "text-after-a-list", "repeated-key", "doc-id-after-a-list", "array", "trailing-data",
        "too-deep", "not-a-list", "missing-list", "bad-json-in-a-list", "bad-record", "bom",
        "empty-object"])
def test_each_hand_off_of_the_scan_gives_what_the_reference_path_gives(monkeypatch, data,
                                                                       taken):
    schema = default_schema()
    assert (standoff._scan(data, schema) is not None) is taken
    assert _equivalence(monkeypatch, [data], schema) == taken


def test_a_repeated_key_keeps_its_last_value_on_either_path(monkeypatch):
    data = ('{"doc_id": "d0", "text": "first", "sentences": [], "entities": [], '
            '"events": [], "text": "last"}')
    assert load_document(data).text == "last"
    monkeypatch.setattr(standoff, "_SCAN_FROM", 0)
    assert load_document(data).text == "last"


def test_save_is_deterministic_across_runs(corpus, config):
    # Independent oracle: run the whole pipeline twice and diff the bytes.
    doc_a = load_fixture(corpus, "ex16_baf_emerin")
    doc_b = load_fixture(corpus, "ex16_baf_emerin")
    out_a = resolver.resolve_document(doc_a, config).to_bytes(emit_provenance=True)
    out_b = resolver.resolve_document(doc_b, config).to_bytes(emit_provenance=True)
    assert out_a == out_b


def test_save_rejects_cataphoric_link(corpus, config):
    from biocoref.model import CorefLink
    doc = load_fixture(corpus, "ex12_foxp3")
    backwards = CorefLink(anaphor_id="T1", antecedent_ids=("T2",),
                          sieve_name="pronominal")
    with pytest.raises(SchemaViolation, match="precede"):
        save_result(doc, links=(backwards,))


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["links"][0].pop("anaphor"), "missing field 'anaphor'"),
    (lambda r: r.update(links=5), "'links' must be a list"),
    (lambda r: r["links"][0].update(anaphor="T99"), "link anaphor T99 not in document"),
    (lambda r: r["links"][0].update(antecedents="T1"), "'antecedents' must be a list"),
    (lambda r: r["completed_events"][0].pop("derived_from"), "missing field 'derived_from'"),
    (lambda r: r["completed_events"][0]["args"][0].update(ref="T99"), "dangling ref T99"),
], ids=["link-without-anaphor", "links-not-a-list", "unknown-anaphor", "antecedents-not-a-list",
        "event-without-source", "dangling-event-ref"])
def test_load_result_checks_what_save_result_checks(corpus, config, edit, message):
    doc = load_fixture(corpus, "ex12_foxp3")
    raw = json.loads(resolver.resolve_document(doc, config).to_bytes())
    assert raw["links"] and raw["completed_events"]
    edit(raw)
    with pytest.raises(SchemaViolation, match=message):
        load_result(json.dumps(raw))


def test_read_results_reads_a_stream_as_its_files(tmp_path, corpus):
    config = resolver.ResolverConfig.default(trace=True)
    files = tmp_path / "files"
    files.mkdir()
    lines = []
    for doc_id, raw in sorted(corpus.items()):
        res = resolver.resolve_document(load_document(json.dumps(raw)), config)
        (files / f"{doc_id}.json").write_bytes(res.to_bytes(emit_provenance=True))
        lines.append(res.to_bytes(emit_provenance=True, line=True))
    (tmp_path / "stream.json").write_bytes(b"".join(lines))
    from_files = list(read_results(files))
    from_stream = list(read_results(tmp_path / "stream.json"))
    assert [r[0] for r in from_files] == [None] * len(lines) and len(lines) == 22
    assert [r[0] for r in from_stream] == list(range(1, 23))
    assert [r[1:] for r in from_stream] == [r[1:] for r in from_files]
    assert [r[1:4] for r in from_stream] == [load_result(line) for line in lines]
    assert [r[4] for r in from_stream] == [json.loads(line)["trace"] for line in lines]
    assert any(r[4] for r in from_stream)
    i = sorted(corpus).index("ex12_foxp3")
    assert list(read_results(files / "ex12_foxp3.json")) == from_files[i:i + 1]


def test_unicode_offsets_count_characters(corpus):
    doc = load_fixture(corpus, "ex10_gsk3b")
    first = next(e for e in doc.entities if e.id == "T1")
    assert doc.text[first.start:first.end] == "GSK3β"
    assert len(first.surface) == 5


# Characters that exercise every branch of JSON string escaping: quotes,
# backslashes, control characters, the line separators JSON leaves alone,
# non-ASCII letters and an astral character.
_TEXT = 'aZ09 "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u03b2\u2028\u2029\U0001f9ec'


# --- reference writer ------------------------------------------------------
# The result as the dict layer save_result once built before it wrote its
# templates, dumped by the stdlib encoder in either layout.

def _ref_sentence(sent):
    tokens = []
    for tok in sent.tokens:
        td = {"start": tok.start, "end": tok.end}
        if tok.pos_hint is not None:
            td["pos"] = tok.pos_hint
        tokens.append(td)
    return {"index": sent.index, "start": sent.start, "end": sent.end, "tokens": tokens}


def _ref_entity(ent):
    d = {"id": ent.id, "start": ent.start, "end": ent.end, "label": ent.label}
    if ent.grounding_id is not None:
        d["grounding"] = ent.grounding_id
    if ent.mutations:
        muts = []
        for m in ent.mutations:
            md = {"kind": m.kind}
            if m.label is not None:
                md["label"] = m.label
            muts.append(md)
        d["mutations"] = muts
    return d


def _ref_event(ev):
    d = {"id": ev.id, "trigger_start": ev.trigger_start, "trigger_end": ev.trigger_end,
         "type": ev.event_type}
    if ev.polarity != "Unspecified":
        d["polarity"] = ev.polarity
    d["args"] = [{"role": a.role, "ref": a.ref} for a in ev.args]
    if isinstance(ev, CompletedEvent):
        d["derived_from"] = ev.derived_from
        d["provenance"] = list(ev.provenance)
    return d


def _reference_bytes(doc, links, completed, chains, trace, line):
    out = {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "sentences": [_ref_sentence(s) for s in doc.sentences],
        "entities": [_ref_entity(e) for e in doc.entities],
        "events": [_ref_event(ev) for ev in doc.events],
        "links": [{"anaphor": l.anaphor_id, "antecedents": list(l.antecedent_ids),
                   "sieve": l.sieve_name} for l in links],
        "completed_events": [_ref_event(c) for c in completed],
    }
    if chains is not None:
        out["chains"] = chains
    if trace is not None:
        out["trace"] = trace
    if line:
        return (json.dumps(out, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")
    return (json.dumps(out, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


_INTS = [0, 1, 7, -3, 2**70, -(2**64)]


def _text(rng, most=6):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(most)))


def _maybe(rng, value):
    return value if rng.random() < 0.5 else None


def _random_entry(rng, ints):
    """A trace entry of the fixed shape, each optional field present or absent
    at random and each list possibly empty."""
    def strs():
        return [_text(rng) for _ in range(rng.randrange(3))]

    attempts = []
    for _ in range(rng.randrange(4)):
        attempt = {"sieve": _text(rng), "status": _text(rng)}
        if rng.random() < 0.5:
            attempt["considered"] = [{"id": _text(rng), "verdict": _text(rng)}
                                     for _ in range(rng.randrange(3))]
        if rng.random() < 0.5:
            attempt["antecedents"] = strs()
        attempts.append(attempt)
    final = {"status": _text(rng)}
    if rng.random() < 0.5:
        final.update(sieve=_text(rng), antecedents=strs())
    return {"anaphor": _text(rng), "kind": _text(rng), "surface": _text(rng),
            "span": [ints(), ints()], "cardinality": _text(rng), "attempts": attempts,
            "final": final}


def _random_result(rng):
    """A document with links and completed events that pass the result
    checks, every optional field present or absent at random, and every
    string drawn from the escaping alphabet."""
    def ints():
        return rng.choice(_INTS + [rng.randrange(10**6)])

    def polarity():
        return rng.choice(["Unspecified", "Positive", "Negative", _text(rng)])

    def args(refs):
        return tuple(EventArg(_text(rng), rng.choice(refs))
                     for _ in range(rng.randrange(3) if refs else 0))

    sentences = tuple(
        Sentence(ints(), ints(), ints(), tuple(
            Token(ints(), ints(), "", _maybe(rng, _text(rng))) for _ in range(rng.randrange(4))))
        for _ in range(rng.randrange(4)))
    n_ent, n_ev = rng.randrange(6), rng.randrange(4)
    starts = rng.sample(range(-50, 1000), n_ent + n_ev)
    entities = tuple(
        EntityMention(f"T{i}:{_text(rng, 3)}", starts[i], ints(), _text(rng), "",
                      _maybe(rng, _text(rng)),
                      tuple(MutationRecord(_text(rng), _maybe(rng, _text(rng)))
                            for _ in range(rng.choice([0, 0, 1, 3]))))
        for i in range(n_ent))
    ids = [e.id for e in entities]
    events = tuple(
        EventMention(f"E{i}:{_text(rng, 3)}", starts[n_ent + i], ints(), _text(rng), args(ids),
                     polarity())
        for i in range(n_ev))
    start_of = {e.id: e.start for e in entities} | {ev.id: ev.trigger_start for ev in events}
    links = []
    for anaphor, at in start_of.items():
        earlier = [m for m, s in start_of.items() if s < at]
        if earlier and rng.random() < 0.6:
            links.append(CorefLink(anaphor, tuple(rng.sample(earlier, rng.randint(1, len(earlier)))),
                                   _text(rng)))
    completed = []
    for i in range(rng.randrange(4) if start_of else 0):
        refs = list(start_of) + [c.id for c in completed]
        completed.append(CompletedEvent(
            f"C{i}:{_text(rng, 3)}", ints(), ints(), _text(rng), args(refs), polarity(),
            rng.choice(list(start_of)), tuple(_text(rng) for _ in range(rng.choice([0, 1, 2])))))
    doc = Document(_text(rng, 8), _text(rng, 20), sentences, entities, events)
    chains = [rng.sample(list(start_of), min(2, len(start_of))) for _ in range(rng.randrange(3))]
    trace = [_random_entry(rng, ints) for _ in range(rng.randrange(3))]
    return doc, links, completed, chains, trace


@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
def test_writer_matches_reference_on_random_results(provenance, line):
    rng = random.Random(17 + 2 * provenance + line)
    for _ in range(1500):
        doc, links, completed, chains, trace = _random_result(rng)
        if not provenance:
            chains = trace = None
        expected = _reference_bytes(doc, links, completed, chains, trace, line)
        assert save_result(doc, links, completed, chains, trace, line=line) == expected


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object()], ids=["set", "bytes", "object"])
def test_writer_rejects_values_json_cannot_encode(value):
    doc = load_document(b'{"doc_id":"d0","text":"","sentences":[],"entities":[],"events":[]}')
    entry = {"anaphor": "T2", "kind": "pronoun", "surface": "it", "span": [4, 6],
             "cardinality": "Singular", "final": {"status": "LINKED", "sieve": "pronominal",
                                                  "antecedents": ["T1"]},
             "attempts": [{"sieve": "pronominal", "status": "linked",
                           "considered": [{"id": "T1", "verdict": "accepted"}],
                           "antecedents": ["T1"]}]}
    slots = [(entry, "anaphor"), (entry["span"], 1), (entry["final"]["antecedents"], 0),
             (entry["attempts"][0], "status"), (entry["attempts"][0]["considered"][0], "id")]
    for line in (False, True):
        save_result(doc, chains=[["T1", "T2"]], trace=[entry], line=line)
        with pytest.raises(TypeError):
            save_result(doc, chains=[["T1", value]], line=line)
        for record, key in slots:
            good, record[key] = record[key], value
            with pytest.raises(TypeError):
                save_result(doc, trace=[entry], line=line)
            record[key] = good


@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
def test_writer_matches_reference_on_corpora(corpus, provenance, line):
    config = resolver.ResolverConfig.default(trace=provenance)
    for raw in list(corpus.values()) + synth_corpus(29, 150):
        res = resolver.resolve_document(load_document(json.dumps(raw)), config)
        expected = _reference_bytes(res.doc, res.links, res.completed,
                                    res.chains if provenance else None,
                                    res.trace if provenance else None, line)
        assert res.to_bytes(emit_provenance=provenance, line=line) == expected, raw["doc_id"]


def test_writing_to_a_file_writes_the_bytes_it_returns():
    # The golden corpora of tests/test_golden.py, in both layouts, with and
    # without provenance.
    rng = random.Random(5)
    docs = (list(fixture_corpus.corpus_documents().values()) + synth_corpus(23, 400)
            + [synth_doc(rng, i, sentences=n) for i, n in enumerate((150, 300))])
    config = resolver.ResolverConfig.default(trace=True)
    for raw in docs:
        res = resolver.resolve_document(document_from_dict(raw, config.schema), config)
        for provenance in (False, True):
            chains, trace = (res.chains, res.trace) if provenance else (None, None)
            for line in (False, True):
                file = io.BytesIO()
                assert save_result(res.doc, res.links, res.completed, chains, trace, line,
                                   file=file) is None
                assert file.getvalue() == save_result(res.doc, res.links, res.completed,
                                                      chains, trace, line), raw["doc_id"]


@pytest.mark.parametrize("seed", [3, 5])
def test_traced_output_grows_at_most_2_2_times_per_doubling(seed):
    # The trace lists, per search, only the mentions the sieve walks, so it
    # grows with the document as the plain result does.
    config = resolver.ResolverConfig.default(trace=True)
    sizes = []
    for sentences in (200, 400, 800):
        raw = synth_doc(random.Random(seed), 0, sentences=sentences)
        res = resolver.resolve_document(document_from_dict(raw, config.schema), config)
        sizes.append(len(res.to_bytes(emit_provenance=True)))
    growth = [larger / smaller for smaller, larger in zip(sizes, sizes[1:])]
    assert max(growth) <= 2.2, growth


def _long_raw() -> dict:
    """A 1,600-sentence document with one non-ASCII character in its text,
    so that any str of the whole text or result takes two bytes per
    character."""
    raw = synth_doc(random.Random(3), 0, sentences=1600)
    i = raw["text"].index("a")
    raw["text"] = raw["text"][:i] + "\u03b2" + raw["text"][i + 1:]  # offsets unchanged
    return raw


@pytest.fixture(scope="module")
def long_resolution():
    """The long document, resolved with a trace."""
    config = resolver.ResolverConfig.default(trace=True)
    return resolver.resolve_document(document_from_dict(_long_raw(), config.schema), config)


def test_loading_a_long_document_peaks_at_the_parse_of_its_json():
    # The document is read one record at a time, so no JSON tree of it is
    # built, let alone held beside the model. Bytes, as a worker reads them.
    data = json.dumps(_long_raw(), ensure_ascii=False).encode()
    schema = resolver.ResolverConfig.default().schema
    peaks = []
    for parse in (json.loads, lambda data: load_document(data, schema)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parse(data)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks[1] / peaks[0]


def test_loading_a_long_document_peaks_within_1_2_times_the_model_it_returns():
    # Text, as a worker passes it once it has decoded the bytes. The peak
    # above the model is the record being built and the document checks,
    # 1.12 times the model; a JSON tree of the whole document would take it
    # to about 1.3.
    text = json.dumps(_long_raw(), ensure_ascii=False)
    schema = resolver.ResolverConfig.default().schema
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = load_document(text, schema)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.sentences) == 1600
    assert peak - before <= 1.2 * (held - before), (peak - before) / (held - before)


@pytest.mark.parametrize("scan", [False, True], ids=["reference", "scan"])
def test_a_document_holds_one_string_object_per_value(monkeypatch, scan):
    monkeypatch.setattr(standoff, "_SCAN_FROM", 0 if scan else float("inf"))
    doc = load_document(json.dumps(_long_raw(), ensure_ascii=False),
                        resolver.ResolverConfig.default().schema)
    ids = {m.id: m.id for m in doc.entities + doc.events}
    refs = [arg.ref for ev in doc.events for arg in ev.args]
    assert refs and all(ref is ids[ref] for ref in refs)
    tokens = [t for s in doc.sentences for t in s.tokens]
    for values in ([e.label for e in doc.entities], [ev.event_type for ev in doc.events],
                   [arg.role for ev in doc.events for arg in ev.args],
                   [m.kind for e in doc.entities for m in e.mutations],
                   [t.surface for t in tokens] + [e.surface for e in doc.entities]):
        assert len(values) > len(set(values)) > 0
        assert len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
def test_writing_a_long_result_to_a_file_holds_at_most_0_4_times_its_size(
        long_resolution, line, provenance, tmp_path):
    # Beyond the resolution, which is live already, writing holds the
    # checks' id table, the encoded text and one record: 0.12 to 0.29 times
    # the result. Formatting a whole list before writing it would hold more
    # than the result.
    with open(tmp_path / "long.json", "wb") as file:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            long_resolution.to_bytes(emit_provenance=provenance, line=line, file=file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = (tmp_path / "long.json").stat().st_size
    assert peak - before <= 0.4 * size, (peak - before) / size


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
def test_encoding_a_long_result_allocates_at_most_3_5_times_its_size(long_resolution, line,
                                                                      provenance):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = long_resolution.to_bytes(emit_provenance=provenance, line=line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\u03b2".encode("utf-8") in out
    assert peak - before <= 3.5 * len(out), (peak - before) / len(out)


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("line", [False, True], ids=["file", "line"])
def test_writing_a_long_result_to_a_file_allocates_at_most_2_times_its_size(
        long_resolution, line, provenance, tmp_path):
    # Each record is written as it is encoded, so what is held at once is
    # the encoded text and one record beside the checks' id table, a small
    # fraction of the result; returning the bytes takes 2.4 to 3 times.
    path = tmp_path / "long.json"
    with open(path, "wb") as file:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            long_resolution.to_bytes(emit_provenance=provenance, line=line, file=file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == long_resolution.to_bytes(emit_provenance=provenance, line=line)
    assert peak - before <= 2.0 * size, (peak - before) / size
