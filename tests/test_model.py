import json

import pytest

from biocoref.detection import default_lexicon
from biocoref.grounding import default_table
from biocoref.model import (
    MutationRecord,
    SchemaViolation,
)
from biocoref.resolver import validate_disabled
from biocoref.schema import default_schema, load_schema
from biocoref.sieves import SIEVE_ORDER
from biocoref.standoff import load_document, load_result
from biocoref.unionfind import UnionFind
from synth import regulation_chain


def test_mutation_record_specified_tracks_label():
    assert MutationRecord("PointSubstitution", "S34A").specified
    assert not MutationRecord("Deletion").specified


def test_point_substitution_requires_wellformed_label():
    raw = {"doc_id": "d", "text": "RAF1",
           "sentences": [{"index": 0, "start": 0, "end": 4, "tokens": []}],
           "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein",
                         "mutations": [{"kind": "PointSubstitution", "label": "weird"}]}],
           "events": []}
    with pytest.raises(SchemaViolation, match="S34A"):
        load_document(json.dumps(raw))


def test_mention_outside_every_sentence_rejected():
    raw = {"doc_id": "d", "text": "RAF1 ok",
           "sentences": [{"index": 0, "start": 0, "end": 4, "tokens": []}],
           "entities": [{"id": "T1", "start": 5, "end": 7, "label": "Protein"}],
           "events": []}
    with pytest.raises(SchemaViolation, match="covered"):
        load_document(json.dumps(raw))


# Sentences "RAF1 binds." [3, 14) and "MEK1 binds." [18, 29), with text
# before the first and a gap between them.
_TWO_SENTENCES = "xx RAF1 binds. yy MEK1 binds."


@pytest.mark.parametrize("kind", ["entity", "event"])
@pytest.mark.parametrize("span, covered", [
    ((8, 22), False),   # crosses the end of the first sentence
    ((15, 17), False),  # in the gap between the sentences
    ((0, 2), False),    # before the first sentence
    ((23, 29), True),   # ends exactly at the second sentence's end
])
def test_sentence_coverage_edges(kind, span, covered):
    start, end = span
    raw = {"doc_id": "d", "text": _TWO_SENTENCES,
           "sentences": [{"index": 0, "start": 3, "end": 14},
                         {"index": 1, "start": 18, "end": 29}],
           "entities": [], "events": []}
    if kind == "entity":
        raw["entities"].append({"id": "T1", "start": start, "end": end, "label": "Protein"})
    else:
        raw["events"].append({"id": "E1", "trigger_start": start, "trigger_end": end,
                              "type": "Binding", "args": []})
    if covered:
        load_document(json.dumps(raw))
    else:
        with pytest.raises(SchemaViolation, match="covered"):
            load_document(json.dumps(raw))


def _wire_doc():
    return {"doc_id": "shape", "text": "RAF1 binds MEK1.",
            "sentences": [{"index": 0, "start": 0, "end": 16,
                           "tokens": [{"start": 0, "end": 4}]}],
            "entities": [{"id": "T1", "start": 0, "end": 4, "label": "Protein",
                          "mutations": [{"kind": "Deletion"}]},
                         {"id": "T2", "start": 11, "end": 15, "label": "Protein"}],
            "events": [{"id": "E1", "trigger_start": 5, "trigger_end": 10, "type": "Binding",
                        "args": [{"role": "theme1", "ref": "T1"},
                                 {"role": "theme2", "ref": "T2"}]}]}


def _wire_doc_with(path, value):
    raw = _wire_doc()
    load_document(json.dumps(raw))
    target = raw
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(raw)


@pytest.mark.parametrize("path", [
    ("sentences",), ("entities",), ("events",),
    ("sentences", 0, "tokens"), ("entities", 0, "mutations"), ("events", 0, "args"),
])
@pytest.mark.parametrize("value", [5, None, "x", {"a": 1}, [1], [[]]])
def test_list_fields_must_be_lists_of_objects(path, value):
    error = f"'{path[-1]}' must be a list" if type(value) is not list else "expected an object"
    with pytest.raises(SchemaViolation, match=rf"^shape\b.*{error}"):
        load_document(_wire_doc_with(path, value))


@pytest.mark.parametrize("path", [
    ("sentences", 0, "tokens", 0, "pos"), ("entities", 0, "grounding"),
    ("entities", 0, "mutations", 0, "label"), ("events", 0, "polarity"),
])
@pytest.mark.parametrize("value", [5, [], {"a": 1}])
def test_optional_string_fields_must_be_strings(path, value):
    with pytest.raises(SchemaViolation, match=f"field '{path[-1]}' must be a string"):
        load_document(_wire_doc_with(path, value))


def test_event_reference_cycle_rejected():
    raw = {"doc_id": "d", "text": "go stop",
           "sentences": [{"index": 0, "start": 0, "end": 7, "tokens": []}],
           "entities": [],
           "events": [
               {"id": "E1", "trigger_start": 0, "trigger_end": 2, "type": "Regulation",
                "args": [{"role": "controller", "ref": "E2"},
                         {"role": "controlled", "ref": "E2"}]},
               {"id": "E2", "trigger_start": 3, "trigger_end": 7, "type": "Regulation",
                "args": [{"role": "controller", "ref": "E1"},
                         {"role": "controlled", "ref": "E1"}]},
           ]}
    with pytest.raises(SchemaViolation, match="cycle"):
        load_document(json.dumps(raw))


def test_deep_event_reference_cycle_rejected():
    # The cycle closes 1,200 levels below the first event, past the recursion limit.
    raw = regulation_chain(1200)
    innermost = next(ev for ev in raw["events"] if ev["id"] == "R1")
    innermost["args"][1]["ref"] = "R1200"
    with pytest.raises(SchemaViolation, match="cycle") as exc:
        load_document(json.dumps(raw))
    message = str(exc.value)
    assert message.startswith("R1200: event reference cycle via R1200->R1199->")
    assert message.endswith("->R2->R1->R1200")


def test_pos_hints_round_trip():
    raw = {"doc_id": "d", "text": "It binds RAF1.",
           "sentences": [{"index": 0, "start": 0, "end": 14,
                          "tokens": [{"start": 0, "end": 2, "pos": "PRON"},
                                     {"start": 3, "end": 8},
                                     {"start": 9, "end": 13, "pos": "NOUN"}]}],
           "entities": [{"id": "T1", "start": 0, "end": 2, "label": "Protein"},
                        {"id": "T2", "start": 9, "end": 13, "label": "Protein"}],
           "events": [{"id": "E1", "trigger_start": 3, "trigger_end": 8, "type": "Binding",
                       "args": [{"role": "theme1", "ref": "T1"},
                                {"role": "theme2", "ref": "T2"}]}]}
    doc = load_document(json.dumps(raw))
    assert doc.sentences[0].tokens[0].pos_hint == "PRON"
    assert doc.sentences[0].tokens[1].pos_hint is None
    from biocoref.standoff import save_result
    doc2, _, _ = load_result(save_result(doc))
    assert doc2 == doc


def test_unknown_pos_hint_rejected():
    raw = {"doc_id": "d", "text": "It",
           "sentences": [{"index": 0, "start": 0, "end": 2,
                          "tokens": [{"start": 0, "end": 2, "pos": "VERB"}]}],
           "entities": [], "events": []}
    with pytest.raises(SchemaViolation, match="pos hint"):
        load_document(json.dumps(raw))


def test_union_find_basics():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("b", "c")
    assert uf.same("a", "c")
    assert not uf.same("a", "d")
    groups = uf.groups()
    assert sorted(g for g in groups.values() if len(g) > 1) == [["a", "b", "c"]]


def test_validate_disabled_all_keeps_cleanup():
    disabled = validate_disabled(["all"])
    assert disabled == frozenset(SIEVE_ORDER) - {"cleanup"}
    with pytest.raises(ValueError, match="sloppy"):
        validate_disabled(["sloppy_match"])


def test_schema_config_rejects_bad_role_spec():
    with pytest.raises(SchemaViolation, match="bad role spec"):
        load_schema(json.dumps({"Binding": {"theme": {"classes": "Protein", "count": 1}}}))
    with pytest.raises(SchemaViolation, match="at least one role"):
        load_schema(json.dumps({"Binding": {}}))


def test_bundled_data_is_parsed_once():
    assert default_schema() is default_schema()
    assert default_lexicon() is default_lexicon()
    assert default_table() is default_table()
