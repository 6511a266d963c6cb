import json
from fractions import Fraction

import pytest

from biocoref.detection import AnaphorCandidate, Cardinality, TriggerDictionary, default_lexicon
from biocoref.evaluation import AdjudicationRecord, RunOutput
from biocoref.grounding import default_table
from biocoref.model import (
    CompletedEvent,
    CorefLink,
    Document,
    EntityMention,
    EventArg,
    EventMention,
    MutationRecord,
    SchemaViolation,
    Sentence,
    Token,
    Tokens,
)
from biocoref.resolver import ResolverConfig, validate_disabled
from biocoref.schema import EVENT_PSEUDO_CLASS, RoleSpec, default_schema, load_schema
from biocoref.search import SearchConstraints
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


_DELETE = object()
_TOK = ("sentences", 0, "tokens", 0)
_ENT = ("entities", 0)
_MUT = ("entities", 0, "mutations", 0)
_EV = ("events", 0)
_ARG = ("events", 0, "args", 0)


# Each malformed record, as edits to _wire_doc, and the exact error it loads
# with (None: it loads). A record with two faults names the one read first.
@pytest.mark.parametrize("edits, error", [
    # tokens
    ([(_TOK + ("start",), _DELETE)], "shape token: missing field 'start'"),
    ([(_TOK + ("end",), _DELETE)], "shape token: missing field 'end'"),
    ([(_TOK + ("start",), "0")], "shape token: field 'start' must be an integer"),
    ([(_TOK + ("end",), 4.0)], "shape token: field 'end' must be an integer"),
    ([(_TOK + ("start",), False)], "shape token: field 'start' must be an integer"),
    ([(_TOK + ("end",), True)], "shape token: field 'end' must be an integer"),
    ([(_TOK, 5)], "shape token: expected an object, not int"),
    ([(_TOK + ("pos",), None)], None),
    ([(_TOK + ("pos",), 5)], "shape token: field 'pos' must be a string"),
    ([(_TOK + ("start",), "x"), (_TOK + ("end",), _DELETE)],
     "shape token: field 'start' must be an integer"),
    # sentences: their tokens are read before their own fields
    ([(("sentences", 0, "index"), True)], "shape sentence: field 'index' must be an integer"),
    ([(("sentences", 0, "start"), _DELETE)], "shape sentence: missing field 'start'"),
    ([(("sentences", 0, "index"), "x"), (_TOK + ("end",), "y")],
     "shape token: field 'end' must be an integer"),
    # entities
    ([(_ENT + ("id",), _DELETE)], "shape entity: missing field 'id'"),
    ([(_ENT + ("id",), 1)], "shape entity: field 'id' must be a string"),
    ([(_ENT + ("start",), _DELETE)], "T1: missing field 'start'"),
    ([(_ENT + ("start",), True)], "T1: field 'start' must be an integer"),
    ([(_ENT + ("end",), "4")], "T1: field 'end' must be an integer"),
    ([(_ENT + ("label",), _DELETE)], "T1: missing field 'label'"),
    ([(_ENT + ("label",), None)], "T1: field 'label' must be a string"),
    ([(_ENT + ("grounding",), None)], None),
    ([(_ENT + ("grounding",), 5)], "T1: field 'grounding' must be a string"),
    ([(_ENT, "T1")], "shape entity: expected an object, not str"),
    ([(_ENT + ("mutations",), None)], "shape T1: field 'mutations' must be a list"),
    ([(_ENT + ("id",), _DELETE), (_ENT + ("start",), True)], "shape entity: missing field 'id'"),
    ([(_ENT + ("label",), 5), (_MUT + ("kind",), _DELETE)], "shape T1: missing field 'kind'"),
    # mutations
    ([(_MUT + ("kind",), _DELETE)], "shape T1: missing field 'kind'"),
    ([(_MUT + ("kind",), 3)], "shape T1: field 'kind' must be a string"),
    ([(_MUT + ("kind",), None)], "shape T1: field 'kind' must be a string"),
    ([(_MUT + ("label",), None)], None),
    ([(_MUT + ("label",), 5)], "shape T1: field 'label' must be a string"),
    ([(_MUT, 5)], "shape T1: expected an object, not int"),
    # events
    ([(_EV + ("id",), _DELETE)], "shape event: missing field 'id'"),
    ([(_EV + ("id",), 7)], "shape event: field 'id' must be a string"),
    ([(_EV + ("trigger_start",), _DELETE)], "E1: missing field 'trigger_start'"),
    ([(_EV + ("trigger_start",), "5")], "E1: field 'trigger_start' must be an integer"),
    ([(_EV + ("trigger_end",), True)], "E1: field 'trigger_end' must be an integer"),
    ([(_EV + ("type",), _DELETE)], "E1: missing field 'type'"),
    ([(_EV + ("type",), 1)], "E1: field 'type' must be a string"),
    ([(_EV + ("polarity",), None)], "E1: unknown polarity None"),
    ([(_EV + ("polarity",), 5)], "E1: field 'polarity' must be a string"),
    ([(_EV, None)], "shape event: expected an object, not NoneType"),
    ([(_EV + ("args",), None)], "shape E1: field 'args' must be a list"),
    ([(_EV + ("trigger_start",), "x"), (_ARG, 5)], "shape E1: expected an object, not int"),
    # event args
    ([(_ARG + ("role",), _DELETE)], "shape E1: missing field 'role'"),
    ([(_ARG + ("ref",), _DELETE)], "shape E1: missing field 'ref'"),
    ([(_ARG + ("ref",), 1)], "shape E1: field 'ref' must be a string"),
    ([(_ARG + ("role",), False)], "shape E1: field 'role' must be a string"),
    ([(_ARG + ("ref",), None)], "shape E1: field 'ref' must be a string"),
    ([(_ARG, [])], "shape E1: expected an object, not list"),
    # the document itself
    ([(("doc_id",), _DELETE)], "document: missing field 'doc_id'"),
    ([(("doc_id",), 5)], "document: field 'doc_id' must be a string"),
    ([(("text",), _DELETE)], "shape: missing field 'text'"),
    ([(("text",), None)], "shape: field 'text' must be a string"),
])
def test_malformed_record_errors_are_pinned(edits, error):
    raw = _wire_doc()
    for path, value in edits:
        target = raw
        for step in path[:-1]:
            target = target[step]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    if error is None:
        load_document(json.dumps(raw))
        return
    with pytest.raises(SchemaViolation) as exc:
        load_document(json.dumps(raw))
    assert str(exc.value) == error


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


def test_tokens_are_a_read_only_sequence_of_the_tokens_they_hold():
    text = "It binds RAF1."
    tokens = Tokens(text, [0, 2, 3, 8, 9, 13], ["PRON", None, None])
    expected = (Token(0, 2, "It", "PRON"), Token(3, 8, "binds"), Token(9, 13, "RAF1"))
    assert len(tokens) == 3 and tuple(tokens) == expected and tokens == expected == tokens
    assert tokens[-1] == expected[-1] and tokens[1:] == expected[1:] and expected[1] in tokens
    assert list(tokens.spans()) == [(0, 2), (3, 8), (9, 13)]
    assert tokens.hints == ("PRON", None, None)
    assert hash(tokens) == hash(expected) and tokens != Tokens(text, [0, 2, 3, 8, 9, 13])
    with pytest.raises(IndexError):
        tokens[3]
    with pytest.raises(TypeError):
        tokens[0] = expected[0]
    for name in ("hints", "extra"):
        with pytest.raises(AttributeError):
            setattr(tokens, name, None)
    # Surfaces come from the text: equal offsets over other words differ.
    assert Tokens("It", [0, 2]) == Tokens("It binds", [0, 2]) != Tokens("Be", [0, 2])
    # Hints that are all None are not held; offsets past an int32 are.
    assert Tokens(text, [0, 2], [None]).hints is None
    assert list(Tokens(text, [0, 2**40]).spans()) == [(0, 2**40)]
    assert Tokens(text, [0, 2**40])[-1] == Token(0, 2**40, text)
    for offsets, hints in (([0], None), ([0, 2], ["DET", None])):
        with pytest.raises(ValueError, match="per token"):
            Tokens(text, offsets, hints)


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


def test_schema_type_sets_are_built_once():
    schema = default_schema()
    assert schema.event_types is schema.event_types == frozenset(schema.types)
    assert schema.regulation_types is schema.regulation_types
    assert schema.regulation_types == {
        t for t, roles in schema.types.items()
        if any(EVENT_PSEUDO_CLASS in spec.classes for spec in roles.values())}
    assert "Regulation" in schema.regulation_types
    assert "Phosphorylation" not in schema.regulation_types


# Every public record: the class, its required fields, and its defaults, in
# field order; and whether its fields are all hashable.
_ONE = Cardinality(kind="One")
RECORDS = [
    (Token, {"start": 0, "end": 4, "surface": "RAF1"}, {"pos_hint": None}, True),
    (Sentence, {"index": 0, "start": 0, "end": 4}, {"tokens": ()}, True),
    (MutationRecord, {"kind": "Deletion"}, {"label": None}, True),
    (EntityMention, {"id": "T1", "start": 0, "end": 4, "label": "Protein", "surface": "RAF1"},
     {"grounding_id": None, "mutations": ()}, True),
    (EventArg, {"role": "theme", "ref": "T1"}, {}, True),
    (EventMention, {"id": "E1", "trigger_start": 5, "trigger_end": 9,
                    "event_type": "Phosphorylation"},
     {"args": (), "polarity": "Unspecified"}, True),
    (CorefLink, {"anaphor_id": "T2", "antecedent_ids": ("T1",), "sieve_name": "pronominal"},
     {}, True),
    (CompletedEvent, {"id": "E1", "trigger_start": 5, "trigger_end": 9,
                      "event_type": "Phosphorylation", "args": (EventArg("theme", "T1"),),
                      "polarity": "Unspecified", "derived_from": "E1"},
     {"provenance": ()}, True),
    (Document, {"doc_id": "d", "text": "RAF1"},
     {"sentences": (), "entities": (), "events": ()}, True),
    (Cardinality, {"kind": "Exactly"}, {"n": 1}, True),
    (AnaphorCandidate, {"mention_id": "T2", "kind": "Pronoun", "start": 6, "end": 8,
                        "surface": "it", "cardinality": _ONE},
     {"target_class": None, "mutant_subkind": None, "mutant_payload": None, "hosts": ()}, True),
    (TriggerDictionary, {"event_triggers": {}, "class_lexicon": {}, "pronouns": {"it": _ONE},
                         "mutant_nouns": frozenset(), "mutation_kind_nouns": frozenset(),
                         "stopwords": frozenset({"the"})}, {}, False),
    (RoleSpec, {"classes": frozenset({"Protein"}), "count": 1}, {}, True),
    (SearchConstraints, {"need": _ONE},
     {"excluded_ids": frozenset(), "allowed_classes": None, "banned_antecedents": frozenset(),
      "antecedent_test": None}, True),
    (ResolverConfig, {"lexicon": default_lexicon(), "schema": default_schema(),
                      "grounding": default_table()},
     {"disabled_sieves": frozenset(), "trace": False}, False),
    (AdjudicationRecord, {"event_id": "E1", "judgment": Fraction(1)}, {"error_class": None}, True),
    (RunOutput, {"doc_id": "d", "completed": [CompletedEvent(
        "E1", 5, 9, "Phosphorylation", (EventArg("theme", "T1"),), "Unspecified", "E1")]},
     {}, False),
]


@pytest.mark.parametrize("cls, required, defaults, hashable", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_public_records_are_immutable_values(cls, required, defaults, hashable):
    rec = cls(**required)
    assert cls._fields == (*required, *defaults)
    assert {name: getattr(rec, name) for name in defaults} == defaults
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    twin = cls(**required)
    assert rec == twin and rec is not twin
    assert rec == (*required.values(), *defaults.values())
    if hashable:
        assert hash(rec) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert repr(rec).startswith(f"{cls.__name__}({cls._fields[0]}=")
