import random
from fractions import Fraction

import pytest

from biocoref.evaluation import (
    AdjudicationRecord,
    CorpusMismatch,
    EmptySample,
    EvaluationError,
    MissingErrorClass,
    RunOutput,
    error_breakdown,
    generous_precision,
    load_adjudications,
    throughput,
)
from biocoref.model import CompletedEvent, EventArg


def _runs(events_by_doc):
    return [RunOutput(doc_id=d, completed=evs) for d, evs in events_by_doc.items()]


def _ev(ev_id, provenance=(), args=(), event_type="Binding"):
    return CompletedEvent(id=ev_id, trigger_start=0, trigger_end=1, event_type=event_type,
                          args=tuple(EventArg(role, ref) for role, ref in args),
                          polarity="Unspecified", derived_from=ev_id,
                          provenance=tuple(provenance))


def test_throughput_empty_corpus_is_all_zeros():
    counts = throughput(_runs({"d0": []}), _runs({"d0": []}))
    assert counts["baseline"] == 0 and counts["coref_only"] == 0 and counts["combined"] == 0
    zero_docs = throughput([], [])
    assert (zero_docs["baseline"], zero_docs["coref_only"], zero_docs["combined"]) == (0, 0, 0)


def test_throughput_splits_by_provenance():
    system = _runs({"d0": [_ev("E1"), _ev("E2", provenance=["T1"])],
                    "d1": [_ev("E3")]})
    counts = throughput(system)
    assert counts == {"baseline": 2, "coref_only": 1, "combined": 3}


def test_throughput_combined_is_additive():
    rng = random.Random(7)
    for _ in range(25):
        docs = {}
        for d in range(rng.randint(1, 4)):
            evs = [_ev(f"E{d}.{i}", provenance=["x"] if rng.random() < 0.5 else [])
                   for i in range(rng.randint(0, 6))]
            docs[f"d{d}"] = evs
        counts = throughput(_runs(docs))
        assert counts["combined"] == counts["baseline"] + counts["coref_only"]


def test_throughput_is_order_independent():
    docs = {"d0": [_ev("E1"), _ev("E2", provenance=["T1"])],
            "d1": [_ev("E3")], "d2": []}
    forward = throughput(_runs(docs))
    reversed_runs = list(reversed(_runs(docs)))
    assert throughput(reversed_runs) == forward


def test_throughput_corpus_mismatch():
    with pytest.raises(CorpusMismatch, match="d1"):
        throughput(_runs({"d0": []}), _runs({"d1": []}))


def test_throughput_fixture_corpus_matches_manifest(resolved_corpus, manifest):
    system = [RunOutput(doc_id=doc_id, completed=res.completed)
              for doc_id, (_, res) in resolved_corpus.items()]
    counts = throughput(system)
    assert counts["coref_only"] == sum(m["coref_events"] for m in manifest.values())
    assert counts["baseline"] == sum(m["baseline_events"] for m in manifest.values())
    assert counts["combined"] == counts["baseline"] + counts["coref_only"]


def test_darpa_collapse_merges_regulation_with_controlled():
    events = [
        _ev("E1"),
        _ev("E2", args=[("controller", "T1"), ("controlled", "E1")], event_type="Regulation"),
    ]
    plain = throughput(_runs({"d0": events}))
    collapsed = throughput(_runs({"d0": events}), darpa_collapse=True)
    assert plain["combined"] == 2
    assert collapsed["combined"] == 1


def test_generous_precision_all_ones():
    records = [AdjudicationRecord(f"E{i}", Fraction(1)) for i in range(10)]
    value, total, n = generous_precision(records)
    assert value == 1 and total == 10 and n == 10


def test_generous_precision_mutant_mode_mean():
    # Arithmetic oracle: (1 + 1 + 1/2 + 0) / 4 = 5/8.
    data = "event_id,judgment\nE1,1\nE2,1\nE3,0.5\nE4,0\n"
    records = load_adjudications(data, mutant_mode=True)
    value, _, _ = generous_precision(records)
    assert value == Fraction(5, 8) == Fraction("0.625")


def test_generous_precision_empty_sample():
    with pytest.raises(EmptySample):
        generous_precision([])


def test_half_points_require_mutant_mode():
    with pytest.raises(EvaluationError, match="mutant"):
        load_adjudications("event_id,judgment\nE1,0.5\n")


def test_adjudication_header_required():
    with pytest.raises(EvaluationError, match="header"):
        load_adjudications("E1,1\nE2,0\n")


def test_adjudication_rejects_other_judgments():
    with pytest.raises(EvaluationError, match="judgment"):
        load_adjudications("event_id,judgment\nE1,0.75\n")


def test_error_breakdown_quarters():
    # Arithmetic oracle: {NER: 1, Event: 1, Coref: 2} over 4 errors.
    records = [
        AdjudicationRecord("E1", Fraction(0), "NamedEntityRecognition"),
        AdjudicationRecord("E2", Fraction(0), "EventRecognition"),
        AdjudicationRecord("E3", Fraction(0), "CoreferenceResolution"),
        AdjudicationRecord("E4", Fraction(0), "CoreferenceResolution"),
        AdjudicationRecord("E5", Fraction(1)),
    ]
    dist = error_breakdown(records)
    assert dist == {"NamedEntityRecognition": Fraction(1, 4),
                    "EventRecognition": Fraction(1, 4),
                    "CoreferenceResolution": Fraction(1, 2)}


def test_error_breakdown_single_class():
    records = [AdjudicationRecord("E1", Fraction(0), "EventRecognition")]
    dist = error_breakdown(records)
    assert dist["EventRecognition"] == 1
    assert dist["NamedEntityRecognition"] == 0


def test_error_breakdown_missing_class():
    with pytest.raises(MissingErrorClass, match="E1"):
        error_breakdown([AdjudicationRecord("E1", Fraction(0))])
