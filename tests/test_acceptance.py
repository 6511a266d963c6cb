"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Corpus-scale reference figures (tens of thousands of events, rater
precision percentages) require the original thousand-paper corpus and human
judges; they are documented constants, not assertions here. Acceptance is
fixture- and property-based.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from biocoref import resolver
from biocoref.evaluation import (
    RunOutput,
    error_breakdown,
    generous_precision,
    load_adjudications,
    throughput,
)
from biocoref.standoff import load_document

import fixture_corpus
from conftest import completed_key, expected_key
from synth import synth_corpus
from test_properties import check_document

CLI = [sys.executable, "-m", "biocoref.cli"]


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_paper_example_fixture_suite(corpus, manifest, config):
    started = time.perf_counter()
    assert len(corpus) == 22
    failures = []
    for doc_id in sorted(corpus):
        doc = load_document(json.dumps(corpus[doc_id]))
        res = resolver.resolve_document(doc, config)
        exp = manifest[doc_id]

        got_links = sorted((l.anaphor_id, tuple(l.antecedent_ids), l.sieve_name)
                           for l in res.links)
        want_links = sorted((l["anaphor"], tuple(l["antecedents"]), l["sieve"])
                            for l in exp["links"])
        if got_links != want_links:
            failures.append(f"{doc_id}: links {got_links} != {want_links}")

        by_anaphor = {l.anaphor_id: set(l.antecedent_ids) for l in res.links}
        for anaphor, banned in exp.get("not_antecedents", {}).items():
            hit = by_anaphor.get(anaphor, set()) & set(banned)
            if hit:
                failures.append(f"{doc_id}: {anaphor} linked to banned {sorted(hit)}")

        chain_index = {}
        for i, chain in enumerate(res.chains):
            for m in chain:
                chain_index[m] = i
        for group in exp.get("together", []):
            keys = {chain_index.get(m, m) for m in group}
            if len(keys) != 1:
                failures.append(f"{doc_id}: {group} not in one chain")
        for a, b in exp.get("apart", []):
            if chain_index.get(a, a) == chain_index.get(b, b):
                failures.append(f"{doc_id}: {a} and {b} wrongly share a chain")

        got_completed = sorted(map(repr, (completed_key(c) for c in res.completed)))
        want_completed = sorted(map(repr, (expected_key(e) for e in exp["completed"])))
        if got_completed != want_completed:
            failures.append(f"{doc_id}: completed {got_completed} != {want_completed}")
        for pair in exp.get("forbidden_pairs", []):
            for c in res.completed:
                refs = {a.ref for a in c.args}
                if set(pair) <= refs:
                    failures.append(f"{doc_id}: forbidden pair {pair} in {c.id}")

        if sorted(res.dropped_mentions) != sorted(exp["dropped_mentions"]):
            failures.append(f"{doc_id}: dropped mentions {sorted(res.dropped_mentions)}")
        if sorted(res.dropped_events) != sorted(exp["dropped_events"]):
            failures.append(f"{doc_id}: dropped events {sorted(res.dropped_events)}")

    elapsed = time.perf_counter() - started
    assert not failures, "\n".join(failures)
    assert elapsed < 5.0, f"fixture suite took {elapsed:.2f}s"
    _report(f"1 paper-example fixture suite: PASS "
            f"(22 documents, {elapsed:.2f}s)")


def test_criterion_2_negative_controls(corpus, config):
    # Relaxed head match is absent: the IkB document yields nothing at all.
    doc = load_document(json.dumps(corpus["ex23_ikb_negative"]))
    res = resolver.resolve_document(doc, config)
    assert res.links == [] and res.chains == [] and res.completed == []

    # An indefinite NP never resolves.
    doc = load_document(json.dumps(corpus["ex24_indefinite_negative"]))
    res = resolver.resolve_document(doc, config)
    assert res.candidates == [] and res.links == []

    # A regulation-type nominal anaphor never triggers an event search.
    cfg_traced = resolver.ResolverConfig.default(trace=True)
    doc = load_document(json.dumps(corpus["ex25_promotion_negative"]))
    res = resolver.resolve_document(doc, cfg_traced)
    entry = next(t for t in res.trace if t["anaphor"] == "E3")
    assert [a["status"] for a in entry["attempts"]
            if a["sieve"] == "event_coref"] == ["skipped_regulation"]
    assert res.links == []

    # No event ever links two chain mates, on fixtures and 1000 random docs.
    checked = 0
    for raw in list(corpus.values()) + synth_corpus(seed=20260808, count=1000):
        doc = load_document(json.dumps(raw))
        res = resolver.resolve_document(doc, config)
        chain_index = {}
        for i, chain in enumerate(res.chains):
            for m in chain:
                chain_index[m] = i
        for ev in res.completed:
            keys = [chain_index.get(a.ref, a.ref) for a in ev.args]
            assert len(keys) == len(set(keys)), f"{doc.doc_id}: self-relation in {ev.id}"
        checked += 1
    _report(f"2 negative controls: PASS ({checked} documents screened)")


def test_criterion_3_property_suite(config, tmp_path):
    docs = synth_corpus(seed=20260808, count=1000)
    assert len(docs) >= 1000
    for raw in docs:
        check_document(load_document(json.dumps(raw)), config)

    # Determinism end to end: byte-identical output across two CLI runs,
    # and across worker counts.
    corpus_dir = tmp_path / "corpus"
    fixture_corpus.write_corpus(corpus_dir)
    outs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"run-{tag}"
        proc = subprocess.run(
            CLI + ["resolve", "--in", str(corpus_dir / "ex*.json"),
                   "--out", str(out), "--emit-provenance", "--jobs", str(jobs)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[tag] = {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}
    assert outs["a"] == outs["b"], "double run differs"
    assert outs["a"] == outs["c"], "--jobs 1 and --jobs 8 differ"
    _report("3 property suite: PASS (1000 synthetic documents; "
            "double-run and --jobs 1 vs 8 byte-identical)")


def test_criterion_4_throughput_accounting(resolved_corpus, manifest):
    system = [RunOutput(doc_id=doc_id, completed=res.completed)
              for doc_id, (_, res) in resolved_corpus.items()]
    counts = throughput(system)
    want_coref = sum(m["coref_events"] for m in manifest.values())
    assert counts["coref_only"] == want_coref
    assert counts["combined"] == counts["baseline"] + counts["coref_only"]
    _report(f"4 throughput accounting: PASS (coref_only={counts['coref_only']} "
            f"== manifest count; combined additive)")


def test_criterion_5_metric_arithmetic():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randint(1, 40)
        rows = ["event_id,judgment"]
        judgments = []
        for i in range(n):
            j = rng.choice(["0", "0.5", "1"])
            judgments.append(Fraction(j))
            rows.append(f"E{trial}.{i},{j}")
        records = load_adjudications("\n".join(rows) + "\n", mutant_mode=True)
        value, total, count = generous_precision(records)
        # Brute-force oracle: exact rational mean accumulated independently.
        oracle = Fraction(0)
        for j in judgments:
            oracle += j
        oracle /= n
        assert value == oracle and count == n

    # Table-shaped distribution check: 7/18/25 over 50 errors is 14/36/50.
    rows = ["event_id,judgment,error_class"]
    for i in range(7):
        rows.append(f"N{i},0,NamedEntityRecognition")
    for i in range(18):
        rows.append(f"V{i},0,EventRecognition")
    for i in range(25):
        rows.append(f"C{i},0,CoreferenceResolution")
    records = load_adjudications("\n".join(rows) + "\n")
    dist = error_breakdown(records)
    assert dist == {"NamedEntityRecognition": Fraction(14, 100),
                    "EventRecognition": Fraction(36, 100),
                    "CoreferenceResolution": Fraction(50, 100)}
    _report("5 metric arithmetic: PASS (100 random adjudication files exact; "
            "14%/36%/50% shape reproduced)")


def test_criterion_6_ablation_flips_ex1b(corpus, tmp_path):
    doc = load_document(json.dumps(corpus["ex1b_axin_gbd"]))

    full = resolver.resolve_document(doc, resolver.ResolverConfig.default())
    assert [(l.anaphor_id, l.antecedent_ids) for l in full.links] == [("T3", ("T2",))]

    ablated_cfg = resolver.ResolverConfig.default(
        disabled_sieves=frozenset({"exact_string", "shared_grounding"}))
    ablated = resolver.resolve_document(doc, ablated_cfg)
    assert [(l.anaphor_id, l.antecedent_ids) for l in ablated.links] == [("T3", ("T1",))]

    # Same flip through the command-line ablation flags.
    src = tmp_path / "ex1b.json"
    src.write_text(json.dumps(corpus["ex1b_axin_gbd"], ensure_ascii=False),
                   encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        CLI + ["resolve", "--in", str(src), "--out", str(out),
               "--disable-sieve", "exact_string", "--disable-sieve", "shared_grounding"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "ex1b.json").read_text(encoding="utf-8"))
    assert result["links"] == [{"anaphor": "T3", "antecedents": ["T1"],
                                "sieve": "pronominal"}]
    _report("6 ablation sanity: PASS (without the chaining sieves the pronoun "
            "falls onto the first same-sentence mention, library and CLI)")
