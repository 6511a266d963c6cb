"""Traced, serial, in-process run that times the calls into each layer.

Spans come from this file only: around ``standoff.load_document``,
``Resolution.to_bytes`` and ``resolver.resolve_document``, from wrappers
around the ``DocIndex`` and ``detect_candidates`` names the resolver calls,
and from the timestamps of ``resolve_document``'s ``observer`` callbacks,
one per sieve slot. Spans are kept in a flat integer array while the run
lasts and written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from biocoref import resolver
from biocoref.resolver import ResolverConfig, resolve_document
from biocoref.sieves import SIEVE_ORDER
from biocoref.standoff import load_document

SLOTS = ("exact_string", "shared_grounding", "mutant_match", "strict_head",
         "pronominal", "class_np", "event_coref", "cleanup")
LINKING_SIEVES = ("mutant_match", "strict_head", "pronominal", "class_np", "event_coref")
CANDIDATE_KINDS = {"Pronoun": "detection.pronoun", "ClassNP": "detection.class_np",
                   "MutantNP": "detection.mutant_np", "NominalEvent": "detection.nominal_event"}

# Span names and the span each one sits in.
SPANS = (("doc", None), ("standoff.load", "doc"), ("resolver.resolve", "doc"),
         ("index.build", "resolver.resolve"), ("detection.detect", "resolver.resolve"),
         *((f"sieves.{s}", "resolver.resolve") for s in SLOTS),
         ("completion.complete", "resolver.resolve"), ("standoff.save", "doc"))
SPAN_ID = {name: i for i, (name, _) in enumerate(SPANS)}
TIMED = [name for name, _ in SPANS if name not in ("doc", "resolver.resolve")]
GROWTH = ("standoff.load", "sieves.strict_head", "standoff.save", "resolver.resolve")
MIN_PASSES = 3


def require_sources(src: Path) -> None:
    """Stop unless the package under test is the one in ``src``."""
    if not Path(resolver.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: biocoref imported from {resolver.__file__}, not {src}")
    if tuple(SIEVE_ORDER) != SLOTS:
        raise SystemExit(f"error: sieve order {SIEVE_ORDER} is not the benchmark's {SLOTS}")


class _Hooks:
    """Replaces the resolver's ``DocIndex`` and ``detect_candidates`` with
    wrappers that keep the start and end of their last call."""

    def __init__(self) -> None:
        self.index = (0, 0)
        self.detect = (0, 0)

    @contextmanager
    def installed(self):
        ns = time.perf_counter_ns
        build, detect = resolver.DocIndex, resolver.detect_candidates

        def timed_build(*args, **kwargs):
            t0 = ns()
            out = build(*args, **kwargs)
            self.index = (t0, ns())
            return out

        def timed_detect(*args, **kwargs):
            t0 = ns()
            out = detect(*args, **kwargs)
            self.detect = (t0, ns())
            return out

        resolver.DocIndex, resolver.detect_candidates = timed_build, timed_detect
        try:
            yield self
        finally:
            resolver.DocIndex, resolver.detect_candidates = build, detect


def _plain_pass(items, config, provenance) -> int:
    t0 = time.perf_counter_ns()
    for data, _ in items:
        resolve_document(load_document(data, schema=config.schema), config
                         ).to_bytes(emit_provenance=provenance)
    return time.perf_counter_ns() - t0


def _traced_pass(items, config, provenance, pass_no: int, spans: array, hooks: _Hooks) -> int:
    ns = time.perf_counter_ns
    start = ns()
    for i, (data, _) in enumerate(items):
        marks: list[int] = []
        t0 = ns()
        doc = load_document(data, schema=config.schema)
        t1 = ns()
        res = resolve_document(doc, config, observer=lambda _name, _state: marks.append(ns()))
        t2 = ns()
        res.to_bytes(emit_provenance=provenance)
        t3 = ns()
        if len(marks) != len(SLOTS):
            raise SystemExit(f"error: observer called {len(marks)} times, expected {len(SLOTS)}")
        # The first slot starts where detection ends: index and detection
        # run inside resolve_document before the sieves.
        bounds = [(t0, t3), (t0, t1), (t1, t2), hooks.index, hooks.detect]
        prev = hooks.detect[1]
        for mark in marks:
            bounds.append((prev, mark))
            prev = mark
        bounds += [(prev, t2), (t2, t3)]
        for span_id, (s, e) in enumerate(bounds):
            spans.extend((span_id, pass_no, i, s, e))
    return ns() - start


def measure(items: list[tuple[bytes, int]], provenance: bool, seconds: float,
            spans_path: Path) -> dict:
    """Alternate plain and traced passes over ``items`` (document bytes and
    sentence count) for ``seconds``; return per-layer times, growth, the
    serial rate and the tracing overhead. Each figure is the best pass."""
    config = ResolverConfig.default(trace=provenance)
    hooks = _Hooks()
    spans = array("q")
    plain: list[int] = []
    traced: list[int] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(_plain_pass(items, config, provenance))
        with hooks.installed():
            traced.append(_traced_pass(items, config, provenance, len(traced), spans, hooks))

    # ns[span][pass][doc] = duration
    n_docs = len(items)
    dur = [[[0] * n_docs for _ in traced] for _ in SPANS]
    for k in range(0, len(spans), 5):
        span_id, pass_no, doc, s, e = spans[k:k + 5]
        dur[span_id][pass_no][doc] = e - s
    _write_spans(spans, spans_path)

    out: dict = {}
    for name in TIMED:
        best = min(sum(per_doc) for per_doc in dur[SPAN_ID[name]])
        out[f"{name}_ms"] = (best / n_docs / 1e6, "ms")
    sizes = [n for _, n in items]
    top = max(sizes)
    for name in GROWTH:
        per_pass = dur[SPAN_ID[name]]
        out[f"{name}_growth"] = (_group_best(per_pass, sizes, top)
                                 / _group_best(per_pass, sizes, top // 2), "ratio")
    out["pipeline.serial_docs_per_s"] = (n_docs / (min(plain) / 1e9), "docs/s")
    out["bench.trace_overhead"] = (min(traced) / min(plain) - 1, "ratio")
    out["docs_processed"] = n_docs * (len(plain) + len(traced))
    return out


def _group_best(per_pass: list[list[int]], sizes: list[int], size: int) -> float:
    """Best over passes of the mean duration of documents with ``size`` sentences."""
    docs = [i for i, n in enumerate(sizes) if n == size]
    if not docs:
        raise SystemExit(f"error: no document of {size} sentences to measure growth")
    return min(sum(p[i] for i in docs) / len(docs) for p in per_pass)


def _write_spans(spans: array, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(0, len(spans), 5):
            span_id, pass_no, doc, s, e = spans[k:k + 5]
            name, parent = SPANS[span_id]
            fh.write(json.dumps({"pass": pass_no, "doc": doc, "span": name, "parent": parent,
                                 "start_ns": s, "end_ns": e}) + "\n")


def count(items: list[tuple[bytes, int]]) -> tuple[dict, list[dict]]:
    """Exact per-layer counts over every document, plus the search traces."""
    config = ResolverConfig.default(trace=True)
    c = {name: 0 for name in ("detection.candidates", *CANDIDATE_KINDS.values(),
                              *(f"sieves.{s}_links" for s in LINKING_SIEVES), "sieves.chains",
                              "sieves.cleanup_dropped_mentions", "sieves.cleanup_dropped_events",
                              "completion.events_in", "completion.events_out",
                              "completion.coref_derived")}
    resolved = 0
    traces: list[dict] = []
    for data, _ in items:
        doc = load_document(data, schema=config.schema)
        res = resolve_document(doc, config)
        c["detection.candidates"] += len(res.candidates)
        for cand in res.candidates:
            c[CANDIDATE_KINDS[cand.kind]] += 1
        for link in res.links:
            c[f"sieves.{link.sieve_name}_links"] += 1
        resolved += len({link.anaphor_id for link in res.links})
        c["sieves.chains"] += len(res.chains)
        c["sieves.cleanup_dropped_mentions"] += len(doc.entities) - len(res.doc.entities)
        c["sieves.cleanup_dropped_events"] += len(doc.events) - len(res.doc.events)
        c["completion.events_in"] += len(res.doc.events)
        c["completion.events_out"] += len(res.completed)
        c["completion.coref_derived"] += sum(1 for ev in res.completed if ev.provenance)
        traces.extend(res.trace)
    out = {name: (value, "count") for name, value in c.items()}
    out["sieves.resolved_share"] = (resolved / max(c["detection.candidates"], 1), "ratio")
    return out, traces


def search_counts(traces: list[dict]) -> dict:
    """Mentions considered per antecedent search, and the share accepted."""
    searches = considered = accepted = 0
    for entry in traces:
        for attempt in entry["attempts"]:
            if attempt["status"] == "linked" or attempt["status"].startswith("no_match"):
                searches += 1
                items = attempt.get("considered", ())
                considered += len(items)
                accepted += sum(1 for item in items if item["verdict"] == "accepted")
    return {"search.considered_per_search": (considered / max(searches, 1), "count"),
            "search.accept_share": (accepted / max(considered, 1), "ratio")}
