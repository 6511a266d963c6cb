"""Output scoring: throughput counts, generous precision, error breakdown.

Throughput is the number of completed event mentions, used as a recall proxy
on corpora without gold annotation. Events are attributed to coreference when
their provenance is non-empty (an anaphor resolution fed them); everything
else would have been extracted anyway and counts as baseline.

Generous precision averages per-event judgments: 1 when the event type is
right and at least one participant is correct, else 0. Mutant-mode scoring
adds a half point for naming the right protein with the wrong modification.
All arithmetic is exact (fractions); rounding happens only in formatting.

Reference figures from the original large-scale run of this design (1000
full papers, independent raters) are kept here as documentation constants;
they need that corpus and human judges, so they are not test targets:
throughput 46,234 baseline / 1,492 coreference / 47,726 combined; generous
precision 74.2% combined and 68.0% for coreference alone; mutant-mode
precision 75.7%; error sources split 14% entity recognition, 36% event
recognition, 50% coreference proper. The ceiling measured for coreference
gain on gold data elsewhere was 8.9% under slightly different event
definitions.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .model import CompletedEvent, MalformedInput, SchemaViolation
from .standoff import read_results

REFERENCE_THROUGHPUT = {"baseline": 46234, "coref_only": 1492, "combined": 47726}
REFERENCE_GENEROUS_PRECISION = {"combined": 0.742, "coref_only": 0.680}
REFERENCE_MUTANT_PRECISION = 0.757
REFERENCE_ERROR_BREAKDOWN = {
    "NamedEntityRecognition": 0.14,
    "EventRecognition": 0.36,
    "CoreferenceResolution": 0.50,
}
REFERENCE_MAX_COREF_CONTRIBUTION = 0.089

ERROR_CLASSES = ("NamedEntityRecognition", "EventRecognition", "CoreferenceResolution")

_JUDGMENTS = {Fraction(0), Fraction(1, 2), Fraction(1)}


class EvaluationError(ValueError):
    pass


class EmptySample(EvaluationError):
    pass


class MissingErrorClass(EvaluationError):
    pass


class CorpusMismatch(EvaluationError):
    pass


class AdjudicationRecord(NamedTuple):
    event_id: str
    judgment: Fraction
    error_class: str | None = None


def load_adjudications(data: bytes | str, mutant_mode: bool = False) -> list[AdjudicationRecord]:
    """Parse the adjudication CSV: header row, then event_id,judgment[,error_class].

    Half-point judgments are only legal in mutant mode.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"adjudication file is not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader)
    except StopIteration:
        raise EvaluationError("adjudication file is empty; a header row is required") from None
    if not header or header[0].strip().lower() != "event_id":
        raise EvaluationError("adjudication file must start with a header row (event_id,...)")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise EvaluationError(f"line {lineno}: expected event_id,judgment[,error_class]")
        event_id = row[0].strip()
        try:
            judgment = Fraction(row[1].strip())
        except (ValueError, ZeroDivisionError):
            raise EvaluationError(f"line {lineno}: bad judgment {row[1]!r}") from None
        if judgment not in _JUDGMENTS:
            raise EvaluationError(f"line {lineno}: judgment must be 0, 0.5 or 1")
        if judgment == Fraction(1, 2) and not mutant_mode:
            raise EvaluationError(f"line {lineno}: half points are only valid in mutant mode")
        error_class = row[2].strip() if len(row) > 2 and row[2].strip() else None
        if error_class is not None and error_class not in ERROR_CLASSES:
            raise EvaluationError(f"line {lineno}: unknown error class {error_class!r}")
        records.append(AdjudicationRecord(event_id, judgment, error_class))
    return records


def generous_precision(records: list[AdjudicationRecord]) -> tuple[Fraction, Fraction, int]:
    """Mean judgment as an exact fraction, plus (numerator sum, count)."""
    if not records:
        raise EmptySample("no adjudication records")
    total = sum((r.judgment for r in records), Fraction(0))
    return total / len(records), total, len(records)


def error_breakdown(records: list[AdjudicationRecord]) -> dict[str, Fraction]:
    """Distribution of error classes over judgment-0 records."""
    errors = [r for r in records if r.judgment == 0]
    if not errors:
        raise EmptySample("no judgment-0 records to break down")
    for r in errors:
        if r.error_class is None:
            raise MissingErrorClass(r.event_id)
    counts = {cls: 0 for cls in ERROR_CLASSES}
    for r in errors:
        counts[r.error_class] += 1
    return {cls: Fraction(n, len(errors)) for cls, n in counts.items()}


class RunOutput(NamedTuple):
    doc_id: str
    completed: tuple[CompletedEvent, ...] | list[CompletedEvent]


def load_run(path: str | Path) -> list[RunOutput]:
    """Read resolver output, through ``standoff.read_results``, from a result
    file, streams included, or a directory of them; an empty one is a legal
    empty corpus. A result that ``load_result`` refuses is an EvaluationError."""
    try:
        return [RunOutput(doc.doc_id, completed)
                for _, doc, _, completed, _ in read_results(path)]
    except (MalformedInput, SchemaViolation) as exc:
        raise EvaluationError(str(exc)) from None


def throughput(system: list[RunOutput], baseline: list[RunOutput] | None = None,
               darpa_collapse: bool = False) -> dict[str, int]:
    """Event counts from a resolver run, split by coreference attribution.

    ``baseline`` is a coreference-disabled run over the same corpus, used to
    cross-check document coverage; its own event count is reported alongside.
    The additive identity combined = baseline + coref_only always holds.
    """
    if baseline is not None:
        sys_ids = {o.doc_id for o in system}
        base_ids = {o.doc_id for o in baseline}
        if sys_ids != base_ids:
            raise CorpusMismatch(
                f"document sets differ: only-system={sorted(sys_ids - base_ids)} "
                f"only-baseline={sorted(base_ids - sys_ids)}")

    def count(outputs: list[RunOutput], want_coref: bool | None) -> int:
        events = (ev for out in outputs for ev in
                  (_collapse_regulations(out.completed) if darpa_collapse else out.completed))
        return sum(want_coref is None or bool(ev.provenance) == want_coref for ev in events)

    counts = {
        "baseline": count(system, want_coref=False),
        "coref_only": count(system, want_coref=True),
    }
    counts["combined"] = counts["baseline"] + counts["coref_only"]
    if baseline is not None:
        counts["baseline_run_events"] = count(baseline, want_coref=None)
    return counts


def _collapse_regulations(events: list[CompletedEvent]) -> list[CompletedEvent]:
    """Fold each regulation together with the events it controls into one unit."""
    emitted = {ev.id for ev in events}
    absorbed = {arg.ref for ev in events for arg in ev.args if arg.ref in emitted}
    return [ev for ev in events if ev.id not in absorbed]


def format_report(counts: dict[str, int],
                  precision: tuple[Fraction, Fraction, int] | None = None,
                  breakdown: dict[str, Fraction] | None = None,
                  mutant_mode: bool = False) -> str:
    """Plain-text tables mirroring the JSON report."""
    lines = ["Throughput mentions"]
    lines.append(f"  baseline (no coreference)   {counts['baseline']:>8}")
    lines.append(f"  coreference alone           {counts['coref_only']:>8}")
    lines.append(f"  combined                    {counts['combined']:>8}")
    if "baseline_run_events" in counts:
        lines.append(f"  baseline run event count    {counts['baseline_run_events']:>8}")
    if precision is not None:
        value, total, n = precision
        label = "Mutant-mode precision" if mutant_mode else "Generous precision"
        lines += ["", label, f"  {float(value):.1%}  ({total}/{n})"]
    if breakdown is not None:
        lines += ["", "Error source breakdown"]
        for cls in ERROR_CLASSES:
            frac = breakdown.get(cls, Fraction(0))
            lines.append(f"  {cls:<26} {float(frac):.0%}")
    return "\n".join(lines) + "\n"


def json_report(counts: dict[str, int],
                precision: tuple[Fraction, Fraction, int] | None = None,
                breakdown: dict[str, Fraction] | None = None,
                mutant_mode: bool = False) -> dict:
    report: dict = {"throughput": counts}
    if precision is not None:
        value, total, n = precision
        report["precision"] = {
            "mode": "mutant" if mutant_mode else "generous",
            "value": float(value),
            "exact": f"{value.numerator}/{value.denominator}",
            "numerator": str(total),
            "count": n,
        }
    if breakdown is not None:
        report["error_breakdown"] = {
            cls: {"value": float(frac), "exact": f"{frac.numerator}/{frac.denominator}"}
            for cls, frac in breakdown.items()
        }
    return report
