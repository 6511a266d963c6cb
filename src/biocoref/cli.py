"""Batch command-line driver.

Subcommands:
    resolve   run the sieve pipeline over a glob of standoff documents
    eval      score resolver output (throughput, precision, error breakdown)
    inspect   print the per-sieve trace for one anaphor in a result file
    fixtures  write or validate the bundled example corpus

Exit codes: 0 success, 1 one or more documents failed, 2 configuration error.
Per-run summaries go to stderr as JSON so stdout stays scriptable.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import fixtures as fixtures_mod
from .detection import default_lexicon, load_lexicon_file
from .evaluation import (
    EvaluationError,
    error_breakdown,
    format_report,
    generous_precision,
    json_report,
    load_adjudications,
    load_run,
    throughput,
)
from .grounding import default_table, load_table_file
from .model import MalformedInput, SchemaViolation
from .resolver import ResolverConfig, resolve_document, validate_disabled
from .schema import default_schema, load_schema_file
from .standoff import load_document

_WORKER_CONFIG: dict = {}


def _build_config(args) -> ResolverConfig:
    lexicon = load_lexicon_file(args.lexicon) if args.lexicon else default_lexicon()
    schema = load_schema_file(args.schema) if args.schema else default_schema()
    grounding = load_table_file(args.grounding) if args.grounding else default_table()
    disabled = validate_disabled(args.disable_sieve or [])
    return ResolverConfig(lexicon=lexicon, schema=schema, grounding=grounding,
                          disabled_sieves=disabled, trace=args.emit_provenance)


def _resolve_file(path: str, config: ResolverConfig) -> tuple[bytes, dict]:
    """Resolve one input file: a single JSON document or an NDJSON stream."""
    data = Path(path).read_bytes()
    try:
        docs = [load_document(data, schema=config.schema)]
        ndjson = False
    except MalformedInput:
        text = data.decode("utf-8")
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise
        docs = [load_document(line, schema=config.schema) for line in lines]
        ndjson = True

    outputs = []
    totals: dict = {}
    for doc in docs:
        resolution = resolve_document(doc, config)
        outputs.append(resolution.to_bytes(emit_provenance=config.trace))
        for key, value in resolution.counters.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
            elif isinstance(value, dict):
                bucket = totals.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
    if ndjson:
        # One compact result per line, mirroring the input stream shape.
        payload = b"".join(
            json.dumps(json.loads(out), ensure_ascii=False, separators=(",", ":")).encode("utf-8")
            + b"\n"
            for out in outputs
        )
    else:
        payload = outputs[0]
    return payload, totals


def _worker_init(args: argparse.Namespace) -> None:
    _WORKER_CONFIG["config"] = _build_config(args)


def _resolve_path(path: str, config: ResolverConfig | None = None
                  ) -> tuple[str, bytes | None, dict | None, str | None]:
    """``(path, output, counters, None)`` for one input file, or ``(path,
    None, None, error)`` when it cannot be resolved. ``config`` defaults to
    the one a pool worker built at start-up."""
    try:
        out, counters = _resolve_file(path, config or _WORKER_CONFIG["config"])
        return path, out, counters, None
    except (MalformedInput, SchemaViolation, OSError, ValueError, KeyError) as exc:
        return path, None, None, f"{type(exc).__name__}: {exc}"


def cmd_resolve(args) -> int:
    try:
        config = _build_config(args)
    except Exception as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    paths = sorted(globlib.glob(args.inputs, recursive=True))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary: dict = {
        "docs": 0,
        "failed": [],
        "anaphors_detected": 0,
        "anaphors_resolved": 0,
        "anaphors_dropped": 0,
        "resolved_by_sieve": {},
        "events_completed": 0,
        "events_coref_derived": 0,
        "events_dropped": 0,
    }

    if args.jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_worker_init,
                                 initargs=(args,)) as pool:
            results = list(pool.map(_resolve_path, paths))
    else:
        results = [_resolve_path(path, config) for path in paths]

    for path, out, counters, error in results:
        if error is not None:
            summary["failed"].append({"file": path, "error": error})
            if args.strict:
                break
            continue
        (out_dir / (Path(path).stem + ".json")).write_bytes(out)
        summary["docs"] += 1
        for key in ("anaphors_detected", "anaphors_resolved", "anaphors_dropped",
                    "events_completed", "events_coref_derived", "events_dropped"):
            summary[key] += counters[key]
        for sieve, n in counters["resolved_by_sieve"].items():
            summary["resolved_by_sieve"][sieve] = summary["resolved_by_sieve"].get(sieve, 0) + n

    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 1 if summary["failed"] else 0


def cmd_eval(args) -> int:
    try:
        system = load_run(args.system)
        baseline = load_run(args.baseline) if args.baseline else None
        counts = throughput(system, baseline, darpa_collapse=args.darpa_collapse)
        precision = breakdown = None
        if args.adjudications:
            records = load_adjudications(Path(args.adjudications).read_bytes(),
                                         mutant_mode=args.mutant_mode)
            precision = generous_precision(records)
            if any(r.judgment == 0 and r.error_class for r in records):
                breakdown = error_breakdown(records)
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = json_report(counts, precision, breakdown, mutant_mode=args.mutant_mode)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(counts, precision, breakdown, mutant_mode=args.mutant_mode), end="")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


def cmd_inspect(args) -> int:
    try:
        raw = json.loads(Path(args.result).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    trace = raw.get("trace")
    if trace is None:
        print("configuration error: result file has no trace; re-run resolve with "
              "--emit-provenance", file=sys.stderr)
        return 2
    entry = next((t for t in trace if t["anaphor"] == args.anaphor), None)
    if entry is None:
        known = ", ".join(t["anaphor"] for t in trace) or "(none)"
        print(f"unknown anaphor {args.anaphor!r}; traced anaphors: {known}", file=sys.stderr)
        return 2

    print(f"anaphor {entry['anaphor']} ({entry['kind']}) {entry['surface']!r} "
          f"span={entry['span']} cardinality={entry['cardinality']}")
    for attempt in entry["attempts"]:
        line = f"  {attempt['sieve']}: {attempt['status']}"
        print(line)
        for item in attempt.get("considered", ()):
            print(f"    {item['id']}: {item['verdict']}")
        if attempt.get("antecedents"):
            print(f"    -> {' '.join(attempt['antecedents'])}")
    final = entry.get("final", {})
    if final.get("status") == "LINKED":
        print(f"  LINKED by {final['sieve']} -> {' '.join(final['antecedents'])}")
    else:
        print(f"  {final.get('status', 'UNRESOLVED')}")
    return 0


def cmd_fixtures(args) -> int:
    out_dir = Path(args.out)
    if args.check:
        problems = fixtures_mod.validate_corpus(out_dir)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return 1
        print(f"corpus at {out_dir} is up to date", file=sys.stderr)
        return 0
    written = fixtures_mod.write_corpus(out_dir)
    print(f"wrote {len(written)} files to {out_dir}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biocoref",
                                     description="Sieve-based coreference resolution "
                                                 "for standoff biomedical documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resolve", help="resolve a batch of standoff documents")
    p_res.add_argument("--in", dest="inputs", required=True,
                       help="input glob of standoff JSON files")
    p_res.add_argument("--out", required=True, help="output directory")
    p_res.add_argument("--grounding", help="alias table TSV (bundled default otherwise)")
    p_res.add_argument("--lexicon", help="trigger dictionary JSON")
    p_res.add_argument("--schema", help="event argument schema JSON")
    p_res.add_argument("--disable-sieve", action="append", metavar="NAME",
                       help="disable a sieve by name; repeatable; 'all' disables "
                            "every resolution sieve but keeps cleanup")
    p_res.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_res.add_argument("--strict", action="store_true",
                       help="abort the batch on the first failing document")
    p_res.add_argument("--emit-provenance", action="store_true",
                       help="include chains and per-anaphor traces in outputs")
    p_res.set_defaults(func=cmd_resolve)

    p_eval = sub.add_parser("eval", help="score resolver output")
    p_eval.add_argument("--system", required=True,
                        help="result file or directory from a full run")
    p_eval.add_argument("--baseline",
                        help="result file or directory from a coreference-disabled run")
    p_eval.add_argument("--adjudications", help="CSV of per-event judgments")
    p_eval.add_argument("--mutant-mode", action="store_true",
                        help="allow half-point judgments")
    p_eval.add_argument("--darpa-collapse", action="store_true",
                        help="count a regulation and its controlled event as one")
    p_eval.add_argument("--json", action="store_true", help="print the JSON report")
    p_eval.add_argument("--report", help="also write the JSON report to this path")
    p_eval.set_defaults(func=cmd_eval)

    p_ins = sub.add_parser("inspect", help="show the resolution trace for one anaphor")
    p_ins.add_argument("result", help="result file written with --emit-provenance")
    p_ins.add_argument("anaphor", help="anaphor mention id")
    p_ins.set_defaults(func=cmd_inspect)

    p_fix = sub.add_parser("fixtures", help="write or validate the example corpus")
    p_fix.add_argument("--out", required=True, help="corpus directory")
    p_fix.add_argument("--check", action="store_true",
                       help="validate instead of writing")
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
