"""Batch command-line driver.

Subcommands:
    resolve   run the sieve pipeline over a glob of standoff documents
    eval      score resolver output (throughput, precision, error breakdown)
    inspect   print the per-sieve trace for one anaphor in a result file
    fixtures  write or validate the bundled example corpus

Exit codes: 0 success, 1 one or more documents failed, 2 configuration error.
Per-run summaries go to stderr as JSON so stdout stays scriptable. ``resolve``
fans documents, including each line of an NDJSON stream, out over its worker
processes; the main process reads every input and writes every output.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import math
import multiprocessing
import sys
from collections import deque
from contextlib import ExitStack
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterator

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


def _worker_init(args: argparse.Namespace) -> None:
    _WORKER_CONFIG["config"] = _build_config(args)


def _resolve_text(text: bytes | str, line: bool, config: ResolverConfig
                  ) -> tuple[bytes | None, dict | None, str | None]:
    """``(output, counters, None)`` for one document's text, or ``(None, None,
    error)`` when it cannot be resolved, whatever the cause. ``line`` selects
    the compact NDJSON line of a stream document over the indented result
    file."""
    try:
        resolution = resolve_document(load_document(text, schema=config.schema), config)
        return (resolution.to_bytes(emit_provenance=config.trace, line=line),
                resolution.counters, None)
    except Exception as exc:  # contained here: one document never aborts the batch
        return None, None, f"{type(exc).__name__}: {exc}"


def _resolve_task(task: list[tuple[bytes | str, bool]], config: ResolverConfig | None = None
                  ) -> list:
    """``_resolve_text`` over one task's ``(text, line)`` documents. ``config``
    defaults to the one a pool worker built at start-up."""
    config = config or _WORKER_CONFIG["config"]
    return [_resolve_text(text, line, config) for text, line in task]


def _documents(data: bytes) -> tuple[list[bytes | str], bool]:
    """The documents of one input file, and whether they are the lines of an
    NDJSON stream: a file is a stream when it does not load as one JSON object
    and has at least two non-empty lines. Otherwise the file's bytes are its
    one document; non-ASCII text takes less memory as UTF-8 than as a str."""
    text = data.decode("utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        return [data], False
    try:
        # Parsing a stream stops after its first line; a document spread over
        # several lines is parsed in full here and again by its worker.
        stream = not isinstance(json.loads(text), dict)
    except (ValueError, RecursionError):
        stream = True
    return (lines, True) if stream else ([data], False)


def _task_size(documents: int, jobs: int) -> int:
    # A quarter of one worker's share, as Pool.map sizes its chunks: every
    # task costs a round trip between processes, and smaller tasks keep the
    # workers evenly loaded to the end.
    return math.ceil(documents / (4 * jobs))


def _tasks(paths: list[str], jobs: int, inputs: deque) -> Iterator[list[tuple[bytes | str, bool]]]:
    """Read the input files in order and yield their documents, in order, as
    lists of ``(text, line)``: consecutive single-document files are batched,
    and each line of a stream is a document of its own, with ``line`` set.
    Before a file's first document is yielded, ``(path, documents, read
    error)`` is appended to ``inputs``; a file that cannot be read holds no
    documents."""
    batch: list[tuple[bytes | str, bool]] = []
    batch_size = _task_size(len(paths), jobs)
    for path in paths:
        try:
            docs, line = _documents(Path(path).read_bytes())
        except (OSError, UnicodeDecodeError) as exc:
            inputs.append((path, 0, f"{type(exc).__name__}: {exc}"))
            continue
        inputs.append((path, len(docs), None))
        if not line:
            batch.append((docs[0], False))
            if len(batch) == batch_size:
                yield batch
                batch = []
            continue
        if batch:
            yield batch
            batch = []
        size = _task_size(len(docs), jobs)
        for i in range(0, len(docs), size):
            yield [(doc, True) for doc in docs[i:i + size]]
    if batch:
        yield batch


def _by_file(results: Iterator[tuple], inputs: deque) -> Iterator[tuple[str, list, str | None]]:
    """Collate per-document results into ``(path, results, error)`` per input
    file, in input order. ``error`` is the file's read error or else its first
    failing document's. ``inputs`` is filled by ``_tasks``, which may run in
    the pool's task thread; it appends each file before handing out the
    file's documents, so a result's file is always there when it arrives."""
    pending: list[tuple] = []
    for result in results:
        pending.append(result)
        while inputs and len(pending) >= inputs[0][1]:
            path, documents, error = inputs.popleft()
            done, pending = pending[:documents], pending[documents:]
            yield path, done, error or next((e for _, _, e in done if e is not None), None)
    for path, _, error in inputs:  # unreadable files after the last document
        yield path, [], error


def cmd_resolve(args) -> int:
    if args.jobs < 1:
        print(f"configuration error: --jobs must be at least 1, not {args.jobs}",
              file=sys.stderr)
        return 2
    try:
        config = _build_config(args)
    except Exception as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    paths = sorted(globlib.glob(args.inputs, recursive=True))
    out_dir = Path(args.out)
    out_names = {path: Path(path).stem + ".json" for path in paths}
    by_name: dict[str, list[str]] = {}
    for path, name in out_names.items():
        by_name.setdefault(name, []).append(path)
    clashes = [f"{out_dir / name} <- {', '.join(group)}"
               for name, group in by_name.items() if len(group) > 1]
    if clashes:
        print(f"configuration error: inputs share an output file: {'; '.join(clashes)}",
              file=sys.stderr)
        return 2
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

    inputs: deque = deque()
    tasks = _tasks(paths, args.jobs, inputs)
    with ExitStack() as stack:
        if args.jobs > 1 and paths:
            # Forked workers start without a fresh interpreter and import; the
            # pool forks them before it starts its own threads.
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(
                args.jobs, initializer=_worker_init, initargs=(args,)))
            results = pool.imap(_resolve_task, tasks)
        else:
            results = map(partial(_resolve_task, config=config), tasks)
        for path, docs, error in _by_file(chain.from_iterable(results), inputs):
            if error is not None:
                summary["failed"].append({"file": path, "error": error})
                if args.strict:
                    break
                continue
            (out_dir / out_names[path]).write_bytes(b"".join(out for out, _, _ in docs))
            summary["docs"] += len(docs)
            for _, counters, _ in docs:
                for key in ("anaphors_detected", "anaphors_resolved", "anaphors_dropped",
                            "events_completed", "events_coref_derived", "events_dropped"):
                    summary[key] += counters[key]
                for sieve, n in counters["resolved_by_sieve"].items():
                    summary["resolved_by_sieve"][sieve] = (
                        summary["resolved_by_sieve"].get(sieve, 0) + n)

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
