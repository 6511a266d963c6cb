"""Batch command-line driver.

Subcommands:
    resolve   run the sieve pipeline over a glob of standoff documents
    eval      score resolver output (throughput, precision, error breakdown)
    inspect   print the per-sieve trace for one anaphor in a result file

Exit codes: 0 success, 1 one or more documents failed, 2 configuration
error. Per-run summaries go to stderr as JSON so stdout stays scriptable.
``resolve`` is one loop on the main thread: it reads the inputs in order and
hands their documents, each line of an NDJSON stream among them, out to its
worker processes in tasks. The main process reads every input as bytes and
tells a stream from one document by ``standoff._documents``'s rule, so it
reads a single-document file only up to its second non-empty line, decodes
and parses at most its first, and keeps none of its text: the task carries
the file's path, and the worker reads the file again: a file changed in
between is resolved as the worker reads it, and one that no longer reads,
decodes or loads fails only that document. For each single-document file the
main process first creates the empty ``<out>/.<stem>.json.part`` that the
worker writes the result into; a stream line travels as its bytes,
undecoded, and its result comes back as bytes, which the main process writes
to the stream's part. Once a task's results are back, it moves each complete
part onto ``<out>/<stem>.json``, in input order. Every result is one compact
NDJSON line, so a single document's result file holds the same bytes as its
line in a stream's result file. With at most two tasks per worker out at a
time, the main process holds a bounded window of stream lines, no single
document's text or result, and of each input only its path.
A ``--strict`` stop kills the workers still resolving; then, as after any
stop, every part created and not moved is unlinked.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import math
import os
import sys
from collections import deque
from contextlib import ExitStack, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .detection import default_lexicon, load_lexicon_file
from .grounding import default_table, load_table_file
from .resolver import ResolverConfig, resolve_document, validate_disabled
from .schema import default_schema, load_schema_file
from .standoff import _READ_SIZE, _documents, _load, read_results

# The most documents one task holds. With at most _TASKS_PER_JOB tasks per
# worker handed out and not yet written, the main process holds a window of
# documents, whatever the size of its inputs. CHANGES.md records the
# measurements behind both values.
_WINDOW = 64
_TASKS_PER_JOB = 2
# The summary's counts that sum the per-document counters.
_SUMMED = ("anaphors_detected", "anaphors_resolved", "anaphors_dropped",
           "events_completed", "events_coref_derived", "events_dropped")


def _build_config(args) -> ResolverConfig:
    lexicon = load_lexicon_file(args.lexicon) if args.lexicon else default_lexicon()
    schema = load_schema_file(args.schema) if args.schema else default_schema()
    grounding = load_table_file(args.grounding) if args.grounding else default_table()
    disabled = validate_disabled(args.disable_sieve or [])
    return ResolverConfig(lexicon=lexicon, schema=schema, grounding=grounding,
                          disabled_sieves=disabled, trace=args.emit_provenance)


def _resolve_task(task: list[tuple[str | bytes, str | None]], config: ResolverConfig) -> list:
    """``(output, counters, None)`` for each ``(source, part)`` document of
    one task, in order, or ``(None, None, error)`` for one that cannot be
    resolved, whatever the cause. A single document's ``source`` is its
    file's path, read here, and its ``part`` the path of the empty file the
    main process created for it: its result is written into it and
    ``output`` is None. A stream line travels as its bytes: its ``source``
    is the line, decoded here, and it has no part: ``output`` is its result.
    Either way the result is one compact NDJSON line, so a result file is
    the line a stream of its document would hold. A line given as text, a
    ``str``, is parsed as it is. Each document is taken out of ``task`` as
    it is resolved, and its bytes are dropped once they are decoded, so the
    parse never holds them beside their text."""
    results = []
    for i in range(len(task)):
        source, part = task[i]
        task[i] = None
        try:
            if part is not None:  # a file changed since the main process read it fails here
                with open(source, "rb") as file:
                    source = file.read()
            source = [source]  # _load takes the bytes out: they are dropped once decoded
            doc = _load(source, config.schema)
            resolution = resolve_document(doc, config)
            del doc
            if part is None:
                results.append((resolution.to_bytes(emit_provenance=config.trace),
                                resolution.counters, None))
                continue
            # "r+b" opens the file only if it exists: a worker never creates one.
            with open(part, "r+b") as file:
                resolution.to_bytes(emit_provenance=config.trace, file=file)
            results.append((None, resolution.counters, None))
        except Exception as exc:  # contained here: one document never aborts the batch
            results.append((None, None, f"{type(exc).__name__}: {exc}"))
    return results


def _task_size(documents: int, jobs: int) -> int:
    # A quarter of one worker's share, as Pool.map sizes its chunks: every
    # task costs a round trip between processes, and smaller tasks keep the
    # workers evenly loaded to the end.
    return math.ceil(documents / (4 * jobs))


def _out_name(path: str) -> str:
    """``PurePath(path).stem + ".json"``, found without a path object, whose
    parts Python would keep for the life of the process."""
    name = next((part for part in reversed(path.split("/")) if part not in ("", ".")), "")
    dot = name.rfind(".")
    return (name[:dot] if 0 < dot < len(name) - 1 else name) + ".json"


def _clashes(paths: list[str], out_dir: Path) -> list[str]:
    """Each output file that more than one input would write, with the inputs."""
    by_name: dict[str, list[str]] = {}
    for path in paths:
        by_name.setdefault(_out_name(path), []).append(path)
    return [f"{out_dir / name} <- {', '.join(group)}"
            for name, group in by_name.items() if len(group) > 1]


def _part(out_dir: str, name: str) -> str:
    """Where the output file ``name`` is written until it is complete."""
    return os.path.join(out_dir, f".{name}.part")


def _tasks(paths: list[str], jobs: int, out_dir: str,
           created: set[str]) -> Iterator[tuple[list, list]]:
    """Read the input files in order and yield their documents, in order, as
    ``(task, where)``: ``task`` holds ``(source, part)`` for at most _WINDOW
    stream lines, or the share ``_task_size`` gives of single-document files
    if that is fewer. A stream line travels as its bytes: its ``source`` is
    the line, undecoded, and its ``part`` None. A single document's
    ``source`` is its file's path, read here only up to its second non-empty
    line, and its ``part`` is its output's part in ``out_dir``, created empty
    here and added to ``created`` before it is handed out. ``where`` places
    them, in input order: ``(input, line, False, None)`` for each document,
    ``input`` being its file's index in ``paths``, and ``(input, None, True,
    error)`` after a file's documents, ``error`` being the error that
    reading the file or creating its part raised, or None. A file's end goes
    in the ``where`` of the last document read before it, or of the first
    task if there is none; when no file has a document, that task is empty.
    A stream that fails part way has handed out its first documents
    already."""
    task: list[tuple[str | bytes, str | None]] = []
    where: list[tuple[int, int | None, bool, str | None]] = []
    singles = min(_WINDOW, _task_size(len(paths), jobs))
    for index, path in enumerate(paths):
        error = None
        try:
            with open(path, "rb") as file:
                lines = _documents(file, _READ_SIZE)
                size = singles if lines is None else _WINDOW
                for line, source in lines or [(None, path)]:
                    if len(task) >= size:
                        yield task, where
                        task, where = [], []
                    part = None
                    if lines is None:
                        part = _part(out_dir, _out_name(path))
                        open(part, "wb").close()
                        created.add(part)
                    task.append((source, part))
                    where.append((index, line, False, None))
        except OSError as exc:
            error = f"{type(exc).__name__}: {exc}"
        where.append((index, None, True, error))
    if where:
        yield task, where


def _run(tasks: Iterator[tuple[list, list]], submit: Callable[[list], Callable[[], list]],
         window: int) -> Iterator[tuple[tuple, tuple | None]]:
    """Each entry of each task's ``where``, in input order, with its
    document's result, or with None for the entry that ends a file.
    ``submit`` hands a task out and returns the call that waits for its
    results; at most ``window`` tasks are handed out and not yet collected."""
    waiting: deque = deque()
    while True:
        for task, where in islice(tasks, window - len(waiting)):
            waiting.append((where, submit(task)))
        if not waiting:
            return
        where, get = waiting.popleft()
        results = iter(get())
        for entry in where:
            yield entry, None if entry[2] else next(results)
        del get, results  # written: not held while more input is read and waited for


def _totals() -> dict:
    return dict.fromkeys(_SUMMED, 0) | {"resolved_by_sieve": {}}


def _fold(totals: dict, counters: dict) -> None:
    for key in _SUMMED:
        totals[key] += counters[key]
    by_sieve = totals["resolved_by_sieve"]
    for sieve, n in counters["resolved_by_sieve"].items():
        by_sieve[sieve] = by_sieve.get(sieve, 0) + n


class _Output:
    """One input's result file. Its results go to ``part``, ``.<name>.part``
    beside it, which is moved onto the file only when the input ends without
    a failure. A single document's part was created by ``_tasks`` and written
    by whoever resolved it; a stream's is created here at its first result
    and written as its lines' results arrive. ``created`` holds the parts the
    main process created and has neither moved nor unlinked. ``docs`` and
    ``totals`` count the input's own documents until then."""

    def __init__(self, path: str, out_dir: str, name: str, created: set[str]) -> None:
        self.path = path
        self.target = os.path.join(out_dir, name)
        self.part = _part(out_dir, name)
        self.created = created
        self.file: BinaryIO | None = None
        self.failure: dict | None = None
        self.docs = 0
        self.totals = _totals()

    def add(self, line: int | None, result: tuple) -> None:
        if self.failure is not None:
            return
        out, counters, error = result
        if error is not None:
            self.fail(error, line)
            return
        if out is not None:
            if self.file is None:
                try:
                    self.file = open(self.part, "wb")
                except OSError as exc:  # the input fails as if it could not be read
                    self.fail(f"{type(exc).__name__}: {exc}")
                    return
                self.created.add(self.part)
            self.file.write(out)
        self.docs += 1
        _fold(self.totals, counters)

    def finish(self, read_error: str | None) -> None:
        """Move a complete result file into place; a failed input has none.
        A read error outranks any failing document of the input."""
        if read_error is not None:
            self.fail(read_error)
        if self.failure is None:
            if self.file is not None:
                self.file.close()
                self.file = None
            os.replace(self.part, self.target)
            self.created.discard(self.part)

    def fail(self, error: str, line: int | None = None) -> None:
        self.failure = {"file": self.path, "error": error}
        if line is not None:
            self.failure["line"] = line
        self.discard()

    def discard(self) -> None:
        """Close the part and unlink it if this run created it. The results
        of the input's documents are in by then, so no worker writes it."""
        if self.file is not None:
            self.file.close()
            self.file = None
        if self.part in self.created:
            self.created.remove(self.part)
            with suppress(FileNotFoundError):
                os.unlink(self.part)


def _outputs(collated: Iterable[tuple[tuple, tuple | None]], paths: list[str],
             out_dir: str, created: set[str]) -> Iterator[_Output]:
    """Write each input's results as ``_run`` hands them out, and yield
    each input's ``_Output`` once its end has been handed out. An output left
    unfinished when an exception or ``close`` stops the generator is
    discarded."""
    output = None
    try:
        for (index, line, end, read_error), result in collated:
            if output is None:
                path = paths[index]
                output = _Output(path, out_dir, _out_name(path), created)
            if not end:
                output.add(line, result)
                del result  # written: not held while the next one is awaited
                continue
            output.finish(read_error)
            finished, output = output, None
            yield finished
    finally:
        if output is not None:
            output.discard()


def _unlink(parts: set[str]) -> None:
    for part in parts:
        with suppress(FileNotFoundError):
            os.unlink(part)


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

    # A pattern with two ``**`` lists one file once per way it matches.
    paths = sorted(set(globlib.glob(args.inputs, recursive=True)))
    out_dir = Path(args.out)
    clashes = _clashes(paths, out_dir)
    if clashes:
        print(f"configuration error: inputs share an output file: {'; '.join(clashes)}",
              file=sys.stderr)
        return 2
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    summary: dict = {"docs": 0, "failed": [], **_totals()}
    created: set[str] = set()
    with ExitStack() as stack:
        # Exits run in reverse: the unfinished output is discarded, the pool
        # stops, the input file that the task generator holds open is closed,
        # and, with no worker left to write one, every part created and not
        # moved into place is unlinked.
        stack.callback(_unlink, created)
        tasks = _tasks(paths, args.jobs, str(out_dir), created)
        stack.callback(tasks.close)
        if args.jobs > 1 and paths:
            from .workers import Pool  # only a run with workers loads it
            pool = Pool(partial(_resolve_task, config=config))
            stack.callback(pool.stop)
            pool.start(args.jobs)
            collated = _run(tasks, pool.submit, _TASKS_PER_JOB * args.jobs)
        else:
            collated = _run(tasks, lambda task: partial(_resolve_task, task, config), 1)
        outputs = _outputs(collated, paths, str(out_dir), created)
        stack.callback(outputs.close)
        for output in outputs:
            if output.failure is not None:
                summary["failed"].append(output.failure)
                if args.strict:
                    break
                continue
            summary["docs"] += output.docs
            _fold(summary, output.totals)

    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 1 if summary["failed"] else 0


def cmd_eval(args) -> int:
    from .evaluation import (EvaluationError, error_breakdown, format_report,
                             generous_precision, json_report, load_adjudications,
                             load_run, throughput)

    try:
        system = load_run(args.system)
        baseline = load_run(args.baseline) if args.baseline else None
        counts = throughput(system, baseline, darpa_collapse=args.darpa_collapse)
        precision = breakdown = None
        if args.adjudications:
            adjudications = Path(args.adjudications)
            try:
                records = load_adjudications(adjudications.read_bytes(),
                                             mutant_mode=args.mutant_mode)
            except EvaluationError as exc:
                raise EvaluationError(f"{adjudications}: {exc}") from None
            precision = generous_precision(records)
            if any(r.judgment == 0 and r.error_class for r in records):
                breakdown = error_breakdown(records)
        report = json_report(counts, precision, breakdown, mutant_mode=args.mutant_mode)
        if args.report:  # before printing, so a report that cannot be written prints none
            Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(counts, precision, breakdown, mutant_mode=args.mutant_mode), end="")
    return 0


def cmd_inspect(args) -> int:
    lines, traced = [], []
    try:
        for _, doc, _, _, trace in read_results(args.result):
            if trace is None:
                raise ValueError(f"{doc.doc_id} has no trace; re-run resolve with --emit-provenance")
            for entry in trace:
                traced.append(entry["anaphor"])
                if entry["anaphor"] == args.anaphor:
                    lines += [f"doc {doc.doc_id}", *_render_trace_entry(entry)]
    except (OSError, ValueError) as exc:  # ValueError: a result refused, or no trace
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AttributeError, KeyError, TypeError) as exc:
        print(f"configuration error: malformed trace: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if not lines:
        known = ", ".join(dict.fromkeys(traced)) or "(none)"
        print(f"unknown anaphor {args.anaphor!r}; traced anaphors: {known}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _render_trace_entry(entry: dict) -> list[str]:
    lines = [f"anaphor {entry['anaphor']} ({entry['kind']}) {entry['surface']!r} "
             f"span={entry['span']} cardinality={entry['cardinality']}"]
    for attempt in entry["attempts"]:
        lines.append(f"  {attempt['sieve']}: {attempt['status']}")
        for item in attempt.get("considered", ()):
            lines.append(f"    {item['id']}: {item['verdict']}")
        if attempt.get("antecedents"):
            lines.append(f"    -> {' '.join(attempt['antecedents'])}")
    final = entry.get("final", {})
    if final.get("status") == "LINKED":
        lines.append(f"  LINKED by {final['sieve']} -> {' '.join(final['antecedents'])}")
    else:
        lines.append(f"  {final.get('status', 'UNRESOLVED')}")
    return lines


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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
