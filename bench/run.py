#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``biocoref resolve``.

Run from the repository root:

    python3 bench/run.py --workload many_small --seed 1 --seconds 20 --trace 0

``--trace 0`` drives ``python -m biocoref.cli resolve --jobs <nproc>`` over a
seeded corpus, again and again for ``--seconds``, checks every output, and
prints the end-to-end metrics. ``--trace 1`` adds a serial in-process run
that times the calls into each layer and prints the per-layer metrics. The
last line of standard output is one JSON object; progress goes to stderr.
See README.md in this directory for the workloads and the statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

JOBS = len(os.sched_getaffinity(0))
CLI_TIMEOUT_S = 100
MIN_PASSES = 4
SETUP_RUNS_PER_PASS = 1
LONG_LADDER = (200, 400, 800, 1600)


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], list[tuple[dict, dict]]]  # seed -> [(document, expectations)]
    stream: bool        # one NDJSON file instead of one JSON file per document
    provenance: bool    # run with --emit-provenance
    sample: int         # documents per in-process pass of the traced run; 0 means all


WORKLOADS = {
    "many_small": Workload(lambda seed: corpus.small_docs(seed, 2000), False, False, 500),
    "stream_provenance": Workload(lambda seed: corpus.small_docs(seed, 1500), True, True, 500),
    "long_docs": Workload(lambda seed: corpus.long_docs(seed, LONG_LADDER, 2), False, False, 0),
}


class BenchError(Exception):
    """The program misbehaved in a way that stops the run."""


@dataclass
class Pass:
    wall_s: float
    peak_rss_kib: int
    summary: dict


class Cli:
    """Runs the CLI through ``spawn.py``, which reports each run's wall time
    and the peak resident set of the CLI and its workers. Create it before
    loading the corpus: the helper's own peak is the floor of every reading."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.helper = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawn.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=CLI_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()

    def resolve(self, in_glob: str, out: str, provenance: bool) -> Pass:
        """Resolve ``in_glob`` into ``out``, both relative to the work directory."""
        cmd = [sys.executable, "-m", "biocoref.cli", "resolve", "--in", in_glob,
               "--out", out, "--jobs", str(JOBS)]
        if provenance:
            cmd.append("--emit-provenance")
        err_path = self.work / "stderr.txt"
        request = {"cmd": cmd, "cwd": str(self.work), "env": self.env,
                   "stderr": str(err_path), "timeout": CLI_TIMEOUT_S}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise BenchError("the spawn helper stopped")
        reply = json.loads(reply)
        lines = err_path.read_text(encoding="utf-8").strip().splitlines()
        if reply["exit"] != 0 or not lines:
            raise BenchError(f"resolve exited {reply['exit']}: {' '.join(lines)[-2000:]}")
        return Pass(reply["wall_s"], reply["maxrss_kib"], json.loads(lines[-1]))


def write_inputs(docs: list[tuple[dict, dict]], work: Path, stream: bool) -> str:
    """Write the corpus under ``work`` and return the ``--in`` glob, relative
    to ``work``, that selects it."""
    (work / "in").mkdir()
    if stream:
        (work / "in" / "stream.ndjson").write_bytes(
            b"".join(corpus.encode(d) + b"\n" for d, _ in docs))
        return "in/stream.ndjson"
    for d, _ in docs:
        (work / "in" / f"{d['doc_id']}.json").write_bytes(corpus.encode(d))
    return "in/*.json"


def read_outputs(out_dir: Path) -> tuple[str, int, list[bytes]]:
    """Digest and total size of every output file, and the result documents."""
    digest = hashlib.sha256()
    total = 0
    results: list[bytes] = []
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        total += len(data)
        results.append(data)
    return digest.hexdigest(), total, results


def parse_results(files: list[bytes], stream: bool) -> list[dict]:
    if stream:
        return [json.loads(line) for data in files for line in data.splitlines() if line.strip()]
    return [json.loads(data) for data in files]


class Runner:
    """One benchmark run: writes the corpus, runs the CLI passes, checks them."""

    def __init__(self, name: str, seed: int, work: Path, cli: Cli) -> None:
        self.wl = WORKLOADS[name]
        self.work = work
        self.cli = cli
        self.docs = self.wl.make(seed)
        self.expects = {d["doc_id"]: e for d, e in self.docs}
        self.in_glob = write_inputs(self.docs, work, self.wl.stream)
        (work / "empty").mkdir()
        self.digest: str | None = None
        self.output_bytes = 0
        self.results: list[dict] = []
        self.problems: list[str] = []
        self.passes: list[Pass] = []
        self.setups: list[float] = []
        self.attempted = 0

    def setup_run(self) -> float:
        wall = self.cli.resolve("empty/*.json", "empty-out", False).wall_s
        shutil.rmtree(self.work / "empty-out")
        return wall

    def cli_pass(self) -> None:
        out = self.work / "out"
        p = self.cli.resolve(self.in_glob, "out", self.wl.provenance)
        self.attempted += len(self.docs)
        digest, total, files = read_outputs(out)
        if self.digest is None:
            self.digest, self.output_bytes = digest, total
            self.results = parse_results(files, self.wl.stream)
            self.problems += check.check_run(self.results, self.expects, p.summary,
                                             self.wl.provenance)
        elif digest != self.digest:
            self.problems.append("outputs differ between passes over the same inputs")
        shutil.rmtree(out)
        self.passes.append(p)

    def run_cli(self, seconds: float, min_passes: int, setup_runs: int) -> None:
        """Alternate set-up runs and CLI passes until ``seconds`` have passed."""
        self.setup_run()  # compiles bytecode and warms the file cache; not timed
        deadline = time.perf_counter() + seconds
        while len(self.passes) < min_passes or time.perf_counter() < deadline:
            for _ in range(setup_runs):
                self.setups.append(self.setup_run())
            self.cli_pass()

    def rates(self) -> list[float]:
        return [len(self.docs) / p.wall_s for p in self.passes]

    def docs_per_s(self) -> float:
        """Documents over CLI wall time, summed over every pass of the run.

        The machine's speed switches between a slow and a fast level in
        stretches of 10 to 40 seconds. A time average weighs both by how
        long they lasted; the median of the passes would jump from one
        level to the other (see README.md).
        """
        return len(self.docs) * len(self.passes) / sum(p.wall_s for p in self.passes)

    def end_to_end(self) -> dict:
        n = len(self.docs)
        return {
            "docs_per_s": (self.docs_per_s(), "docs/s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_kib for p in self.passes) / 1024, "MiB"),
            "output_kb_per_doc": (self.output_bytes / n / 1024, "KiB"),
            "setup_s": (statistics.median(self.setups), "s"),
        }


def per_layer(runner: Runner, name: str, seconds: float) -> dict:
    """Per-layer metrics: CLI passes for fan-out, then the traced in-process run."""
    sys.path.insert(0, str(SRC))
    import layers  # imports biocoref, so only the traced run loads it in-process

    layers.require_sources(SRC)
    runner.run_cli(seconds * 0.4, 2, 0)
    items = [(corpus.encode(d), len(d["sentences"])) for d, _ in runner.docs]
    sample = items[:runner.wl.sample] if runner.wl.sample else items
    timing = layers.measure(sample, runner.wl.provenance, seconds * 0.6,
                            WORK / f"spans-{name}.jsonl")
    counts, traces = layers.count(items)
    if runner.wl.provenance:
        # The stream workload reads its search counts from the written traces.
        traces = [entry for r in runner.results for entry in r["trace"]]
    runner.attempted += timing.pop("docs_processed") + len(items)
    serial = timing["pipeline.serial_docs_per_s"][0]
    metrics = dict(timing)
    metrics.update(counts)
    metrics.update(layers.search_counts(traces))
    metrics["cli.parallel_efficiency"] = (runner.docs_per_s() / (JOBS * serial), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biocoref" / "cli.py").is_file():
        print(f"error: no biocoref sources at {SRC / 'biocoref'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Cli(work) as cli:
            runner = Runner(args.workload, args.seed, work, cli)
            if args.trace:
                metrics = per_layer(runner, args.workload, args.seconds)
            else:
                runner.run_cli(args.seconds, MIN_PASSES, SETUP_RUNS_PER_PASS)
                metrics = runner.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rates = ", ".join(f"{r:.4g}" for r in runner.rates())
    print(f"{args.workload} seed {args.seed}: {len(runner.passes)} passes of {len(runner.docs)} "
          f"docs, docs/s per pass [{rates}], {len(runner.setups)} set-up runs", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": 0,  # a document that fails makes resolve exit non-zero, which stops the run
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
