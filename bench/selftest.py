#!/usr/bin/env python3
"""Quick self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

1. Every workload runs end to end at a tiny size, with and without
   ``--trace``, and prints exactly the metrics BENCHMARK.json lists.
2. The output checker passes real outputs and fails each of a set of
   deliberately corrupted copies of them.
3. A copy of the benchmark without the package sources exits non-zero
   without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import check
import corpus
import run

TINY = {
    "many_small": lambda seed: corpus.small_docs(seed, 40),
    "stream_provenance": lambda seed: corpus.small_docs(seed, 40),
    "long_docs": lambda seed: corpus.long_docs(seed, (25, 50), 2),
}


def run_tiny(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"FAIL {name} trace {trace}: exit {code}, {result}")
    return result


def check_metric_names(spec: dict, name: str, trace: int, result: dict) -> None:
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"FAIL {name} trace {trace}: metrics {sorted(got.items())} "
                         f"!= BENCHMARK.json {sorted(want.items())}")


def corruptions(results: list[dict], expects: dict) -> dict:
    """Named corrupted copies of ``results``; the checker must fail each."""
    def mutate(fn):
        bad = copy.deepcopy(results)
        fn(bad)
        return bad

    def first(kind):
        for i, r in enumerate(results):
            if expects[r["doc_id"]][kind]:
                return i, expects[r["doc_id"]][kind][0]
        raise SystemExit(f"FAIL: tiny corpus has no {kind} case")

    def forward_link(bad):
        for r in bad:
            for link in r["links"]:
                later = [e["id"] for e in r["entities"]
                         if e["start"] > next(x["start"] for x in r["entities"]
                                              if x["id"] == link["anaphor"])]
                if later:
                    link["antecedents"] = [later[0]]
                    return
        raise SystemExit("FAIL: no link to turn forward")

    def swap_antecedent(bad):
        i, (anaphor, antecedent) = first("mutant_match")
        for link in bad[i]["links"]:
            if link["anaphor"] == anaphor:
                others = [e["id"] for e in bad[i]["entities"] if e["id"] not in (anaphor, antecedent)
                          and e["start"] < next(x["start"] for x in bad[i]["entities"]
                                                if x["id"] == anaphor)]
                link["antecedents"] = others[:1] or [anaphor]

    def self_binding_completed(bad):
        i, ev_id = first("self_binding")
        bad[i]["completed_events"].append({"id": ev_id, "args": [], "derived_from": ev_id})

    def indefinite_linked(bad):
        i, ent_id = first("indefinite")
        bad[i]["links"].append({"anaphor": ent_id, "antecedents": [bad[i]["entities"][0]["id"]],
                                "sieve": "class_np"})

    def event_link_dropped(bad):
        i, (anaphor, _) = first("event_coref")
        bad[i]["links"] = [link for link in bad[i]["links"] if link["anaphor"] != anaphor]

    def chain_split(bad):
        for r in bad:
            if r["links"]:
                anaphor = r["links"][0]["anaphor"]
                r["chains"] = [[m for m in c if m != anaphor] for c in r["chains"]]
                return

    # name -> (corrupted results, words the checker's report must contain)
    return {
        "forward link": (mutate(forward_link), "forward link"),
        "swapped mutant antecedent": (mutate(swap_antecedent), "by mutant_match"),
        "completed self-binding": (mutate(self_binding_completed), "self-binding"),
        "linked indefinite": (mutate(indefinite_linked), "indefinite"),
        "missing event link": (mutate(event_link_dropped), "by event_coref"),
        "link outside its chain": (mutate(chain_split), "outside its chain"),
        "missing result": (results[1:], "results for"),
    }


def test_checker() -> None:
    docs = corpus.small_docs(3, 60)
    expects = {d["doc_id"]: e for d, e in docs}
    work = run.WORK / "selftest-checker"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        in_glob = run.write_inputs(docs, work, stream=True)
        with run.Cli(work) as cli:
            p = cli.resolve(in_glob, "out", provenance=True)
        _, _, files = run.read_outputs(work / "out")
    finally:
        shutil.rmtree(work)
    results = run.parse_results(files, stream=True)
    problems = check.check_run(results, expects, p.summary, provenance=True)
    if problems:
        raise SystemExit(f"FAIL: checker rejects real outputs: {problems[:3]}")
    summary = dict(p.summary, events_completed=p.summary["events_completed"] + 1)
    cases = corruptions(results, expects)
    cases["wrong summary count"] = (results, "summary events_completed")
    for name, (bad, words) in cases.items():
        found = check.check_run(bad, expects, summary if bad is results else p.summary,
                                provenance=True)
        if not any(words in problem for problem in found):
            raise SystemExit(f"FAIL: checker misses corrupted output ({name}): {found[:3]}")
        print(f"ok   checker rejects: {name}")


def test_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run([*spec["command"], "--workload", "many_small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"FAIL: without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   without sources: exit {proc.returncode}, {proc.stderr.strip()[:80]}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        raise SystemExit("FAIL: BENCHMARK.json workloads differ from run.WORKLOADS")
    for name, make in TINY.items():
        run.WORKLOADS[name] = dataclasses.replace(run.WORKLOADS[name], make=make)
        for trace in (0, 1):
            result = run_tiny(name, trace)
            check_metric_names(spec, name, trace, result)
            print(f"ok   {name} trace {trace}: {result['attempted']} documents resolved")
    test_checker()
    test_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
