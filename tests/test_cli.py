import json
import shutil
import subprocess
import sys

import pytest

from biocoref import cli, fixtures
from synth import regulation_chain

CLI = [sys.executable, "-m", "biocoref.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    fixtures.write_corpus(d)
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex*.json"),
                   "--out", str(out), "--emit-provenance")
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stderr.strip().splitlines()[-1])


def test_resolve_summary_reconciles(run_dir, manifest):
    out, summary = run_dir
    assert summary["docs"] == 22
    assert summary["failed"] == []
    assert summary["anaphors_detected"] == (summary["anaphors_resolved"]
                                            + summary["anaphors_dropped"])
    assert summary["events_coref_derived"] == sum(
        m["coref_events"] for m in manifest.values())
    assert len(list(out.glob("*.json"))) == 22


def test_resolve_empty_glob_is_success(tmp_path):
    proc = run_cli("resolve", "--in", str(tmp_path / "nothing-*.json"),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 0
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert summary["docs"] == 0 and summary["failed"] == []


def test_glob_matching_one_file_many_ways_resolves_it_once(tmp_path, corpus_dir):
    nested = tmp_path / "g" / "a" / "b"
    nested.mkdir(parents=True)
    shutil.copy(corpus_dir / "ex12_foxp3.json", nested / "x.json")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "g" / "**" / "**" / "x.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["docs"] == 1
    assert [p.name for p in out.iterdir()] == ["x.json"]


def test_cli_import_leaves_fixtures_and_evaluation_unloaded(tmp_path, corpus_dir):
    # resolve never uses the first two; cmd_fixtures and cmd_eval import them.
    # The rest cost start-up time: dataclasses (which imports inspect). A run
    # with workers forks them and talks to them over pipes: it loads neither
    # multiprocessing nor pickle, and starts no thread. Modules the
    # interpreter loaded before biocoref are not counted.
    code = f"""
import sys
before = set(sys.modules)
unwanted = {{"biocoref.fixtures", "biocoref.evaluation", "dataclasses", "inspect",
            "multiprocessing", "pickle", "threading"}}
import biocoref.cli
print(sorted(unwanted & (set(sys.modules) - before)))
for inputs in ({str(tmp_path / "nothing-*.json")!r}, {str(corpus_dir / "ex12_foxp3.json")!r}):
    code = biocoref.cli.main(["resolve", "--in", inputs, "--out", {str(tmp_path / "out")!r},
                              "--jobs", "2"])
    print(code, sorted(unwanted & (set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "0 []", "0 []", ""]
    assert json.loads(proc.stderr.strip().splitlines()[-1])["docs"] == 1


def test_resolve_bad_config_exits_2(tmp_path, corpus_dir):
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex*.json"),
                   "--out", str(tmp_path / "out"),
                   "--schema", str(tmp_path / "missing-schema.json"))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_resolve_bad_document_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"doc_id": "x"}')
    proc = run_cli("resolve", "--in", str(bad), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert len(summary["failed"]) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_malformed_sibling_does_not_abort_batch(tmp_path, corpus_dir, jobs):
    good = json.loads((corpus_dir / "ex12_foxp3.json").read_text(encoding="utf-8"))
    (tmp_path / "a_good.json").write_text(json.dumps(good), encoding="utf-8")
    (tmp_path / "b_bad.json").write_text(json.dumps(dict(good, sentences=5)), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "*.json"), "--out", str(out),
                   "--jobs", jobs)
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert [f["file"] for f in summary["failed"]] == [str(tmp_path / "b_bad.json")]
    assert "SchemaViolation" in summary["failed"][0]["error"]
    assert [p.name for p in out.iterdir()] == ["a_good.json"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_deep_chain_does_not_abort_batch(tmp_path, corpus_dir, jobs):
    (tmp_path / "a_deep.json").write_text(json.dumps(regulation_chain(1500)), encoding="utf-8")
    shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / "b_good.json")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "*.json"), "--out", str(out),
                   "--jobs", jobs)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["docs"] == 2
    assert sorted(p.name for p in out.iterdir()) == ["a_deep.json", "b_good.json"]


def test_disable_sieve_drops_foxp3_expression(tmp_path, corpus_dir):
    out = tmp_path / "ablate"
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"),
                   "--out", str(out), "--disable-sieve", "pronominal")
    assert proc.returncode == 0
    result = json.loads((out / "ex12_foxp3.json").read_text())
    assert result["links"] == []
    assert result["completed_events"] == []
    assert all(e["id"] != "T2" for e in result["entities"])


def test_strict_mode_aborts_on_first_failure(tmp_path, corpus_dir):
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(corpus_dir / "ex12_foxp3.json", batch / "a_ok.json")
    (batch / "b_bad.json").write_text('{"doc_id": "broken"}')
    shutil.copy(corpus_dir / "ex13_rb_e2f.json", batch / "c_after.json")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(batch / "*.json"), "--out", str(out), "--strict")
    assert proc.returncode == 1
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert len(summary["failed"]) == 1
    assert summary["docs"] == 1  # the document after the failure was not written
    assert not (out / "c_after.json").exists()


def test_eval_mutant_mode_flag(tmp_path, run_dir):
    out, _ = run_dir
    adj = tmp_path / "mutant.csv"
    adj.write_text("event_id,judgment\nE1,1\nE2,0.5\n")
    strict = run_cli("eval", "--system", str(out), "--adjudications", str(adj))
    assert strict.returncode == 2  # half points need mutant mode
    lenient = run_cli("eval", "--system", str(out), "--adjudications", str(adj),
                      "--mutant-mode", "--json")
    assert lenient.returncode == 0
    report = json.loads(lenient.stdout)
    assert report["precision"]["exact"] == "3/4"
    assert report["precision"]["mode"] == "mutant"


def test_emit_provenance_embeds_chains(run_dir):
    out, _ = run_dir
    result = json.loads((out / "ex10_gsk3b.json").read_text(encoding="utf-8"))
    assert ["T1", "T4"] in result["chains"]
    assert any(t["anaphor"] == "T3" for t in result["trace"])


def test_unknown_sieve_name_exits_2(tmp_path, corpus_dir):
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"),
                   "--out", str(tmp_path / "out"), "--disable-sieve", "sloppy_match")
    assert proc.returncode == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ndjson_stream_input(tmp_path, corpus_dir, jobs):
    docs = fixtures.corpus_documents()
    stream = tmp_path / "stream.json"  # named .json: a stream is told apart by its content
    lines = [json.dumps(docs["ex12_foxp3"], ensure_ascii=False),
             json.dumps(docs["ex13_rb_e2f"], ensure_ascii=False)]
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(stream), "--out", str(out), "--jobs", jobs)
    assert proc.returncode == 0, proc.stderr
    result_lines = (out / "stream.json").read_text(encoding="utf-8").strip().splitlines()
    assert len(result_lines) == 2
    assert json.loads(result_lines[0])["doc_id"] == "ex12_foxp3"


def test_eval_reports_manifest_counts(tmp_path, corpus_dir, run_dir, manifest):
    out, _ = run_dir
    base = tmp_path / "base"
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex*.json"),
                   "--out", str(base), "--disable-sieve", "all")
    assert proc.returncode == 0
    proc = run_cli("eval", "--system", str(out), "--baseline", str(base), "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    want_coref = sum(m["coref_events"] for m in manifest.values())
    want_base = sum(m["baseline_events"] for m in manifest.values())
    assert report["throughput"]["coref_only"] == want_coref
    assert report["throughput"]["baseline"] == want_base
    assert report["throughput"]["combined"] == want_base + want_coref


def test_eval_with_adjudications_text_table(tmp_path, run_dir):
    out, _ = run_dir
    adj = tmp_path / "adj.csv"
    adj.write_text("event_id,judgment,error_class\n"
                   "E1,1,\nE2,0,CoreferenceResolution\nE3,1,\n")
    proc = run_cli("eval", "--system", str(out), "--adjudications", str(adj))
    assert proc.returncode == 0, proc.stderr
    assert "Generous precision" in proc.stdout
    assert "66.7%" in proc.stdout
    assert "CoreferenceResolution" in proc.stdout


def test_inspect_linked_vs_dropped_traces(run_dir):
    out, _ = run_dir
    linked = run_cli("inspect", str(out / "ex1b_axin_gbd.json"), "T3")
    assert linked.returncode == 0
    assert "excluded_chain" in linked.stdout  # the same-surface participant chain
    assert linked.stdout.strip().splitlines()[-1].startswith("  LINKED by pronominal")

    dropped = run_cli("inspect", str(out / "ex26_expletive.json"), "T1")
    assert dropped.returncode == 0
    assert dropped.stdout.strip().splitlines()[-1].strip() == "DROPPED"
    assert linked.stdout.strip().splitlines()[-1] != dropped.stdout.strip().splitlines()[-1]


def test_inspect_plural_lists_antecedents_in_text_order(run_dir):
    out, _ = run_dir
    proc = run_cli("inspect", str(out / "ex16_baf_emerin.json"), "T3")
    assert proc.returncode == 0
    assert "LINKED by pronominal -> T1 T2" in proc.stdout


def test_inspect_unknown_anaphor(run_dir):
    out, _ = run_dir
    proc = run_cli("inspect", str(out / "ex1b_axin_gbd.json"), "T99")
    assert proc.returncode == 2
    assert "unknown anaphor" in proc.stderr


@pytest.mark.parametrize("content", [
    b"[]",
    b'{"trace": [{"anaphor": "T\xff"}]}',
    b'{"trace": [{"kind": "pronoun"}]}',
], ids=["not-an-object", "not-utf-8", "entry-without-anaphor"])
def test_inspect_refuses_a_malformed_result_file(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = run_cli("inspect", str(bad), "T1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: ")
    assert "Traceback" not in proc.stderr


def test_inspect_requires_provenance(tmp_path, corpus_dir):
    out = tmp_path / "noprov"
    run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"), "--out", str(out))
    proc = run_cli("inspect", str(out / "ex12_foxp3.json"), "T2")
    assert proc.returncode == 2
    assert "--emit-provenance" in proc.stderr


def test_fixtures_check_detects_tampering(tmp_path):
    d = tmp_path / "fx"
    proc = run_cli("fixtures", "--out", str(d))
    assert proc.returncode == 0
    proc = run_cli("fixtures", "--out", str(d), "--check")
    assert proc.returncode == 0
    (d / "ex12_foxp3.json").write_text("{}")
    proc = run_cli("fixtures", "--out", str(d), "--check")
    assert proc.returncode == 1
    assert "stale" in proc.stderr


def test_repo_fixture_corpus_is_current():
    from pathlib import Path
    repo_fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    assert fixtures.validate_corpus(repo_fixtures) == []


def write_stream(path, raws):
    path.write_text("".join(json.dumps(raw, ensure_ascii=False) + "\n" for raw in raws),
                    encoding="utf-8")


@pytest.mark.parametrize("provenance", [False, True])
def test_stream_output_is_compact_and_jobs_invariant(tmp_path, corpus_dir, provenance):
    docs = fixtures.corpus_documents()
    names = sorted(docs)
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in names:
        shutil.copy(corpus_dir / f"{name}.json", batch)
    # Sorts among the single-document files, so its lines follow a part-filled task.
    write_stream(batch / "ex15_stream.ndjson", [docs[name] for name in names])
    flags = ["--emit-provenance"] if provenance else []
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}"
        proc = run_cli("resolve", "--in", str(batch / "*"), "--out", str(out),
                       "--jobs", jobs, *flags)
        assert proc.returncode == 0, proc.stderr
        outputs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["1"] == outputs["2"]
    files = outputs["1"]
    lines = files.pop("ex15_stream.json").decode("utf-8").splitlines(keepends=True)
    assert len(lines) == len(files) == len(names)
    for name, line in zip(names, lines):
        result = json.loads(files[f"{name}.json"])
        assert line == json.dumps(result, ensure_ascii=False, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stream_with_failing_lines_writes_nothing(tmp_path, corpus_dir, jobs):
    docs = fixtures.corpus_documents()
    raws = [docs[name] for name in sorted(docs)]
    lines = [json.dumps(raw, ensure_ascii=False) for raw in raws]
    lines[3] = json.dumps({"doc_id": "broken"})  # first failing line
    lines[17] = "{not json"                      # a later task at --jobs 2
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(corpus_dir / "ex12_foxp3.json", batch / "a_ok.json")
    (batch / "b_stream.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
    shutil.copy(corpus_dir / "ex13_rb_e2f.json", batch / "c_after.json")
    want = [{"file": str(batch / "b_stream.ndjson"),
             "error": "SchemaViolation: broken: missing field 'text'", "line": 4}]
    for strict, written in (([], ["a_ok.json", "c_after.json"]), (["--strict"], ["a_ok.json"])):
        out = tmp_path / f"out{len(strict)}"
        proc = run_cli("resolve", "--in", str(batch / "*"), "--out", str(out),
                       "--jobs", jobs, *strict)
        assert proc.returncode == 1, proc.stderr
        summary = json.loads(proc.stderr.strip().splitlines()[-1])
        assert summary["failed"] == want
        assert summary["docs"] == len(written)
        assert sorted(p.name for p in out.iterdir()) == written


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_deeply_nested_json_does_not_abort_batch(tmp_path, corpus_dir, jobs):
    deep = tmp_path / "a_deep.json"
    deep.write_text('{"doc_id": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / "b_good.json")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "*.json"), "--out", str(out),
                   "--jobs", jobs)
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert [f["file"] for f in summary["failed"]] == [str(deep)]
    assert summary["failed"][0]["error"].startswith("MalformedInput: ")
    assert [p.name for p in out.iterdir()] == ["b_good.json"]


@pytest.mark.parametrize("names", [("a/x.json", "b/x.json"), ("x.json", "x.ndjson")])
def test_output_name_collision_exits_2(tmp_path, corpus_dir, names):
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / name)
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "**" / "x.*json"), "--out", str(out))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert all(str(tmp_path / name) in proc.stderr for name in names)
    assert not out.exists()


def test_output_name_collision_message_is_exact(tmp_path, corpus_dir, capsys):
    for name in ("a/x.json", "b/x.json", "b/y.json", "c/y.ndjson", "c/z.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / name)
    # A trailing separator on --out does not show in the message.
    code = cli.main(["resolve", "--in", str(tmp_path / "*" / "*"),
                     "--out", str(tmp_path / "out") + "/"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: inputs share an output file: "
        f"{tmp_path}/out/x.json <- {tmp_path}/a/x.json, {tmp_path}/b/x.json; "
        f"{tmp_path}/out/y.json <- {tmp_path}/b/y.json, {tmp_path}/c/y.ndjson\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, corpus_dir, jobs):
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"), "--out", str(out),
                   "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert not out.exists()


def test_stream_is_told_apart_by_content(tmp_path, corpus_dir):
    docs = fixtures.corpus_documents()
    shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / "a_indented.json")
    (tmp_path / "b_array.json").write_text("[\n1\n]\n")  # loads, but not as an object
    (tmp_path / "c_one_line.json").write_text(json.dumps(docs["ex13_rb_e2f"]) + "\n\n  \n")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "*.json"), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    # A stream's record is its first line's error, not "document must be a JSON object".
    assert summary["failed"] == [{"file": str(tmp_path / "b_array.json"), "error":
                                  "MalformedInput: Expecting value: line 1 column 2 (char 1)",
                                  "line": 1}]
    assert sorted(p.name for p in out.iterdir()) == ["a_indented.json", "c_one_line.json"]
    assert (out / "c_one_line.json").read_text(encoding="utf-8").startswith('{\n  "doc_id"')


def test_stream_counts_documents_and_eval_rejects_it_cleanly(tmp_path):
    docs = fixtures.corpus_documents()
    write_stream(tmp_path / "all.ndjson", [docs[name] for name in sorted(docs)])
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "all.ndjson"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["docs"] == 22
    # eval reads one result object per file; a stream is refused, not a crash.
    proc = run_cli("eval", "--system", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"evaluation error: {out / 'all.json'}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[1, 2]", b'{"completed_events": []}'])
def test_eval_unreadable_result_exits_2(tmp_path, content):
    (tmp_path / "bad.json").write_bytes(content)
    proc = run_cli("eval", "--system", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"evaluation error: {tmp_path / 'bad.json'}: ")
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_is_a_failed_document(tmp_path, corpus_dir, monkeypatch, capsys):
    shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / "a_bug.json")
    shutil.copy(corpus_dir / "ex13_rb_e2f.json", tmp_path / "b_good.json")
    resolve = cli.resolve_document

    def buggy(doc, config):
        if doc.doc_id == "ex12_foxp3":
            raise TypeError("unexpected value")
        return resolve(doc, config)

    monkeypatch.setattr(cli, "resolve_document", buggy)
    out = tmp_path / "out"
    code = cli.main(["resolve", "--in", str(tmp_path / "*.json"), "--out", str(out),
                     "--jobs", "1"])
    assert code == 1
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["failed"] == [{"file": str(tmp_path / "a_bug.json"),
                                  "error": "TypeError: unexpected value"}]
    assert summary["docs"] == 1
    assert [p.name for p in out.iterdir()] == ["b_good.json"]


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_are_not_contained(tmp_path, corpus_dir, monkeypatch, exc):
    def interrupted(doc, config):
        raise exc()

    monkeypatch.setattr(cli, "resolve_document", interrupted)
    with pytest.raises(exc):
        cli.main(["resolve", "--in", str(corpus_dir / "ex12_foxp3.json"),
                  "--out", str(tmp_path / "out"), "--jobs", "1"])
