import filecmp
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from biocoref import cli

import fixture_corpus
from synth import regulation_chain

CLI = [sys.executable, "-m", "biocoref.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture(scope="module")
def corpus_dir():
    """The committed example corpus; tests only read it."""
    return Path(__file__).resolve().parents[1] / "fixtures"


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
    # resolve never uses evaluation; cmd_eval imports it.
    # The rest cost start-up time: dataclasses (which imports inspect). A run
    # with workers forks them and talks to them over pipes: it loads neither
    # multiprocessing nor pickle, and starts no thread. Modules the
    # interpreter loaded before biocoref are not counted.
    code = f"""
import sys
before = set(sys.modules)
unwanted = {{"biocoref.evaluation", "dataclasses", "inspect",
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
    # A config of the wrong shape is refused by name.
    for option, config, message in [
            ("--lexicon", [1], "lexicon config: top level must be an object"),
            ("--lexicon", {"event_triggers": {"binding": 5}},
             "lexicon config: event_triggers entry 'binding' must be a string"),
            ("--schema", {"Binding": {"theme": ["Protein"]}},
             "schema config: bad role spec Binding.theme: must be an object")]:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"),
                       "--out", str(tmp_path / "out"), option, str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"configuration error: {message}\n"


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
    docs = fixture_corpus.corpus_documents()
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


def test_eval_adjudications_not_utf8_exits_2(tmp_path, run_dir):
    out, _ = run_dir
    adj = tmp_path / "bad.csv"
    adj.write_bytes(b"event_id,judgment\nE1,1\xff\n")
    proc = run_cli("eval", "--system", str(out), "--adjudications", str(adj))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"evaluation error: {adj}: adjudication file is not UTF-8: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("report", ["directory", "missing/report.json"])
def test_eval_unwritable_report_exits_2(tmp_path, run_dir, report):
    out, _ = run_dir
    (tmp_path / "directory").mkdir()
    proc = run_cli("eval", "--system", str(out), "--report", str(tmp_path / report))
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "missing").exists()


def test_inspect_linked_vs_dropped_traces(run_dir):
    out, _ = run_dir
    linked = run_cli("inspect", str(out / "ex1b_axin_gbd.json"), "T3")
    assert linked.returncode == 0
    assert linked.stdout.startswith("doc ex1b_axin_gbd\nanaphor T3 ")  # one shape for any file
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


def test_repo_fixture_corpus_is_current(tmp_path, corpus_dir):
    fixture_corpus.write_corpus(tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert sorted(p.name for p in corpus_dir.iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(corpus_dir, tmp_path, names, shallow=False)
    assert mismatch == errors == [], (
        f"fixtures/ differs from the generator in {mismatch + errors}; regenerate it with "
        "`python tests/fixture_corpus.py fixtures/`")
    assert len(match) == 23  # 22 documents and manifest.json


def test_fixtures_subcommand_is_gone():
    assert importlib.util.find_spec("biocoref.fixtures") is None
    proc = run_cli("fixtures", "--out", "fixtures", "--check")
    assert proc.returncode == 2
    assert "invalid choice: 'fixtures'" in proc.stderr


def write_stream(path, raws):
    path.write_text("".join(json.dumps(raw, ensure_ascii=False) + "\n" for raw in raws),
                    encoding="utf-8")


@pytest.mark.parametrize("provenance", [False, True])
def test_stream_output_is_compact_and_jobs_invariant(tmp_path, corpus_dir, provenance):
    docs = fixture_corpus.corpus_documents()
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
    # A stream's result file is its documents' result files, concatenated.
    stream = files.pop("ex15_stream.json")
    assert len(files) == len(names)
    assert stream == b"".join(files[f"{name}.json"] for name in names)
    for name in names:
        result = files[f"{name}.json"].decode("utf-8")
        assert result == json.dumps(json.loads(result), ensure_ascii=False,
                                    separators=(",", ":")) + "\n"


RAW_LINE_ENDS = ["\x85", "\u2028", "\u2029"]  # line ends to str.splitlines, not to NDJSON


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_stream_whose_texts_hold_unicode_line_ends_resolves(tmp_path, jobs):
    # JSON keeps U+0085, U+2028 and U+2029 raw in a string, and so does
    # resolve; only "\n" ends a line of a stream.
    docs = fixture_corpus.corpus_documents()
    names = sorted(docs)
    singles = tmp_path / "singles"
    singles.mkdir()
    lines = []
    for name in names:
        raw = docs[name]
        for char in RAW_LINE_ENDS:  # one character for another: no offset moves
            raw["text"] = raw["text"].replace(" ", char, 1)
        assert all(char in raw["text"] for char in RAW_LINE_ENDS), name
        (singles / f"{name}.json").write_text(json.dumps(raw, ensure_ascii=False),
                                              encoding="utf-8")
        lines.append(json.dumps(raw, ensure_ascii=False))
    outputs = {}
    for name, end in [("singles", None), ("lf", "\n"), ("crlf", "\r\n")]:
        inputs = singles / "*.json"
        if end is not None:
            inputs = tmp_path / f"{name}.ndjson"
            inputs.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        out = tmp_path / f"out-{name}"
        proc = run_cli("resolve", "--in", str(inputs), "--out", str(out), "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["crlf"] == {"crlf.json": outputs["lf"]["lf.json"]}
    results = outputs["lf"]["lf.json"].split(b"\n")
    assert results.pop() == b"" and len(results) == len(names)
    assert all(char.encode("utf-8") in outputs["lf"]["lf.json"] for char in RAW_LINE_ENDS)
    for name, result in zip(names, results):
        assert json.loads(result) == json.loads(outputs["singles"][f"{name}.json"]), name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stream_with_failing_lines_writes_nothing(tmp_path, corpus_dir, jobs):
    docs = fixture_corpus.corpus_documents()
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


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_out_that_cannot_be_created_exits_2(tmp_path, corpus_dir, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "out" if under else afile
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"), "--out", str(out))
    assert proc.returncode == 2
    with pytest.raises(OSError) as refused:
        out.mkdir(parents=True, exist_ok=True)
    assert proc.stderr == f"configuration error: {refused.value}\n"
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, corpus_dir, jobs):
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex12_foxp3.json"), "--out", str(out),
                   "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert not out.exists()


def test_stream_is_told_apart_by_content(tmp_path, corpus_dir):
    docs = fixture_corpus.corpus_documents()
    shutil.copy(corpus_dir / "ex12_foxp3.json", tmp_path / "a_indented.json")
    (tmp_path / "b_array.json").write_text("[\n1\n]\n")  # loads, but not as an object
    (tmp_path / "c_one_line.json").write_text(json.dumps(docs["ex13_rb_e2f"]) + "\n\n  \n")
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "*.json"), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    # Its first line, "[", is no JSON value by itself, so it is one document.
    assert summary["failed"] == [{"file": str(tmp_path / "b_array.json"),
                                  "error": "MalformedInput: document must be a JSON object"}]
    assert sorted(p.name for p in out.iterdir()) == ["a_indented.json", "c_one_line.json"]
    assert (out / "c_one_line.json").read_text(encoding="utf-8").startswith('{"doc_id"')


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    """The fixtures as one NDJSON stream, ``all.ndjson``, and its results with
    --emit-provenance, ``out/all.json``, and with every sieve disabled,
    ``base/all.json``."""
    work = tmp_path_factory.mktemp("stream")
    docs = fixture_corpus.corpus_documents()
    write_stream(work / "all.ndjson", [docs[name] for name in sorted(docs)])
    for out, flags in (("out", ["--emit-provenance"]), ("base", ["--disable-sieve", "all"])):
        proc = run_cli("resolve", "--in", str(work / "all.ndjson"), "--out", str(work / out),
                       *flags)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.strip().splitlines()[-1])["docs"] == 22
    return work


def test_eval_reports_a_stream_as_it_reports_its_files(tmp_path, corpus_dir, run_dir,
                                                       stream_dir, manifest):
    out, _ = run_dir
    base = tmp_path / "base"
    proc = run_cli("resolve", "--in", str(corpus_dir / "ex*.json"), "--out", str(base),
                   "--disable-sieve", "all")
    assert proc.returncode == 0, proc.stderr
    for with_baseline in (False, True):
        reports = []
        for system, baseline in ((out, base), (stream_dir / "out" / "all.json",
                                               stream_dir / "base" / "all.json")):
            flags = ["--baseline", str(baseline)] if with_baseline else []
            proc = run_cli("eval", "--system", str(system), *flags, "--json")
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert reports[0] == reports[1]
        counts = json.loads(reports[1])["throughput"]
        assert counts["coref_only"] == sum(m["coref_events"] for m in manifest.values())
        assert ("baseline_run_events" in counts) == with_baseline


# Runs eval on the result file named last and prints to stderr how many
# times that file was opened, as the interpreter's audit hook sees it.
OPENS = """
import sys
from biocoref import cli
result, opens = sys.argv[-1], []
sys.addaudithook(lambda event, args: event == "open" and str(args[0]) == result
                 and opens.append(args[1]))
code = cli.main(sys.argv[1:])
print(len(opens), file=sys.stderr)
sys.exit(code)
"""


def test_eval_and_inspect_read_results_indented_as_earlier_releases_wrote_them(tmp_path,
                                                                            run_dir):
    out, _ = run_dir
    indented = tmp_path / "indented"
    indented.mkdir()
    for path in out.glob("*.json"):
        result = path.read_text(encoding="utf-8")
        assert result.count("\n") == 1 and result.endswith("\n")  # written as one line
        (indented / path.name).write_text(
            json.dumps(json.loads(result), ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    for args in (["eval", "--json", "--system", "{}"],
                 ["eval", "--json", "--system", "{}/ex1b_axin_gbd.json"],
                 ["inspect", "{}/ex1b_axin_gbd.json", "T3"]):
        procs = [run_cli(*(arg.format(folder) for arg in args)) for folder in (out, indented)]
        assert [proc.returncode for proc in procs] == [0, 0], procs[1].stderr
        assert procs[0].stdout == procs[1].stdout and procs[0].stdout


def test_eval_opens_a_single_result_file_once(run_dir):
    from biocoref.evaluation import RunOutput, json_report, throughput
    from biocoref.standoff import load_result

    out, _ = run_dir
    result = out / "ex12_foxp3.json"
    proc = subprocess.run([sys.executable, "-c", OPENS, "eval", "--json", "--system",
                           str(result)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "1\n"
    doc, _, completed = load_result(result.read_bytes())
    report = json_report(throughput([RunOutput(doc.doc_id, completed)]))
    assert proc.stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("stream", [False, True], ids=["file", "stream"])
def test_eval_refuses_a_link_to_an_unknown_mention(tmp_path, run_dir, stream):
    out, _ = run_dir
    results = [json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
               for name in ("ex13_rb_e2f", "ex12_foxp3")]
    results[1]["links"][0]["antecedents"] = ["T99"]
    bad = tmp_path / "bad.json"
    if stream:
        bad.write_text("".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"
                               for r in results), encoding="utf-8")
    else:
        bad.write_text(json.dumps(results[1], ensure_ascii=False, indent=2), encoding="utf-8")
    proc = run_cli("eval", "--system", str(tmp_path))
    assert proc.returncode == 2
    where = f"{bad}: line 2" if stream else f"{bad}"
    assert proc.stderr == f"evaluation error: {where}: link antecedent T99 not in document\n"


def test_eval_reads_a_run_whose_schema_renames_an_event_type(tmp_path):
    # Results are checked as save_result checks them, against no schema, so
    # eval needs no --schema for the results of a resolve --schema run.
    schema = json.loads((Path(cli.__file__).parent / "data" / "schema.json").read_bytes())
    schema["Association"] = schema.pop("Binding")
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    docs = fixture_corpus.corpus_documents()
    for raw in docs.values():
        for ev in raw["events"]:
            ev["type"] = "Association" if ev["type"] == "Binding" else ev["type"]
    write_stream(tmp_path / "renamed.ndjson", [docs[name] for name in sorted(docs)])
    out = tmp_path / "out"
    proc = run_cli("resolve", "--in", str(tmp_path / "renamed.ndjson"), "--out", str(out),
                   "--schema", str(tmp_path / "schema.json"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert '"type":"Association"' in (out / "renamed.json").read_text(encoding="utf-8")
    proc = run_cli("eval", "--system", str(out), "--json")
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)["throughput"]
    assert (counts["combined"], counts["coref_only"]) == (
        summary["events_completed"], summary["events_coref_derived"])


def test_inspect_renders_a_stream_line_under_its_doc_header(run_dir, stream_dir, capsys):
    out, _ = run_dir
    proc = run_cli("inspect", str(stream_dir / "out" / "all.json"), "T3")
    assert proc.returncode == 0, proc.stderr
    blocks = ("\n" + proc.stdout).split("\ndoc ")[1:]
    block = next(b for b in blocks if b.startswith("ex1b_axin_gbd\n"))
    assert block.rstrip("\n").splitlines()[-1].startswith("  LINKED by pronominal")
    # The blocks are what inspect prints for each document's own result
    # file that traces T3, in the stream's order.
    singles = []
    for path in sorted(out.glob("*.json")):
        if cli.main(["inspect", str(path), "T3"]) == 0:
            singles.append(capsys.readouterr().out)
    assert len(blocks) == len(singles) > 1
    assert proc.stdout == "".join(singles)


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
