"""The resolve runner's reader and its bounded window of documents: line
splitting, the stream rule, flat memory, early exits and atomic outputs."""

import io
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path, PurePath

import pytest

from biocoref import cli
from biocoref.resolver import resolve_document
from biocoref.standoff import load_document

CLI = [sys.executable, "-m", "biocoref.cli"]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
WORDS = ["a", "{}", "\u03b2", "\U0001f9ec", "  ", '"q"', "e\u0301"]


def minimal(doc_id, text=""):
    return {"doc_id": doc_id, "text": text, "sentences": [], "entities": [], "events": []}


def ndjson(docs):
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")


def summary_of(stderr):
    return json.loads(stderr.strip().splitlines()[-1])


def test_lines_match_splitlines_across_read_boundaries():
    rng = random.Random(8)
    texts = ["ab\r\ncd", "ab\r", "\r\n\r\n", "x\r\r\ny", "\u03b2\u2028\u03b3", "\U0001f9ec\n", ""]
    texts += ["".join(rng.choice(WORDS + SEPARATORS) for _ in range(rng.randrange(40)))
              for _ in range(400)]
    for text in texts:
        data = text.encode("utf-8")
        for size in (1, 2, 3, 5, 64):
            # Every line, empty ones too, so that line numbers agree as well.
            assert list(cli._lines(io.BytesIO(data), size)) == text.splitlines(), (text, size)


def test_decode_errors_name_the_byte_by_its_place_in_the_file():
    rng = random.Random(9)
    for _ in range(200):
        text = "".join(rng.choice(WORDS + SEPARATORS) for _ in range(rng.randrange(1, 40)))
        data = bytearray(text.encode("utf-8"))
        data.insert(rng.randrange(len(data) + 1), rng.choice([0xff, 0x80, 0xe2]))
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("utf-8")
        for size in (1, 3, 7):
            with pytest.raises(UnicodeDecodeError) as read:
                list(cli._lines(io.BytesIO(bytes(data)), size))
            assert str(read.value) == str(whole.value)


LINE = json.dumps(minimal("d"))
STREAM_RULE = [
    ("stream", f"{LINE}\n{LINE}\n", True),
    ("stream with blank lines", f"\n{LINE}\n\r\n  \n{LINE}", True),
    ("indented document", json.dumps(minimal("d"), indent=2) + "\n", False),
    ("one line then blank lines", f"{LINE}\n\n  \n\t\n", False),
    ("multi-line array", "[\n1,\n2\n]\n", True),
    ("garbage first line", f"{{not json\n{LINE}\n", True),
    ("raw U+2028 in a string",
     json.dumps(minimal("d", "a\u2028b"), ensure_ascii=False) + "\n", False),
]


def documents(data, size):
    """``_documents`` of ``data`` read through a buffer of ``size`` bytes:
    a stream's numbered lines as a list, or None for one document."""
    docs = cli._documents(io.BytesIO(data), bytearray(size))
    return None if docs is None else list(docs)


@pytest.mark.parametrize("text, stream", [case[1:] for case in STREAM_RULE],
                         ids=[case[0] for case in STREAM_RULE])
def test_lazy_stream_rule_agrees_with_the_whole_file_rule(text, stream):
    data = text.encode("utf-8")
    # A 4-byte buffer reads every file lazily first; 1 MiB reads it whole.
    found = {size: documents(data, size) for size in (4, 1 << 20)}
    assert found[4] == found[1 << 20]
    want = ([(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
            if stream else None)
    assert found[4] == want


def reference_rule(data):
    """The stream rule as ``_documents`` once applied it to a file read
    whole: split the text into its non-empty lines, then build the whole
    JSON tree to see whether it is one object."""
    text = data.decode("utf-8")
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if len(numbered) >= 2:
        try:
            stream = not isinstance(json.loads(text), dict)
        except (ValueError, RecursionError):
            stream = True
        if stream:
            return numbered
    return None


ONE_OBJECT_RULE = [
    ("indented document", json.dumps(minimal("d", "GSK3\u03b2"), indent=2, ensure_ascii=False)),
    ("one-line document", LINE),
    ("two-line stream", f"{LINE}\n{LINE}"),
    ("malformed first line", f'{{"doc_id": \n{LINE}\n{LINE}\n'),
    ("object over two lines", '{"a":\n1}'),
    ("top-level array", "[\n{},\n{}\n]\n"),
    ("number on two lines", "\n12\n\n"),
    ("two numbers", "1\n2"),
    ("empty file", ""),
    ("whitespace-only file", " \n\t\r\n\u3000\n"),
    ("object split by U+001C", '{"a":\x1c1}'),
    ("object then a space-only line", f"{LINE}\n\u3000\n"),
    ("nested too deep", "[" * 100000 + "\n" + "]" * 100000),
]


@pytest.mark.parametrize("text", [case[1] for case in ONE_OBJECT_RULE],
                         ids=[case[0] for case in ONE_OBJECT_RULE])
def test_stream_rule_agrees_with_the_rule_that_built_the_tree(text):
    data = text.encode("utf-8")
    for size in (4, 1 << 20):
        assert documents(data, size) == reference_rule(data), size


def test_stream_rule_agrees_with_the_reference_on_random_texts():
    rng = random.Random(10)
    atoms = WORDS + SEPARATORS + [LINE, "[", "]", "1", "{", "}", '"a":', ","]
    for _ in range(2000):
        data = "".join(rng.choice(atoms) for _ in range(rng.randrange(12))).encode("utf-8")
        assert documents(data, cli._READ_SIZE) == reference_rule(data), data


def test_a_stream_is_read_as_its_documents_are_taken():
    data = ndjson(minimal(f"d{i}") for i in range(1000))
    file = io.BytesIO(data)
    docs = cli._documents(file, bytearray(256))
    assert next(docs) == (1, json.dumps(minimal("d0")))
    assert file.tell() <= 512 < len(data)


def test_a_single_document_is_written_into_its_part_and_not_returned(tmp_path, config):
    path = str(FIXTURES / "ex12_foxp3.json")
    text = (FIXTURES / "ex12_foxp3.json").read_text(encoding="utf-8")
    want = resolve_document(load_document(text), config)
    part = tmp_path / ".ex12_foxp3.json.part"
    part.write_bytes(b"")
    missing = tmp_path / ".missing.json.part"
    gone = tmp_path / ".gone.json.part"
    gone.write_bytes(b"")
    task = [(path, str(part)), (text, None), (path, str(missing)),
            (str(tmp_path / "gone.json"), str(gone))]
    (out, counters, error), stream_line, (_, _, missed), (_, _, unread) = cli._resolve_task(
        task, config)
    assert task == [None] * 4  # each document is taken out of the task
    assert out is None and error is None and counters == want.counters
    assert part.read_bytes() == want.to_bytes()
    assert stream_line == (want.to_bytes(line=True), want.counters, None)
    # A worker opens the part the main process created; it never creates one.
    assert missed.startswith("FileNotFoundError: ") and not missing.exists()
    # A file gone since the main process read it fails its document only.
    assert unread.startswith("FileNotFoundError: ") and gone.read_bytes() == b""


def test_a_single_document_travels_as_its_path_and_a_stream_line_as_its_text(tmp_path):
    single = tmp_path / "a_single.json"
    single.write_text(json.dumps(minimal("a"), indent=2))
    stream = tmp_path / "b_stream.ndjson"
    stream.write_bytes(ndjson([minimal("b0"), minimal("b1")]))
    created = set()
    [(task, where)] = cli._tasks([str(single), str(stream)], 1, str(tmp_path), created)
    part = str(tmp_path / ".a_single.json.part")
    assert task == [(str(single), part), (json.dumps(minimal("b0")), None),
                    (json.dumps(minimal("b1")), None)]
    assert where == [(0, None, False, None), (0, None, True, None),
                     (1, 1, False, None), (1, 2, False, None), (1, None, True, None)]
    assert created == {part}


@pytest.mark.parametrize("path", [
    "x.json", "dir/x.json", "/abs/dir/x.ndjson", "x", "x.tar.gz", "a.", "a..", ".hidden",
    ".hidden.json", "..", "a/..", "a/.", "a/b/", "a//b", "/", "", ".", "./x.json",
    "d.d/x", "\u03b2eta.json", "\u00e9t\u00e9/r\u00e9sum\u00e9.txt", "\U0001f9ec.json",
    "sp ace.json", "x.json.", "tab\t.json"])
def test_output_names_are_pure_path_stems(path):
    assert cli._out_name(path) == PurePath(path).stem + ".json"


LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_kib(*args):
    """Exit code and peak resident KiB of the CLI and its workers. wait4
    reports a child's peak as at least that of the address space it was
    started from, so a small launcher starts the CLI, not the test process."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *CLI, *args],
                          capture_output=True, text=True, timeout=300)
    code, peak = proc.stdout.split()
    return int(code), int(peak)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_peak_memory_is_flat_in_stream_length(tmp_path, jobs):
    peaks = []
    for count in (2_500, 40_000):
        stream = tmp_path / f"s{count}.ndjson"
        stream.write_bytes(ndjson(minimal(f"d{i}") for i in range(count)))
        code, peak = peak_kib("resolve", "--in", str(stream), "--out", str(tmp_path / "out"),
                              "--jobs", jobs)
        assert code == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 4 * 1024, peaks


def test_strict_exit_with_a_full_window_does_not_hang(tmp_path):
    # 301 files make 8 tasks of 38 at --jobs 2, twice the window of 4 tasks,
    # and the failure is in the first task: the exit must stop the pool
    # while the rest of the window is still handed out.
    (tmp_path / "a_bad.json").write_text('{"doc_id": "broken"}')
    for i in range(300):
        (tmp_path / f"b{i:03}.json").write_text(json.dumps(minimal(f"b{i}")))
    out = tmp_path / "out"
    proc = subprocess.Popen(CLI + ["resolve", "--in", str(tmp_path / "*.json"),
                                   "--out", str(out), "--jobs", "2", "--strict"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("resolve --strict hung after its first failure")
    assert proc.returncode == 1, stderr
    summary = summary_of(stderr)
    assert [f["file"] for f in summary["failed"]] == [str(tmp_path / "a_bad.json")]
    assert summary["docs"] == 0
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_failing_stream_leaves_no_part_file(tmp_path, strict):
    docs = [json.dumps(minimal(f"d{i}")) for i in range(5)]
    docs[3] = '{"doc_id": "broken"}'
    (tmp_path / "a_stream.ndjson").write_text(docs[0] + "\n\n" + "\n".join(docs[1:]) + "\n")
    (tmp_path / "b_ok.json").write_text(json.dumps(minimal("b")))
    out = tmp_path / "out"
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*"), "--out", str(out),
                                 *strict], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert summary_of(proc.stderr)["failed"] == [{
        "file": str(tmp_path / "a_stream.ndjson"), "line": 5,  # the empty line 2 counts
        "error": "SchemaViolation: broken: missing field 'text'"}]
    assert [p.name for p in out.iterdir()] == ([] if strict else ["b_ok.json"])


def test_interrupt_leaves_no_part_file(tmp_path, monkeypatch):
    (tmp_path / "a_ok.json").write_text(json.dumps(minimal("a")))
    # The first task's results open the stream's part file; the second task's stop the run.
    (tmp_path / "b_stream.ndjson").write_bytes(
        ndjson(minimal(f"d{i}") for i in range(2 * cli._WINDOW)))
    resolve = cli.resolve_document

    def interrupted(doc, config):
        if doc.doc_id == f"d{cli._WINDOW + 8}":
            raise KeyboardInterrupt
        return resolve(doc, config)

    monkeypatch.setattr(cli, "resolve_document", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["resolve", "--in", str(tmp_path / "*"), "--out", str(out), "--jobs", "1"])
    assert [p.name for p in out.iterdir()] == ["a_ok.json"]


INTERRUPTED = """
import sys
from biocoref import cli
from biocoref.resolver import resolve_document
from biocoref.standoff import load_document
fold, calls = cli._fold, []

def interrupted(totals, counters):
    calls.append(None)
    if len(calls) == 101:
        raise KeyboardInterrupt
    fold(totals, counters)

cli._fold = interrupted
sys.exit(cli.main(sys.argv[1:]))
"""


def test_interrupt_with_a_full_window_stops_the_pool_and_leaves_no_part_file(tmp_path):
    # 300 files make 8 tasks of 38 at --jobs 2. Each file folds its counters
    # twice, into its own totals and into the summary, so the 101st fold is
    # the 51st file's first, in the second task, with the window of 4 tasks
    # full. The interrupt runs in a subprocess, so the test process never forks.
    for i in range(300):
        (tmp_path / f"f{i:03}.json").write_text(json.dumps(minimal(f"f{i}")))
    out = tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED, "resolve",
                             "--in", str(tmp_path / "*.json"), "--out", str(out), "--jobs", "2"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("resolve --jobs 2 hung after an interrupt")
    assert proc.returncode != 0 and "KeyboardInterrupt" in stderr, stderr
    assert sorted(p.name for p in out.iterdir()) == [f"f{i:03}.json" for i in range(50)]
    for i in range(50):
        assert json.loads((out / f"f{i:03}.json").read_bytes())["doc_id"] == f"f{i}"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_undecodable_line_fails_only_its_stream(tmp_path, jobs):
    # Lines of 25 KB put the bad byte at the end of line 3 past the first
    # read, so lines 1 and 2 are handed out before it is found.
    lines = [json.dumps(minimal(f"d{i}", "x" * 25_000)).encode() for i in range(5)]
    lines[2] = lines[2].replace(b'x", "sentences"', b'\xff", "sentences"')
    data = b"\n".join(lines) + b"\n"
    (tmp_path / "a_ok.json").write_text(json.dumps(minimal("a")))
    (tmp_path / "b_stream.ndjson").write_bytes(data)
    (tmp_path / "c_ok.json").write_text(json.dumps(minimal("c")))
    out = tmp_path / "out"
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*"), "--out", str(out),
                                 "--jobs", jobs], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start > cli._READ_SIZE > len(b"\n".join(lines[:2]))
    summary = summary_of(proc.stderr)
    assert summary["failed"] == [{"file": str(tmp_path / "b_stream.ndjson"),
                                  "error": f"UnicodeDecodeError: {whole.value}"}]
    assert summary["docs"] == 2
    assert sorted(p.name for p in out.iterdir()) == ["a_ok.json", "c_ok.json"]


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_failing_single_document_leaves_no_part_file(tmp_path, strict):
    # 41 files make tasks of 6 at --jobs 2, so the parts of four tasks are
    # created while the failing third file's task is still out.
    names = [f"f{i:02}" for i in range(41)]
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(minimal(name)))
    (tmp_path / "f02.json").write_text('{"doc_id": "broken"}')
    out = tmp_path / "out"
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*.json"), "--out", str(out),
                                 "--jobs", "2", *strict], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert summary_of(proc.stderr)["failed"] == [{
        "file": str(tmp_path / "f02.json"),
        "error": "SchemaViolation: broken: missing field 'text'"}]
    written = names[:2] if strict else names[:2] + names[3:]
    assert sorted(p.name for p in out.iterdir()) == [f"{name}.json" for name in written]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_part_that_cannot_be_created_fails_only_its_input(tmp_path, jobs):
    # A single document's part is created when it is handed out, a stream's
    # when its first result is in.
    (tmp_path / "a_ok.json").write_text(json.dumps(minimal("a")))
    (tmp_path / "b_blocked.json").write_text(json.dumps(minimal("b")))
    (tmp_path / "c_stream.ndjson").write_bytes(ndjson([minimal("c0"), minimal("c1")]))
    (tmp_path / "d_ok.json").write_text(json.dumps(minimal("d")))
    out = tmp_path / "out"
    blocked = [out / f".{name}.json.part" for name in ("b_blocked", "c_stream")]
    errors = []
    for part in blocked:
        part.mkdir(parents=True)
        with pytest.raises(OSError) as exc:
            open(part, "wb")
        errors.append(f"{type(exc.value).__name__}: {exc.value}")
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*_*"), "--out", str(out),
                                 "--jobs", jobs], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    summary = summary_of(proc.stderr)
    assert summary["failed"] == [
        {"file": str(tmp_path / name), "error": error}
        for name, error in zip(("b_blocked.json", "c_stream.ndjson"), errors)]
    assert summary["docs"] == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["a_ok.json", "d_ok.json"] + [part.name for part in blocked])
    assert all(part.is_dir() for part in blocked)
