"""The resolve runner's reader and its bounded window of documents: line
splitting, the stream rule, flat memory, early exits and atomic outputs."""

import gc
import io
import json
import marshal
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path, PurePath

import pytest

from biocoref import cli, standoff, workers
from biocoref.resolver import resolve_document
from biocoref.standoff import load_document
from synth import synth_doc

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


LINE = json.dumps(minimal("d"))
STREAM_RULE = [
    ("stream", f"{LINE}\n{LINE}\n", True),
    ("stream with blank lines", f"\n{LINE}\n\r\n  \n{LINE}", True),
    ("indented document", json.dumps(minimal("d"), indent=2) + "\n", False),
    ("one line then blank lines", f"{LINE}\n\n  \n\t\n", False),
    ("multi-line array", "[\n1,\n2\n]\n", False),
    ("garbage first line", f"{{not json\n{LINE}\n", False),
    ("raw U+2028 in a string",
     json.dumps(minimal("d", "a\u2028b"), ensure_ascii=False) + "\n", False),
    ("raw U+0085, U+2028 and U+2029 in a stream's strings",
     json.dumps(minimal("d\x85", "a\u2028b"), ensure_ascii=False) + "\n"
     + json.dumps(minimal("e", "\u2029"), ensure_ascii=False) + "\n", True),
]


def documents(data, size):
    """``_documents`` of ``data`` read ``size`` bytes at a time: a stream's
    numbered lines as a list, or None for one document."""
    docs = standoff._documents(io.BytesIO(data), size)
    return None if docs is None else list(docs)


def _numbered(data):
    """The non-empty lines of ``data``, numbered: lines end at "\\n", a "\\r"
    before it is dropped, and a line of only JSON whitespace is empty."""
    lines = re.split(rb"\r?\n", data)
    return [(n, line) for n, line in enumerate(lines, 1) if line.strip(b" \t\r\n")]


@pytest.mark.parametrize("text, stream", [case[1:] for case in STREAM_RULE],
                         ids=[case[0] for case in STREAM_RULE])
def test_stream_rule_is_the_same_at_every_read_size(text, stream):
    data = text.encode("utf-8")
    # 4-byte reads split every line; one 64 KiB read takes each file whole.
    found = {size: documents(data, size) for size in (4, 1 << 16)}
    assert found[4] == found[1 << 16]
    assert found[4] == (_numbered(data) if stream else None)


def reference_rule(data):
    """The stream rule on the whole text: split it into its non-empty lines;
    with at least two, it is a stream when its first line loads as JSON."""
    numbered = _numbered(data)
    if len(numbered) >= 2:
        try:
            json.loads(numbered[0][1].decode("utf-8"))
        except (ValueError, RecursionError):
            return None
        return numbered
    return None


def splitlines_rule(data):
    """The stream rule under the line split that "\\n" replaced: lines as
    ``str.splitlines`` splits the decoded text, a line empty when
    ``str.strip`` leaves nothing of it."""
    text = data.decode("utf-8")
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if len(numbered) >= 2:
        try:
            json.loads(numbered[0][1])
        except (ValueError, RecursionError):
            return None
        return numbered
    return None


def old_rule(data):
    """The stream rule that the first-line rule replaced: with at least two
    non-empty lines, a file is a stream when its whole text does not load
    as one JSON object."""
    numbered = _numbered(data)
    if len(numbered) >= 2:
        try:
            stream = not isinstance(json.loads(data.decode("utf-8")), dict)
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


def random_texts(seed, count=2000):
    """``count`` short UTF-8 texts of JSON pieces, words and line ends."""
    rng = random.Random(seed)
    atoms = WORDS + SEPARATORS + [LINE, "[", "]", "1", "{", "}", '"a":', ","]
    for _ in range(count):
        yield "".join(rng.choice(atoms) for _ in range(rng.randrange(12))).encode("utf-8")


def test_stream_rule_agrees_with_the_reference_on_random_texts():
    for data in random_texts(10):
        assert documents(data, standoff._READ_SIZE) == reference_rule(data), data


def record(data, numbered):
    """The failure record, without its file, that ``data`` read as
    ``numbered`` gets: that of one document that does not load (None), or
    of a stream's first line that does not load; None when all load."""
    for line, source in numbered or [(None, data)]:
        try:
            load_document(source)
        except Exception as exc:  # any exception fails the document, as in resolve
            return {"error": f"{type(exc).__name__}: {exc}"} | (
                {} if line is None else {"line": line})
    return None


def test_the_first_line_rule_changes_no_outcome():
    # Every input that the first-line rule and the old rule tell apart
    # differently fails under both, so no result and no count changes; only
    # the failure record does.
    inputs = [case[1].encode("utf-8") for case in STREAM_RULE + ONE_OBJECT_RULE]
    inputs += [data for seed in range(10, 15) for data in random_texts(seed)]
    differ = 0
    for data in inputs:
        old = old_rule(data)
        for size in (4, standoff._READ_SIZE):
            new = documents(data, size)
            if new != old:
                differ += 1
                assert record(data, old) and record(data, new), (data, size)
    assert differ > 0


def splits_alike(data):
    """Whether ``data``, with "\\r\\n" read as "\\n", holds no other line end
    of ``str.splitlines`` and no line of only whitespace that is not JSON
    whitespace, so that both line splits find the same non-empty lines."""
    text = data.decode("utf-8").replace("\r\n", "\n")
    return (not any(end in text for end in SEPARATORS if end not in ("\n", "\r\n"))
            and all(line.strip() or not line.strip(" \t\n") for line in text.split("\n")))


def test_the_newline_rule_changes_only_inputs_that_str_splitlines_splits_otherwise():
    inputs = [case[1].encode("utf-8") for case in STREAM_RULE + ONE_OBJECT_RULE]
    inputs += [data for seed in range(10, 15) for data in random_texts(seed)]
    changed = {True: 0, False: 0}  # by whether the input now resolves
    for data in inputs:
        before = record(data, splitlines_rule(data))
        for size in (4, standoff._READ_SIZE):
            after = record(data, documents(data, size))
            if splits_alike(data):
                assert after == before, (data, size)
            elif (after is None) != (before is None):
                changed[after is None] += 1
    # Documents parted by a line end that NDJSON does not know now fail, and
    # streams whose strings hold such a character now resolve.
    assert changed[True] > 0 and changed[False] > 0, changed


def test_an_indented_document_is_not_read_whole():
    text = json.dumps(synth_doc(random.Random(3), 0, sentences=1000), indent=2)
    data = text.encode("utf-8")
    assert len(data) > 900_000 and text.splitlines()[0] == "{"
    file = io.BytesIO(data)
    assert standoff._documents(file, 4096) is None
    assert file.tell() <= 2 * 4096


def test_a_stream_is_read_as_its_documents_are_taken():
    data = ndjson(minimal(f"d{i}") for i in range(1000))
    file = io.BytesIO(data)
    docs = standoff._documents(file, 256)
    assert next(docs) == (1, json.dumps(minimal("d0")).encode())
    assert file.tell() <= 512 < len(data)


def test_a_single_document_is_written_into_its_part_and_not_returned(tmp_path, config):
    path = str(FIXTURES / "ex12_foxp3.json")
    data = (FIXTURES / "ex12_foxp3.json").read_bytes()
    want = resolve_document(load_document(data), config)
    part = tmp_path / ".ex12_foxp3.json.part"
    part.write_bytes(b"")
    missing = tmp_path / ".missing.json.part"
    gone = tmp_path / ".gone.json.part"
    gone.write_bytes(b"")
    task = [(path, str(part)), (data, None), (path, str(missing)),
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


def test_a_source_resolves_alike_as_bytes_and_as_text(tmp_path, config):
    # A worker decodes a line's bytes and drops them before it parses the
    # text; a caller may hand it the text, and gets the same results.
    for path in sorted(FIXTURES.glob("ex*.json")):
        data = path.read_bytes()
        assert (cli._resolve_task([(data, None)], config)
                == cli._resolve_task([(data.decode("utf-8"), None)], config))
    # Bytes that do not decode fail alike as a line and as a file, with the
    # decode error as its MalformedInput.
    bad = json.dumps(minimal("d", "xx")).encode().replace(b"xx", b"x\xff")
    with pytest.raises(UnicodeDecodeError) as exc:
        bad.decode("utf-8")
    (tmp_path / "bad.json").write_bytes(bad)
    part = tmp_path / ".bad.json.part"
    part.write_bytes(b"")
    failure = (None, None, f"MalformedInput: {exc.value}")
    assert cli._resolve_task([(bad, None), (str(tmp_path / "bad.json"), str(part))],
                             config) == [failure, failure]
    assert part.read_bytes() == b""


def test_a_single_document_travels_as_its_path_and_a_stream_line_as_its_text(tmp_path):
    single = tmp_path / "a_single.json"
    single.write_text(json.dumps(minimal("a"), indent=2))
    stream = tmp_path / "b_stream.ndjson"
    stream.write_bytes(ndjson([minimal("b0"), minimal("b1")]))
    created = set()
    [(task, where)] = cli._tasks([str(single), str(stream)], 1, str(tmp_path), created)
    part = str(tmp_path / ".a_single.json.part")
    assert task == [(str(single), part), (json.dumps(minimal("b0")).encode(), None),
                    (json.dumps(minimal("b1")).encode(), None)]
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


def bounded(args, timeout, what):
    """Run ``args`` in a session of its own and return ``(exit, stdout,
    stderr)``; if it outlasts ``timeout`` seconds, kill the session and fail
    with ``what``."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(what)
    return proc.returncode, stdout, stderr


# Put before a script that runs the CLI: it makes the script print each worker's pid.
FORKS = """
import os
fork = os.fork

def forked():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = forked
"""
MAIN = """
import sys
from biocoref import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def workers_of(stdout, count=2):
    pids = [int(pid) for pid in stdout.split()]
    assert len(pids) == count, pids
    return pids


def running(pid):
    """Whether ``pid`` is a process that has not exited; a zombie has. Read
    from /proc: where there is none, every process counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_gone(pids):
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids)), pids


def test_strict_exit_with_a_full_window_does_not_hang(tmp_path):
    # 301 files make 8 tasks of 38 at --jobs 2, twice the window of 4 tasks,
    # and the failure is in the first task: the exit must stop the pool, and
    # reap its workers, while the rest of the window is still handed out.
    (tmp_path / "a_bad.json").write_text('{"doc_id": "broken"}')
    for i in range(300):
        (tmp_path / f"b{i:03}.json").write_text(json.dumps(minimal(f"b{i}")))
    out = tmp_path / "out"
    args = ["resolve", "--in", str(tmp_path / "*.json"), "--out", str(out), "--jobs", "2",
            "--strict"]
    code, stdout, stderr = bounded([sys.executable, "-c", FORKS + MAIN, *args], 60,
                                   "resolve --strict hung after its first failure")
    assert code == 1, stderr
    summary = summary_of(stderr)
    assert [f["file"] for f in summary["failed"]] == [str(tmp_path / "a_bad.json")]
    assert summary["docs"] == 0
    assert list(out.iterdir()) == []
    assert_gone(workers_of(stdout))


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
    code, stdout, stderr = bounded([sys.executable, "-c", FORKS + INTERRUPTED, "resolve",
                                    "--in", str(tmp_path / "*.json"), "--out", str(out),
                                    "--jobs", "2"], 60, "resolve --jobs 2 hung after an interrupt")
    assert code != 0 and "KeyboardInterrupt" in stderr, stderr
    assert sorted(p.name for p in out.iterdir()) == [f"f{i:03}.json" for i in range(50)]
    for i in range(50):
        assert json.loads((out / f"f{i:03}.json").read_bytes())["doc_id"] == f"f{i}"
    assert_gone(workers_of(stdout))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_undecodable_line_fails_only_its_stream(tmp_path, jobs):
    # The main process decodes no line of a stream but the first, so lines 1
    # and 2 are handed out and resolved, and line 3 fails in its worker.
    lines = [json.dumps(minimal(f"d{i}", "x" * 25_000)).encode() for i in range(5)]
    lines[2] = lines[2].replace(b'x", "sentences"', b'\xff", "sentences"')
    (tmp_path / "a_ok.json").write_text(json.dumps(minimal("a")))
    (tmp_path / "b_stream.ndjson").write_bytes(b"\n".join(lines) + b"\n")
    (tmp_path / "c_ok.json").write_text(json.dumps(minimal("c")))
    out = tmp_path / "out"
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*"), "--out", str(out),
                                 "--jobs", jobs], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    with pytest.raises(UnicodeDecodeError) as line:
        lines[2].decode("utf-8")
    summary = summary_of(proc.stderr)
    assert summary["failed"] == [{"file": str(tmp_path / "b_stream.ndjson"), "line": 3,
                                  "error": f"MalformedInput: {line.value}"}]
    assert summary["docs"] == 2
    assert sorted(p.name for p in out.iterdir()) == ["a_ok.json", "c_ok.json"]


@pytest.mark.parametrize("place", [20, -20], ids=["start", "end"])
def test_a_document_undecodable_past_the_first_read_fails_in_its_worker(tmp_path, place):
    # The main process reads the indented file only as far as its second
    # line and decodes only its first, so wherever the bad byte lies, the
    # worker meets it and reports it as MalformedInput.
    data = json.dumps(minimal("d", "x" * 2 * standoff._READ_SIZE), indent=2).encode()
    data = data[:place] + b"\xff" + data[place:][1:]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    (tmp_path / "bad.json").write_bytes(data)
    out = tmp_path / "out"
    proc = subprocess.run(CLI + ["resolve", "--in", str(tmp_path / "*.json"), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert summary_of(proc.stderr)["failed"] == [{"file": str(tmp_path / "bad.json"),
                                                  "error": f"MalformedInput: {whole.value}"}]
    assert list(out.iterdir()) == []


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


DIES = """
import os
from biocoref import cli
resolve = cli.resolve_document

def dies(doc, config):
    if doc.doc_id == "b":
        os._exit(3)
    return resolve(doc, config)

cli.resolve_document = dies
"""


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_a_worker_that_dies_fails_its_documents_and_the_run_goes_on(tmp_path, strict):
    # Three files make three tasks of one at --jobs 2; b's worker exits in
    # it, and a third worker takes its place. No worker outlives the run.
    for name in "abc":
        (tmp_path / f"{name}.json").write_text(json.dumps(minimal(name)))
    out = tmp_path / "out"
    args = ["resolve", "--in", str(tmp_path / "*.json"), "--out", str(out), "--jobs", "2",
            *strict]
    code, stdout, stderr = bounded([sys.executable, "-c", FORKS + DIES + MAIN, *args], 60,
                                   "resolve hung after a worker died")
    assert code == 1, stderr
    assert_gone(workers_of(stdout, 3))
    summary = summary_of(stderr)
    assert summary["failed"] == [{"file": str(tmp_path / "b.json"),
                                  "error": "WorkerExited: exit status 3"}]
    written = ["a.json"] if strict else ["a.json", "c.json"]
    assert sorted(p.name for p in out.iterdir()) == written  # and no part file
    assert summary["docs"] == len(written)


def test_tasks_and_results_larger_than_a_pipe_do_not_deadlock(tmp_path):
    # 200 lines of 25 KB make three tasks of 64 lines, 1.6 MB each way,
    # against pipes that hold 64 KiB. The third goes to the first worker
    # while that worker is still writing the first task's results, so the
    # main process must read them while it sends.
    stream = tmp_path / "stream.ndjson"
    stream.write_bytes(ndjson(minimal(f"d{i}", f"{i} " + "x" * 25_000) for i in range(200)))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}"
        code, _, stderr = bounded(CLI + ["resolve", "--in", str(stream), "--out", str(out),
                                         "--jobs", jobs, "--emit-provenance"],
                                  60, f"resolve --jobs {jobs} hung on large tasks")
        assert code == 0, stderr
        outputs.append((out / "stream.json").read_bytes())
    assert len(outputs[0]) > 2 * 64 * 25_000
    assert outputs[1] == outputs[0]


def test_a_worker_stops_at_the_end_of_its_task_pipe_or_of_its_result_pipe():
    tasks, results = os.pipe(), os.pipe()
    os.close(tasks[1])
    workers.serve(list, tasks[0], results[1])  # no task: it returns
    assert os.read(results[0], 1) == b""  # and has closed its end
    os.close(results[0])
    tasks, results = os.pipe(), os.pipe()
    task = marshal.dumps([("text", None)])
    os.write(tasks[1], len(task).to_bytes(workers._HEADER, "little") + task)
    os.close(tasks[1])
    os.close(results[0])
    with pytest.raises(BrokenPipeError):  # no one reads its results
        workers.serve(list, tasks[0], results[1])


POLICY = """
import gc, weakref
from biocoref import workers

class Cycle:
    pass

last = []

def work(task):
    # For each document: whether the automatic collector is on, whether
    # anything is frozen, and whether the cycle that the document before it
    # left is gone.
    results = []
    for _ in task:
        gone = last[0]() is None if last else None
        cycle = Cycle()
        cycle.self = cycle
        last[:] = [weakref.ref(cycle)]
        del cycle
        results.append((gc.isenabled(), gc.get_freeze_count() > 0, gone))
    return results

pool = workers.Pool(work)
pool.start(1)
try:
    print(pool.submit(["a", "b", "c"])())
finally:
    pool.stop()
print(gc.isenabled(), gc.get_freeze_count())
"""


def test_a_worker_collects_garbage_after_each_document_and_not_by_count():
    # The task holds three documents, so a cycle is collected between two
    # documents of one task. The pool is started in a subprocess, so the
    # test process never forks.
    code, stdout, stderr = bounded([sys.executable, "-c", POLICY], 60, "the pool hung")
    assert code == 0, stderr
    assert stdout.splitlines() == [
        str([(False, True, None), (False, True, True), (False, True, True)]),
        "True 0"]  # the main process's collector is left as it was


def test_a_run_without_workers_leaves_the_callers_collector_alone(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["resolve", "--in", str(FIXTURES / "ex12_foxp3.json"),
                     "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


SLOW = """
import time
from biocoref import cli
resolve = cli.resolve_document

def slow(doc, config):
    time.sleep(0.01)
    return resolve(doc, config)

cli.resolve_document = slow
"""


def test_no_worker_outlives_a_killed_main_process(tmp_path):
    stream = tmp_path / "stream.ndjson"
    stream.write_bytes(ndjson(minimal(f"d{i}") for i in range(2000)))
    proc = subprocess.Popen([sys.executable, "-c", FORKS + SLOW + MAIN, "resolve",
                             "--in", str(stream), "--out", str(tmp_path / "out"), "--jobs", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        time.sleep(0.5)  # tasks are out, each taking 0.64 s
        assert proc.poll() is None
        proc.kill()
        proc.wait()
        assert_gone(pids)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()


def test_results_read_with_the_end_of_their_pipe_are_kept():
    # A worker that dies after answering one task: its last results and the
    # end of its pipe arrive in one read, and the results still count.
    read, write = os.pipe()
    os.set_blocking(read, False)
    worker = workers._Worker(0, -1, read)
    answered, lost = workers._Task(1), workers._Task(1)
    worker.held += (answered, lost)
    results = [(b"{}\n", {"events_dropped": 0}, None)]
    data = marshal.dumps(results)
    os.write(write, len(data).to_bytes(workers._HEADER, "little") + data + b"\0\0")
    os.close(write)
    assert workers.Pool(list)._receive(worker) is False
    os.close(read)
    assert answered.results == results and lost.results is None
    assert list(worker.held) == [lost]
