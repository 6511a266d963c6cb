"""Seeded fuzz regression: mutants of the 22 fixtures never crash the batch.

Two families of mutants, each a fixture with one to three random edits:

- ``_mutate``: the values of two fields of one name and type swapped, an
  object key or a list item deleted, or a list item duplicated. Most of
  these mutants fail to load, so they test the loader's checks.
- ``_mutate_loadable``: edits that keep a document valid: an event argument
  or a token's ``pos`` dropped, an entity or event that nothing references
  deleted, or the labels of two entities swapped where every role that
  names either allows both classes. Every one of these mutants must load;
  they test the resolver and the result writer, and their digest covers
  both the result file and the stream line of each.

Every mutant goes through the CLI's per-document boundary with provenance
on; no exception may escape it. For a result file, each mutant is written
to a file of its own, and a worker reads it and writes the result into a
part file, which is read back. Every mutant that loads must also keep
the README guarantees that ``test_properties`` checks. Deleted event arguments
change which events are complete, so the digests pin the completeness rule
too.

The digest pins what each mutant produced: its result bytes, or its failure.
A ``SchemaViolation`` or ``MalformedInput`` contributes its full message, so
the first fault a document reports is pinned too; any other exception
contributes only its type name, which does not depend on the interpreter's
wording. Update the digest only for a deliberate change of output or of an
error message, and record that change in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

from biocoref.cli import _resolve_task
from biocoref.resolver import ResolverConfig
from biocoref.schema import default_schema
from biocoref.standoff import load_document

from test_properties import check_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MUTANTS = 2000
GOLDEN = "837a06abe5b547f45cda1cfb74eccbdb731add11c582368b1f3a8115e2194aa7"
LOADABLE_GOLDEN = "0c8871193c20e505d1733505c48ad9dc623df6bbb42dd51ca563a613961f2ae7"
FULL_MESSAGE = ("SchemaViolation", "MalformedInput")
SECTIONS = ("sentences", "entities", "events")


def _resolve(text, config, part=None):
    """``(output, error)`` from the CLI's per-document boundary: the compact
    stream line, or with ``part`` the result file written into it from the
    mutant's own file beside it."""
    source = text
    if part is not None:
        mutant = part.with_name("mutant.json")
        mutant.write_text(text, encoding="utf-8")
        part.write_bytes(b"")
        source = str(mutant)
    [(output, _counters, error)] = _resolve_task([(source, part and str(part))], config)
    if part is not None and error is None:
        output = part.read_bytes()
    return output, error


def _copy(value):
    return json.loads(json.dumps(value))


def _slots(node, out):
    """Every ``(container, key)`` below ``node`` that holds a value, in order."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(rng, raw):
    doc = _copy(raw)
    for _ in range(rng.randint(1, 3)):
        # Edits fall in one section at a time, so tokens, the most numerous
        # records, do not take most of them.
        section = doc.get(rng.choice(SECTIONS))
        slots = [(doc, key) for key in doc]
        if isinstance(section, (dict, list)):
            _slots(section, slots)
        edit = rng.randrange(3)
        if edit == 0:
            a, ka = rng.choice(slots)
            b, kb = rng.choice([(c, k) for c, k in slots
                                if k == ka and type(c[k]) is type(a[ka])])
            a[ka], b[kb] = _copy(b[kb]), _copy(a[ka])
            continue
        kinds = (dict, list) if edit == 1 else (list,)
        targets = [v for v in [doc] + [c[k] for c, k in slots] if type(v) in kinds and v]
        if not targets:
            continue
        target = rng.choice(targets)
        if edit == 1:
            del target[rng.choice(list(target) if type(target) is dict else range(len(target)))]
        else:
            target.insert(rng.randrange(len(target) + 1), _copy(rng.choice(target)))
    return doc


def _label_swaps(entities, args, schema):
    """Pairs of entities with different labels where every role that names
    either allows the other's label."""
    allowed = {e["id"]: None for e in entities}  # None: no role names it
    for ev, arg in args:
        if arg["ref"] in allowed:
            classes = schema.roles_for(ev["type"])[arg["role"]].classes
            prior = allowed[arg["ref"]]
            allowed[arg["ref"]] = classes if prior is None else prior & classes
    return [(x, y) for x in entities for y in entities if x["label"] < y["label"]
            and (allowed[x["id"]] is None or y["label"] in allowed[x["id"]])
            and (allowed[y["id"]] is None or x["label"] in allowed[y["id"]])]


def _mutate_loadable(rng, raw, schema):
    doc = _copy(raw)
    entities, events = doc["entities"], doc["events"]
    for _ in range(rng.randint(1, 3)):
        args = [(ev, a) for ev in events for a in ev["args"]]
        referenced = {a["ref"] for _, a in args}
        # Each edit is drawn from the kinds that have a target in ``doc``.
        kinds = [kind for kind in (
            [("arg", target) for target in args],
            [("pos", t) for s in doc["sentences"] for t in s["tokens"] if "pos" in t],
            [("free", (records, i)) for records in (entities, events)
             for i, record in enumerate(records) if record["id"] not in referenced],
            [("labels", pair) for pair in _label_swaps(entities, args, schema)],
        ) if kind]
        if not kinds:
            break
        kind, target = rng.choice(rng.choice(kinds))
        if kind == "arg":
            target[0]["args"].remove(target[1])
        elif kind == "pos":
            del target["pos"]
        elif kind == "free":
            del target[0][target[1]]
        else:
            x, y = target
            x["label"], y["label"] = y["label"], x["label"]
    return doc


def test_fixture_mutants_never_escape_and_match_golden_digest(tmp_path):
    config = ResolverConfig.default(trace=True)
    bases = [json.loads(p.read_bytes()) for p in sorted(FIXTURES.glob("ex*.json"))]
    assert len(bases) == 22
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(MUTANTS):
        text = json.dumps(_mutate(rng, rng.choice(bases)), ensure_ascii=False)
        output, error = _resolve(text, config, tmp_path / ".result.json.part")
        if error is None:
            h.update(output)
            check_document(load_document(text, schema=config.schema), config)
        else:
            kind = error.split(":", 1)[0]
            h.update((error if kind in FULL_MESSAGE else kind).encode("utf-8"))
        h.update(b"\0")
    assert h.hexdigest() == GOLDEN


def test_loadable_mutants_keep_guarantees_and_match_golden_digest(tmp_path):
    config = ResolverConfig.default(trace=True)
    schema = default_schema()
    bases = [json.loads(p.read_bytes()) for p in sorted(FIXTURES.glob("ex*.json"))]
    rng = random.Random(8)
    h = hashlib.sha256()
    for _ in range(MUTANTS):
        text = json.dumps(_mutate_loadable(rng, rng.choice(bases), schema), ensure_ascii=False)
        for part in (tmp_path / ".result.json.part", None):  # the file, then the line
            output, error = _resolve(text, config, part)
            assert error is None, error
            h.update(output)
            h.update(b"\0")
        check_document(load_document(text, schema=config.schema), config)
    assert h.hexdigest() == LOADABLE_GOLDEN
