"""Seeded fuzz regression: mutants of the 22 fixtures never crash the batch.

Each mutant is a fixture with one to three random edits: the values of two
fields of one name and type swapped, an object key or a list item deleted, or
a list item duplicated. Every mutant goes through the CLI's per-document
boundary with provenance on; no exception may escape it. Every mutant that
loads must also keep the README guarantees that ``test_properties``
checks. Deleted event arguments change which events are complete, so the
digest pins the completeness rule too.

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

from biocoref.cli import _resolve_text
from biocoref.resolver import ResolverConfig
from biocoref.standoff import load_document

from test_properties import check_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MUTANTS = 2000
GOLDEN = "6ecd3008916b709815fc6dbdd269d1c1bd145e1de98bd69bbc41df6637f63093"
FULL_MESSAGE = ("SchemaViolation", "MalformedInput")
SECTIONS = ("sentences", "entities", "events")


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


def test_fixture_mutants_never_escape_and_match_golden_digest():
    config = ResolverConfig.default(trace=True)
    bases = [json.loads(p.read_bytes()) for p in sorted(FIXTURES.glob("ex*.json"))]
    assert len(bases) == 22
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(MUTANTS):
        text = json.dumps(_mutate(rng, rng.choice(bases)), ensure_ascii=False)
        output, _counters, error = _resolve_text(text, False, config)
        if error is None:
            h.update(output)
            check_document(load_document(text, schema=config.schema), config)
        else:
            kind = error.split(":", 1)[0]
            h.update((error if kind in FULL_MESSAGE else kind).encode("utf-8"))
        h.update(b"\0")
    assert h.hexdigest() == GOLDEN
