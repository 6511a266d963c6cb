"""Run the bundled corpus end to end and score it.

Writes the example corpus to a temporary directory that it removes again,
resolves the corpus twice (full pipeline and with every sieve disabled),
then prints the throughput table.

    python3 demos/corpus_and_eval.py
"""

import json
import tempfile
from pathlib import Path

from biocoref import ResolverConfig, load_document, resolve_document
from biocoref.evaluation import RunOutput, format_report, throughput
from biocoref.fixtures import corpus_documents, write_corpus
from biocoref.resolver import validate_disabled

with tempfile.TemporaryDirectory(prefix="biocoref-demo-") as scratch:
    written = write_corpus(Path(scratch) / "corpus")
    print(f"corpus of {len(written)} files written to a temporary directory")

full_cfg = ResolverConfig.default()
base_cfg = ResolverConfig.default(disabled_sieves=validate_disabled(["all"]))

system, baseline = [], []
for doc_id, raw in sorted(corpus_documents().items()):
    doc = load_document(json.dumps(raw))
    res = resolve_document(doc, full_cfg)
    system.append(RunOutput(doc_id=doc_id,
                            completed=json.loads(res.to_bytes())["completed_events"]))
    res_base = resolve_document(doc, base_cfg)
    baseline.append(RunOutput(doc_id=doc_id,
                              completed=json.loads(res_base.to_bytes())["completed_events"]))

counts = throughput(system, baseline)
print()
print(format_report(counts))
print("Every event above the baseline count carries provenance: the anaphor")
print("resolutions that made it expressible at all.")
