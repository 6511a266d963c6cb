"""Run the bundled corpus end to end and score it.

Reads the example corpus in ``fixtures/`` next to this script's directory,
resolves it twice (full pipeline and with every sieve disabled), checks the
event counts against ``fixtures/manifest.json``, then prints the throughput
table. It runs from any working directory:

    python3 demos/corpus_and_eval.py
"""

import json
from pathlib import Path

from biocoref import ResolverConfig, load_document, resolve_document
from biocoref.evaluation import RunOutput, format_report, throughput
from biocoref.resolver import validate_disabled

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
print(f"corpus of {len(manifest)} documents read from {FIXTURES.name}/")

full_cfg = ResolverConfig.default()
base_cfg = ResolverConfig.default(disabled_sieves=validate_disabled(["all"]))

system, baseline = [], []
for doc_id, entry in sorted(manifest.items()):
    doc = load_document((FIXTURES / entry["file"]).read_bytes())
    res = resolve_document(doc, full_cfg)
    system.append(RunOutput(doc_id=doc_id, completed=res.completed))
    baseline.append(RunOutput(doc_id=doc_id,
                              completed=resolve_document(doc, base_cfg).completed))

counts = throughput(system, baseline)
assert counts["coref_only"] == sum(entry["coref_events"] for entry in manifest.values())
assert counts["baseline"] == sum(entry["baseline_events"] for entry in manifest.values())
print()
print(format_report(counts))
print("Every event above the baseline count carries provenance: the anaphor")
print("resolutions that made it expressible at all.")
