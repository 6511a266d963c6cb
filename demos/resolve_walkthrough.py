"""Walk one small document through the resolver, printing each stage.

Reads ``fixtures/ex1b_axin_gbd.json`` next to this script's directory, so it
runs from any working directory:

    python3 demos/resolve_walkthrough.py
"""

from pathlib import Path

from biocoref import ResolverConfig, load_document, resolve_document

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
doc = load_document((FIXTURES / "ex1b_axin_gbd.json").read_bytes())

print("TEXT")
print(" ", doc.text)
print("\nMENTIONS")
for ent in doc.entities:
    print(f"  {ent.id}  [{ent.start},{ent.end})  {ent.label:<8}  {ent.surface!r}")
for ev in doc.events:
    args = ", ".join(f"{a.role}={a.ref}" for a in ev.args)
    print(f"  {ev.id}  {ev.event_type}({args})")

config = ResolverConfig.default(trace=True)
res = resolve_document(doc, config)

print("\nCANDIDATES")
for c in res.candidates:
    print(f"  {c.mention_id}  {c.kind:<12} {c.surface!r}")

print("\nLINKS")
for link in res.links:
    print(f"  {link.anaphor_id} -> {', '.join(link.antecedent_ids)}  via {link.sieve_name}")

print("\nCHAINS")
for chain in res.chains:
    surfaces = [getattr(next((e for e in doc.entities if e.id == m), None), "surface", m)
                for m in chain]
    print(f"  {chain}  {surfaces}")

print("\nCOMPLETED EVENTS")
for ev in res.completed:
    args = ", ".join(f"{a.role}={a.ref}" for a in ev.args)
    origin = "coreference" if ev.provenance else "baseline"
    print(f"  {ev.id}  {ev.event_type}({args})  [{origin}]")

print("\nTRACE for the pronoun")
entry = next(t for t in res.trace if t["kind"] == "Pronoun")
for attempt in entry["attempts"]:
    print(f"  {attempt['sieve']}: {attempt['status']}")
    for item in attempt.get("considered", ()):
        print(f"    {item['id']}: {item['verdict']}")
print(f"  final: {entry['final']}")

print("\nSame document with the string and grounding sieves disabled:")
ablated = resolve_document(doc, ResolverConfig.default(
    disabled_sieves=frozenset({"exact_string", "shared_grounding"})))
for link in ablated.links:
    print(f"  {link.anaphor_id} -> {', '.join(link.antecedent_ids)}  (now the wrong mention:"
          " nothing marked the two identical surfaces as one entity)")
