"""Output checker for ``biocoref resolve`` results.

It compares results with two things the program does not compute: the
expectations the generator recorded for each document (see ``corpus.py``)
and the guarantees the README states. It never compares against a stored
copy of earlier output. Each function returns a list of problems; an empty
list means the outputs are correct.
"""

from __future__ import annotations

from bisect import bisect_right

LINK_KINDS = ("event_coref", "mutant_match", "strict_head")


def check_result(result: dict, expect: dict, provenance: bool) -> list[str]:
    """Problems in one result document."""
    doc_id = result.get("doc_id", "?")
    problems: list[str] = []

    def bad(msg: str) -> None:
        problems.append(f"{doc_id}: {msg}")

    text = result["text"]
    sent_starts = [s["start"] for s in result["sentences"]]
    starts = {e["id"]: e["start"] for e in result["entities"]}
    surfaces = {e["id"]: text[e["start"]:e["end"]] for e in result["entities"]}
    starts.update({ev["id"]: ev["trigger_start"] for ev in result["events"]})

    def sentence_of(pos: int) -> int:
        return bisect_right(sent_starts, pos) - 1

    links: dict[str, dict] = {}
    for link in result["links"]:
        anaphor = link["anaphor"]
        if anaphor in links:
            bad(f"{anaphor} linked twice")
        links[anaphor] = link
        if anaphor not in starts or not link["antecedents"]:
            bad(f"link {anaphor} has no anaphor mention or no antecedent")
            continue
        for ant in link["antecedents"]:
            if ant not in starts:
                bad(f"link {anaphor}: antecedent {ant} not in the result")
            elif starts[ant] >= starts[anaphor]:
                bad(f"forward link {anaphor} -> {ant}")
            elif (link["sieve"] != "strict_head"
                  and sentence_of(starts[anaphor]) - sentence_of(starts[ant]) > 1):
                bad(f"link {anaphor} -> {ant} by {link['sieve']} reaches past the previous sentence")

    for kind in LINK_KINDS:
        for anaphor, antecedent in expect[kind]:
            link = links.get(anaphor)
            if link is None or link["sieve"] != kind or link["antecedents"] != [antecedent]:
                bad(f"expected {anaphor} -> {antecedent} by {kind}, got {link}")
    for ent_id in expect["indefinite"]:
        if ent_id in links or ent_id not in surfaces:
            bad(f"indefinite {ent_id} was treated as an anaphor")

    completed = result["completed_events"]
    derived = {c["derived_from"] for c in completed}
    for ev_id in expect["self_binding"]:
        if ev_id in derived:
            bad(f"self-binding {ev_id} yielded a completed event")
    known = set(starts) | {c["id"] for c in completed}
    for c in completed:
        refs = [a["ref"] for a in c["args"]]
        for ref in refs:
            if ref not in known:
                bad(f"completed event {c['id']}: argument {ref} does not resolve")
        # exact_string chains identical surfaces, so no event may relate two of them.
        same = [surfaces[r] for r in refs if r in surfaces]
        if len(set(same)) < len(same):
            bad(f"completed event {c['id']} relates two mentions of one surface")

    if provenance:
        problems.extend(_check_chains(doc_id, result, links, completed))
    return problems


def _check_chains(doc_id: str, result: dict, links: dict, completed: list) -> list[str]:
    chains = result.get("chains")
    if chains is None or "trace" not in result:
        return [f"{doc_id}: provenance output lacks chains or trace"]
    problems = []
    chain_of: dict[str, int] = {}
    for i, chain in enumerate(chains):
        for member in chain:
            if member in chain_of:
                problems.append(f"{doc_id}: {member} is in two chains")
            chain_of[member] = i
    for anaphor, link in links.items():
        for ant in link["antecedents"]:
            if anaphor not in chain_of or chain_of.get(ant) != chain_of[anaphor]:
                problems.append(f"{doc_id}: link {anaphor} -> {ant} lies outside its chain")
    for c in completed:
        keys = [chain_of.get(a["ref"], a["ref"]) for a in c["args"]]
        if len(set(keys)) < len(keys):
            problems.append(f"{doc_id}: completed event {c['id']} relates two members of one chain")
    return problems


def check_run(results: list[dict], expects: dict[str, dict], summary: dict,
              provenance: bool) -> list[str]:
    """Problems in one ``resolve`` run: ``results`` are every output document,
    ``expects`` maps each input doc_id to its expectations, ``summary`` is
    the run's stderr summary."""
    problems = []
    got = [r.get("doc_id") for r in results]
    if sorted(got) != sorted(expects):
        problems.append(f"{len(got)} results for {len(expects)} input documents")
    if summary.get("failed"):
        problems.append(f"summary lists failures: {summary['failed'][:3]}")
    completed = sum(len(r["completed_events"]) for r in results)
    if summary.get("events_completed") != completed:
        problems.append(f"summary events_completed {summary.get('events_completed')} "
                        f"!= {completed} in the outputs")
    for result in results:
        expect = expects.get(result.get("doc_id"))
        if expect is not None:
            problems.extend(check_result(result, expect, provenance))
    return problems
