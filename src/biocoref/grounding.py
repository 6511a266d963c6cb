"""Alias lookup table mapping mention surfaces to canonical knowledge-base IDs.

Lookup is exact-alias-only after normalization. Substring or prefix matching
is deliberately impossible: entity names in this domain overlap heavily, and
"glycogen synthase kinase 3 beta" must never ground through a "glycogen"
entry. Normalization is therefore conservative: Unicode NFKC, casefold, and
collapsing of internal whitespace/hyphen runs to a single space. No stemming,
no token dropping.
"""

from __future__ import annotations

import os
import re
import unicodedata
from functools import cache

DEFAULT_NAMESPACE_PRIORITY = (
    "uniprot",
    "pfam",
    "interpro",
    "chebi",
    "go",
    "mesh",
)

_SEPARATOR_RUN = re.compile(r"[\s\-‐-―]+")


class MalformedRow(ValueError):
    """A TSV row with the wrong column count; the message carries the line number."""


def normalize(surface: str) -> str:
    """Canonical key for alias comparison. Idempotent."""
    folded = unicodedata.normalize("NFKC", surface).casefold()
    return _SEPARATOR_RUN.sub(" ", folded).strip()


class GroundingTable:
    __slots__ = ("entries", "dropped_duplicates")

    def __init__(self, entries: dict[str, str] | None = None, dropped_duplicates: int = 0) -> None:
        self.entries = {} if entries is None else entries
        self.dropped_duplicates = dropped_duplicates

    def ground(self, surface: str) -> str | None:
        return self.entries.get(normalize(surface))

    def __len__(self) -> int:
        return len(self.entries)


def _namespace_of(canonical_id: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    head, sep, _ = canonical_id.partition(":")
    return head if sep else ""


def load_table(data: bytes | str,
               namespace_priority: tuple[str, ...] = DEFAULT_NAMESPACE_PRIORITY) -> GroundingTable:
    """Ingest a TSV of ``alias<TAB>canonical_id[<TAB>namespace]`` rows. Rows
    end at "\\n", a "\\r" before it dropped, so an alias may hold U+2028.

    When one alias maps to several IDs the highest-priority namespace wins,
    then the earliest row; superseded rows are tallied in dropped_duplicates.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    rows: dict[str, list[tuple[int, int, str]]] = {}
    rank = {ns: i for i, ns in enumerate(namespace_priority)}
    unknown_rank = len(namespace_priority)
    for lineno, line in enumerate(data.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise MalformedRow(f"line {lineno}: expected 2 or 3 columns, got {len(cols)}")
        alias, canonical = cols[0], cols[1]
        namespace = cols[2].strip() if len(cols) == 3 else None
        ns_rank = rank.get(_namespace_of(canonical, namespace), unknown_rank)
        rows.setdefault(normalize(alias), []).append((ns_rank, lineno, canonical))

    entries: dict[str, str] = {}
    dropped = 0
    for alias_key, candidates in rows.items():
        candidates.sort()
        entries[alias_key] = candidates[0][2]
        dropped += len(candidates) - 1
    return GroundingTable(entries=entries, dropped_duplicates=dropped)


def load_table_file(path) -> GroundingTable:
    with open(path, "rb") as fh:
        return load_table(fh.read())


@cache
def default_table() -> GroundingTable:
    return load_table_file(os.path.join(os.path.dirname(__file__), "data", "grounding.tsv"))

