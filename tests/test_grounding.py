from pathlib import Path

import pytest

from biocoref import grounding
from biocoref.grounding import (
    GroundingTable,
    MalformedRow,
    default_table,
    load_table,
    normalize,
)


def test_alias_pair_grounds_to_one_id():
    table = load_table("GSK-3β\tuniprot:P49841\n"
                       "glycogen synthase kinase 3 beta\tuniprot:P49841\n")
    assert table.ground("GSK-3β") == "uniprot:P49841"
    assert table.ground("glycogen synthase kinase 3 beta") == "uniprot:P49841"


def test_substring_never_grounds():
    table = load_table("GSK-3β\tuniprot:P49841\n"
                       "glycogen synthase kinase 3 beta\tuniprot:P49841\n")
    assert table.ground("glycogen") is None
    assert table.ground("synthase kinase") is None


def test_empty_table_always_misses():
    table = load_table(b"")
    assert len(table) == 0
    assert table.ground("RAF1") is None


def test_namespace_priority_resolves_duplicates():
    # Oracle: manual trace of the documented priority order on three rows.
    # uniprot outranks chebi outranks unknown namespaces, so uniprot:2 wins
    # and the two superseded rows are counted as dropped.
    rows = ("abc\tchebi:1\tchebi\n"
            "abc\tuniprot:2\tuniprot\n"
            "abc\tcustomkb:3\tcustomkb\n")
    table = load_table(rows)
    assert table.ground("abc") == "uniprot:2"
    assert table.dropped_duplicates == 2


def test_same_priority_first_row_wins():
    table = load_table("abc\tuniprot:1\tuniprot\nabc\tuniprot:2\tuniprot\n")
    assert table.ground("abc") == "uniprot:1"
    assert table.dropped_duplicates == 1


def test_namespace_falls_back_to_id_prefix():
    table = load_table("abc\tchebi:9\nabc\tuniprot:4\n")
    assert table.ground("abc") == "uniprot:4"


def test_malformed_row_carries_line_number():
    with pytest.raises(MalformedRow, match="line 2"):
        load_table("ok\tuniprot:1\nbroken-row-without-tab\n")


def test_rows_end_at_newline_only():
    # U+2028 and a form feed are line ends to str.splitlines, not to a TSV row.
    table = load_table("GSK3\u2028b\tUniProt:P49841\nRAF1\x0cx\tuniprot:P04049\n")
    assert table.entries == {"gsk3 b": "UniProt:P49841", "raf1 x": "uniprot:P04049"}
    assert table.ground("GSK3\u2028b") == "UniProt:P49841"


def test_crlf_table_loads_as_its_lf_twin():
    with open(Path(grounding.__file__).parent / "data" / "grounding.tsv", encoding="utf-8") as f:
        rows = f.read()
    assert "\r" not in rows
    crlf = load_table(rows.replace("\n", "\r\n"))
    assert crlf.entries == default_table().entries and len(crlf) > 0
    assert crlf.dropped_duplicates == default_table().dropped_duplicates


def test_normalize_is_idempotent():
    samples = ["GSK-3β", "Axin  GBD", "IκB kinase α", "ＧSK3", "a--b c"]
    for s in samples:
        once = normalize(s)
        assert normalize(once) == once


def test_normalize_canonicalizes_separators_and_width():
    assert normalize("GSK - 3β") == normalize("GSK-3β") == normalize("gsk 3β")
    # NFKC folds fullwidth letters before casefolding.
    assert normalize("ＧＳＫ3") == "gsk3"
    assert normalize("GSK3β") != normalize("GSK-3β")


def test_grounding_is_pure_function_of_surface_and_table():
    table = default_table()
    assert table.ground("FGFR3") == table.ground("fgfr3") == "uniprot:P22607"
    copy = GroundingTable(entries=dict(table.entries))
    assert copy.ground("FGFR3") == table.ground("FGFR3")
