"""Input parsing and output rendering."""

import dataclasses
import io
import tracemalloc

import pytest

from streamclose import ItemDictionary, ParseError, StreamSource
from streamclose.formats import STATS_COLUMNS, StatsWriter, save_snapshot, snapshot_lines
from streamclose.window import StatsRecord
from conftest import TABLE1, TABLE2, landmark_driver


def test_read_line_sorted_and_interned():
    src = StreamSource(b"1 3 2\n")
    assert list(src) == [(0, 1, 2)]
    assert src.dictionary.tokens[1] == "3"


def test_read_blank_line_is_empty_basket():
    src = StreamSource(b"1 2\n\n3\n")
    assert list(src) == [(0, 1), (), (2,)]


def test_read_duplicates_collapse_in_first_seen_order():
    # ids follow each token's first appearance, not its sorted position,
    # and a token repeated within a line is one item of it
    src = StreamSource(b"9 8 9 7\n8 8\n")
    assert list(src) == [(0, 1, 2), (1,)]
    assert src.dictionary.tokens == ["9", "8", "7"]


def test_read_control_character_is_parse_error():
    src = StreamSource(b"1 2\n3 \x004\n")
    with pytest.raises(ParseError) as err:
        list(src)
    assert err.value.line_no == 2


def test_read_invalid_utf8_is_parse_error():
    src = StreamSource(b"1 2\n\xff\xfe\n")
    with pytest.raises(ParseError) as err:
        list(src)
    assert err.value.line_no == 2


def test_read_table1_reproduces_worked_example():
    text = "\n".join(" ".join(row) for row in TABLE1).encode() + b"\n"
    src = StreamSource(text)
    itemsets = list(src)
    assert len(itemsets) == 10
    assert itemsets[0] == tuple(range(8))
    assert itemsets[4] == (src.dictionary.intern("g"),)


def test_read_from_path(tmp_path):
    p = tmp_path / "d.dat"
    p.write_bytes(b"5 6\n6\n")
    assert list(StreamSource(p)) == [(0, 1), (1,)]


def test_read_shared_dictionary():
    d = ItemDictionary()
    d.intern("x")
    src = StreamSource(b"y x\n", dictionary=d)
    assert list(src) == [(0, 1)]


def text_of(rows, fmt="tsv") -> str:
    """The whole text ``snapshot_lines`` renders for ``rows``."""
    return "".join(snapshot_lines(rows, fmt))


def test_write_snapshot_tsv_golden():
    driver = landmark_driver(TABLE1)
    text = text_of(driver.snapshot(), "tsv")
    lines = text.splitlines()
    assert len(lines) == len(TABLE2) == 22
    assert "b c\t5" in lines
    assert lines[0] == "a b c\t3"  # id-lexicographic order


def test_write_snapshot_threshold_four():
    driver = landmark_driver(TABLE1)
    text = text_of(driver.snapshot(min_supp=4), "tsv")
    assert len(text.splitlines()) == 10


def test_write_snapshot_jsonl():
    text = text_of([(("a", "b"), 3), (("c",), 1)], "jsonl")
    assert text == ('{"itemset": ["a", "b"], "support": 3}\n'
                    '{"itemset": ["c"], "support": 1}\n')


def test_write_snapshot_empty():
    assert text_of([], "tsv") == ""
    assert text_of([], "jsonl") == ""


def test_write_snapshot_unknown_format():
    with pytest.raises(ValueError):  # on the call, before any row is read
        snapshot_lines([], "xml")


def test_save_snapshot_deterministic_bytes(tmp_path):
    driver = landmark_driver(TABLE1)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_snapshot(p1, driver.snapshot())
    save_snapshot(p2, driver.snapshot())
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_save_snapshot_never_holds_the_whole_text(tmp_path):
    # rows are written as they are formatted, so saving ten thousand rows
    # allocates far less than the text it writes
    rows = [((f"item{i}", f"other{i % 97}", "tail"), i % 50 + 1) for i in range(10000)]
    for fmt in ("tsv", "jsonl"):
        text = text_of(rows, fmt)
        path = tmp_path / f"rows.{fmt}"
        tracemalloc.start()
        try:
            save_snapshot(path, rows, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == text
        assert peak < len(text) / 4, (fmt, peak, len(text))


def test_stats_writer_header_and_rows():
    out = io.StringIO()
    w = StatsWriter(out)
    w.write(StatsRecord(shift=1, tid=0, op="add", new=2, promoted=0, obsolete=0,
                        demoted=0, live_cis=2, trie_nodes=3, entries_scanned=4,
                        wall_ns=1000))
    lines = out.getvalue().splitlines()
    assert lines[0] == ",".join(STATS_COLUMNS)
    assert lines[1] == "1,0,add,2,0,0,0,2,3,4,1000"


def test_stats_columns_are_the_record_fields():
    # a record field the CSV never writes is work done for no reader
    assert tuple(f.name for f in dataclasses.fields(StatsRecord)) == STATS_COLUMNS
