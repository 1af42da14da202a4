"""Store, dictionary, inverted index and snapshot behavior."""

import pytest

from streamclose.store import (
    CIRecord,
    InvertedIndex,
    ItemDictionary,
    materialize_itemset,
    snapshot,
)
from conftest import (
    TABLE1,
    TABLE2,
    check_store_invariants,
    landmark_driver,
    record_of,
    token_family,
)


# ---------------------------------------------------------------------------
# dictionary
# ---------------------------------------------------------------------------

def test_intern_idempotent():
    d = ItemDictionary()
    assert d.intern("5") == 0
    assert d.intern("5") == 0


def test_intern_dense_first_seen():
    d = ItemDictionary()
    assert d.intern("5") == 0
    assert d.intern("12") == 1
    assert d.tokens[0] == "5" and d.tokens[1] == "12"


def test_intern_alphabet_in_order():
    d = ItemDictionary()
    ids = [d.intern(t) for t in "abcdefgh"]
    assert ids == list(range(8))


def test_intern_int_tokens():
    d = ItemDictionary()
    assert d.intern(42) == 0
    assert d.intern("42") == 1  # distinct token, distinct id


# ---------------------------------------------------------------------------
# records and index bookkeeping
# ---------------------------------------------------------------------------

def build_table2_state():
    """Hand-build the 22-CI index with the worked example's CI numbering."""
    rows = [
        ("abcdefgh", 1), ("abcef", 2), ("cf", 3), ("cdfgh", 2), ("f", 5),
        ("ef", 4), ("fgh", 3), ("efgh", 2), ("g", 5), ("fh", 4), ("efh", 3),
        ("c", 6), ("cd", 4), ("abc", 3), ("abcd", 2), ("bc", 5), ("bcd", 3),
        ("d", 5), ("h", 5), ("gh", 4), ("cgh", 3), ("bcgh", 2),
    ]
    d = ItemDictionary()
    for t in "abcdefgh":
        d.intern(t)
    index = InvertedIndex()
    for text, supp in rows:
        index.add(supp, tuple(d.intern(t) for t in text))
    return index, d


def test_fresh_store_holds_no_records():
    index = InvertedIndex()
    assert index.records == {} and index.lists == {} and index.entry_count == 0
    rec = index.add(1, (0, 2))
    assert rec.id == 1 and rec.size == 2 and rec.itemset == (0, 2)
    assert index.records == {(0, 2): rec}
    assert index.lists == {0: [rec], 2: [rec]} and index.entry_count == 2


def test_materialize_table2_ci16():
    index, d = build_table2_state()
    items = materialize_itemset(index, record_of(index, 16))
    assert tuple(d.tokens[a] for a in items) == ("b", "c")


def test_materialize_singleton():
    index, d = build_table2_state()
    g = index.records[(d.intern("g"),)]
    assert g.size == 1
    assert materialize_itemset(index, g) == (d.intern("g"),)


def test_materialize_unknown_record():
    index, _ = build_table2_state()
    with pytest.raises(KeyError):
        materialize_itemset(index, CIRecord(999, 1, (0, 5)))


def test_materialize_after_removal_is_lookup_error():
    # evicting the newest transaction makes gh obsolete (its closure falls
    # back to fgh); its id must then be dead
    driver = landmark_driver(TABLE1)
    eng = driver.engine
    d = driver.dictionary
    gh = tuple(d.intern(t) for t in "gh")
    gh_rec = eng.index.records[gh]
    assert materialize_itemset(eng.index, gh_rec) == gh
    report = eng.shift_remove(9)
    assert gh_rec.id in {cid for cid, _ in report.obsolete}
    assert gh not in eng.index.records
    with pytest.raises(KeyError):
        materialize_itemset(eng.index, gh_rec)


def test_new_ci_refuses_a_live_itemset():
    index = InvertedIndex()
    first = index.add(1, (0, 1))
    with pytest.raises(AssertionError, match="already a live CI"):
        index.add(2, (0, 1))
    assert index.records == {(0, 1): first} and index.next_id == 2
    # the refused record was filed nowhere
    assert index.lists == {0: [first], 1: [first]} and index.entry_count == 2


def test_materialize_refuses_a_removed_record_whose_itemset_is_live_again():
    # the index keys records by itemset, so a dead record must be told from
    # the live one that took its key
    index = InvertedIndex()
    old = index.add(1, (0, 1))
    index.remove([old])
    assert index.records == {} and index.lists == {}
    with pytest.raises(KeyError):
        materialize_itemset(index, old)
    with pytest.raises(KeyError):
        index.remove([old])
    new = index.add(1, (0, 1))
    with pytest.raises(KeyError):
        materialize_itemset(index, old)
    with pytest.raises(KeyError):
        index.remove([old])
    assert index.records[(0, 1)] is new
    assert index.lists == {0: [new], 1: [new]}
    assert materialize_itemset(index, new) == (0, 1)


def test_index_removal_leaves_other_records():
    # records that share items are each filed and unfiled under the items
    # their own itemsets name
    index = InvertedIndex()
    a = index.add(1, (0, 1))
    b = index.add(2, (0, 2))
    c = index.add(1, (1,))
    assert index.entry_count == 5
    index.remove([a])
    assert index.records == {(0, 2): b, (1,): c}
    assert index.lists == {0: [b], 1: [c], 2: [b]}
    assert index.entry_count == 3
    # a record that is no longer live
    with pytest.raises(KeyError, match="1"):
        index.remove([a])
    # a live record missing from one of its lists
    index.lists[0].remove(b)
    with pytest.raises(AssertionError, match="CI 2 missing from inverted list of item 0"):
        index.remove([b])
    # a live record naming an item that has no list
    del index.lists[1]
    with pytest.raises(AssertionError, match="CI 3 missing from inverted list of item 1"):
        index.remove([c])


def test_index_batch_removal_keeps_filing_order():
    # one call unfiles several records that share items: the survivors keep
    # the order they were filed in, which fixes routing order and so ids
    index = InvertedIndex()
    recs = [index.add(1, items) for items in
            [(0, 1), (0,), (0, 2), (1, 2), (0, 1, 2), (2,), (0, 3)]]
    assert [rec.id for rec in recs] == list(range(1, 8))
    assert index.entry_count == 13
    r1, r2, r3, r4, r5, r6, r7 = recs
    index.remove([r5, r1, r7])
    assert index.lists == {0: [r2, r3], 1: [r4], 2: [r3, r4, r6]}  # item 3 dropped
    assert index.entry_count == 13 - 7
    index.remove([r4, r2])
    assert index.lists == {0: [r3], 2: [r3, r6]}  # item 1 dropped
    assert index.records == {(0, 2): r3, (2,): r6}
    assert index.entry_count == 3
    # a record given twice, or no longer live, after one that is live
    with pytest.raises(KeyError, match="6"):
        index.remove([r6, r6])
    with pytest.raises(KeyError, match="4"):
        index.remove([r3, r4])
    # a live record missing from one of its lists, after one that is filed
    index = InvertedIndex()
    r1, r2, r3 = (index.add(1, items) for items in [(0, 1), (1,), (0, 2)])
    index.lists[1].remove(r1)
    with pytest.raises(AssertionError, match="CI 1 missing from inverted list of item 1"):
        index.remove([r2, r1])
    # a live record naming an item that has no list, after one that is filed
    index = InvertedIndex()
    r1, r2 = (index.add(1, items) for items in [(0,), (0, 3)])
    del index.lists[3]
    with pytest.raises(AssertionError, match="CI 2 missing from inverted list of item 3"):
        index.remove([r1, r2])
    # a record filed twice in one list
    index = InvertedIndex()
    r1, r2 = (index.add(1, items) for items in [(0,), (0, 1)])
    index.lists[0].append(r2)
    with pytest.raises(AssertionError, match="item 0 lost 2 entries, expected 1"):
        index.remove([r2])


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

def test_snapshot_full_window():
    driver = landmark_driver(TABLE1)
    assert token_family(driver) == TABLE2


def test_snapshot_high_threshold():
    driver = landmark_driver(TABLE1)
    assert token_family(driver, min_supp=6) == {tuple("c"): 6}


def test_snapshot_empty_store():
    index = InvertedIndex()
    assert snapshot(index, 1) == []
    assert snapshot(index, 99) == []


def test_snapshot_rejects_zero_threshold():
    with pytest.raises(ValueError):
        snapshot(InvertedIndex(), 0)


@pytest.mark.parametrize("min_supp", [1.5, True, "2"])
def test_snapshot_rejects_a_threshold_that_is_not_an_int(min_supp):
    # 1.5 used to emit at 2 and up, True at 1, and "2" failed inside a
    # comparison
    driver = landmark_driver(TABLE1)
    with pytest.raises(TypeError, match="min_supp must be an int"):
        driver.engine.snapshot(min_supp)
    with pytest.raises(TypeError, match="min_supp must be an int"):
        driver.snapshot(min_supp)


def test_snapshot_is_sorted_lexicographically():
    driver = landmark_driver(TABLE1)
    rows = driver.engine.snapshot()
    assert rows == sorted(rows)


def test_store_invariants_catch_drift():
    index, _ = build_table2_state()
    check_store_invariants(index)
    record_of(index, 16).size = 3  # lie about bc's size
    with pytest.raises(AssertionError):
        check_store_invariants(index)


def test_store_invariants_catch_an_empty_list():
    index, d = build_table2_state()
    index.lists[d.intern("z")] = {}
    with pytest.raises(AssertionError, match="is empty"):
        check_store_invariants(index)


def test_store_invariants_catch_a_misfiled_record():
    index, d = build_table2_state()
    check_store_invariants(index)
    rec = record_of(index, 16)  # bc, filed under bd instead
    del index.records[rec.itemset]
    index.records[(d.intern("b"), d.intern("d"))] = rec
    with pytest.raises(AssertionError, match="filed under"):
        check_store_invariants(index)


def test_store_invariants_catch_a_record_without_support():
    index, _ = build_table2_state()
    record_of(index, 16).support = 0
    with pytest.raises(AssertionError, match="has support 0"):
        check_store_invariants(index)


def test_materialize_returns_the_stored_tuple():
    index, _ = build_table2_state()
    rec = record_of(index, 16)
    assert materialize_itemset(index, rec) is rec.itemset


def test_store_invariants_catch_a_missing_list_entry():
    index, _ = build_table2_state()
    rec = record_of(index, 16)
    index.lists[rec.itemset[-1]].remove(rec)
    index.entry_count -= 1
    rec.size -= 1  # keep every count consistent: only membership is wrong
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(index)


def test_store_invariants_catch_an_extra_list_entry():
    index, d = build_table2_state()
    rec = record_of(index, 16)  # bc
    index.lists[d.intern("a")].append(rec)
    index.entry_count += 1
    rec.size += 1
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(index)


def test_store_invariants_catch_a_duplicated_list_entry():
    # a plain list can file a record twice, which a dict could not
    index, d = build_table2_state()
    rec = record_of(index, 16)  # bc
    index.lists[d.intern("c")].append(rec)
    index.entry_count += 1
    rec.size += 1  # keep every count consistent: only the duplicate is wrong
    with pytest.raises(AssertionError, match="files a CI twice"):
        check_store_invariants(index)


def test_store_invariants_catch_a_list_out_of_filing_order():
    # filing happens only at creation, so every list ascends by record id;
    # positional unfiling would rely on that order
    index, d = build_table2_state()
    lst = index.lists[d.intern("b")]  # abcdefgh, abcef, abc, abcd, bc, ...
    lst[2], lst[3] = lst[3], lst[2]
    with pytest.raises(AssertionError, match="files CI 14 after CI 15"):
        check_store_invariants(index)


def test_store_invariants_catch_an_altered_itemset():
    index, d = build_table2_state()
    rec = record_of(index, 16)  # bc
    del index.records[rec.itemset]
    rec.itemset = (d.intern("b"), d.intern("d"))
    index.records[rec.itemset] = rec  # filed under its new itemset: only the lists disagree
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(index)


def test_snapshot_reads_the_records_alone():
    index, d = build_table2_state()
    rows = snapshot(index, 5)
    assert [("".join(d.tokens[a] for a in items), s) for items, s in rows] == [
        ("bc", 5), ("c", 6), ("d", 5), ("f", 5), ("g", 5), ("h", 5)]
