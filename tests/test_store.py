"""Store, dictionary, inverted index and snapshot behavior."""

import pytest

from streamclose.store import (
    CIRecord,
    CIStore,
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
    """Hand-build the 22-CI store with the worked example's CI numbering."""
    rows = [
        ("abcdefgh", 1), ("abcef", 2), ("cf", 3), ("cdfgh", 2), ("f", 5),
        ("ef", 4), ("fgh", 3), ("efgh", 2), ("g", 5), ("fh", 4), ("efh", 3),
        ("c", 6), ("cd", 4), ("abc", 3), ("abcd", 2), ("bc", 5), ("bcd", 3),
        ("d", 5), ("h", 5), ("gh", 4), ("cgh", 3), ("bcgh", 2),
    ]
    d = ItemDictionary()
    for t in "abcdefgh":
        d.intern(t)
    store, index = CIStore(), InvertedIndex()
    for text, supp in rows:
        items = tuple(d.intern(t) for t in text)
        index.add(store.new_ci(supp, items))
    return store, index, d


def test_fresh_store_holds_no_records():
    store = CIStore()
    assert store.records == {}
    rec = store.new_ci(1, (0, 2))
    assert rec.id == 1 and rec.size == 2 and rec.itemset == (0, 2)
    assert store.records == {(0, 2): rec}


def test_materialize_table2_ci16():
    store, _, d = build_table2_state()
    items = materialize_itemset(store, record_of(store, 16))
    assert tuple(d.tokens[a] for a in items) == ("b", "c")


def test_materialize_singleton():
    store, _, d = build_table2_state()
    g = store.records[(d.intern("g"),)]
    assert g.size == 1
    assert materialize_itemset(store, g) == (d.intern("g"),)


def test_materialize_unknown_record():
    store, _, _ = build_table2_state()
    with pytest.raises(KeyError):
        materialize_itemset(store, CIRecord(999, 1, (0, 5)))


def test_materialize_after_removal_is_lookup_error():
    # evicting the newest transaction makes gh obsolete (its closure falls
    # back to fgh); its id must then be dead
    driver = landmark_driver(TABLE1)
    eng = driver.engine
    d = driver.dictionary
    gh = tuple(d.intern(t) for t in "gh")
    gh_rec = eng.store.records[gh]
    assert materialize_itemset(eng.store, gh_rec) == gh
    report = eng.shift_remove(9)
    assert gh_rec.id in {cid for cid, _ in report.obsolete}
    assert gh not in eng.store.records
    with pytest.raises(KeyError):
        materialize_itemset(eng.store, gh_rec)


def test_new_ci_refuses_a_live_itemset():
    store = CIStore()
    first = store.new_ci(1, (0, 1))
    with pytest.raises(AssertionError, match="already a live CI"):
        store.new_ci(2, (0, 1))
    assert store.records == {(0, 1): first} and store.next_id == 2


def test_materialize_refuses_a_removed_record_whose_itemset_is_live_again():
    # the store keys records by itemset, so a dead record must be told from
    # the live one that took its key
    store, index = CIStore(), InvertedIndex()
    old = store.new_ci(1, (0, 1))
    index.add(old)
    index.remove([old])
    store.remove(old)
    with pytest.raises(KeyError):
        materialize_itemset(store, old)
    with pytest.raises(KeyError):
        store.remove(old)
    new = store.new_ci(1, (0, 1))
    index.add(new)
    with pytest.raises(KeyError):
        materialize_itemset(store, old)
    with pytest.raises(KeyError):
        store.remove(old)
    assert store.records[(0, 1)] is new
    assert materialize_itemset(store, new) == (0, 1)


def test_index_removal_leaves_other_records():
    # the index does not consult the store, so two records may share items;
    # each is filed and unfiled under the items its own itemset names
    index = InvertedIndex()
    a = CIRecord(1, 1, (0, 1))
    b = CIRecord(2, 2, (0, 2))
    c = CIRecord(3, 1, (0, 1))
    index.add(a)
    index.add(b)
    index.add(c)
    assert index.entry_count == 6
    index.remove([a])
    assert index.lists == {0: [b, c], 1: [c], 2: [b]}
    assert index.entry_count == 4
    with pytest.raises(AssertionError, match="CI 1 missing"):
        index.remove([a])
    # a record naming an item that has no list
    with pytest.raises(AssertionError, match="of item 7"):
        index.remove([CIRecord(4, 1, (7,))])


def test_index_batch_removal_keeps_filing_order():
    # one call unfiles several records that share items: the survivors keep
    # the order they were filed in, which fixes routing order and so ids
    index = InvertedIndex()
    recs = [CIRecord(i, 1, items) for i, items in enumerate(
        [(0, 1), (0,), (0, 2), (1, 2), (0, 1, 2), (2,), (0, 3)], start=1)]
    for rec in recs:
        index.add(rec)
    assert index.entry_count == 13
    r1, r2, r3, r4, r5, r6, r7 = recs
    index.remove([r5, r1, r7])
    assert index.lists == {0: [r2, r3], 1: [r4], 2: [r3, r4, r6]}  # item 3 dropped
    assert index.entry_count == 13 - 7
    index.remove([r4, r2])
    assert index.lists == {0: [r3], 2: [r3, r6]}  # item 1 dropped
    assert index.entry_count == 3
    # a record missing from one of its lists, among records that are there
    with pytest.raises(AssertionError, match="CI 4 missing from inverted list of item 2"):
        index.remove([r6, r4])
    # a record naming an item that has no list, after one that is filed
    with pytest.raises(AssertionError, match="CI 8 missing from inverted list of item 3"):
        index.remove([r6, CIRecord(8, 1, (3,))])
    # a record filed twice in one list
    index.lists[0].append(r3)
    with pytest.raises(AssertionError, match="item 0 lost 2 entries, expected 1"):
        index.remove([r3])


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
    store = CIStore()
    assert snapshot(store, 1) == []
    assert snapshot(store, 99) == []


def test_snapshot_rejects_zero_threshold():
    with pytest.raises(ValueError):
        snapshot(CIStore(), 0)


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
    store, index, _ = build_table2_state()
    check_store_invariants(store, index)
    record_of(store, 16).size = 3  # lie about bc's size
    with pytest.raises(AssertionError):
        check_store_invariants(store, index)


def test_store_invariants_catch_an_empty_list():
    store, index, d = build_table2_state()
    index.lists[d.intern("z")] = {}
    with pytest.raises(AssertionError, match="is empty"):
        check_store_invariants(store, index)


def test_store_invariants_catch_a_misfiled_record():
    store, index, d = build_table2_state()
    check_store_invariants(store, index)
    rec = record_of(store, 16)  # bc, filed under bd instead
    del store.records[rec.itemset]
    store.records[(d.intern("b"), d.intern("d"))] = rec
    with pytest.raises(AssertionError, match="filed under"):
        check_store_invariants(store, index)


def test_store_invariants_catch_a_record_without_support():
    store, index, _ = build_table2_state()
    record_of(store, 16).support = 0
    with pytest.raises(AssertionError, match="has support 0"):
        check_store_invariants(store, index)


def test_materialize_returns_the_stored_tuple():
    store, _, _ = build_table2_state()
    rec = record_of(store, 16)
    assert materialize_itemset(store, rec) is rec.itemset


def test_store_invariants_catch_a_missing_list_entry():
    store, index, _ = build_table2_state()
    rec = record_of(store, 16)
    index.lists[rec.itemset[-1]].remove(rec)
    index.entry_count -= 1
    rec.size -= 1  # keep every count consistent: only membership is wrong
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(store, index)


def test_store_invariants_catch_an_extra_list_entry():
    store, index, d = build_table2_state()
    rec = record_of(store, 16)  # bc
    index.lists[d.intern("a")].append(rec)
    index.entry_count += 1
    rec.size += 1
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(store, index)


def test_store_invariants_catch_a_duplicated_list_entry():
    # a plain list can file a record twice, which a dict could not
    store, index, d = build_table2_state()
    rec = record_of(store, 16)  # bc
    index.lists[d.intern("c")].append(rec)
    index.entry_count += 1
    rec.size += 1  # keep every count consistent: only the duplicate is wrong
    with pytest.raises(AssertionError, match="files a CI twice"):
        check_store_invariants(store, index)


def test_store_invariants_catch_an_altered_itemset():
    store, index, d = build_table2_state()
    rec = record_of(store, 16)  # bc
    del store.records[rec.itemset]
    rec.itemset = (d.intern("b"), d.intern("d"))
    store.records[rec.itemset] = rec  # filed under its new itemset: only the lists disagree
    with pytest.raises(AssertionError, match="stored itemset"):
        check_store_invariants(store, index)


def test_snapshot_reads_the_records_alone():
    store, _, d = build_table2_state()
    rows = snapshot(store, 5)
    assert [("".join(d.tokens[a] for a in items), s) for items, s in rows] == [
        ("bc", 5), ("c", 6), ("d", 5), ("f", 5), ("g", 5), ("h", 5)]
