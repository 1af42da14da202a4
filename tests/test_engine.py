"""Shift engine behavior: golden shifts, step ops, categorization, removal."""

import itertools
import random

import pytest

from streamclose import MinerEngine, StreamDriver, WindowConfig, oracle
from streamclose.store import CIRecord, materialize_itemset
from streamclose.trie import DECREMENT, DETACHED, INCREMENT
from conftest import (
    TABLE1,
    TABLE2,
    TABLE3,
    expand_path,
    ids_family,
    landmark_driver,
    random_stream,
    step_shift,
    token_family,
    update_gen_dec,
    update_gen_inc,
    window_db,
)


def tokens_of(driver, items):
    return tuple(driver.dictionary.token(a) for a in items)


def promoted_tokens(driver, report):
    eng = driver.engine
    return {tokens_of(driver, materialize_itemset(eng.store, eng.index, cid))
            for cid in report.promoted}


# ---------------------------------------------------------------------------
# additions
# ---------------------------------------------------------------------------

def test_add_tenth_transaction_golden(table3_driver):
    driver = table3_driver
    _, report = driver.push(TABLE1[9])
    new = {(tokens_of(driver, items), supp) for _, items, supp in report.new_cis}
    assert new == {(tuple("bcgh"), 2), (tuple("cgh"), 3), (tuple("gh"), 4),
                   (tuple("h"), 5)}
    assert promoted_tokens(driver, report) == {tuple("bc"), tuple("c"), tuple("g")}
    assert token_family(driver) == TABLE2


def test_add_bootstrap_first_transaction():
    eng = MinerEngine()
    report = eng.shift_add(1, (0, 1, 2, 3, 4, 5, 6, 7))
    assert [(items, supp) for _, items, supp in report.new_cis] == \
        [((0, 1, 2, 3, 4, 5, 6, 7), 1)]
    assert report.promoted == []


def test_add_third_transaction_over_two():
    driver = landmark_driver(TABLE1[:2])
    assert token_family(driver) == {tuple("abcdefgh"): 1, tuple("abcef"): 2}
    _, report = driver.push(TABLE1[2])
    new = {(tokens_of(driver, items), supp) for _, items, supp in report.new_cis}
    assert new == {(tuple("cdfgh"), 2), (tuple("cf"), 3)}
    assert report.promoted == []


def test_add_duplicate_tid_rejected():
    eng = MinerEngine()
    eng.shift_add(5, (0, 1))
    with pytest.raises(ValueError):
        eng.shift_add(5, (2,))


def test_add_empty_itemset_is_noop():
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    before = ids_family(eng)
    report = eng.shift_add(2, ())
    assert report.new_cis == [] and report.promoted == []
    assert report.nodes_created == 0 and report.entries_scanned == 0
    assert ids_family(eng) == before
    assert 2 in eng.window_tids


def test_new_ci_support_is_closure_support_plus_one(table3_driver):
    driver = table3_driver
    db = window_db(driver.buffer)
    _, report = driver.push(TABLE1[9])
    # supports recorded before the shift: fgh:3 -> gh:4, fh:4 -> h:5
    fam = oracle.closed_itemsets(db)
    for _, items, supp in report.new_cis:
        assert supp == fam[oracle.closure(db, items)] + 1


# ---------------------------------------------------------------------------
# removals
# ---------------------------------------------------------------------------

def test_remove_first_transaction_demotes_everything(table2_driver):
    driver = table2_driver
    eng = driver.engine
    tid, items = driver.buffer.popleft()
    report = eng.shift_remove(tid, items)
    assert [tokens_of(driver, i) for _, i in report.obsolete] == [tuple("abcdefgh")]
    assert len(report.demoted) == 21
    want = {items: supp - 1 for items, supp in TABLE2.items()
            if items != tuple("abcdefgh")}
    assert token_family(driver) == want


def test_remove_second_transaction_golden(table2_driver):
    driver = table2_driver
    eng = driver.engine
    for _ in range(2):
        tid, items = driver.buffer.popleft()
        report = eng.shift_remove(tid, items)
    obsolete = {tokens_of(driver, i) for _, i in report.obsolete}
    assert obsolete == {tuple("abc"), tuple("cf"), tuple("ef"), tuple("abcef"),
                        tuple("f")}
    demoted = {tokens_of(driver, materialize_itemset(eng.store, eng.index, cid))
               for cid in report.demoted}
    assert demoted == {tuple("bc"), tuple("c")}
    assert ids_family(eng) == oracle.closed_itemsets(window_db(driver.buffer))
    # trace detail at the cf end node: its own record (support 2) on top,
    # the cdfgh record (support 1) as the certifying runner-up
    d = driver.dictionary
    node_cf = eng.trie.root.child(d.intern("c")).child(d.intern("f"))
    assert node_cf.refs > 0
    assert [r.support for r in node_cf.top] == [2]
    certifiers = [r for r in node_cf.runners if r.cursor is node_cf]
    assert len(certifiers) == 1 and certifiers[0].support == 1
    assert certifiers[0].size == 5  # cdfgh
    dump = eng.trie.dump()
    assert f"min={{{node_cf.top[0].id}}} gen={{{certifiers[0].id}}}" in dump


def test_remove_unknown_tid_rejected():
    eng = MinerEngine()
    eng.shift_add(1, (0,))
    with pytest.raises(ValueError):
        eng.shift_remove(2, (0,))


def test_add_rejected_order_leaves_state_unchanged():
    eng = MinerEngine()
    with pytest.raises(ValueError):
        eng.shift_add(1, [1, 3], item_order=[1, 4])
    assert eng.window_tids == set() and eng.store.shift == 0
    assert ids_family(eng) == {}
    eng.shift_add(1, [1, 3], item_order=[3, 1])
    assert ids_family(eng) == {frozenset({1, 3}): 1}
    eng.shift_remove(1, [1, 3])
    assert ids_family(eng) == {}
    eng.check_invariants()


def test_remove_rejected_order_leaves_state_unchanged():
    eng = MinerEngine()
    eng.shift_add(1, [1, 3])
    eng.shift_add(2, [1])
    before = ids_family(eng)
    with pytest.raises(ValueError):
        eng.shift_remove(1, [1, 3], item_order=[1, 4])
    assert eng.window_tids == {1, 2} and eng.store.shift == 2
    assert ids_family(eng) == before
    eng.shift_remove(1, [1, 3], item_order=[3, 1])
    assert ids_family(eng) == {frozenset({1}): 1}
    eng.check_invariants()


@pytest.mark.parametrize("kind", ["add", "remove"])
def test_failed_shift_poisons_the_engine(kind):
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    eng.shift_add(2, (1,))

    def broken(record, items):
        raise MemoryError("simulated")

    if kind == "add":
        eng.index.add = broken
        with pytest.raises(MemoryError):
            eng.shift_add(3, (0, 2))
    else:
        eng.shift_add(3, (2,))
        eng.index.remove = broken
        with pytest.raises(MemoryError):
            eng.shift_remove(1, (0, 1))
    assert isinstance(eng.failure, MemoryError)
    for call in (lambda: eng.shift_add(4, (5,)),
                 lambda: eng.shift_remove(2, (1,)),
                 lambda: eng.snapshot(1),
                 lambda: eng.closure_record((1,))):
        with pytest.raises(RuntimeError, match="failed part-way") as err:
            call()
        assert err.value.__cause__ is eng.failure


def test_rejections_do_not_poison():
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    for call in (lambda: eng.shift_add(1, (2,)),
                 lambda: eng.shift_add(2, (0, 1), item_order=(0, 2)),
                 lambda: eng.shift_remove(5, (0,)),
                 lambda: eng.shift_remove(1, (0, 1), item_order=(1,))):
        with pytest.raises(ValueError):
            call()
    assert eng.failure is None
    assert eng.closure_record((0,)).support == 1
    eng.shift_remove(1, (0, 1))
    assert eng.snapshot(1) == []


def test_remove_last_transaction_empties_family():
    eng = MinerEngine()
    eng.shift_add(1, (3, 4))
    eng.shift_remove(1, (3, 4))
    assert eng.snapshot(1) == []
    assert eng.store.live_count == 0
    eng.check_invariants()


def test_remove_duplicate_transaction_only_demotes():
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    eng.shift_add(2, (0, 1))
    report = eng.shift_remove(1, (0, 1))
    assert report.obsolete == []
    assert len(report.demoted) == 1
    assert ids_family(eng) == {frozenset((0, 1)): 1}


def abc_node(driver):
    d = driver.dictionary
    return driver.engine.trie.root.child(d.intern("a")).child(
        d.intern("b")).child(d.intern("c"))


def test_stale_runner_entry_does_not_certify(table2_driver):
    # when the second transaction leaves, the abcef record passes through
    # the abc end node on its way deeper, so abc's removal must be
    # certified by abcd, which ends there one support unit below abc
    shifted = []
    for driver, shift in ((table2_driver, None), (landmark_driver(TABLE1), step_shift)):
        eng = driver.engine
        tid, items = driver.buffer.popleft()
        eng.shift_remove(tid, items)
        abcef_rec = next(rec for cid, rec in eng.store.records.items()
                         if cid != 0 and rec.size == 5)
        tid, items = driver.buffer.popleft()
        if shift is None:
            report = eng.shift_remove(tid, items)
        else:
            report = shift(eng, tid, items, "remove")
        node_abc = abc_node(driver)
        above_end = []                      # abcef ends deeper, below abc
        n = abcef_rec.cursor.parent
        while n is not None:
            above_end.append(n)
            n = n.parent
        assert any(n is node_abc for n in above_end)
        certifier = next(r for r in node_abc.runners if r.cursor is node_abc)
        assert certifier.size == 4             # abcd, support one below abc
        assert tuple("abc") in {tokens_of(driver, i) for _, i in report.obsolete}
        shifted.append((node_abc, abcef_rec))
    # routing settles runners only from CIs ending on the node
    node_abc, abcef_rec = shifted[0]
    assert abcef_rec not in node_abc.runners
    assert all(r.cursor is node_abc for r in node_abc.runners)
    # the per-entry reference form leaves abcef behind, but it does not certify
    node_abc, abcef_rec = shifted[1]
    assert abcef_rec in node_abc.runners


def test_remove_shrinks_inverted_lists(table2_driver):
    driver = table2_driver
    eng = driver.engine
    d = driver.dictionary
    g, h = d.intern("g"), d.intern("h")
    len_g = len(eng.index.lists[g])
    len_h = len(eng.index.lists[h])
    tid, items = driver.buffer.pop()  # evict the newest transaction (bcgh)
    report = eng.shift_remove(tid, items)
    obsolete = {tokens_of(driver, i) for _, i in report.obsolete}
    assert obsolete == {tuple("h"), tuple("gh"), tuple("cgh"), tuple("bcgh")}
    # gh's removal takes one entry from each of g and h; the other obsolete
    # CIs account for the rest
    assert len(eng.index.lists[g]) == len_g - 3   # g lost gh, cgh, bcgh
    assert len(eng.index.lists[h]) == len_h - 4   # h lost h, gh, cgh, bcgh
    assert token_family(driver) == TABLE3
    eng.check_invariants()


def test_remove_size_one_ci_touches_one_list():
    eng = MinerEngine()
    eng.shift_add(1, (0,))
    eng.shift_add(2, (0, 1))
    # family: {0}:2, {0,1}:1 ; removing tid 2 obsoletes {0,1}
    report = eng.shift_remove(2, (0, 1))
    assert [i for _, i in report.obsolete] == [(0, 1)]
    assert ids_family(eng) == {frozenset((0,)): 1}


# ---------------------------------------------------------------------------
# single-step ops
# ---------------------------------------------------------------------------

def test_expand_path_walks_bc(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    b, c = d.intern("b"), d.intern("c")
    bc = next(rec for cid, rec in eng.store.records.items()
              if cid != 0 and rec.size == 2
              and materialize_itemset(eng.store, eng.index, cid) == (b, c))
    eng.store.advance_shift()
    eng.trie.reset(INCREMENT)
    for a in (b, c):
        expand_path(eng, eng.store.universe, a)
        for rec in list(eng.index.lists.get(a, ())):
            expand_path(eng, rec, a)
        if a == b:
            node_b = eng.trie.root.child(b)
            assert bc.cursor is node_b
            refs_after_b = node_b.refs
    node_bc = node_b.child(c)
    assert bc.cursor is node_bc
    assert node_b.refs < refs_after_b  # departures decremented the counter


def in_current_trie(eng, node) -> bool:
    return any(n is node for n in eng.trie.nodes)


def test_untouched_ci_keeps_stale_cursor(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d_rec = next(rec for cid, rec in eng.store.records.items()
                 if cid != 0 and rec.size == 1
                 and materialize_itemset(eng.store, eng.index, cid)
                 == (driver.dictionary.intern("d"),))
    cursor = d_rec.cursor
    driver.push(TABLE1[9])  # bcgh shares nothing with {d}
    assert d_rec.cursor is cursor
    assert not in_current_trie(eng, d_rec.cursor)
    assert d_rec.cursor.children is None  # severed by the trie reset


def test_bootstrap_record_walks_full_path(table3_driver):
    driver = table3_driver
    eng = driver.engine
    driver.push(TABLE1[9])
    ci0 = eng.store.universe
    assert in_current_trie(eng, ci0.cursor)
    assert ci0.cursor.depth == 4
    assert tokens_of(driver, ci0.cursor.itemset()) == tuple("bcgh")
    assert ci0.cursor.refs >= 1


def test_new_record_cursor_is_detached():
    eng = MinerEngine()
    report = eng.shift_add(1, (0, 1))
    rec = eng.store.records[report.new_cis[0][0]]
    assert rec.cursor is DETACHED and DETACHED.children is None
    assert not in_current_trie(eng, rec.cursor)


def test_update_gen_inc_cases():
    eng = MinerEngine()
    trie = eng.trie.reset(INCREMENT)
    n = trie.add_child(trie.root, 9)
    c1 = CIRecord(1, 3, 2)
    update_gen_inc(c1, n)
    assert n.top == [c1] and n.top_supp == 3
    c2 = CIRecord(2, 5, 2)
    update_gen_inc(c2, n)
    assert n.top == [c2] and n.top_supp == 5
    c3 = CIRecord(3, 5, 1)
    update_gen_inc(c3, n)  # ties do not displace
    assert n.top == [c2]


def test_update_gen_inc_tracks_class_closure(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    driver.push(TABLE1[9])
    node_h = eng.trie.root.child(d.intern("h"))
    top = node_h.top[0]
    # the class closure of {h} before the shift was fh at support 4, and fh
    # is not contained in bcgh, so its support is untouched
    assert top.support == 4
    assert materialize_itemset(eng.store, eng.index, top.id) == \
        tuple(d.intern(t) for t in "fh")


def test_update_gen_dec_four_cases():
    eng = MinerEngine()
    trie = eng.trie.reset(DECREMENT)
    n = trie.add_child(trie.root, 9)
    c_first = CIRecord(1, 2, 2)
    update_gen_dec(c_first, n)  # sentinel forces the flush branch
    assert n.top == [c_first] and n.runners == [] and n.top_supp == 2
    c_low = CIRecord(2, 1, 3)
    update_gen_dec(c_low, n)    # one below: joins runners
    assert n.runners == [c_low]
    c_tie = CIRecord(3, 2, 4)
    update_gen_dec(c_tie, n)    # tie: joins top
    assert n.top == [c_first, c_tie]
    c_up = CIRecord(4, 3, 1)
    update_gen_dec(c_up, n)     # one above: old top becomes the runners
    assert n.top == [c_up] and n.runners == [c_first, c_tie] and n.top_supp == 3
    c_far = CIRecord(5, 1, 5)
    update_gen_dec(c_far, n)    # two or more below: ignored
    assert n.runners == [c_first, c_tie]
    c_flush = CIRecord(6, 5, 1)
    update_gen_dec(c_flush, n)  # two or more above: flush both
    assert n.top == [c_flush] and n.runners == [] and n.top_supp == 5


def test_update_cis_inc_examples(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    _, report = driver.push(TABLE1[9])
    trie = eng.trie
    node_bc = trie.root.child(d.intern("b")).child(d.intern("c"))
    assert node_bc.depth == node_bc.top[0].size == 2  # promoted
    assert node_bc.top[0].support == 5
    node_h = trie.root.child(d.intern("h"))
    assert node_h.depth == 1 and node_h.top[0].size == 2  # new from fh
    new_from_h = next(supp for _, items, supp in report.new_cis
                      if tokens_of(driver, items) == ("h",))
    assert new_from_h == 5


def test_step_ops_equal_fast_loops():
    rng = random.Random(99)
    for _ in range(40):
        alpha = rng.randint(3, 10)
        stream = random_stream(rng, alpha, rng.randint(3, 18), max_len=6)
        fast, slow = MinerEngine(), MinerEngine()
        live = []
        for tid, items in enumerate(stream):
            if live and rng.random() < 0.35:
                otid, oitems = live.pop(0)
                r1 = fast.shift_remove(otid, oitems)
                r2 = step_shift(slow, otid, oitems, "remove")
                assert sorted(i for _, i in r1.obsolete) == \
                    sorted(i for _, i in r2.obsolete)
                assert len(r1.demoted) == len(r2.demoted)
                assert r1.entries_scanned == r2.entries_scanned
                assert r1.nodes_created == r2.nodes_created
                assert fast.snapshot(1) == slow.snapshot(1)
            r1 = fast.shift_add(tid, items)
            r2 = step_shift(slow, tid, items, "add")
            live.append((tid, items))
            assert sorted((i, s) for _, i, s in r1.new_cis) == \
                sorted((i, s) for _, i, s in r2.new_cis)
            assert len(r1.promoted) == len(r2.promoted)
            assert r1.entries_scanned == r2.entries_scanned
            assert r1.nodes_created == r2.nodes_created
            assert fast.snapshot(1) == slow.snapshot(1)


def test_sliding_routing_work_is_pinned():
    # exact totals of a seeded sliding replay; a change to how routing or
    # categorization works must move none of them
    driver = StreamDriver(WindowConfig(capacity=30, mode="sliding"))
    totals = dict.fromkeys(
        ("entries", "nodes", "new", "promoted", "obsolete", "demoted"), 0)
    for items in random_stream(random.Random(2024), 14, 400, max_len=9):
        for rep in driver.push_ids(items):
            if rep is None:
                continue
            totals["entries"] += rep.entries_scanned
            totals["nodes"] += rep.nodes_created
            totals["new"] += len(rep.new_cis)
            totals["promoted"] += len(rep.promoted)
            totals["obsolete"] += len(rep.obsolete)
            totals["demoted"] += len(rep.demoted)
    assert totals == {"entries": 223739, "nodes": 29029, "new": 4487,
                      "promoted": 7205, "obsolete": 4241, "demoted": 7138}
    assert driver.live_cis == 246
    assert driver.engine.index.entry_count == 802
    assert ids_family(driver.engine) == oracle.closed_itemsets(window_db(driver.buffer))


def test_report_counters_match_list_lengths(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    expected = len(TABLE1[9])  # one bootstrap entry per item
    for t in set(TABLE1[9]):
        expected += eng.index.scan_length(d.intern(t))
    _, report = driver.push(TABLE1[9])
    assert report.entries_scanned == expected
    assert report.nodes_created == 11


# ---------------------------------------------------------------------------
# closure queries
# ---------------------------------------------------------------------------

# Item 0's list holds three CIs, all supersets of {0, 1}, at supports 1, 2
# and 3; item 2's list holds two supersets of {0, 1, 2} at supports 1 and 2.
NESTED = [(0, 1, 2, 3), (0, 1, 2), (0, 1), (1, 4), (1, 5), (1, 4, 5), (1,)]


@pytest.mark.parametrize("stream", [NESTED, NESTED[::-1]])
@pytest.mark.parametrize("query", [(0, 1), (0, 1, 2), (1, 4), (0, 1, 2, 3)])
def test_closure_picks_max_support_superset_in_any_order(stream, query):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, t)
    db = {tid: frozenset(t) for tid, t in enumerate(stream)}
    shortest = min((eng.index.lists[a] for a in query), key=len)
    if len(query) < 4:
        assert len({rec.support for rec in shortest}) >= 2
    want = oracle.closure(db, query)
    for order in itertools.permutations(query):
        rec = eng.closure_record(order)
        assert rec.support == len(oracle.support_tids(db, query))
        assert frozenset(materialize_itemset(eng.store, eng.index, rec.id)) == want


def test_closure_of_fully_evicted_item_is_none():
    driver = StreamDriver(WindowConfig(capacity=2, mode="sliding"))
    for t in [("a", "b"), ("c",), ("c",)]:
        driver.push(t)
    eng = driver.engine
    a, b, c = (driver.dictionary.intern(tok) for tok in "abc")
    assert eng.index.lists[a] == {} and eng.index.lists[b] == {}
    assert eng.closure_record([a]) is None
    assert eng.closure_record([a, b]) is None
    assert eng.closure_record([c, a]) is None
    assert eng.closure_record([c]).support == 2


def test_closure_query_normalization():
    eng = MinerEngine()
    for tid, t in enumerate(NESTED):
        eng.shift_add(tid, t)
    want = eng.closure_record([0, 1])
    assert want.support == 3
    assert eng.closure_record([1, 0, 1, 0]) is want
    assert eng.closure_record(iter([1, 0])) is want
    assert eng.closure_record([99]) is None
    assert eng.closure_record([0, 99]) is None
    assert eng.closure_record([]) is None
