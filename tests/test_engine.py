"""Shift engine behavior: golden shifts, step ops, categorization, removal."""

import itertools
import random
from collections import defaultdict

import pytest

from streamclose import MinerEngine, StreamDriver, oracle
from streamclose.store import CIRecord, materialize_itemset
from streamclose.trie import SUPPORT_FLOOR
from conftest import (
    TABLE1,
    TABLE2,
    TABLE3,
    PassThrough,
    add_child,
    all_detached,
    bootstrap_record,
    check_store_invariants,
    child,
    dump,
    end_nodes,
    enders,
    expand_path,
    ids_family,
    landmark_driver,
    random_stream,
    record_of,
    scan_length,
    step_shift,
    token_family,
    update_gen_dec,
    update_gen_inc,
    window_db,
)


def tokens_of(driver, items):
    return tuple(driver.dictionary.tokens[a] for a in items)


def promoted_tokens(driver, report):
    eng = driver.engine
    return {tokens_of(driver, materialize_itemset(
        eng.index, record_of(eng.index, cid)))
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
    assert eng.window == {1: (0, 1), 2: ()}


def test_new_ci_support_is_closure_support_plus_one(table3_driver):
    driver = table3_driver
    db = window_db(driver.engine.window.items())
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
    report = eng.shift_remove(0)
    assert [tokens_of(driver, i) for _, i in report.obsolete] == [tuple("abcdefgh")]
    assert len(report.demoted) == 21
    want = {items: supp - 1 for items, supp in TABLE2.items()
            if items != tuple("abcdefgh")}
    assert token_family(driver) == want


def test_remove_second_transaction_golden(table2_driver):
    driver = table2_driver
    eng = driver.engine
    for tid in range(2):
        items = eng.window[tid]
        report = eng.shift_remove(tid)
    obsolete = {tokens_of(driver, i) for _, i in report.obsolete}
    assert obsolete == {tuple("abc"), tuple("cf"), tuple("ef"), tuple("abcef"),
                        tuple("f")}
    demoted = {tokens_of(driver, materialize_itemset(
        eng.index, record_of(eng.index, cid)))
               for cid in report.demoted}
    assert demoted == {tuple("bc"), tuple("c")}
    assert ids_family(eng) == oracle.closed_itemsets(window_db(eng.window.items()))
    # trace detail at the cf end node: its own record (support 2) on top,
    # the cdfgh record (support 1) as the certifying runner-up ending there
    d = driver.dictionary
    trie = eng.trie
    node_cf = child(trie, child(trie, trie.root, d.intern("c")), d.intern("f"))
    assert node_cf.top is not None and node_cf.top.support == node_cf.top_supp == 2
    assert all_detached(eng.index.records.values())
    certifiers = enders(trie, eng.index.records.values(), items)[node_cf]
    assert len(certifiers) == 1 and certifiers[0].support == node_cf.next_supp == 1
    assert certifiers[0].size == 5  # cdfgh
    assert f"top={node_cf.top.id} supp=2 next=1" in dump(eng.trie)


def test_remove_unknown_tid_rejected():
    eng = MinerEngine()
    eng.shift_add(1, (0,))
    with pytest.raises(ValueError):
        eng.shift_remove(2)


def test_removal_takes_out_only_what_was_added():
    # the removal used to take its itemset from the caller, so naming tid 1
    # with (0,) was accepted and left {0, 1} at support 1 in a window that
    # holds only (0,)
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    eng.shift_add(2, (0,))
    eng.shift_remove(1)
    assert eng.window == {2: (0,)}
    assert ids_family(eng) == oracle.closed_itemsets(window_db(eng.window.items()))
    assert eng.snapshot(1) == [((0,), 1)]


def test_add_rejected_order_leaves_state_unchanged():
    eng = MinerEngine()
    root = eng.trie.root  # a shift that ran would have reset the trie
    with pytest.raises(ValueError):
        eng.shift_add(1, [1, 3], item_order=[1, 4])
    assert eng.window == {} and eng.trie.root is root
    assert ids_family(eng) == {}
    eng.shift_add(1, [1, 3], item_order=[3, 1])
    assert ids_family(eng) == {frozenset({1, 3}): 1}
    eng.shift_remove(1)
    assert ids_family(eng) == {}
    check_store_invariants(eng.index)


def test_remove_rejected_order_leaves_state_unchanged():
    # the window records the normalized itemset, and a removal's order is
    # checked against it
    eng = MinerEngine()
    eng.shift_add(1, iter([3, 1, 3]))
    eng.shift_add(2, [1])
    before = ids_family(eng)
    root = eng.trie.root  # a shift that ran would have reset the trie
    with pytest.raises(ValueError):
        eng.shift_remove(1, item_order=[1, 4])
    assert eng.window == {1: (1, 3), 2: (1,)} and eng.trie.root is root
    assert ids_family(eng) == before
    eng.shift_remove(1, item_order=[3, 1])
    assert ids_family(eng) == {frozenset({1}): 1}
    check_store_invariants(eng.index)


@pytest.mark.parametrize("kind", ["add", "remove"])
def test_failed_shift_poisons_the_engine(kind):
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    eng.shift_add(2, (1,))

    def broken(*args):
        raise MemoryError("simulated")

    if kind == "add":
        eng.index.add = broken
        with pytest.raises(MemoryError):
            eng.shift_add(3, (0, 2))
    else:
        eng.shift_add(3, (2,))
        eng.index.remove = broken
        with pytest.raises(MemoryError):
            eng.shift_remove(1)
    assert isinstance(eng.failure, MemoryError)
    # the window changes only once a shift is done, so a poisoned engine
    # still holds the window its state can be rebuilt from
    assert eng.window == ({1: (0, 1), 2: (1,)} if kind == "add"
                          else {1: (0, 1), 2: (1,), 3: (2,)})
    for call in (lambda: eng.shift_add(4, (5,)),
                 lambda: eng.shift_remove(2),
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
                 lambda: eng.shift_remove(5),
                 lambda: eng.shift_remove(1, item_order=(1,))):
        with pytest.raises(ValueError):
            call()
    assert eng.failure is None
    assert eng.closure_record((0,)).support == 1
    eng.shift_remove(1)
    assert eng.snapshot(1) == []


def test_remove_last_transaction_empties_family():
    eng = MinerEngine()
    eng.shift_add(1, (3, 4))
    eng.shift_remove(1)
    assert eng.snapshot(1) == []
    assert len(eng.index.records) == 0
    check_store_invariants(eng.index)


def test_remove_duplicate_transaction_only_demotes():
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    eng.shift_add(2, (0, 1))
    report = eng.shift_remove(1)
    assert report.obsolete == []
    assert len(report.demoted) == 1
    assert ids_family(eng) == {frozenset((0, 1)): 1}


def abc_node(driver):
    d = driver.dictionary
    trie = driver.engine.trie
    node_a = child(trie, trie.root, d.intern("a"))
    return child(trie, child(trie, node_a, d.intern("b")), d.intern("c"))


def test_stale_runner_entry_does_not_certify(table2_driver):
    # when the second transaction leaves, the abcef record passes through
    # the abc end node on its way deeper, so abc's removal must be
    # certified by abcd, which ends there one support unit below abc
    table = defaultdict(PassThrough)
    shifted = []
    for driver, shift in ((table2_driver, None), (landmark_driver(TABLE1), step_shift)):
        eng = driver.engine
        eng.shift_remove(0)
        abcef_rec = next(rec for rec in eng.index.records.values() if rec.size == 5)
        items = eng.window[1]
        if shift is None:
            report = eng.shift_remove(1)
        else:
            report = shift(eng, "remove", 1, table=table)
        assert all_detached(eng.index.records.values()) and abcef_rec.cursor is None
        node_abc = abc_node(driver)
        above_end = []                      # abcef ends deeper, below abc
        (n,) = enders(eng.trie, [abcef_rec], items)
        n = n.parent
        while n is not None:
            above_end.append(n)
            n = n.parent
        assert any(n is node_abc for n in above_end)
        abc_enders = enders(eng.trie, eng.index.records.values(), items)[node_abc]
        assert [r.size for r in abc_enders] == [4]  # abcd, support one below abc
        assert abc_enders[0].support == node_abc.next_supp == node_abc.top_supp - 1
        assert tuple("abc") in {tokens_of(driver, i) for _, i in report.obsolete}
        shifted.append((eng.trie, node_abc, abcef_rec, items))
    # the per-entry reference form leaves abcef among abc's runners, but the
    # cursor test keeps it from certifying
    trie, node_abc, abcef_rec, items = shifted[1]
    runners = table[node_abc].runners
    runner_ends = enders(trie, runners, items)
    assert abcef_rec in runners and abcef_rec not in runner_ends.get(node_abc, ())
    assert [r.size for r in runner_ends.get(node_abc, ())] == [4]


def test_remove_shrinks_inverted_lists(table2_driver):
    driver = table2_driver
    eng = driver.engine
    d = driver.dictionary
    g, h = d.intern("g"), d.intern("h")
    len_g = len(eng.index.lists[g])
    len_h = len(eng.index.lists[h])
    report = eng.shift_remove(9)  # evict the newest transaction (bcgh)
    obsolete = {tokens_of(driver, i) for _, i in report.obsolete}
    assert obsolete == {tuple("h"), tuple("gh"), tuple("cgh"), tuple("bcgh")}
    # gh's removal takes one entry from each of g and h; the other obsolete
    # CIs account for the rest
    assert len(eng.index.lists[g]) == len_g - 3   # g lost gh, cgh, bcgh
    assert len(eng.index.lists[h]) == len_h - 4   # h lost h, gh, cgh, bcgh
    assert token_family(driver) == TABLE3
    check_store_invariants(eng.index)


def test_remove_size_one_ci_touches_one_list():
    eng = MinerEngine()
    eng.shift_add(1, (0,))
    eng.shift_add(2, (0, 1))
    # family: {0}:2, {0,1}:1 ; removing tid 2 obsoletes {0,1}
    report = eng.shift_remove(2)
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
    bc = eng.index.records[(b, c)]
    assert materialize_itemset(eng.index, bc) == (b, c)
    eng.trie.reset()
    table = defaultdict(PassThrough)
    ci0 = bootstrap_record()
    for a in (b, c):
        expand_path(eng, table, ci0, a, "add")
        for rec in list(eng.index.lists.get(a, ())):
            expand_path(eng, table, rec, a, "add")
        if a == b:
            node_b = child(eng.trie, eng.trie.root, b)
            assert bc.cursor is node_b
            refs_after_b = table[node_b].refs
    node_bc = child(eng.trie, node_b, c)
    assert bc.cursor is node_bc
    assert table[node_b].refs < refs_after_b  # departures decremented the counter


def grows_from_its_root(trie) -> bool:
    """Whether the root is the first node and every other node's parent is a node."""
    nodes = trie.nodes
    members = set(nodes)
    return (nodes[0] is trie.root and trie.root.parent is None
            and all(n.parent in members for n in nodes[1:]))


def test_every_cursor_rests_on_detached_between_shifts(table3_driver):
    # the settle loop puts each routed cursor back, so no cursor keeps a
    # finished trie alive; a CI the shift does not touch is never moved
    driver = table3_driver
    eng = driver.engine
    d = (driver.dictionary.intern("d"),)
    d_rec = eng.index.records[d]
    assert materialize_itemset(eng.index, d_rec) == d
    assert all_detached(eng.index.records.values())
    old_nodes = list(eng.trie.nodes)
    before = list(eng.index.records.values())
    driver.push(TABLE1[9])  # bcgh shares nothing with {d}
    routed = enders(eng.trie, before, eng.window[9])
    assert sum(map(len, routed.values())) > 1
    assert d_rec not in [r for group in routed.values() for r in group]
    assert all_detached(eng.index.records.values()) and all_detached(before)
    assert grows_from_its_root(eng.trie)  # no node grew from a resting cursor
    assert all(n.child is None for n in old_nodes)  # child links cut by the reset
    # a removal puts its cursors back too
    eng.shift_remove(0)
    assert all_detached(before)


def test_own_path_is_laid_first_and_ends_on_an_end_node(table3_driver):
    driver = table3_driver
    eng = driver.engine
    driver.push(TABLE1[9])
    # root, then t's own path, before any CI is routed
    own = eng.trie.nodes[4]
    assert [n.depth for n in eng.trie.nodes[:5]] == [0, 1, 2, 3, 4]
    assert tokens_of(driver, own.itemset()) == tuple("bcgh")
    assert own in end_nodes(eng.trie)
    # abcdefgh ends on bcgh over the node's starting support 0
    assert tokens_of(driver, own.top.itemset) == tuple("abcdefgh")
    assert own.top_supp == 1 and own.next_supp == 0
    assert eng.index.records[own.itemset()].support == 2


def test_own_node_without_a_containing_transaction_has_no_top():
    eng = MinerEngine()
    eng.shift_add(1, (0, 1, 2))
    report = eng.shift_add(2, (1, 3))
    own = eng.trie.nodes[2]
    assert own.itemset() == (1, 3)
    # no earlier transaction contains 13, so no CI ends on its node, which
    # is still an end node at support 0 and yields a CI at support 1
    assert own.top is None and own.top_supp == 0
    assert own in end_nodes(eng.trie)
    assert sorted((i, s) for _, i, s in report.new_cis) == [((1,), 2), ((1, 3), 1)]
    assert ids_family(eng) == {frozenset((0, 1, 2)): 1, frozenset((1, 3)): 1,
                               frozenset((1,)): 2}


def test_new_record_cursor_is_detached():
    eng = MinerEngine()
    report = eng.shift_add(1, (0, 1))
    ci_id, itemset, _ = report.new_cis[0]
    rec = eng.index.records[itemset]
    assert rec.id == ci_id
    assert rec.cursor is None
    # the next shift routes it from the root and sets it back to None
    eng.shift_add(2, (0, 1, 2))
    assert rec.cursor is None and rec.support == 2
    assert grows_from_its_root(eng.trie)


def test_update_gen_inc_cases():
    n = PassThrough()
    c1 = CIRecord(1, 3, (0, 1))
    update_gen_inc(c1, n)
    assert n.top == [c1] and n.top_supp == 3
    c2 = CIRecord(2, 5, (0, 2))
    update_gen_inc(c2, n)
    assert n.top == [c2] and n.top_supp == 5
    c3 = CIRecord(3, 5, (0,))
    update_gen_inc(c3, n)  # ties do not displace
    assert n.top == [c2]


def test_update_gen_inc_tracks_class_closure(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    driver.push(TABLE1[9])
    node_h = child(eng.trie, eng.trie.root, d.intern("h"))
    top = node_h.top
    # the class closure of {h} before the shift was fh at support 4, and fh
    # is not contained in bcgh, so its support is untouched
    assert top.support == 4
    assert materialize_itemset(eng.index, top) == \
        tuple(d.intern(t) for t in "fh")


def test_update_gen_dec_four_cases():
    n = PassThrough()
    c_first = CIRecord(1, 2, (0, 1))
    update_gen_dec(c_first, n)  # sentinel forces the flush branch
    assert n.top == [c_first] and n.runners == [] and n.top_supp == 2
    c_low = CIRecord(2, 1, (0, 1, 2))
    update_gen_dec(c_low, n)    # one below: joins runners
    assert n.runners == [c_low]
    c_tie = CIRecord(3, 2, (0, 1, 2, 3))
    update_gen_dec(c_tie, n)    # tie: joins top
    assert n.top == [c_first, c_tie]
    c_up = CIRecord(4, 3, (1,))
    update_gen_dec(c_up, n)     # one above: old top becomes the runners
    assert n.top == [c_up] and n.runners == [c_first, c_tie] and n.top_supp == 3
    c_far = CIRecord(5, 1, (0, 1, 2, 3, 4))
    update_gen_dec(c_far, n)    # two or more below: ignored
    assert n.runners == [c_first, c_tie]
    c_flush = CIRecord(6, 5, (2,))
    update_gen_dec(c_flush, n)  # two or more above: flush both
    assert n.top == [c_flush] and n.runners == [] and n.top_supp == 5


@pytest.mark.parametrize("fault", ["tie", "no-top", "depth"])
def test_removal_refuses_an_inconsistent_end_node(fault):
    # the categorization's own consistency checks: a top tied by another CI
    # ending on its node, an end node (t's own) that no CI ends on, and an
    # obsolete CI whose node path is shorter than its itemset
    eng = MinerEngine()
    eng.shift_add(1, (0, 1))
    rec = eng.index.records[(0, 1)]
    eng.trie.reset()
    node_0 = add_child(eng.trie, eng.trie.root, 0)
    n = add_child(eng.trie, node_0, 1)
    n.top, n.top_supp = rec, rec.support
    if fault == "tie":
        n.next_supp, match = rec.support, "lone top"
    elif fault == "no-top":
        n.top, n.top_supp, match = None, 0, "has no CI"
    else:
        n.top, n.top_supp = None, SUPPORT_FLOOR
        node_0.top, node_0.top_supp, node_0.next_supp = rec, 1, 0
        match = "path length"
    with pytest.raises(AssertionError, match=match):
        eng.update_cis_dec(1)


def test_update_cis_inc_examples(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    _, report = driver.push(TABLE1[9])
    trie = eng.trie
    node_bc = child(trie, child(trie, trie.root, d.intern("b")), d.intern("c"))
    assert node_bc.depth == node_bc.top.size == 2  # promoted
    assert node_bc.top.support == 5
    node_h = child(trie, trie.root, d.intern("h"))
    assert node_h.depth == 1 and node_h.top.size == 2  # new from fh
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
                otid = live.pop(0)
                r1 = fast.shift_remove(otid)
                r2 = step_shift(slow, "remove", otid)
                assert sorted(i for _, i in r1.obsolete) == \
                    sorted(i for _, i in r2.obsolete)
                assert len(r1.demoted) == len(r2.demoted)
                assert r1.entries_scanned == r2.entries_scanned
                assert r1.nodes_created == r2.nodes_created
                assert fast.snapshot(1) == slow.snapshot(1)
            r1 = fast.shift_add(tid, items)
            r2 = step_shift(slow, "add", tid, items)
            live.append(tid)
            assert sorted((i, s) for _, i, s in r1.new_cis) == \
                sorted((i, s) for _, i, s in r2.new_cis)
            assert len(r1.promoted) == len(r2.promoted)
            assert r1.entries_scanned == r2.entries_scanned
            assert r1.nodes_created == r2.nodes_created
            assert fast.snapshot(1) == slow.snapshot(1)


def test_sliding_routing_work_is_pinned():
    # exact totals of a seeded sliding replay; a change to how routing or
    # categorization works must move none of them
    driver = StreamDriver(capacity=30, mode="sliding")
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
    assert ids_family(driver.engine) == oracle.closed_itemsets(
        window_db(driver.engine.window.items()))


def test_stored_itemsets_match_the_referee_after_evictions():
    # every live record's own itemset must be a closure of the window with
    # the record's support, through a stream that makes CIs obsolete
    driver = StreamDriver(capacity=20, mode="sliding")
    obsolete = 0
    for items in random_stream(random.Random(4242), 12, 250, max_len=7):
        for rep in driver.push_ids(items):
            if rep is not None:
                obsolete += len(rep.obsolete)
    assert obsolete > 0
    db = window_db(driver.engine.window.items())
    live = list(driver.engine.index.records.values())
    for rec in live:
        assert oracle.closure(db, rec.itemset) == frozenset(rec.itemset)
        assert rec.support == len(oracle.support_tids(db, rec.itemset))
    assert {frozenset(rec.itemset) for rec in live} == set(oracle.closed_itemsets(db))


def test_report_counters_match_list_lengths(table3_driver):
    driver = table3_driver
    eng = driver.engine
    d = driver.dictionary
    expected = len(TABLE1[9])  # one step per item along t's own path
    for t in set(TABLE1[9]):
        expected += scan_length(eng.index, d.intern(t))
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
        assert frozenset(materialize_itemset(eng.index, rec)) == want


def test_closure_of_fully_evicted_item_is_none():
    driver = StreamDriver(capacity=2, mode="sliding")
    for t in [("a", "b"), ("c",), ("c",)]:
        driver.push(t)
    eng = driver.engine
    a, b, c = (driver.dictionary.intern(tok) for tok in "abc")
    assert not eng.index.lists.get(a) and not eng.index.lists.get(b)
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


def test_closure_probe_and_scan_agree_with_the_referee():
    # every 1-3 item subset of every window transaction, at several points
    # of a sliding stream with evictions: the closure and its support must
    # be the referee's whether the key probe or the list scan answers
    driver = StreamDriver(capacity=25, mode="sliding")
    eng = driver.engine
    probed = scanned = obsolete = 0
    for n, items in enumerate(random_stream(random.Random(9090), 10, 200, max_len=6), 1):
        removed, _ = driver.push_ids(items)
        if removed is not None:
            obsolete += len(removed.obsolete)
        if n % 20:
            continue
        db = window_db(eng.window.items())
        queries = {q for t in db.values() for k in (1, 2, 3)
                   for q in itertools.combinations(sorted(t), k)}
        for q in sorted(queries):
            if q in eng.index.records:
                probed += 1
            else:
                scanned += 1
            rec = eng.closure_record(q[::-1])
            assert frozenset(rec.itemset) == oracle.closure(db, q)
            assert rec.support == len(oracle.support_tids(db, q))
        alphabet = sorted(set().union(*db.values()))
        for q in itertools.combinations(alphabet, 2):
            if not oracle.support_tids(db, q):
                assert eng.closure_record(q) is None
    assert obsolete > 0
    assert probed > 0 and scanned > 0, (probed, scanned)


def test_closure_of_a_live_ci_is_its_own_record():
    driver = StreamDriver(capacity=15, mode="sliding")
    for items in random_stream(random.Random(77), 9, 120, max_len=6):
        driver.push_ids(items)
    eng = driver.engine
    assert len(eng.index.records) > 20
    for itemset, rec in eng.index.records.items():
        assert eng.closure_record(itemset) is rec
        assert eng.closure_record(reversed(itemset)) is rec


def skewed_stream(rng, n_items, length):
    # item i is drawn with probability 0.03 to 0.70, rising with i, so a rare
    # item's short list meets frequent items' long lists in one query
    probs = [0.03 + 0.67 * i / (n_items - 1) for i in range(n_items)]
    out = []
    while len(out) < length:
        t = tuple(i for i in range(n_items) if rng.random() < probs[i])
        if t:
            out.append(t)
    return out


@pytest.mark.parametrize("mode", ["sliding", "landmark"])
def test_non_closed_queries_agree_with_the_referee(mode):
    # every non-closed query of 1-3 window items, on states whose list
    # lengths within one query range from alike to far apart, so the
    # shortest-list scan must be right whether its pivot list is about as
    # long as the others or far shorter
    if mode == "sliding":
        driver = StreamDriver(capacity=50, mode="sliding")
        stream, checkpoints = skewed_stream(random.Random(2024), 16, 200), {80, 120, 160, 200}
    else:
        driver = StreamDriver(mode="landmark")
        stream, checkpoints = skewed_stream(random.Random(2025), 16, 80), {40, 80}
    eng = driver.engine
    ratios = []
    for n, items in enumerate(stream, 1):
        driver.push_ids(items)
        if n not in checkpoints:
            continue
        db = window_db(eng.window.items())
        alphabet = sorted(set().union(*db.values()))
        for k in (1, 2, 3):
            for q in itertools.combinations(alphabet, k):
                if q in eng.index.records:
                    continue
                rec = eng.closure_record(q[::-1])
                tids = oracle.support_tids(db, q)
                if not tids:
                    assert rec is None, q
                    continue
                assert frozenset(rec.itemset) == oracle.closure(db, q), q
                assert rec.support == len(tids), q
                lens = [len(eng.index.lists[a]) for a in q]
                ratios.append((sum(lens) - min(lens)) / min(lens))
    # other lists' entries over the shortest list's, per answered query
    assert sum(r < 2 for r in ratios) >= 10, ratios
    assert sum(r >= 20 for r in ratios) >= 10, ratios
