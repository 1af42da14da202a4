"""Property tests tying the miner to the referee on randomized streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from streamclose import MinerEngine, StreamDriver, WindowConfig, oracle
from streamclose.store import materialize_itemset
from streamclose.trie import SUPPORT_FLOOR
import categories
from conftest import (
    all_detached,
    check_store_invariants,
    end_nodes,
    enders,
    ids_family,
    scan_length,
    window_db,
)

transactions = st.lists(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=6),
    min_size=1, max_size=20,
)


def drive(stream, capacity):
    """Replay and return the driver, checking nothing."""
    driver = StreamDriver(WindowConfig(capacity=capacity, mode="sliding"))
    for t in stream:
        driver.push_ids(tuple(sorted(t)))
    return driver


@given(transactions, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_family_matches_referee_after_every_push(stream, capacity):
    driver = StreamDriver(WindowConfig(capacity=capacity, mode="sliding"))
    window = driver.engine.window
    for t in stream:
        driver.push_ids(tuple(sorted(t)))
        want = oracle.closed_itemsets(window_db(window.items()))
        assert ids_family(driver.engine) == want
        # an item keeps an inverted list only while a window transaction holds it
        assert set(driver.engine.index.lists) == {a for items in window.values() for a in items}
    check_store_invariants(driver.engine.store, driver.engine.index)


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=6), max_size=30),
       st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_window_holds_the_last_pushes(stream, capacity):
    # the engine's window is the only record of the window's contents: after
    # every push it holds the newest pushes, consecutive tids, at most
    # capacity of them, each with the itemset pushed under its tid
    driver = StreamDriver(WindowConfig(capacity=capacity, mode="sliding"))
    window = driver.engine.window
    for t in stream:
        driver.push_ids(t)
        assert len(window) <= capacity
        assert sorted(window) == list(range(driver.next_tid - len(window), driver.next_tid))
        assert len(window) == min(driver.next_tid, capacity)
        assert {tid: frozenset(items) for tid, items in window.items()} == {
            tid: stream[tid] for tid in window}


@given(transactions, st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_supports_recomputed_by_referee(stream, capacity):
    driver = drive(stream, capacity)
    db = window_db(driver.engine.window.items())
    eng = driver.engine
    for items, supp in eng.snapshot(1):
        assert supp == len(oracle.support_tids(db, items))
        assert oracle.closure(db, items) == frozenset(items)


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_round_trip_restores_records(stream, extra):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    before = {rec.id: (rec.itemset, rec.support, rec.size)
              for rec in eng.store.records.values()}
    snap = eng.snapshot(1)
    eng.shift_add(10_000, tuple(sorted(extra)))
    eng.shift_remove(10_000)
    after = {rec.id: (rec.itemset, rec.support, rec.size)
             for rec in eng.store.records.values()}
    assert before == after
    assert snap == eng.snapshot(1)
    check_store_invariants(eng.store, eng.index)


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_report_sizes_partition_the_work_set(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    delta = categories.intersections(db, t_new)
    report = eng.shift_add(10_000, tuple(sorted(t_new)))
    assert len(report.new_cis) + len(report.promoted) == len(delta)
    # and dually for the removal
    db[10_000] = t_new
    delta_rm = categories.intersections({k: v for k, v in db.items()}, t_new)
    report_rm = eng.shift_remove(10_000)
    assert len(report_rm.obsolete) + len(report_rm.demoted) == len(delta_rm)


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_end_nodes_spell_the_work_set(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    before = list(eng.store.records.values())
    eng.shift_add(10_000, tuple(sorted(t_new)))
    got = {frozenset(n.itemset()) for n in end_nodes(eng.trie)}
    assert got == categories.intersections(db, t_new)
    # every path stays inside the shifted transaction
    non_root = [n for n in eng.trie.nodes if n.parent is not None]
    assert all(frozenset(n.itemset()) <= t_new for n in non_root)
    # every cursor is back at None, and the nodes spelling c & t for
    # the CIs c the shift routed, with t's own node, are the end nodes
    assert all_detached(eng.store.records.values())
    routed_ends = {id(n) for n in enders(eng.trie, before, t_new)}
    routed_ends.add(id(eng.trie.nodes[len(t_new)]))
    assert routed_ends == {id(n) for n in end_nodes(eng.trie)}


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_end_node_top_is_the_class_closure(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    eng.shift_add(10_000, tuple(sorted(t_new)))
    for n in end_nodes(eng.trie):
        path = frozenset(n.itemset())
        top = n.top
        if not oracle.support_tids(db, path):
            # only t's own node reaches here, at its starting support
            assert path == t_new
            assert top is None and n.top_supp == 0
            continue
        got = frozenset(materialize_itemset(eng.store, top))
        assert got == oracle.closure(db, path)


@given(transactions, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_end_node_keeps_its_top_and_the_next_best_support(stream, capacity):
    # for both shift kinds: at every end node the top ends there with
    # top_supp, next_supp stays below it, and next_supp is the best
    # pre-shift support among the other records ending there and t's own
    # node's starting 0
    eng = MinerEngine()
    window = []
    for tid, t in enumerate(stream):
        shifts = []
        if len(window) >= capacity:
            shifts.append(("remove", *window.pop(0)))
        items = tuple(sorted(t))
        shifts.append(("add", tid, items))
        window.append((tid, items))
        for kind, stid, sitems in shifts:
            before = [(rec, rec.support) for rec in eng.store.records.values()]
            if kind == "add":
                eng.shift_add(stid, sitems)
            else:
                eng.shift_remove(stid)
            assert all_detached(rec for rec, _ in before)
            supp_of = dict(before)
            groups = enders(eng.trie, supp_of, sitems)
            own = eng.trie.nodes[len(sitems)]
            ends = end_nodes(eng.trie)
            assert {id(n) for n in ends} == {id(n) for n in groups} | {id(own)}
            for n in ends:
                mine = [(rec, supp_of[rec]) for rec in groups.get(n, [])]
                if n.top is None:
                    assert n is own and mine == []
                    assert n.top_supp == 0 and n.next_supp == SUPPORT_FLOOR
                    continue
                tops = [supp for rec, supp in mine if rec is n.top]
                assert tops == [n.top_supp]
                others = [supp for rec, supp in mine if rec is not n.top]
                if n is own:
                    others.append(0)
                assert n.next_supp < n.top_supp
                assert n.next_supp == max(others, default=SUPPORT_FLOOR)
        assert dict(window) == eng.window


def test_work_bound_and_entry_formula():
    rng = random.Random(4242)
    for _ in range(30):
        alpha = rng.randint(4, 12)
        capacity = rng.randint(1, 20)
        eng = MinerEngine()
        window = []
        k_m = 0
        for tid in range(rng.randint(20, 60)):
            items = tuple(sorted(rng.sample(range(alpha),
                                            rng.randint(1, min(8, alpha)))))
            k_m = max(k_m, len(items))
            l_m = len(eng.store.records)
            expected_entries = len(items) + sum(
                scan_length(eng.index, a) for a in items)
            if len(window) >= capacity:
                otid, oitems = window.pop(0)
                exp_rm = len(oitems) + sum(scan_length(eng.index, a) for a in oitems)
                rep = eng.shift_remove(otid)
                assert rep.entries_scanned == exp_rm
                assert rep.nodes_created <= rep.entries_scanned + 1
                l_m = len(eng.store.records)
                expected_entries = len(items) + sum(
                    scan_length(eng.index, a) for a in items)
            rep = eng.shift_add(tid, items)
            window.append((tid, items))
            assert dict(window) == eng.window
            assert rep.entries_scanned == expected_entries
            assert rep.nodes_created <= k_m * l_m + len(items) + 1
            assert rep.nodes_created <= rep.entries_scanned + 1


@given(transactions)
@settings(max_examples=40, deadline=None)
def test_item_order_independence(stream):
    fwd, rev = MinerEngine(), MinerEngine()
    for tid, t in enumerate(stream):
        items = tuple(sorted(t))
        fwd.shift_add(tid, items)
        rev.shift_add(tid, items, item_order=tuple(reversed(items)))
        assert fwd.snapshot(1) == rev.snapshot(1)
    items = tuple(sorted(stream[0]))
    r1 = fwd.shift_remove(0)
    r2 = rev.shift_remove(0, item_order=tuple(reversed(items)))
    assert fwd.snapshot(1) == rev.snapshot(1)
    assert sorted(i for _, i in r1.obsolete) == sorted(i for _, i in r2.obsolete)


def test_landmark_equals_sliding_with_huge_window():
    rng = random.Random(7)
    stream = [tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
              for _ in range(40)]
    landmark = StreamDriver(WindowConfig(mode="landmark"))
    sliding = StreamDriver(WindowConfig(capacity=1000, mode="sliding"))
    for t in stream:
        landmark.push_ids(t)
        sliding.push_ids(t)
    assert landmark.engine.snapshot() == sliding.engine.snapshot()
