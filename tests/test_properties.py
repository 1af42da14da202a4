"""Property tests tying the miner to the referee on randomized streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from streamclose import MinerEngine, StreamDriver, WindowConfig, oracle
from streamclose.store import materialize_itemset
from conftest import ids_family, window_db

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
    for t in stream:
        driver.push_ids(tuple(sorted(t)))
        want = oracle.closed_itemsets(window_db(driver.buffer))
        assert ids_family(driver.engine) == want
    driver.engine.check_invariants()


@given(transactions, st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_supports_recomputed_by_referee(stream, capacity):
    driver = drive(stream, capacity)
    db = window_db(driver.buffer)
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
    before = {cid: (rec.support, rec.size) for cid, rec in eng.store.records.items()}
    snap = eng.snapshot(1)
    eng.shift_add(10_000, tuple(sorted(extra)))
    eng.shift_remove(10_000, tuple(sorted(extra)))
    after = {cid: (rec.support, rec.size) for cid, rec in eng.store.records.items()}
    assert before == after
    assert snap == eng.snapshot(1)
    eng.check_invariants()


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_report_sizes_partition_the_work_set(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    delta = oracle.intersections(db, t_new)
    report = eng.shift_add(10_000, tuple(sorted(t_new)))
    assert len(report.new_cis) + len(report.promoted) == len(delta)
    # and dually for the removal
    db[10_000] = t_new
    delta_rm = oracle.intersections({k: v for k, v in db.items()}, t_new)
    report_rm = eng.shift_remove(10_000, tuple(sorted(t_new)))
    assert len(report_rm.obsolete) + len(report_rm.demoted) == len(delta_rm)


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_end_nodes_spell_the_work_set(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    eng.shift_add(10_000, tuple(sorted(t_new)))
    got = {frozenset(n.itemset()) for n in eng.trie.end_nodes()}
    assert got == oracle.intersections(db, t_new)
    # non-root counters never end negative, sum to the routed CI count, and
    # every path stays inside the shifted transaction
    non_root = [n for n in eng.trie.nodes if n.parent is not None]
    assert all(n.refs >= 0 for n in non_root)
    assert all(frozenset(n.itemset()) <= t_new for n in non_root)
    # a CI was routed this shift exactly when its cursor is a node of the
    # current trie
    in_trie = {id(n) for n in eng.trie.nodes}
    routed = sum(1 for rec in eng.store.records.values()
                 if id(rec.cursor) in in_trie)
    assert sum(n.refs for n in non_root) == routed


@given(transactions, st.frozensets(st.integers(0, 9), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_end_node_top_is_the_class_closure(stream, t_new):
    eng = MinerEngine()
    for tid, t in enumerate(stream):
        eng.shift_add(tid, tuple(sorted(t)))
    db = {tid: t for tid, t in enumerate(stream)}
    eng.shift_add(10_000, tuple(sorted(t_new)))
    for n in eng.trie.end_nodes():
        path = frozenset(n.itemset())
        top = n.top[0]
        if not oracle.support_tids(db, path):
            assert top.id == 0  # only the bootstrap class reaches here
            continue
        assert top.id != 0
        got = frozenset(materialize_itemset(eng.store, eng.index, top.id))
        assert got == oracle.closure(db, path)


def test_work_bound_and_entry_formula():
    rng = random.Random(4242)
    for _ in range(30):
        alpha = rng.randint(4, 12)
        capacity = rng.randint(1, 20)
        driver = StreamDriver(WindowConfig(capacity=capacity, mode="sliding"))
        eng = driver.engine
        k_m = 0
        for _ in range(rng.randint(20, 60)):
            items = tuple(sorted(rng.sample(range(alpha),
                                            rng.randint(1, min(8, alpha)))))
            k_m = max(k_m, len(items))
            l_m = eng.store.live_count
            expected_entries = len(items) + sum(
                eng.index.scan_length(a) for a in items)
            if len(driver.buffer) >= capacity:
                otid, oitems = driver.buffer.popleft()
                exp_rm = len(oitems) + sum(eng.index.scan_length(a) for a in oitems)
                rep = eng.shift_remove(otid, oitems)
                assert rep.entries_scanned == exp_rm
                assert rep.nodes_created <= rep.entries_scanned + 1
                l_m = eng.store.live_count
                expected_entries = len(items) + sum(
                    eng.index.scan_length(a) for a in items)
            rep = driver.engine.shift_add(driver.next_tid, items)
            driver.buffer.append((driver.next_tid, items))
            driver.next_tid += 1
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
    r1 = fwd.shift_remove(0, items)
    r2 = rev.shift_remove(0, items, item_order=tuple(reversed(items)))
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
    assert landmark.snapshot_ids() == sliding.snapshot_ids()
