"""Window driver: eviction sequencing, landmark mode, replay determinism."""

import random
import sys
import tracemalloc

import pytest

from streamclose import StreamDriver, oracle, replay, window
import categories
from conftest import TABLE1, TABLE2, ids_family, random_stream, window_db


def test_config_validation():
    with pytest.raises(ValueError, match="^unknown window mode 'bogus'$"):
        StreamDriver(mode="bogus")
    sliding = "^sliding mode needs a capacity of at least 1$"
    with pytest.raises(ValueError, match=sliding):
        StreamDriver(mode="sliding")           # no capacity
    with pytest.raises(ValueError, match=sliding):
        StreamDriver(capacity=0, mode="sliding")
    StreamDriver(mode="landmark")              # capacity optional here


def test_the_driver_takes_its_window_as_keywords():
    driver = StreamDriver(capacity=3)
    assert (driver.capacity, driver.mode) == (3, "sliding")
    assert not hasattr(driver, "config")
    with pytest.raises(TypeError):
        StreamDriver(3)


@pytest.mark.parametrize("mode", ["sliding", "landmark"])
@pytest.mark.parametrize("capacity", [2.5, 3.0, True, False, "3"])
def test_config_rejects_a_capacity_that_is_not_an_int(capacity, mode):
    # 2.5 used to keep 3 transactions, True kept 1, and "3" failed inside a
    # comparison
    with pytest.raises(TypeError, match="capacity must be an int"):
        StreamDriver(capacity=capacity, mode=mode)


@pytest.mark.parametrize("kwargs", [
    {"capacity": 2.5}, {"mode": "bogus"}, {"mode": "sliding"}, {"capacity": 0},
])
def test_a_refused_window_builds_nothing(monkeypatch, kwargs):
    built = []
    monkeypatch.setattr(window, "ItemDictionary", lambda: built.append("dictionary"))
    monkeypatch.setattr(window, "MinerEngine", lambda: built.append("engine"))
    with pytest.raises((TypeError, ValueError)):
        StreamDriver(**kwargs)
    assert built == []


def test_push_at_capacity_removes_then_adds():
    driver = StreamDriver(capacity=9, mode="sliding")
    for t in TABLE1[:9]:
        removed, _ = driver.push(t)
        assert removed is None
    removed, added = driver.push(TABLE1[9])
    assert removed is not None and removed.kind == "remove" and removed.tid == 0
    assert added.kind == "add" and added.tid == 9
    assert sorted(driver.engine.window) == list(range(1, 10))
    want = oracle.closed_itemsets(window_db(driver.engine.window.items()))
    assert ids_family(driver.engine) == want


def test_window_of_one():
    driver = StreamDriver(capacity=1, mode="sliding")
    driver.push(("s", "t"))
    removed, added = driver.push(("u",))
    assert removed is not None
    assert driver.snapshot() == [(("u",), 1)]


def test_landmark_never_removes():
    driver = StreamDriver(mode="landmark")
    for t in TABLE1 + TABLE1:
        removed, _ = driver.push(tuple(set(t)))
        assert removed is None
        assert driver.evict() is None
    assert sorted(driver.engine.window) == list(range(20))


def test_replay_full_window_matches_golden(tmp_path):
    driver = StreamDriver(capacity=10, mode="sliding")
    records = list(replay([tuple(sorted({driver.dictionary.intern(t) for t in row}))
                           for row in TABLE1], driver))
    assert len(records) == 10
    assert {items: s for items, s in driver.snapshot()} == TABLE2
    assert records[-1].live_cis == 22
    assert all(r.op == "add" for r in records)  # never reached capacity


def test_replay_window_nine_matches_oracle():
    driver = StreamDriver(capacity=9, mode="sliding")
    source = [tuple(sorted({driver.dictionary.intern(t) for t in row}))
              for row in TABLE1]
    records = list(replay(source, driver))
    assert records[-1].op == "shift"
    assert records[-1].obsolete + records[-1].demoted > 0
    want = oracle.closed_itemsets(window_db(driver.engine.window.items()))
    assert ids_family(driver.engine) == want


def test_replay_empty_input():
    driver = StreamDriver(capacity=4, mode="sliding")
    assert list(replay([], driver)) == []


def test_replay_series_deterministic():
    rng = random.Random(5)
    stream = random_stream(rng, 9, 120, max_len=6)

    def run():
        driver = StreamDriver(capacity=7, mode="sliding")
        return [(r.shift, r.tid, r.op, r.new, r.promoted, r.obsolete,
                 r.demoted, r.live_cis, r.trie_nodes, r.entries_scanned)
                for r in replay(stream, driver)]

    assert run() == run()


def test_empty_baskets_occupy_slots():
    driver = StreamDriver(capacity=2, mode="sliding")
    driver.push(("a", "b"))
    driver.push(())           # empty basket
    driver.push(("c",))       # evicts ("a","b")
    assert driver.snapshot() == [(("c",), 1)]
    assert driver.engine.window == {1: (), 2: (driver.dictionary.intern("c"),)}


def test_rejected_push_leaves_driver_unchanged():
    driver = StreamDriver(capacity=2, mode="sliding")
    driver.push_ids((0, 1))
    driver.push_ids((1, 2))
    eng = driver.engine

    def state():
        return driver.next_tid, dict(eng.window), ids_family(eng)

    # evict the newest transaction behind the driver's back; the next push
    # finds room, and the one after computes tid 1 as the oldest, which is
    # gone: the engine refuses that eviction, so the push changes nothing
    eng.shift_remove(1)
    removed, _ = driver.push_ids((2, 3))
    assert removed is None and eng.window == {0: (0, 1), 2: (2, 3)}
    before = state()
    with pytest.raises(ValueError, match="tid 1 is not in the window"):
        driver.push_ids((3, 4))
    assert state() == before
    # evicting the oldest behind its back just leaves room
    eng.shift_remove(0)
    removed, _ = driver.push_ids((3, 4))
    assert removed is None and eng.window == {2: (2, 3), 3: (3, 4)}

    # occupy the next tid: the addition would be refused, so nothing is evicted
    eng.shift_add(driver.next_tid, (9,))
    before = state()
    with pytest.raises(ValueError):
        driver.push_ids((4, 5))
    assert state() == before
    eng.shift_remove(driver.next_tid)

    removed, _ = driver.push_ids((4, 5))
    assert removed.tid == 2 and sorted(eng.window) == [3, 4]
    assert ids_family(eng) == oracle.closed_itemsets(window_db(eng.window.items()))


def test_evict_refuses_a_window_written_outside_the_driver():
    # an addition made straight on the engine breaks the driver's count of
    # its oldest tid (next_tid - len(window) is -1 here); evict must say
    # so, not name that tid as missing, and change nothing
    driver = StreamDriver(capacity=2, mode="sliding")
    driver.push_ids((0, 1))
    driver.push_ids((1, 2))
    eng = driver.engine
    eng.shift_add(100, (5,))
    before = driver.next_tid, dict(eng.window), ids_family(eng), eng.index.next_id
    for call in (driver.evict, lambda: driver.push_ids((3,))):
        with pytest.raises(ValueError, match="changed outside this driver"):
            call()
        assert (driver.next_tid, dict(eng.window), ids_family(eng),
                eng.index.next_id) == before
        assert eng.failure is None
    # taking the stray transaction back out lets the driver go on
    eng.shift_remove(100)
    removed, added = driver.push_ids((3,))
    assert removed.tid == 0 and added.tid == 2 and sorted(eng.window) == [1, 2]
    assert ids_family(eng) == oracle.closed_itemsets(window_db(eng.window.items()))


def test_push_stats_wiring():
    driver = StreamDriver(capacity=3, mode="sliding")
    stream = [(0, 1, 2), (1, 2), (0, 2, 3), (2, 3)]
    records = list(replay(stream, driver))
    last = records[-1]
    assert last.op == "shift" and last.tid == 3
    assert last.live_cis == driver.live_cis
    assert last.wall_ns >= 0


def test_evict_keeps_the_entry_the_engine_refuses():
    driver = StreamDriver(capacity=2, mode="sliding")
    driver.push_ids((0, 1))
    driver.push_ids((1, 2))
    eng = driver.engine
    # evict the newest transaction behind the driver's back, then refill:
    # the driver's oldest tid, 1, is gone, so the engine refuses the
    # eviction, and the window the engine keeps must stay as it was
    eng.shift_remove(1)
    driver.push_ids((2, 3))
    before = driver.next_tid, dict(eng.window), ids_family(eng)
    with pytest.raises(ValueError):
        driver.evict()
    assert (driver.next_tid, dict(eng.window), ids_family(eng)) == before
    eng.shift_remove(0)                       # the oldest: this leaves room

    assert driver.evict() is None             # below capacity now
    removed, added = driver.push_ids((3, 4))  # room left: nothing evicted
    assert removed is None and added.tid == 3
    removed = driver.evict()
    assert removed.kind == "remove" and removed.tid == 2
    assert eng.window == {3: (3, 4)}
    assert ids_family(eng) == oracle.closed_itemsets(window_db(eng.window.items()))


def test_snapshot_translates_known_ids_and_passes_the_rest_through():
    # a row whose ids all have tokens is translated whole; a row holding an
    # id from push_ids that was never interned, below 0 or past the
    # dictionary, keeps that id as it is and translates the others
    driver = StreamDriver(mode="landmark")
    driver.push(["a", "b", "c"])
    driver.push_ids((1, 7))
    driver.push_ids((-3, 0, 2))
    assert driver.snapshot() == [
        ((-3, "a", "c"), 1), (("a", "b", "c"), 1), (("a", "c"), 2),
        (("b",), 2), (("b", 7), 1)]


def test_an_emission_peaks_at_its_output():
    # the id rows are translated in place, so an emission never holds the
    # id row list beside the token row list: its traced peak is the bytes
    # the returned rows hold (the list, each row and each token tuple)
    rng = random.Random(11)
    patterns = [rng.sample(range(60), 6) for _ in range(25)]
    driver = StreamDriver(mode="landmark")
    for _ in range(120):
        basket = {a for p in rng.sample(patterns, 2) for a in p}
        driver.push([f"tok{a}" for a in basket | set(rng.sample(range(60), 3))])
    assert driver.live_cis >= 2000
    driver.snapshot()  # warm up
    tracemalloc.start()
    try:
        rows = driver.snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sys.getsizeof(row[0]) for row in rows)
    assert len(rows) == driver.live_cis
    assert peak <= 1.1 * held, (peak, held)


def test_sliding_lists_are_bounded_by_the_window():
    # a drifting vocabulary churns the inverted lists: every item enters,
    # fills its list and leaves. The lists' bytes must follow the window's
    # entries, not the peak each list once reached, and a list must go
    # with the last window transaction holding its item.
    driver = StreamDriver(capacity=40, mode="sliding")
    engine = driver.engine
    index = engine.index
    rng = random.Random(5)
    for i in range(1, 3001):
        first = i // 25
        driver.push_ids(rng.sample(range(first, first + 14), rng.randint(3, 8)))
        if i % 100 == 0:
            held = sum(sys.getsizeof(lst) for lst in index.lists.values())
            # a 56 B list header, 8 B per entry and CPython's over-allocation
            # fit within 104 B per list plus 10 B per entry
            assert held <= 104 * len(index.lists) + 10 * index.entry_count, (i, held)
            in_window = {a for items in engine.window.values() for a in items}
            assert len(index.lists) <= len(in_window), i


@pytest.mark.parametrize("bad", [["x", 2.5], ["x", True], ["x", ""], ["x", None], "xa", b"xa"],
                         ids=["2.5", "True", "", "None", "str", "bytes"])
def test_rejected_push_interns_no_token(bad):
    # "x" comes before the bad token, so checking while interning used to
    # leave "x" in the dictionary after the push was refused; a bare string
    # used to be split into characters and mined, bytes into ints
    driver = StreamDriver(capacity=2, mode="sliding")
    driver.push(["a", "b"])
    driver.push(["b", "c"])

    def state():
        return (list(driver.dictionary.tokens), driver.next_tid,
                dict(driver.engine.window), driver.snapshot())

    before = state()
    with pytest.raises((TypeError, ValueError)):
        driver.push(bad)
    assert state() == before
    driver.push(["x"])
    assert driver.dictionary.tokens == ["a", "b", "c", "x"]


def test_replay_rows_match_the_referee_classes():
    # every stats row of a seeded sliding replay, refereed: the addition's
    # counts are the sizes of classify_add's classes on the window the
    # addition saw, the eviction's those of classify_remove, live_cis the
    # referee family's size, and op says whether the push evicted
    capacity = 12
    stream = random_stream(random.Random(77), 10, 160, max_len=6)
    stream[40:160:23] = [()] * len(stream[40:160:23])  # some empty baskets
    driver = StreamDriver(capacity=capacity, mode="sliding")
    db = {}
    totals = dict.fromkeys(("new", "promoted", "obsolete", "demoted", "shift"), 0)
    for items, row in zip(stream, replay(stream, driver)):
        evicts = len(db) == capacity
        assert row.op == ("shift" if evicts else "add")
        if evicts:
            old_tid = min(db)
            gone = categories.classify_remove(db, old_tid)
            assert (row.obsolete, row.demoted) == (len(gone.obsolete), len(gone.demoted))
            del db[old_tid]
        else:
            assert row.obsolete == row.demoted == 0
        came = categories.classify_add(db, items)
        assert (row.new, row.promoted) == (len(came.new), len(came.promoted))
        db[row.tid] = frozenset(items)
        assert db == window_db(driver.engine.window.items())
        assert row.live_cis == len(oracle.closed_itemsets(db))
        for k in ("new", "promoted", "obsolete", "demoted"):
            totals[k] += getattr(row, k)
        totals["shift"] += evicts
    assert all(totals.values()), totals
