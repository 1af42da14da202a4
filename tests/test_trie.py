"""Intersection-trie structure and lifecycle."""

import gc
import random

import pytest

from streamclose import StreamDriver
from streamclose.trie import SUPPORT_FLOOR, Trie
import categories
from conftest import TABLE1, add_child, child, dump, end_nodes, landmark_driver, random_stream

D19 = {n + 1: frozenset(t) for n, t in enumerate(TABLE1[:9])}


def test_fresh_trie_has_only_root():
    t = Trie()
    assert len(t.nodes) == 1
    assert end_nodes(t) == []
    assert t.root.depth == 0 and t.root.parent is None


def test_reset_drops_every_node():
    t = Trie()
    old_root = t.root
    n = add_child(t, t.root, 3)
    add_child(t, n, 5)
    t.reset()
    assert len(t.nodes) == 1
    assert t.root is not old_root
    assert old_root.child is None and n.child is None  # child links cut


def test_finished_tries_need_no_cyclic_collection():
    # every shift's trie must be freed by reference counting alone
    driver = StreamDriver(capacity=50, mode="sliding")
    stream = random_stream(random.Random(7), 20, 300, 8)
    gc.collect()
    gc.disable()
    try:
        for items in stream:
            driver.push_ids(items)
        assert len(driver.engine.index.records) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_child_slot_holds_the_newest_child():
    # routing visits t's items in one order, so a node's one child slot
    # holds its last-created child, and that child's item
    driver = StreamDriver(capacity=30, mode="sliding")
    branching = 0
    for items in random_stream(random.Random(2025), 14, 400, max_len=9):
        driver.push_ids(items)
        trie = driver.engine.trie
        newest = {}
        for n in trie.nodes[1:]:
            branching += n.parent in newest
            newest[n.parent] = n
        for n in trie.nodes:
            want = newest.get(n)
            assert n.child is want
            assert n.child_item == (None if want is None else want.item)
    assert branching > 0


def test_child_lookup_roundtrip():
    t = Trie()
    assert child(t, t.root, 6) is None
    n = add_child(t, t.root, 1)
    assert child(t, t.root, 1) is n
    assert n.depth == 1
    assert n.top is None and n.top_supp == n.next_supp == SUPPORT_FLOOR


def test_duplicate_child_is_invariant_violation():
    t = Trie()
    add_child(t, t.root, 1)
    with pytest.raises(AssertionError):
        add_child(t, t.root, 1)


def test_two_children_both_addressable():
    t = Trie()
    b = add_child(t, t.root, 1)
    c = add_child(t, t.root, 2)
    assert child(t, t.root, 1) is b and child(t, t.root, 2) is c
    # siblings keep their creation order; the slot names the newest
    assert [n for n in t.nodes if n.parent is t.root] == [b, c]
    assert t.root.child is c and t.root.child_item == 2


def test_itemset_along_path():
    t = Trie()
    b = add_child(t, t.root, 1)
    c = add_child(t, b, 2)
    assert c.itemset() == (1, 2)
    assert b.itemset() == (1,)
    with pytest.raises(ValueError):
        t.root.itemset()


def test_golden_trie_after_tenth_transaction():
    # the work set for adding the tenth transaction has 7 member itemsets,
    # whose distinct nonempty prefixes give 10 nodes below the root
    driver = landmark_driver(TABLE1)
    trie = driver.engine.trie
    d = driver.dictionary
    delta = categories.intersections(D19, frozenset("bcgh"))
    prefixes = set()
    for x in delta:
        seq = sorted(x)
        for k in range(1, len(seq) + 1):
            prefixes.add(tuple(seq[:k]))
    assert len(trie.nodes) == len(prefixes) + 1 == 11
    ends = end_nodes(trie)
    assert len(ends) == len(delta) == 7
    got = {tuple(d.tokens[a] for a in n.itemset()) for n in ends}
    assert got == {tuple(x) for x in ("bcgh", "cgh", "bc", "gh", "c", "g", "h")}


def test_golden_bc_path_lookup():
    # after the tenth insert, the bc path exists: root -> b -> c at depth 2
    driver = landmark_driver(TABLE1)
    trie = driver.engine.trie
    d = driver.dictionary
    node_b = child(trie, trie.root, d.intern("b"))
    node_bc = child(trie, node_b, d.intern("c"))
    assert node_bc.depth == 2
    assert tuple(d.tokens[a] for a in node_bc.itemset()) == ("b", "c")
    # deepest end node spells the whole transaction
    deepest = max(end_nodes(trie), key=lambda n: n.depth)
    assert tuple(d.tokens[a] for a in deepest.itemset()) == tuple("bcgh")
    assert deepest.depth == 4


def test_end_nodes_after_second_removal():
    driver = landmark_driver(TABLE1)
    eng = driver.engine
    eng.shift_remove(0)
    eng.shift_remove(1)
    d = driver.dictionary
    got = {"".join(d.tokens[a] for a in n.itemset()) for n in end_nodes(eng.trie)}
    assert got == {"abc", "cf", "ef", "bc", "c", "abcef", "f"}


def test_dump_shape():
    driver = landmark_driver(TABLE1[:2])
    lines = dump(driver.engine.trie).splitlines()
    assert lines[0].startswith("0 - ")
    assert len(lines) == len(driver.engine.trie.nodes)
    for line in lines:
        assert " top=" in line and " supp=" in line and " next=" in line
