"""Shared fixtures: the worked example dataset, golden families, helpers.

The trie and index helpers here (child lookup, child creation, end nodes,
the debug dump, grouping CIs by end node, list lengths), the
store-invariant check and the per-entry reference routing serve only the
tests, so they live here rather than in the library.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest

from streamclose import MinerEngine, ShiftReport, StreamDriver
from streamclose.store import CIRecord, InvertedIndex, normalize
from streamclose.trie import SUPPORT_FLOOR, Trie, TrieNode

# Ten-transaction worked example; tid n is TABLE1[n - 1].
TABLE1 = [
    tuple("abcdefgh"),
    tuple("abcef"),
    tuple("cdfgh"),
    tuple("efgh"),
    tuple("g"),
    tuple("efh"),
    tuple("abcd"),
    tuple("bcd"),
    tuple("d"),
    tuple("bcgh"),
]

# Closed family of all ten transactions.
TABLE2 = {
    tuple("abcdefgh"): 1, tuple("abcef"): 2, tuple("cf"): 3, tuple("cdfgh"): 2,
    tuple("f"): 5, tuple("ef"): 4, tuple("fgh"): 3, tuple("efgh"): 2,
    tuple("g"): 5, tuple("fh"): 4, tuple("efh"): 3, tuple("c"): 6,
    tuple("cd"): 4, tuple("abc"): 3, tuple("abcd"): 2, tuple("bc"): 5,
    tuple("bcd"): 3, tuple("d"): 5, tuple("h"): 5, tuple("gh"): 4,
    tuple("cgh"): 3, tuple("bcgh"): 2,
}

# Closed family of the first nine transactions.
TABLE3 = {
    tuple("abcdefgh"): 1, tuple("abcef"): 2, tuple("cf"): 3, tuple("cdfgh"): 2,
    tuple("f"): 5, tuple("ef"): 4, tuple("fgh"): 3, tuple("efgh"): 2,
    tuple("g"): 4, tuple("fh"): 4, tuple("efh"): 3, tuple("c"): 5,
    tuple("cd"): 4, tuple("abc"): 3, tuple("abcd"): 2, tuple("bc"): 4,
    tuple("bcd"): 3, tuple("d"): 5,
}


def landmark_driver(transactions) -> StreamDriver:
    """Replay token transactions additively; tid k holds transactions[k]."""
    driver = StreamDriver(mode="landmark")
    for t in transactions:
        driver.push(t)
    return driver


def token_family(driver: StreamDriver, min_supp: int = 1) -> dict:
    return {items: supp for items, supp in driver.snapshot(min_supp)}


def ids_family(engine: MinerEngine) -> dict:
    return {frozenset(items): supp for items, supp in engine.snapshot(1)}


def record_of(index: InvertedIndex, ci_id: int) -> CIRecord:
    """The live record with id ``ci_id``; the index keys records by itemset."""
    for rec in index.records.values():
        if rec.id == ci_id:
            return rec
    raise KeyError(ci_id)


def window_db(pairs) -> dict:
    """Referee database of (tid, itemset) pairs, say ``engine.window.items()``."""
    return {tid: frozenset(items) for tid, items in pairs}


def random_stream(rng: random.Random, alphabet: int, length: int,
                  max_len: int = 8) -> list[tuple]:
    """Random itemsets over 0..alphabet-1, lengths 1..max_len."""
    hi = min(max_len, alphabet)
    return [tuple(sorted(rng.sample(range(alphabet), rng.randint(1, hi))))
            for _ in range(length)]


def child(trie: Trie, node, item):
    """Successor of ``node`` carrying ``item``, or None.

    Found by parent link, since a node keeps only its newest child.
    """
    for n in trie.nodes:
        if n.parent is node and n.item == item:
            return n
    return None


def add_child(trie: Trie, node, item):
    """Create the successor of ``node`` carrying ``item``."""
    if child(trie, node, item) is not None:
        raise AssertionError(f"duplicate child {item} under a node at depth {node.depth}")
    n = TrieNode(item, node)
    trie.nodes.append(n)
    return n


def end_nodes(trie: Trie):
    """Nodes marking complete intersections, in creation order.

    Only meaningful once every item of the shifted transaction is routed
    and the end nodes are settled: a node with a support, which t's own
    node has even when no CI ends on it.
    """
    return [n for n in trie.nodes if n.top_supp >= 0]


def dump(trie: Trie) -> str:
    """Debug trace: one line per node in pre-order, siblings in creation order.

    Line format: ``depth item top={id} supp={top_supp} next={next_supp}``,
    with ``top=-`` on a node no CI ends on.  Children are found by parent
    link, since a node keeps only its newest child.
    """
    kids = defaultdict(list)
    for n in trie.nodes[1:]:
        kids[n.parent].append(n)
    lines = []

    def visit(n):
        item = "-" if n.parent is None else str(n.item)
        top = "-" if n.top is None else str(n.top.id)
        lines.append(f"{n.depth} {item} top={top} supp={n.top_supp} next={n.next_supp}")
        for c in kids[n]:
            visit(c)

    visit(trie.root)
    return "\n".join(lines)


def enders(trie: Trie, records, t) -> dict:
    """Group ``records`` by the node of ``trie`` each one ends on.

    A record routed by a shift of ``t`` ends on the node spelling its
    itemset's intersection with ``t``; records disjoint from ``t`` are not
    routed and are left out.  Found from each node's root path, since every
    cursor is back at None once the shift is over.  A missing node
    raises KeyError.
    """
    t = frozenset(t)
    paths = {trie.root: frozenset()}
    by_path = {}
    for n in trie.nodes[1:]:  # a parent is created before its children
        path = paths[n] = paths[n.parent] | {n.item}
        by_path[path] = n
    out: dict = {}
    for rec in records:
        x = t.intersection(rec.itemset)
        if x:
            out.setdefault(by_path[x], []).append(rec)
    return out


def all_detached(records) -> bool:
    """Whether every record's cursor is None, as it rests between shifts."""
    return all(rec.cursor is None for rec in records)


def scan_length(index: InvertedIndex, item) -> int:
    """Length of ``item``'s inverted list, 0 for an unseen item."""
    return len(index.lists.get(item, ()))


def check_store_invariants(index: InvertedIndex) -> None:
    """Raise AssertionError when the index's keys and lists disagree.

    Checks that no inverted list is empty, files a record twice or breaks
    the ascending record-id order that filing at creation gives every list,
    that every live record is keyed by its own itemset, that the itemset is
    exactly the set of items whose lists hold the record, that its size
    matches, and the global entry count.
    """
    parts: dict[CIRecord, list[int]] = {}
    total = 0
    for a, lst in index.lists.items():
        if not lst:
            raise AssertionError(f"inverted list of item {a} is empty")
        if len(set(lst)) != len(lst):
            raise AssertionError(f"inverted list of item {a} files a CI twice")
        last = 0
        for rec in lst:
            if rec.id <= last:
                raise AssertionError(
                    f"inverted list of item {a} files CI {rec.id} after CI {last}")
            last = rec.id
            parts.setdefault(rec, []).append(a)
            total += 1
    if total != index.entry_count:
        raise AssertionError(f"entry_count {index.entry_count} != actual {total}")
    for key, rec in index.records.items():
        if key != rec.itemset:
            raise AssertionError(
                f"CI {rec.id} filed under {key}, but its itemset is {rec.itemset}")
        if rec.support < 1:
            raise AssertionError(f"CI {rec.id} has support {rec.support}")
        items = sorted(parts.get(rec, ()))
        if len(items) != rec.size:
            raise AssertionError(
                f"CI {rec.id}: size {rec.size} vs {len(items)} index entries"
            )
        if rec.itemset != tuple(items):
            raise AssertionError(
                f"CI {rec.id}: stored itemset {rec.itemset} vs index items {tuple(items)}"
            )
    expected = sum(rec.size for rec in index.records.values())
    if expected != index.entry_count:
        raise AssertionError("sum of sizes disagrees with index entry count")
    for rec in parts:
        if index.records.get(rec.itemset) is not rec:
            raise AssertionError(f"index references dead CI {rec.id}")


class PassThrough:
    """One node's bookkeeping in the per-entry reference form.

    ``refs`` counts the cursors resting on the node; ``top`` lists the CIs
    holding the highest support ``top_supp`` among those routed through it
    (kept to one entry by replacement on addition), and on removal
    ``runners`` lists those exactly one support unit below.  ``children``
    maps an item to the node's child on it, the reference form's own
    (node, item) -> node table.
    """

    __slots__ = ("refs", "top", "top_supp", "runners", "children")

    def __init__(self):
        self.refs = 0
        self.top = None
        self.top_supp = SUPPORT_FLOOR
        self.runners = None
        self.children = {}


def expand_path(eng: MinerEngine, table, c, a, kind: str) -> None:
    """Advance one CI's cursor along item ``a``: the per-entry reference form.

    Unlike the engine's routing loop, which settles each end node once per
    CI from the CIs that end on it, this keeps the paper's passing-through
    bookkeeping in ``table``, a ``defaultdict(PassThrough)`` keyed by node:
    ``refs`` counts cursors currently resting on a node, and every node on
    the path updates its top/runners.  Children are looked up in the
    table, not in the engine's child slot; a cursor at None starts at the
    root.
    """
    trie = eng.trie
    prev = c.cursor
    if prev is None:
        prev = trie.root
    kids = table[prev].children
    n = kids.get(a)
    if n is None:
        n = kids[a] = TrieNode(a, prev)
        trie.nodes.append(n)
    table[prev].refs -= 1
    e = table[n]
    e.refs += 1
    c.cursor = n
    if kind == "add":
        update_gen_inc(c, e)
    else:
        update_gen_dec(c, e)


def update_gen_inc(c, e: PassThrough) -> None:
    """Keep ``e.top`` on the best-supported CI routed through the node."""
    if c.support > e.top_supp:
        e.top_supp = c.support
        e.top = [c]


def update_gen_dec(c, e: PassThrough) -> None:
    """Maintain top and runner-up CIs by support gap.

    Two or more above the running maximum flushes both sets; exactly one
    above shifts the old top into the runners; zero joins the top; minus
    one joins the runners; anything lower is ignored.
    """
    d = c.support - e.top_supp
    if d >= 2:
        e.top = [c]
        e.top_supp = c.support
        e.runners = []
    elif d == 1:
        e.runners = e.top
        e.top = [c]
        e.top_supp = c.support
    elif d == 0:
        e.top.append(c)
    elif d == -1:
        e.runners.append(c)


def bootstrap_record() -> CIRecord:
    """The paper's bootstrap record: the full item universe at support 0.

    It is an implicit head of every inverted list, so it walks the whole
    shifted transaction t.  The engine has no such record; it starts t's
    own node at support 0 instead, and ``settle_from_table`` translates.
    """
    ci0 = CIRecord(0, 0, ())
    ci0.size = math.inf
    ci0.itemset = None
    return ci0


def settle_from_table(table, ci0: CIRecord) -> None:
    """Fill the node fields the engine's categorization reads.

    An end node is one a cursor rests on.  Its next-best support is set one
    below the top exactly when a runner passes the cursor test (it ends on
    the node rather than passing through); a top list of more than one CI
    makes the engine's lone-top check fire.  Where the bootstrap record
    ``ci0`` is the top, the node keeps its support 0 and no top, as the
    engine leaves t's node when no CI ends on it.
    """
    for n, e in table.items():
        if n.parent is None or e.refs <= 0:
            continue
        n.top = None if e.top[0] is ci0 else e.top[0]
        n.top_supp = e.top_supp
        if len(e.top) != 1:
            n.next_supp = e.top_supp
        elif any(g.cursor is n for g in e.runners or ()):
            n.next_supp = e.top_supp - 1


def step_shift(eng: MinerEngine, kind: str, tid, items=None, table=None) -> ShiftReport:
    """Run one shift through the per-entry reference form.

    An addition folds in ``items``; a removal reads the itemset from
    ``eng.window``, as ``shift_remove`` does, and ``items`` stays None.

    Routes the bootstrap record and every (item, CI) entry through
    expand_path, sets every routed cursor back to None as the
    engine's settle loop does, then categorizes with the engine's own
    update_cis_inc/update_cis_dec; pins the engine's routing and settle
    loops to the paper's per-entry semantics.  Pass a
    ``defaultdict(PassThrough)`` as ``table`` to inspect the bookkeeping
    afterwards.
    """
    if kind == "add":
        if tid in eng.window:
            raise ValueError(f"tid {tid} is already in the window")
        items = eng.window[tid] = normalize(items)
    else:
        if tid not in eng.window:
            raise ValueError(f"tid {tid} is not in the window")
        items = eng.window.pop(tid)
    if not items:
        return ShiftReport(kind, tid)
    eng.trie.reset()
    if table is None:
        table = defaultdict(PassThrough)
    ci0 = bootstrap_record()
    routed = {}
    entries = 0
    for a in items:
        expand_path(eng, table, ci0, a, kind)
        entries += 1
        for rec in list(eng.index.lists.get(a, ())):
            expand_path(eng, table, rec, a, kind)
            routed[rec] = None
            entries += 1
    settle_from_table(table, ci0)
    for rec in routed:
        rec.cursor = None
    if kind == "add":
        return eng.update_cis_inc(tid, entries)
    return eng.update_cis_dec(tid, entries)


@pytest.fixture
def table2_driver() -> StreamDriver:
    return landmark_driver(TABLE1)


@pytest.fixture
def table3_driver() -> StreamDriver:
    return landmark_driver(TABLE1[:9])
