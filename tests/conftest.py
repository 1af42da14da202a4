"""Shared fixtures: the worked example dataset, golden families, helpers."""

from __future__ import annotations

import random

import pytest

from streamclose import MinerEngine, ShiftReport, StreamDriver, WindowConfig
from streamclose.trie import DECREMENT, INCREMENT

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
    driver = StreamDriver(WindowConfig(mode="landmark"))
    for t in transactions:
        driver.push(t)
    return driver


def token_family(driver: StreamDriver, min_supp: int = 1) -> dict:
    return {items: supp for items, supp in driver.snapshot(min_supp)}


def ids_family(engine: MinerEngine) -> dict:
    return {frozenset(items): supp for items, supp in engine.snapshot(1)}


def window_db(buffer) -> dict:
    return {tid: frozenset(items) for tid, items in buffer}


def random_stream(rng: random.Random, alphabet: int, length: int,
                  max_len: int = 8) -> list[tuple]:
    """Random itemsets over 0..alphabet-1, lengths 1..max_len."""
    hi = min(max_len, alphabet)
    return [tuple(sorted(rng.sample(range(alphabet), rng.randint(1, hi))))
            for _ in range(length)]


def expand_path(eng: MinerEngine, c, a) -> None:
    """Advance one CI's cursor along item ``a``: the per-entry reference form.

    Unlike the engine's routing loop, which settles node summaries once per
    CI from the node it ends on, this keeps the paper's passing-through
    bookkeeping: ``refs`` counts cursors currently resting on a node, and
    every node on the path updates its top/runners.  A stale cursor is
    recognised the same way, by the severed node it points at.
    """
    trie = eng.trie
    prev = c.cursor
    if prev.children is None:
        prev = trie.root
    n = prev.child(a)
    if n is None:
        n = trie.add_child(prev, a)
    prev.refs -= 1
    n.refs += 1
    c.cursor = n
    if trie.mode == INCREMENT:
        update_gen_inc(c, n)
    else:
        update_gen_dec(c, n)


def update_gen_inc(c, n) -> None:
    """Keep ``n.top`` on the best-supported CI routed through ``n``."""
    if c.support > n.top_supp:
        n.top_supp = c.support
        n.top = [c]


def update_gen_dec(c, n) -> None:
    """Maintain top and runner-up CIs by support gap.

    Two or more above the running maximum flushes both sets; exactly one
    above shifts the old top into the runners; zero joins the top; minus
    one joins the runners; anything lower is ignored.
    """
    d = c.support - n.top_supp
    if d >= 2:
        n.top = [c]
        n.top_supp = c.support
        n.runners = []
    elif d == 1:
        n.runners = n.top
        n.top = [c]
        n.top_supp = c.support
    elif d == 0:
        n.top.append(c)
    elif d == -1:
        n.runners.append(c)


def step_shift(eng: MinerEngine, tid, items, kind: str) -> ShiftReport:
    """Run one shift through the per-entry reference form.

    Routes every (item, CI) entry through expand_path, then categorizes with
    the engine's own update_cis_inc/update_cis_dec; pins the engine's
    routing loop to the paper's per-entry semantics.
    """
    items = tuple(sorted(set(items)))
    if kind == "add":
        if tid in eng.window_tids:
            raise ValueError(f"tid {tid} is already in the window")
        eng.window_tids.add(tid)
    else:
        if tid not in eng.window_tids:
            raise ValueError(f"tid {tid} is not in the window")
        eng.window_tids.discard(tid)
    if not items:
        return ShiftReport(kind, tid)
    eng.store.advance_shift()
    eng.trie.reset(INCREMENT if kind == "add" else DECREMENT)
    entries = 0
    for a in items:
        expand_path(eng, eng.store.universe, a)
        entries += 1
        for rec in list(eng.index.lists.get(a, ())):
            expand_path(eng, rec, a)
            entries += 1
    if kind == "add":
        return eng.update_cis_inc(tid, entries)
    return eng.update_cis_dec(tid, entries)


@pytest.fixture
def table2_driver() -> StreamDriver:
    return landmark_driver(TABLE1)


@pytest.fixture
def table3_driver() -> StreamDriver:
    return landmark_driver(TABLE1[:9])
