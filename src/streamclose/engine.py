"""Window-shift engines for the incremental and decremental updates.

A shift processes one transaction t against the stored CI family in three
phases:

  1. Routing.  The path spelling t is laid first, its last node at support
     0, so t always ends on a node of its own.  Then, item by item in
     ascending id order, every CI in the item's inverted list advances its
     cursor one trie node, tracing the CI's growing intersection with t.
     One loop serves both shift kinds and only moves cursors; one settle
     loop over the routed CIs then gives the node each one ends on its top
     CI, the top's support and the next-best support there.
  2. Categorization.  Nodes with a support are exactly the complete
     intersections, and a node's top is its class closure, the strict
     unique maximum among the CIs ending there (t's node has none when no
     window transaction contains t).  On addition, a top whose size is the
     node's depth marks a promotion, anything else a creation one above
     the node's support.  On removal, a next-best support one unit below
     the top certifies the node's CI obsolete; otherwise it is demoted.
  3. Store update.  Created CIs enter the inverted lists of their items
     and keep their itemset on their record; obsolete ones leave the store
     and every list their record names.

The lemmas behind phases 1 and 2 are written out, with the tests that
check them, in docs/algorithm.md.

Inverted lists are only read during routing and only written during phase 3,
so the scan never iterates a list it is mutating.  An exception escaping a
shift once it has started changing state leaves the engine unusable: every
later shift or query raises instead of answering from a half-applied shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import CIRecord, CIStore, InvertedIndex, snapshot
from .trie import Trie, TrieNode


@dataclass
class ShiftReport:
    """Categorized outcome of one window shift.

    ``new_cis`` and ``promoted`` are filled by additions, ``obsolete`` and
    ``demoted`` by removals.  ``nodes_created`` counts the final trie's nodes
    including the root; ``entries_scanned`` counts every (item, CI) pairing
    routed plus one step per item along t's own path.
    """

    kind: str
    tid: int
    new_cis: list[tuple[int, tuple, int]] = field(default_factory=list)
    promoted: list[int] = field(default_factory=list)
    obsolete: list[tuple[int, tuple]] = field(default_factory=list)
    demoted: list[int] = field(default_factory=list)
    nodes_created: int = 0
    entries_scanned: int = 0


def _normalize(items) -> tuple:
    return tuple(sorted(set(items)))


class MinerEngine:
    """Mutable mining state plus the add/remove shift procedures.

    All mutation happens inside one shift on one thread; the object may be
    handed between threads only at shift boundaries.  ``trie`` holds the
    final trie of the most recent shift until the next one starts, which the
    tests use for structural checks.  A shift validates its arguments before
    it changes any state, so a rejected call leaves the engine as it was.
    An error after that point is kept in ``failure`` and makes every later
    shift, ``snapshot`` and ``closure_record`` raise RuntimeError.
    """

    def __init__(self):
        self.store = CIStore()
        self.index = InvertedIndex()
        self.trie = Trie()
        self.window_tids: set = set()
        self.failure: BaseException | None = None

    def check_usable(self) -> None:
        """Raise RuntimeError if an earlier shift failed part-way."""
        if self.failure is not None:
            raise RuntimeError(
                "a shift failed part-way, so the mining state is inconsistent; "
                "rebuild it from the window") from self.failure

    # ------------------------------------------------------------------
    # full shifts
    # ------------------------------------------------------------------

    def shift_add(self, tid, items, item_order=None) -> ShiftReport:
        """Fold a new transaction into the CI family.

        ``items`` is deduplicated and sorted here, so callers may pass any
        iterable of item ids.  ``item_order`` overrides the iteration order
        (a permutation of the itemset); results are order-independent, the
        default ascending order just makes traces reproducible.
        """
        self.check_usable()
        if tid in self.window_tids:
            raise ValueError(f"tid {tid} is already in the window")
        items = _normalize(items)
        order = items if item_order is None else _check_order(item_order, items)
        try:
            self.window_tids.add(tid)
            if not items:
                return ShiftReport("add", tid)
            return self.update_cis_inc(tid, self._route(order))
        except BaseException as e:
            self.failure = e
            raise

    def shift_remove(self, tid, items, item_order=None) -> ShiftReport:
        """Fold an evicted transaction out of the CI family.

        ``items`` must be the evicted transaction's itemset as recorded by
        the window driver; it is not recomputable from the store.
        """
        self.check_usable()
        if tid not in self.window_tids:
            raise ValueError(f"tid {tid} is not in the window")
        items = _normalize(items)
        order = items if item_order is None else _check_order(item_order, items)
        try:
            self.window_tids.discard(tid)
            if not items:
                return ShiftReport("remove", tid)
            return self.update_cis_dec(tid, self._route(order))
        except BaseException as e:
            self.failure = e
            raise

    def _route(self, order) -> int:
        """Phase 1: build this shift's trie and settle its end nodes.

        Returns the number of (item, CI) entries scanned plus one step per
        item along t's own path.  The per-entry loop only advances cursors;
        ``top``, ``top_supp`` and ``next_supp`` are filled afterwards from
        the node each routed CI ends on.
        """
        trie = self.trie
        trie.reset()
        root = trie.root
        nodes_append = trie.nodes.append

        # t's own path comes first, all fresh nodes; its last node starts at
        # support 0, so it is an end node even when no CI ends on it.
        prev = root
        for a in order:
            n = TrieNode(a, prev)
            nodes_append(n)
            prev.children = {a: n}
            prev = n
        prev.top_supp = 0
        routed = []
        routed_append = routed.append

        lists = self.index.lists
        entries = len(order)
        for a in order:
            lst = lists.get(a)
            if not lst:
                continue
            entries += len(lst)
            for c in lst:
                prev = c.cursor
                ch = prev.children
                if ch is None:
                    # first visit this shift: the cursor rests on a severed node
                    prev = root
                    ch = root.children
                    routed_append(c)
                n = ch.get(a)
                if n is None:
                    n = TrieNode(a, prev)
                    nodes_append(n)
                    if ch:
                        ch[a] = n
                    else:
                        # a leaf's first child: leave the shared empty dict be
                        prev.children = {a: n}
                c.cursor = n

        # An end node's class closure ends on it and out-supports every other
        # CI ending there (docs/algorithm.md, lemma 2), so the top and the
        # next-best support are all the categorization needs.
        for c in routed:
            n = c.cursor
            s = c.support
            if s > n.top_supp:
                n.next_supp = n.top_supp
                n.top_supp = s
                n.top = c
            elif s > n.next_supp:
                n.next_supp = s
        return entries

    # ------------------------------------------------------------------
    # categorization and store update
    # ------------------------------------------------------------------

    def update_cis_inc(self, tid, entries_scanned: int = 0) -> ShiftReport:
        """Phase 2+3 of an addition over the engine's final trie."""
        store = self.store
        index = self.index
        nodes = self.trie.nodes
        report = ShiftReport("add", tid, nodes_created=len(nodes),
                             entries_scanned=entries_scanned)
        new_cis = report.new_cis
        promoted = report.promoted
        for n in nodes:
            s = n.top_supp
            if s < 0:
                continue
            c = n.top
            if c is not None and n.depth == c.size:
                c.support += 1
                promoted.append(c.id)
            else:
                itemset = n.itemset()
                rec = store.new_ci(s + 1, itemset)
                index.add(rec, itemset)
                new_cis.append((rec.id, itemset, rec.support))
        return report

    def update_cis_dec(self, tid, entries_scanned: int = 0) -> ShiftReport:
        """Phase 2+3 of a removal over the engine's final trie.

        Another CI ending on the end node one support unit below its lone
        top certifies the node's CI obsolete; otherwise the top is demoted.
        t is in the window, so its own node must have a top.
        """
        report = ShiftReport("remove", tid, nodes_created=len(self.trie.nodes),
                             entries_scanned=entries_scanned)
        obsolete = report.obsolete
        demoted = report.demoted
        for n in self.trie.nodes:
            if n.top_supp < 0:
                continue
            x = n.top
            if x is None:
                raise AssertionError(
                    f"end node {n.itemset()}: the removed transaction has no CI")
            if n.next_supp >= n.top_supp:
                raise AssertionError(
                    f"end node {n.itemset()}: expected a lone top CI, but another "
                    f"CI ending there has support {n.next_supp} >= {n.top_supp}")
            if n.next_supp == n.top_supp - 1:
                obsolete.append((x.id, self.remove_ci(n, x)))
            else:
                x.support -= 1
                demoted.append(x.id)
        return report

    def remove_ci(self, n: TrieNode, record: CIRecord) -> tuple:
        """Drop an obsolete CI from the store and all its inverted lists.

        The record's itemset names the lists to fix up.  The CI ends on its
        own node, so the node's path is that itemset and its depth the size.
        """
        itemset = record.itemset
        if n.depth != record.size:
            raise AssertionError(
                f"CI {record.id}: path length {n.depth} vs size {record.size}"
            )
        self.index.remove(record, itemset)
        self.store.remove(record)
        return itemset

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def snapshot(self, min_supp: int = 1) -> list[tuple[tuple, int]]:
        self.check_usable()
        return snapshot(self.store, min_supp)

    def closure_record(self, items) -> CIRecord | None:
        """Live CI record whose itemset is the closure of ``items``.

        None when no window transaction covers ``items`` (or it is empty).
        The store holds exactly the closed family, so a query that is a live
        CI's itemset is closed and that record is its closure: one dict
        probe.  Otherwise the CIs containing ``items`` are the members
        common to its items' inverted lists; the closure is the one among
        them with the query's own support, which no other common member
        reaches, so it is the unique maximum.  One pass over the shortest
        list finds it: a member is probed against the other lists, O(1)
        each, only when its support beats the best so far.

        Called right after a push, a lookup pays to bring its code and data
        back into the processor's caches, so it uses only the loops and
        dict probes a push runs: no sort, ``filter`` or key function.
        """
        self.check_usable()
        items = _normalize(items)
        if not items:
            return None
        rec = self.store.records.get(items)
        if rec is not None:
            return rec
        lists = self.index.lists
        found = []
        for a in items:
            lst = lists.get(a)
            if not lst:
                return None
            found.append(lst)
        shortest = found[0]
        for lst in found:
            if len(lst) < len(shortest):
                shortest = lst
        closure = None
        support = 0
        for c in shortest:
            if c.support > support:
                for lst in found:
                    if c not in lst:
                        break
                else:
                    closure = c
                    support = c.support
        return closure


def _check_order(order, items) -> tuple:
    order = tuple(order)
    if tuple(sorted(order)) != items:
        raise ValueError("item_order must be a permutation of the itemset")
    return order
