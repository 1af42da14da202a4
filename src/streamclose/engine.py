"""Window-shift engines for the incremental and decremental updates.

A shift processes one transaction t against the stored CI family in three
phases:

  1. Routing.  Items of t are visited in ascending id order; for each item,
     every CI in its inverted list advances its cursor one trie node, so the
     cursor traces the CI's growing intersection with t.  The bootstrap
     record (id 0) is an implicit member of every list and walks the whole
     itemset, which guarantees the full itemset of t always ends on a node
     of its own.
  2. Categorization.  Nodes still holding cursors (refs > 0) are exactly the
     complete intersections.  On addition, a node whose best-supported
     routed CI has the node's own depth marks a promotion, anything else a
     creation.  On removal, a runner-up whose cursor still rests on the node
     certifies the node's CI obsolete; otherwise it is merely demoted.
  3. Store update.  Created CIs enter the inverted lists of their items;
     obsolete ones leave the store and every list they appear in.

Inverted lists are only read during routing and only written during phase 3,
so the scan never iterates a list it is mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import CIRecord, CIStore, InvertedIndex, check_store_invariants, snapshot
from .trie import DECREMENT, INCREMENT, Trie, TrieNode


@dataclass
class ShiftReport:
    """Categorized outcome of one window shift.

    ``new_cis`` and ``promoted`` are filled by additions, ``obsolete`` and
    ``demoted`` by removals.  ``nodes_created`` counts the final trie's nodes
    including the root; ``entries_scanned`` counts every (item, CI) pairing
    routed, bootstrap record included.
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
    """

    def __init__(self, store: CIStore | None = None, index: InvertedIndex | None = None):
        self.store = store if store is not None else CIStore()
        self.index = index if index is not None else InvertedIndex()
        self.trie = Trie()
        self.window_tids: set = set()

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
        if tid in self.window_tids:
            raise ValueError(f"tid {tid} is already in the window")
        items = _normalize(items)
        order = items if item_order is None else _check_order(item_order, items)
        self.window_tids.add(tid)
        if not items:
            return ShiftReport("add", tid)

        store = self.store
        index = self.index
        shift = store.advance_shift()
        trie = self.trie.reset(INCREMENT)
        root = trie.root
        nodes = trie.nodes
        nodes_append = nodes.append
        lists = index.lists
        entries = len(order)

        # The bootstrap record is an implicit head of every inverted list;
        # walking it up front creates the full-itemset path.  Every node on
        # that path is fresh, and final node states do not depend on arrival
        # order within an item's scan.
        prev = root
        ci0 = store.universe
        ci0.cursor_shift = shift
        for a in order:
            n = TrieNode(a, prev, len(nodes))
            nodes_append(n)
            prev.children = {a: n}
            prev.refs -= 1
            n.refs = 1
            n.top = [ci0]
            n.top_supp = 0
            prev = n
        ci0.cursor = prev

        for a in order:
            lst = lists.get(a)
            if lst is None:
                continue
            entries += len(lst)
            for c in lst:
                if c.cursor_shift != shift:
                    c.cursor_shift = shift
                    prev = root
                else:
                    prev = c.cursor
                ch = prev.children
                n = ch.get(a) if ch is not None else None
                if n is None:
                    n = TrieNode(a, prev, len(nodes))
                    nodes_append(n)
                    if ch is None:
                        prev.children = {a: n}
                    else:
                        ch[a] = n
                prev.refs -= 1
                n.refs += 1
                c.cursor = n
                s = c.support
                if s > n.top_supp:
                    n.top_supp = s
                    n.top = [c]

        return self.update_cis_inc(tid, entries)

    def shift_remove(self, tid, items, item_order=None) -> ShiftReport:
        """Fold an evicted transaction out of the CI family.

        ``items`` must be the evicted transaction's itemset as recorded by
        the window driver; it is not recomputable from the store.
        """
        if tid not in self.window_tids:
            raise ValueError(f"tid {tid} is not in the window")
        items = _normalize(items)
        order = items if item_order is None else _check_order(item_order, items)
        self.window_tids.discard(tid)
        if not items:
            return ShiftReport("remove", tid)

        store = self.store
        index = self.index
        shift = store.advance_shift()
        trie = self.trie.reset(DECREMENT)
        root = trie.root
        nodes = trie.nodes
        nodes_append = nodes.append
        lists = index.lists
        entries = len(order)

        prev = root
        ci0 = store.universe
        ci0.cursor_shift = shift
        for a in order:
            n = TrieNode(a, prev, len(nodes))
            nodes_append(n)
            prev.children = {a: n}
            prev.refs -= 1
            n.refs = 1
            n.top = [ci0]
            n.top_supp = 0
            n.runners = []
            prev = n
        ci0.cursor = prev

        for a in order:
            lst = lists.get(a)
            if lst is None:
                continue
            entries += len(lst)
            for c in lst:
                if c.cursor_shift != shift:
                    c.cursor_shift = shift
                    prev = root
                else:
                    prev = c.cursor
                ch = prev.children
                n = ch.get(a) if ch is not None else None
                if n is None:
                    n = TrieNode(a, prev, len(nodes))
                    nodes_append(n)
                    if ch is None:
                        prev.children = {a: n}
                    else:
                        ch[a] = n
                prev.refs -= 1
                n.refs += 1
                c.cursor = n
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

        return self.update_cis_dec(tid, entries)

    # ------------------------------------------------------------------
    # single routing step (canonical form of the inner loop above)
    # ------------------------------------------------------------------

    def expand_path(self, c: CIRecord, a) -> None:
        """Advance one CI's cursor along item ``a``.

        The shift loops inline this logic for speed; this method is the
        reference form, used by step-level tests and the equivalence check
        between the two.
        """
        trie = self.trie
        shift = self.store.shift
        if c.cursor_shift != shift:
            c.cursor_shift = shift
            prev = trie.root
        else:
            prev = c.cursor
        n = prev.child(a)
        if n is None:
            n = trie.add_child(prev, a)
        prev.refs -= 1
        n.refs += 1
        c.cursor = n
        if trie.mode == INCREMENT:
            self.update_gen_inc(c, n)
        else:
            self.update_gen_dec(c, n)

    def update_gen_inc(self, c: CIRecord, n: TrieNode) -> None:
        """Keep ``n.top`` on the best-supported CI routed through ``n``."""
        if c.support > n.top_supp:
            n.top_supp = c.support
            n.top = [c]

    def update_gen_dec(self, c: CIRecord, n: TrieNode) -> None:
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
            if n.refs <= 0 or n.parent is None:
                continue
            c = n.top[0]
            if n.depth == c.size:
                c.support += 1
                promoted.append(c.id)
            else:
                itemset = n.itemset()
                rec = store.new_ci(c.support + 1, n.depth)
                index.add(rec, itemset)
                new_cis.append((rec.id, itemset, rec.support))
        return report

    def update_cis_dec(self, tid, entries_scanned: int = 0) -> ShiftReport:
        """Phase 2+3 of a removal over the engine's final trie.

        A runner-up whose cursor still rests on the end node certifies the
        node's CI obsolete; runner-up entries whose cursor moved deeper are
        leftovers from prefixes of their own intersection and are skipped.
        """
        report = ShiftReport("remove", tid, nodes_created=len(self.trie.nodes),
                             entries_scanned=entries_scanned)
        obsolete = report.obsolete
        demoted = report.demoted
        for n in self.trie.nodes:
            if n.refs <= 0 or n.parent is None:
                continue
            if n.top is None or len(n.top) != 1:
                raise AssertionError(
                    f"end node {n.node_id}: expected a lone top CI, found "
                    f"{0 if n.top is None else len(n.top)}"
                )
            x = n.top[0]
            if x.id == 0:
                raise AssertionError("bootstrap record surfaced as an end-node top")
            certified = False
            if n.runners:
                for g in n.runners:
                    if g.cursor is n:
                        certified = True
                        break
            if certified:
                itemset = self.remove_ci(n, x)
                obsolete.append((x.id, itemset))
            else:
                x.support -= 1
                demoted.append(x.id)
        return report

    def remove_ci(self, n: TrieNode, record: CIRecord) -> tuple:
        """Drop an obsolete CI from the store and all its inverted lists.

        The CI's itemset equals the node's path, so the path supplies the
        lists to fix up.
        """
        itemset = n.itemset()
        if record.size != len(itemset):
            raise AssertionError(
                f"CI {record.id}: path length {len(itemset)} vs size {record.size}"
            )
        self.index.remove(record, itemset)
        self.store.remove(record.id)
        return itemset

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def snapshot(self, min_supp: int = 1) -> list[tuple[tuple, int]]:
        return snapshot(self.store, self.index, min_supp)

    def closure_record(self, items) -> CIRecord | None:
        """Live CI record whose itemset is the closure of ``items``.

        None when no window transaction covers ``items`` (or it is empty).
        Cost is one pass over the inverted lists of the queried items.
        """
        items = _normalize(items)
        if not items:
            return None
        lists = self.index.lists
        counts: dict[int, int] = {}
        need = len(items)
        first = True
        for a in items:
            lst = lists.get(a)
            if not lst:
                return None
            if first:
                for rec in lst:
                    counts[rec.id] = 1
                first = False
            else:
                for rec in lst:
                    k = counts.get(rec.id)
                    if k is not None:
                        counts[rec.id] = k + 1
        best = None
        records = self.store.records
        for ci_id, k in counts.items():
            if k == need:
                rec = records[ci_id]
                if best is None or rec.support > best.support:
                    best = rec
        return best

    def check_invariants(self) -> None:
        check_store_invariants(self.store, self.index)


def _check_order(order, items) -> tuple:
    order = tuple(order)
    if tuple(sorted(order)) != items:
        raise ValueError("item_order must be a permutation of the itemset")
    return order
