"""Window-shift engines for the incremental and decremental updates.

A shift processes one transaction t against the stored CI family in three
phases:

  1. Routing.  Items of t are visited in ascending id order; for each item,
     every CI in its inverted list advances its cursor one trie node, so the
     cursor traces the CI's growing intersection with t.  The bootstrap
     record (id 0) is an implicit member of every list and walks the whole
     itemset, which guarantees the full itemset of t always ends on a node
     of its own.  One loop serves both shift kinds and only moves cursors;
     each node's summary (refs, top, runners) is then settled in one pass
     over the routed CIs from the node each one ends on.
  2. Categorization.  Nodes that CIs end on (refs > 0) are exactly the
     complete intersections, and a node's top is its class closure, which
     always ends on it.  On addition, a top whose size is the node's depth
     marks a promotion, anything else a creation.  On removal, a CI ending
     on the node one support unit below the top certifies the node's CI
     obsolete; otherwise it is merely demoted.
  3. Store update.  Created CIs enter the inverted lists of their items
     and keep their itemset on their record; obsolete ones leave the store
     and every list their record names.

Inverted lists are only read during routing and only written during phase 3,
so the scan never iterates a list it is mutating.  An exception escaping a
shift once it has started changing state leaves the engine unusable: every
later shift or query raises instead of answering from a half-applied shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

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
    An error after that point is kept in ``failure`` and makes every later
    shift, ``snapshot`` and ``closure_record`` raise RuntimeError.
    """

    def __init__(self, store: CIStore | None = None, index: InvertedIndex | None = None):
        self.store = store if store is not None else CIStore()
        self.index = index if index is not None else InvertedIndex()
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
            return self.update_cis_inc(tid, self._route(order, INCREMENT))
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
            return self.update_cis_dec(tid, self._route(order, DECREMENT))
        except BaseException as e:
            self.failure = e
            raise

    def _route(self, order, mode: str) -> int:
        """Phase 1: build this shift's trie and settle its node summaries.

        Returns the number of (item, CI) entries scanned, bootstrap record
        included.  The per-entry loop only advances cursors; ``refs``,
        ``top``/``top_supp`` and ``runners`` are filled afterwards from the
        node each routed CI ends on, bootstrap record first.
        """
        self.store.advance_shift()
        trie = self.trie
        trie.reset(mode)
        root = trie.root
        nodes = trie.nodes
        nodes_append = nodes.append

        # The bootstrap record is an implicit head of every inverted list;
        # walking it up front creates the full-itemset path, all fresh nodes.
        prev = root
        for a in order:
            n = TrieNode(a, prev, len(nodes))
            nodes_append(n)
            prev.children = {a: n}
            prev = n
        ci0 = self.store.universe
        ci0.cursor = prev
        routed = [ci0]
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
                    n = TrieNode(a, prev, len(nodes))
                    nodes_append(n)
                    if ch:
                        ch[a] = n
                    else:
                        # a leaf's first child: leave the shared empty dict be
                        prev.children = {a: n}
                c.cursor = n

        # An end node's class closure ends on it and out-supports every other
        # CI passing through it, so settling from the CIs that end on a node
        # gives the top and the certifying runner-ups the categorization
        # needs; nodes no CI ends on keep refs 0 and no summary.
        if mode == INCREMENT:
            for c in routed:
                n = c.cursor
                n.refs += 1
                s = c.support
                if s > n.top_supp:
                    n.top_supp = s
                    n.top = [c]
        else:
            # top and runners by support gap: two or more above the running
            # maximum flushes both sets, one above demotes the old top to the
            # runners, a tie joins the top, one below joins the runners
            for c in routed:
                n = c.cursor
                n.refs += 1
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
            if n.refs <= 0 or n.parent is None:
                continue
            c = n.top[0]
            if n.depth == c.size:
                c.support += 1
                promoted.append(c.id)
            else:
                itemset = n.itemset()
                rec = store.new_ci(c.support + 1, itemset)
                index.add(rec, itemset)
                new_cis.append((rec.id, itemset, rec.support))
        return report

    def update_cis_dec(self, tid, entries_scanned: int = 0) -> ShiftReport:
        """Phase 2+3 of a removal over the engine's final trie.

        A runner-up resting on the end node, that is a CI ending there one
        support unit below the lone top, certifies the node's CI obsolete;
        otherwise the top is demoted.  Routing settles a node from the CIs
        ending on it, so the cursor test passes on the first runner; it
        keeps the rule exact for summaries kept per list entry, where a
        runner may have moved deeper.
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
            for g in n.runners:
                if g.cursor is n:
                    obsolete.append((x.id, self.remove_ci(n, x)))
                    break
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
        self.store.remove(record.id)
        return itemset

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def snapshot(self, min_supp: int = 1) -> list[tuple[tuple, int]]:
        self.check_usable()
        return snapshot(self.store, self.index, min_supp)

    def closure_record(self, items) -> CIRecord | None:
        """Live CI record whose itemset is the closure of ``items``.

        None when no window transaction covers ``items`` (or it is empty).
        The CIs containing ``items`` are the members common to its items'
        inverted lists; the closure is the one among them with the query's
        own support, which no other common member reaches, so it is the
        unique maximum.  Cost is one C-level pass over the shortest list,
        with an O(1) membership probe per further item.
        """
        self.check_usable()
        items = _normalize(items)
        if not items:
            return None
        lists = self.index.lists
        found = []
        for a in items:
            lst = lists.get(a)
            if not lst:
                return None
            found.append(lst)
        found.sort(key=len)
        common = found[0]
        for lst in found[1:]:
            common = filter(lst.__contains__, common)
        return max(common, key=attrgetter("support"), default=None)

    def check_invariants(self) -> None:
        check_store_invariants(self.store, self.index)


def _check_order(order, items) -> tuple:
    order = tuple(order)
    if tuple(sorted(order)) != items:
        raise ValueError("item_order must be a permutation of the itemset")
    return order
