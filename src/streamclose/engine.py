"""Window-shift engines for the incremental and decremental updates.

A shift processes one transaction t against the stored CI family in three
phases:

  1. Routing.  The path spelling t is laid first, its last node at support
     0, so t always ends on a node of its own.  Then, item by item in
     ascending id order, every CI in the item's inverted list advances its
     cursor one trie node, tracing the CI's growing intersection with t.
     One loop serves both shift kinds and only moves cursors; one settle
     loop over the routed CIs then gives the node each one ends on its top
     CI, the top's support and the next-best support there, and sets the
     CI's cursor back to None, where every cursor rests between shifts.
  2. Categorization.  Nodes with a support are exactly the complete
     intersections, and a node's top is its class closure, the strict
     unique maximum among the CIs ending there (t's node has none when no
     window transaction contains t).  On addition, a top whose size is the
     node's depth marks a promotion, anything else a creation one above
     the node's support.  On removal, a next-best support one unit below
     the top certifies the node's CI obsolete; otherwise it is demoted.
  3. Store update.  A created CI's record keeps its itemset, and the index
     files the record under exactly those items; an obsolete CI leaves the
     store, and once the shift's obsolete CIs are known the index unfiles
     them together from the lists their records name.

The lemmas behind phases 1 and 2 are written out, with the tests that
check them, in docs/algorithm.md.

Inverted lists are only read during routing and only written during phase 3,
so the scan never iterates a list it is mutating.  An exception escaping a
shift once it has started changing state leaves the engine unusable: every
later shift or query raises instead of answering from a half-applied shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import CIRecord, CIStore, InvertedIndex, normalize, snapshot
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


class MinerEngine:
    """Mutable mining state plus the add/remove shift procedures.

    All mutation happens inside one shift on one thread; the object may be
    handed between threads only at shift boundaries.  ``trie`` holds the
    final trie of the most recent shift until the next one starts, which the
    tests use for structural checks.  A shift validates its arguments before
    it changes any state, so a rejected call leaves the engine as it was.
    An error after that point is kept in ``failure`` and makes every later
    shift, ``snapshot`` and ``closure_record`` raise RuntimeError.
    ``window`` maps each window tid to its itemset, the only record of the
    window's contents.  It changes only once a shift is done, so after a
    failure it still holds the window the state can be rebuilt from.
    """

    def __init__(self):
        self.store = CIStore()
        self.index = InvertedIndex()
        self.trie = Trie()
        self.window: dict[int, tuple] = {}  # tid -> normalized itemset
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
        """Fold a new transaction into the CI family and the window.

        ``items`` is deduplicated and sorted here, so callers may pass any
        iterable of item ids.  ``item_order`` overrides the iteration order
        (a permutation of the itemset); results are order-independent, the
        default ascending order just makes traces reproducible.
        """
        self.check_usable()
        if tid in self.window:
            raise ValueError(f"tid {tid} is already in the window")
        items = normalize(items)
        order = items if item_order is None else _check_order(item_order, items)
        try:
            report = (self.update_cis_inc(tid, self._route(order)) if items
                      else ShiftReport("add", tid))
            self.window[tid] = items
            return report
        except BaseException as e:
            self.failure = e
            raise

    def shift_remove(self, tid, item_order=None) -> ShiftReport:
        """Fold the window transaction ``tid`` out of the CI family.

        Its itemset is the one ``shift_add`` recorded in ``window``, so a
        removal takes out exactly what was added.  The record goes only once
        the shift is done; a failed shift leaves ``window`` as it was.
        """
        self.check_usable()
        items = self.window.get(tid)
        if items is None:
            raise ValueError(f"tid {tid} is not in the window")
        order = items if item_order is None else _check_order(item_order, items)
        try:
            report = (self.update_cis_dec(tid, self._route(order)) if items
                      else ShiftReport("remove", tid))
            del self.window[tid]
            return report
        except BaseException as e:
            self.failure = e
            raise

    def _route(self, order) -> int:
        """Phase 1: build this shift's trie and settle its end nodes.

        Returns the number of (item, CI) entries scanned plus one step per
        item along t's own path.  The per-entry loop only advances cursors:
        a cursor at None starts at the root, and since items are routed in
        one order, a node's child slot holds its child on the current item
        exactly when that child exists.  ``top``, ``top_supp`` and
        ``next_supp`` are filled afterwards from the node each routed CI
        ends on, and that cursor goes back to None.
        """
        trie = self.trie
        trie.reset()
        root = trie.root
        nodes_append = trie.nodes.append

        # t's own path comes first, all fresh nodes; its last node starts at
        # support 0, so it is an end node even when no CI ends on it.
        prev = root
        for a in order:
            prev = TrieNode(a, prev)
            nodes_append(prev)
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
                if prev is None:
                    routed_append(c)
                    prev = root
                if prev.child_item != a:
                    nodes_append(TrieNode(a, prev))
                c.cursor = prev.child

        # An end node's class closure ends on it and out-supports every other
        # CI ending there (docs/algorithm.md, lemma 2), so the top and the
        # next-best support are all the categorization needs.
        for c in routed:
            n = c.cursor
            c.cursor = None
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
                index.add(rec)
                new_cis.append((rec.id, itemset, rec.support))
        return report

    def update_cis_dec(self, tid, entries_scanned: int = 0) -> ShiftReport:
        """Phase 2+3 of a removal over the engine's final trie.

        Another CI ending on the end node one support unit below its lone
        top certifies the node's CI obsolete; otherwise the top is demoted.
        t is in the window, so its own node must have a top.  An obsolete CI
        ends on its own node, so the node's depth must be its size; it then
        leaves the store, and after the loop the index unfiles the shift's
        obsolete CIs in one call.
        """
        report = ShiftReport("remove", tid, nodes_created=len(self.trie.nodes),
                             entries_scanned=entries_scanned)
        obsolete = report.obsolete
        demoted = report.demoted
        gone = []
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
                if n.depth != x.size:
                    raise AssertionError(
                        f"CI {x.id}: path length {n.depth} vs size {x.size}")
                self.store.remove(x)
                gone.append(x)
                obsolete.append((x.id, x.itemset))
            else:
                x.support -= 1
                demoted.append(x.id)
        if gone:
            self.index.remove(gone)
        return report

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
        common to its items' inverted lists, so the shortest of those lists
        holds them all.  The closure is the one among them with the query's
        own support, which no other reaches, so it is the unique maximum,
        and the order of the scan cannot change it (docs/algorithm.md,
        section 5).

        One scan of the shortest list therefore finds it.  A candidate that
        does not out-support the best found so far cannot be that unique
        maximum.  A candidate no larger than the query cannot be its
        closure either: the query missed the probe, so it is not closed and
        its closure is a strict superset.  Only a candidate passing both
        prunes has its itemset tuple tested for the query's other items.

        Called right after a push, a lookup pays to bring its code and data
        back into the processor's caches, so it uses only plain loops and
        the ``in`` operator: no set, sort, ``filter`` or key function.
        """
        self.check_usable()
        items = normalize(items)
        if not items:
            return None
        rec = self.store.records.get(items)
        if rec is not None:
            return rec
        lists = self.index.lists
        shortest = pivot = None
        for a in items:
            lst = lists.get(a)
            if not lst:
                return None
            if shortest is None or len(lst) < len(shortest):
                shortest = lst
                pivot = a
        closure = None
        support = 0
        size = len(items)
        for c in shortest:
            if c.support > support and c.size > size:
                itemset = c.itemset
                for a in items:
                    if a != pivot and a not in itemset:
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
