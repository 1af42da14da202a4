"""Persistent cross-shift state: CI records, inverted index, item dictionary.

A closed itemset (CI) is stored as a bare record of support and size; its
composition lives only in the inverted index, one entry per (item, CI) pair.
Each inverted list is an insertion-ordered dict keyed by record, so adding,
removing and testing one entry are O(1) while routing still iterates the
list in a fixed order.  Emission-time operations rebuild itemsets from the
index, which keeps the per-shift hot path free of itemset copies.

Record id 0 is reserved for the bootstrap record: it stands for the full item
universe at support 0, is logically a member of every inverted list without
being physically stored in any, and is never emitted or removed.
"""

from __future__ import annotations

INFINITE_SIZE = float("inf")


class ItemDictionary:
    """Token -> dense id mapping, ids assigned from 0 in first-seen order."""

    def __init__(self):
        self._ids: dict = {}
        self._tokens: list = []

    def intern(self, token) -> int:
        """Return the id for ``token``, allocating the next dense id if new."""
        if not isinstance(token, (str, int)):
            raise TypeError(f"item token must be str or int, got {type(token).__name__}")
        if token == "":
            raise ValueError("item token must be non-empty")
        i = self._ids.get(token)
        if i is None:
            i = len(self._tokens)
            self._ids[token] = i
            self._tokens.append(token)
        return i

    def token(self, item_id: int):
        return self._tokens[item_id]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token) -> bool:
        return token in self._ids


class CIRecord:
    """Bookkeeping for one closed itemset.

    ``cursor`` points at the trie node ending this CI's current intersection
    prefix; it is meaningful only while ``cursor_shift`` equals the store's
    shift counter, so stale cursors never need clearing between shifts.
    """

    __slots__ = ("id", "support", "size", "cursor", "cursor_shift")

    def __init__(self, ci_id: int, support: int, size):
        self.id = ci_id
        self.support = support
        self.size = size
        self.cursor = None
        self.cursor_shift = -1

    def __repr__(self):
        return f"CIRecord(id={self.id}, support={self.support}, size={self.size})"


class CIStore:
    """Owns the live CI records, the id counter and the shift counter.

    Ids of removed CIs are never reused within a run.
    """

    def __init__(self):
        self.universe = CIRecord(0, 0, INFINITE_SIZE)
        self.records: dict[int, CIRecord] = {0: self.universe}
        self.next_id = 1
        self.shift = 0

    def advance_shift(self) -> int:
        self.shift += 1
        return self.shift

    def new_ci(self, support: int, size: int) -> CIRecord:
        rec = CIRecord(self.next_id, support, size)
        self.records[rec.id] = rec
        self.next_id += 1
        return rec

    def remove(self, ci_id: int) -> None:
        if ci_id == 0:
            raise ValueError("the bootstrap record cannot be removed")
        del self.records[ci_id]

    @property
    def live_count(self) -> int:
        """Number of live CIs, bootstrap record excluded."""
        return len(self.records) - 1


class InvertedIndex:
    """item id -> the CI records containing that item.

    Each list is a dict mapping record -> None, iterated in insertion order;
    only the set of members carries meaning.
    """

    def __init__(self):
        self.lists: dict[int, dict[CIRecord, None]] = {}
        self.entry_count = 0

    def add(self, record: CIRecord, items) -> None:
        lists = self.lists
        for a in items:
            lst = lists.get(a)
            if lst is None:
                lists[a] = {record: None}
            else:
                lst[record] = None
        self.entry_count += len(items)

    def remove(self, record: CIRecord, items) -> None:
        """Remove ``record`` from the list of every item in ``items``.

        A missing entry means the index and the store disagree, which is an
        internal invariant violation, not a user error.
        """
        lists = self.lists
        for a in items:
            try:
                del lists[a][record]
            except KeyError:
                raise AssertionError(
                    f"CI {record.id} missing from inverted list of item {a}"
                ) from None
        self.entry_count -= len(items)

    def scan_length(self, item: int) -> int:
        lst = self.lists.get(item)
        return len(lst) if lst is not None else 0


def materialize_itemset(store: CIStore, index: InvertedIndex, ci_id: int) -> tuple:
    """Rebuild the ascending itemset of a live CI from the index.

    One O(1) membership test per item key.
    """
    if ci_id == 0:
        raise ValueError("the bootstrap record has no materializable itemset")
    rec = store.records.get(ci_id)
    if rec is None:
        raise KeyError(ci_id)
    items = [a for a, lst in index.lists.items() if rec in lst]
    items.sort()
    if len(items) != rec.size:
        raise AssertionError(
            f"CI {ci_id}: index holds {len(items)} items, record says {rec.size}"
        )
    return tuple(items)


def snapshot(store: CIStore, index: InvertedIndex, min_supp: int = 1) -> list[tuple[tuple, int]]:
    """All live CIs at or above ``min_supp`` as (ascending itemset, support).

    Ordered lexicographically by item-id sequence, so output is deterministic
    for a given interning order.
    """
    if min_supp < 1:
        raise ValueError("min_supp must be at least 1")
    parts: dict[int, list[int]] = {}
    for a, lst in index.lists.items():
        for rec in lst:
            parts.setdefault(rec.id, []).append(a)
    rows = []
    for ci_id, items in parts.items():
        rec = store.records[ci_id]
        if rec.support >= min_supp:
            items.sort()
            rows.append((tuple(items), rec.support))
    rows.sort()
    return rows


def check_store_invariants(store: CIStore, index: InvertedIndex) -> None:
    """Raise AssertionError when the store and the index disagree.

    Checks membership-count/size consistency per record and the global entry
    count.  Meant for tests and debugging, not the hot path.
    """
    counts: dict[int, int] = {}
    total = 0
    for a, lst in index.lists.items():
        for rec in lst:
            counts[rec.id] = counts.get(rec.id, 0) + 1
            total += 1
    if total != index.entry_count:
        raise AssertionError(f"entry_count {index.entry_count} != actual {total}")
    for ci_id, rec in store.records.items():
        if ci_id == 0:
            if rec.support != 0 or rec.size != INFINITE_SIZE:
                raise AssertionError("bootstrap record mutated")
            if 0 in counts:
                raise AssertionError("bootstrap record leaked into the index")
            continue
        if rec.support < 1:
            raise AssertionError(f"CI {ci_id} has support {rec.support}")
        if counts.get(ci_id, 0) != rec.size:
            raise AssertionError(
                f"CI {ci_id}: size {rec.size} vs {counts.get(ci_id, 0)} index entries"
            )
    expected = sum(rec.size for i, rec in store.records.items() if i != 0)
    if expected != index.entry_count:
        raise AssertionError("sum of sizes disagrees with index entry count")
    for ci_id in counts:
        if ci_id not in store.records:
            raise AssertionError(f"index references dead CI {ci_id}")
