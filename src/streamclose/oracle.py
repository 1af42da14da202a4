"""Brute-force referee for closed-itemset maintenance.

Everything here recomputes answers directly from an explicit tid -> itemset
mapping, with no shared code or state with the incremental miner.  It is the
ground truth the test suite and the ``verify`` command check the miner
against.  Complexity is whatever the definitions cost; do not feed it large
windows.

Items may be any hashable tokens.  Itemsets are plain sets/frozensets on the
way in and frozensets on the way out.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

Database = Mapping[Hashable, frozenset]

DEFAULT_CI_CAP = 100_000


class CapExceededError(RuntimeError):
    """Raised when a closed-family enumeration grows past its safety cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"closed itemset count exceeded cap ({count} > {cap})")
        self.count = count
        self.cap = cap


def support_tids(db: Database, itemset: Iterable[Hashable]) -> set:
    """Tids of the transactions whose itemsets cover ``itemset``.

    The empty itemset is covered by every transaction.
    """
    x = frozenset(itemset)
    return {j for j, t in db.items() if x <= t}


def common_items(db: Database, tids: Iterable[Hashable]) -> frozenset:
    """Intersection of the itemsets of the named transactions.

    Raises ValueError on an empty tidset (there is no sensible universe to
    return) and KeyError on an unknown tid.
    """
    tids = set(tids)
    if not tids:
        raise ValueError("cannot intersect an empty set of transactions")
    out = None
    for j in tids:
        t = db[j]
        out = t if out is None else out & t
    return frozenset(out)


def closure(db: Database, itemset: Iterable[Hashable]) -> frozenset:
    """Largest itemset with the same covering transactions as ``itemset``.

    Only defined for itemsets covered by at least one transaction; raises
    ValueError otherwise.
    """
    tids = support_tids(db, itemset)
    if not tids:
        raise ValueError(f"itemset {sorted(map(str, itemset))} has no covering transaction")
    return common_items(db, tids)


def closed_itemsets(db: Database, max_cis: int = DEFAULT_CI_CAP) -> dict[frozenset, int]:
    """All nonempty closed itemsets of ``db`` with their supports.

    Computed as the fixpoint of pairwise intersection seeded with the
    transaction itemsets; the empty itemset is never reported.  Raises
    CapExceededError once the family grows past ``max_cis``.
    """
    seeds = {frozenset(t) for t in db.values() if t}
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        if len(closed) > max_cis:
            raise CapExceededError(len(closed), max_cis)
        nxt = []
        for x in frontier:
            for s in seeds:
                z = x & s
                if z and z not in closed:
                    closed.add(z)
                    nxt.append(z)
        frontier = nxt
    if len(closed) > max_cis:
        raise CapExceededError(len(closed), max_cis)
    return {c: sum(1 for t in db.values() if c <= t) for c in closed}
