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

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

Itemset = frozenset
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


@dataclass
class AddClasses:
    """How one incoming transaction reshapes the closed family.

    ``new`` holds the itemsets that become closed only once the transaction
    arrives; ``promoted`` the already-closed ones whose support grows by one.
    ``closures`` maps each new itemset to its closure in the old window, or
    None when no old transaction covers it (the whole-universe bootstrap
    class).
    """

    new: set = field(default_factory=set)
    promoted: set = field(default_factory=set)
    closures: dict = field(default_factory=dict)


@dataclass
class RemoveClasses:
    """How evicting one transaction reshapes the closed family.

    ``obsolete`` holds the itemsets that stop being closed, ``demoted`` the
    survivors losing one unit of support.  ``witnesses`` maps each obsolete
    itemset to a closed superset whose support sits exactly one below it
    (None when the itemset simply ran out of covering transactions).
    """

    obsolete: set = field(default_factory=set)
    demoted: set = field(default_factory=set)
    witnesses: dict = field(default_factory=dict)


def classify_add(db: Database, t_new: Iterable[Hashable],
                 max_cis: int = DEFAULT_CI_CAP) -> AddClasses:
    """Split the effect of adding ``t_new`` (not in ``db``) into classes.

    Definitional: computes the closed family before and after and diffs.
    """
    t = frozenset(t_new)
    before = closed_itemsets(db, max_cis)
    out = AddClasses()
    if not t:
        return out
    out.promoted = {c for c in before if c <= t}
    after_db = dict(db)
    after_db[object()] = t
    after = closed_itemsets(after_db, max_cis)
    out.new = set(after) - set(before)
    for x in out.new:
        covered = support_tids(db, x)
        out.closures[x] = common_items(db, covered) if covered else None
    return out


def classify_remove(db: Database, tid: Hashable,
                    max_cis: int = DEFAULT_CI_CAP) -> RemoveClasses:
    """Split the effect of evicting transaction ``tid`` into classes.

    Definitional: diffs the closed families before and after the eviction.
    The witness search is independent of that diff, so tests can confront
    the two characterizations.
    """
    if tid not in db:
        raise KeyError(tid)
    t = frozenset(db[tid])
    before = closed_itemsets(db, max_cis)
    after_db = {j: x for j, x in db.items() if j != tid}
    after = closed_itemsets(after_db, max_cis)
    out = RemoveClasses()
    for c in before:
        if not c <= t:
            continue
        if c in after:
            out.demoted.add(c)
        else:
            out.obsolete.add(c)
            witness = None
            for g in before:
                if g & t == c and before[g] == before[c] - 1:
                    witness = g
                    break
            out.witnesses[c] = witness
    return out


def intersections(db: Database, t: Iterable[Hashable],
                  max_cis: int = DEFAULT_CI_CAP) -> set[frozenset]:
    """Nonempty intersections of ``t`` with the closed family, plus ``t``.

    ``t`` itself is always a member, provided it is nonempty: a shift lays
    ``t``'s own path first and starts its end node at support 0, so that
    node is an end node even when no window transaction contains ``t``.
    """
    t = frozenset(t)
    if not t:
        return set()
    fam = closed_itemsets(db, max_cis)
    out = {c & t for c in fam if c & t}
    out.add(t)
    return out
