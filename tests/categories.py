"""The referee's category split of one shift, used only by the tests.

These recompute, from the definitions in ``streamclose.oracle``, how adding
or evicting one transaction reshapes the closed family, and which
intersections a shift's trie must mark.  The engine shares no code with
them; the tests confront its reports and tries with their answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from streamclose.oracle import (
    DEFAULT_CI_CAP, Database, closed_itemsets, common_items, support_tids)


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
