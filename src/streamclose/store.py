"""Persistent cross-shift state: CI records, inverted index, item dictionary.

A closed itemset (CI) is stored as a record of support, size and its
ascending itemset tuple, the one statement of the CI's composition: the
inverted index files the record under each item the tuple names, one entry
per (item, CI) pair, so no caller can file it under items it does not hold.
The lists serve routing and closure lookup; the tuple serves emission and a
closure's itemset, which would otherwise rebuild every itemset from the
lists.  Keeping the tuple costs no copy (it is the one the addition that
created the CI builds for its shift report), and emission then allocates no
per-CI list, which on the benchmark's workloads more than pays for the
stored tuples in peak memory.  Each inverted list is a plain list of
records in filing order, one pointer per entry: routing only iterates it,
filing appends to it, and a shift unfiles its obsolete CIs in one batch
that rebuilds each list it touches once.

The index also keys each live record by its itemset tuple, and it alone
creates and drops records.  Its keys are exactly the window's closed
family, so a query equal to a key is closed and that record is its
closure: one dict probe, no list walked.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import itemgetter


def normalize(items) -> tuple:
    """The one normal form of an itemset: its distinct items, ascending."""
    return tuple(sorted(set(items)))


def check_itemset(x, position=None) -> tuple:
    """The one token rule: check a raw transaction, return its tokens.

    A token is a non-empty ``str`` or an ``int``.  A bare string is refused
    because iterating it splits it into characters; a ``bool`` because
    ``True`` equals ``1`` and would share its id.  Each entry point that
    takes raw tokens calls this once, before any token is interned.

    A plain ``str`` or ``int`` token passes on one type test; any other
    token (a subclass, a ``bool``) takes the full rule.  The error message,
    which names ``position`` when one is given, is built only when a check
    fails.
    """
    if isinstance(x, (str, bytes)):
        raise TypeError(
            f"transaction{_at(position)} is a bare string; pass a sequence of tokens")
    try:
        tokens = tuple(x)
    except TypeError:
        raise TypeError(f"transaction{_at(position)} is not iterable") from None
    for t in tokens:
        cls = type(t)
        if cls is int or cls is str and t:
            continue
        if t is True or t is False or not isinstance(t, (str, int)):
            raise TypeError(f"token {t!r}{_at(position)} is {cls.__name__}; "
                            "tokens must be str or int")
        if t == "":
            raise ValueError(f"empty string token{_at(position)}")
    return tokens


def _at(position) -> str:
    """The " at position i" an error message ends with; empty without one."""
    return "" if position is None else f" at position {position}"


def check_int(x, name: str) -> int:
    """The one int rule: ``x`` itself if it is an ``int``; ``bool`` is not one."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{name} must be an int, got {x!r}")
    return x


class ItemDictionary:
    """Token -> dense id mapping, ids assigned from 0 in first-seen order."""

    def __init__(self):
        self._ids: dict = {}
        self.tokens: list = []  # id -> token; read it, never write it

    def intern(self, token) -> int:
        """Id of an already-checked ``token``, allocating the next dense id if new."""
        i = self._ids.get(token)
        if i is None:
            i = len(self.tokens)
            self._ids[token] = i
            self.tokens.append(token)
        return i

    def tokens_of(self, ids: tuple) -> tuple:
        """The tokens of a non-empty ascending id tuple, as one tuple.

        An id in ``[0, len(tokens))`` becomes its token; any other id (one
        pushed around the dictionary with ``StreamDriver.push_ids``) has no
        token and stays as it is.  The ids ascend, so testing the first and
        last id clears the whole tuple for the plain loop.
        """
        tokens = self.tokens
        known = len(tokens)
        out = []
        if 0 <= ids[0] and ids[-1] < known:
            for a in ids:
                out.append(tokens[a])
        else:
            for a in ids:
                out.append(tokens[a] if 0 <= a < known else a)
        return tuple(out)


class CIRecord:
    """Bookkeeping for one closed itemset.

    ``cursor`` points at the trie node ending this CI's current intersection
    prefix while a shift routes it, and is None otherwise: a new record
    starts at None and routing puts each cursor back, so no cursor keeps a
    finished trie alive.

    ``itemset`` is the CI's ascending item-id tuple: the items whose lists
    the index files the record in, and its key in ``InvertedIndex.records``.
    Keeping it here makes emission one pass over the records and a
    closure's itemset one attribute read, instead of a rebuild from the
    lists.  ``size`` is its length, derived here from ``itemset`` and read
    where the itemset itself is not needed: categorization compares it with
    an end node's depth, and a non-closed query's shortest-list scan skips a
    candidate no larger than the query before it reads the candidate's tuple.

    Records are hashed, by address, only in a shift's removal set.  With
    four slots a record would fill a 64-byte block, so every record's hash
    would end in the same two bits and that set would collide more on each
    probe (when the inverted lists were dicts keyed by record, landmark-query
    ran about 10 % fewer queries per second); the fifth slot, ``itemset``,
    makes it an 80-byte block.
    """

    __slots__ = ("id", "support", "size", "cursor", "itemset")

    def __init__(self, ci_id: int, support: int, itemset: tuple):
        self.id = ci_id
        self.support = support
        self.size = len(itemset)
        self.cursor = None
        self.itemset = itemset

    def __repr__(self):
        return f"CIRecord(id={self.id}, support={self.support}, size={self.size})"


class InvertedIndex:
    """The live CI records, keyed by itemset and filed by item.

    ``records`` maps each live CI's itemset tuple (the one on its record) to
    the record, so a closed query finds it with one probe.  ``lists`` maps
    an item id to the records holding that item, a plain list in filing
    order whose order fixes routing order, and so trie node order and ids.
    ``add`` creates, keys and files each record in one call, so ids start at
    1, are never reused within a run, and ascend along every list.
    ``remove`` unfiles a record from exactly the items of its ``itemset``,
    rebuilding each list it touches once and dropping a list that empties.
    """

    def __init__(self):
        self.records: dict[tuple, CIRecord] = {}
        self.lists: dict[int, list[CIRecord]] = {}
        self.next_id = 1
        self.entry_count = 0

    def add(self, support: int, itemset: tuple) -> CIRecord:
        """Create the live record of the ascending ``itemset``, key and file it.

        The record goes at the end of the list of every item of its itemset.
        An itemset that is already live is an internal invariant violation.
        """
        rec = CIRecord(self.next_id, support, itemset)
        if self.records.setdefault(itemset, rec) is not rec:
            raise AssertionError(f"itemset {itemset} is already a live CI")
        self.next_id += 1
        lists = self.lists
        for a in itemset:
            lst = lists.get(a)
            if lst is None:
                lists[a] = [rec]
            else:
                lst.append(rec)
        self.entry_count += len(itemset)
        return rec

    def remove(self, records) -> None:
        """Drop the distinct live ``records``: their keys, then their entries.

        KeyError names the first record that is not live, one given twice
        included.  Each list that holds one of them is then rebuilt once,
        keeping the order of the others.  A list that does not lose one
        entry per record naming its item, or an item with no list, means
        the keys and the lists disagree, which is an internal invariant
        violation, not a user error.
        """
        keyed = self.records
        lists = self.lists
        counts = {}
        for rec in records:
            itemset = rec.itemset
            if keyed.get(itemset) is not rec:
                raise KeyError(rec.id)
            del keyed[itemset]
            for a in itemset:
                counts[a] = counts.get(a, 0) + 1
        gone = set(records)
        for a, n in counts.items():
            lst = lists.get(a, ())
            kept = list(filterfalse(gone.__contains__, lst))
            lost = len(lst) - len(kept)
            if lost != n:
                missing = [r.id for r in records if a in r.itemset and r not in lst]
                raise AssertionError(
                    f"CI {missing[0]} missing from inverted list of item {a}"
                    if missing else
                    f"inverted list of item {a} lost {lost} entries, expected {n}")
            if kept:
                lists[a] = kept
            else:
                del lists[a]
        self.entry_count -= sum(counts.values())


def materialize_itemset(index: InvertedIndex, record: CIRecord) -> tuple:
    """The ascending itemset of a live CI, as kept on its record.

    KeyError when ``record`` is no longer live: the index must still key
    the record by its itemset, which tells a removed record from the live
    one that took its itemset since.  The record is the one statement of
    which lists hold the CI, so no list is read here; the tests audit that
    invariant after every shift.
    """
    itemset = record.itemset
    if index.records.get(itemset) is not record:
        raise KeyError(record.id)
    return itemset


def snapshot(index: InvertedIndex, min_supp: int = 1) -> list[tuple[tuple, int]]:
    """All live CIs at or above ``min_supp`` as (ascending itemset, support).

    ``min_supp`` is an ``int`` (``check_int``) of at least 1.  Ordered
    lexicographically by item-id sequence, so output is deterministic for a
    given interning order.  One pass over the live records.
    """
    if check_int(min_supp, "min_supp") < 1:
        raise ValueError("min_supp must be at least 1")
    rows = []
    for items, rec in index.records.items():
        if rec.support >= min_supp:
            # tuple() hands back the stored tuple itself, no copy;
            # perfbench's referee test mutates this line
            rows.append((tuple(items), rec.support))
    # Itemsets are unique, so the support never breaks a tie.
    rows.sort(key=itemgetter(0))
    return rows
