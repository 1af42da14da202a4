"""Stream replay driver: tid assignment, FIFO window, push sequencing.

The driver owns the dictionary and the mining state, and is the only code
that sequences a push: ``evict`` removes the oldest transaction when a
sliding window is full, then ``push_ids`` adds the new one, so the window
never exceeds its capacity; landmark mode never evicts.  The engine's
``window`` records what each transaction holds; the driver keeps only the
policy: the tid counter and when to evict.  Maintenance always tracks the
full family; the emission threshold is an argument of ``snapshot`` only.
Raw tokens enter through ``push``; ``push_ids`` takes interned ids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import MinerEngine, ShiftReport
from .store import ItemDictionary, check_int, check_itemset, normalize

SLIDING = "sliding"
LANDMARK = "landmark"


@dataclass(frozen=True)
class WindowConfig:
    """Window parameters.

    ``capacity`` is the sliding-window size, an ``int`` (``check_int``) or
    None, and is ignored in landmark mode.
    """

    capacity: int | None = None
    mode: str = SLIDING

    def __post_init__(self):
        if self.capacity is not None:
            check_int(self.capacity, "capacity")
        if self.mode not in (SLIDING, LANDMARK):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == SLIDING:
            if self.capacity is None or self.capacity < 1:
                raise ValueError("sliding mode needs a capacity of at least 1")


@dataclass
class StatsRecord:
    """One row of the per-transaction replay series.

    The fields are ``formats.STATS_COLUMNS``, in order.  ``op`` is "add"
    while the window is filling (or in landmark mode) and "shift" once pushes
    evict; counts cover both halves of a shift pair.  ``trie_nodes`` and
    ``entries_scanned`` are summed over the pair.
    """

    shift: int
    tid: int
    op: str
    new: int
    promoted: int
    obsolete: int
    demoted: int
    live_cis: int
    trie_nodes: int
    entries_scanned: int
    wall_ns: int


class StreamDriver:
    """Feeds transactions through the engine under a window policy."""

    def __init__(self, config: WindowConfig):
        self.config = config
        self.dictionary = ItemDictionary()
        self.engine = MinerEngine()
        self.next_tid = 0

    def push(self, tokens: Iterable) -> tuple[ShiftReport | None, ShiftReport]:
        """Check raw ``tokens``, intern them and push the resulting itemset.

        Every token is checked, and the engine's usability too, before any
        token is interned, so a rejected push leaves the dictionary as it was.
        """
        return self.push_ids(map(self.dictionary.intern, check_itemset(tokens)))

    def evict(self) -> ShiftReport | None:
        """Evict the oldest transaction if the sliding window is full.

        Returns the removal report, or None when the window has room or runs
        in landmark mode.  Tids are handed out consecutively and leave in
        arrival order, so the oldest is ``next_tid - len(window)``: O(1),
        where scanning a dict for its first live key is not.  That holds
        only while this driver is its engine's only writer; when the tid it
        computes is not in the window, the window was changed outside the
        driver, and ``evict`` raises ValueError and changes nothing.
        """
        cfg = self.config
        window = self.engine.window
        if cfg.mode != SLIDING or len(window) < cfg.capacity:
            return None
        oldest = self.next_tid - len(window)
        if oldest not in window:
            raise ValueError(f"the window was changed outside this driver "
                             f"(tid {oldest} is not in the window)")
        return self.engine.shift_remove(oldest)

    def push_ids(self, items: Iterable[int]) -> tuple[ShiftReport | None, ShiftReport]:
        """Push an already-interned itemset.

        Returns the eviction report (None when nothing was evicted) and the
        addition report.  The new tid is checked before the eviction runs,
        and the engine's window and the tid counter change only after the
        engine accepted a half, so a rejected push leaves the driver as it
        was.  An engine left unusable by a failed shift refuses the push
        before ``items`` is read, so a lazy ``map`` over ``intern`` interns
        nothing.
        """
        self.engine.check_usable()
        items = normalize(items)
        tid = self.next_tid
        if tid in self.engine.window:
            raise ValueError(f"tid {tid} is already in the window")
        removed = self.evict()
        added = self.engine.shift_add(tid, items)
        self.next_tid = tid + 1
        return removed, added

    def snapshot(self, min_supp: int = 1) -> list[tuple[tuple, int]]:
        """The closed itemsets at or above ``min_supp``, with original tokens.

        Rows come in the engine's (id-lex) order, each itemset translated by
        ``ItemDictionary.tokens_of``.  Each id row is replaced by its token
        row in the engine's list, which is returned, so an emission never
        holds two full row lists.
        """
        dictionary = self.dictionary
        rows = self.engine.snapshot(min_supp)
        for i, (items, supp) in enumerate(rows):
            rows[i] = (dictionary.tokens_of(items), supp)
        return rows

    @property
    def live_cis(self) -> int:
        return len(self.engine.store.records)


def replay(source: Iterable[Iterable[int]], driver: StreamDriver) -> Iterator[StatsRecord]:
    """Push each itemset of ``source`` through ``driver``, one record per push.

    ``source`` must yield itemsets of item ids; read a file with
    ``formats.StreamSource(path, driver.dictionary)`` to keep tokens
    consistent.  Each record is yielded before the next push, so the caller
    can read the driver's state, a snapshot say, as it stands after that push.
    """
    shift_no = 0
    for items in source:
        shift_no += 1
        t0 = time.perf_counter_ns()
        removed, added = driver.push_ids(items)
        wall = time.perf_counter_ns() - t0
        yield StatsRecord(
            shift=shift_no,
            tid=added.tid,
            op="shift" if removed is not None else "add",
            new=len(added.new_cis),
            promoted=len(added.promoted),
            obsolete=len(removed.obsolete) if removed is not None else 0,
            demoted=len(removed.demoted) if removed is not None else 0,
            live_cis=driver.live_cis,
            trie_nodes=added.nodes_created + (removed.nodes_created if removed else 0),
            entries_scanned=added.entries_scanned + (removed.entries_scanned if removed else 0),
            wall_ns=wall,
        )
