"""Stream replay driver: tid assignment, FIFO window, push sequencing.

The driver owns the dictionary, the mining state and the window buffer, and
is the only code that sequences a push: ``evict`` removes the oldest
transaction when a sliding window is full, then ``push_ids`` adds the new
one, so the buffer never exceeds its capacity; landmark mode never evicts.
Evicted itemsets are taken from the buffer, which is the only place
transaction contents survive between shifts.  Maintenance always tracks the
full family; the emission threshold is an argument of ``snapshot`` only.
Raw tokens enter through ``push``; ``push_ids`` takes interned ids.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .engine import MinerEngine, ShiftReport
from .store import ItemDictionary, check_itemset

SLIDING = "sliding"
LANDMARK = "landmark"


@dataclass(frozen=True)
class WindowConfig:
    """Window parameters.

    ``capacity`` is the sliding-window size, an ``int`` (``bool`` is not
    one) or None, and is ignored in landmark mode.
    """

    capacity: int | None = None
    mode: str = SLIDING

    def __post_init__(self):
        if self.capacity is not None and (
                isinstance(self.capacity, bool) or not isinstance(self.capacity, int)):
            raise TypeError(
                f"capacity must be an int or None, got {self.capacity!r}")
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

    def __init__(self, config: WindowConfig, dictionary: ItemDictionary | None = None):
        self.config = config
        self.dictionary = dictionary if dictionary is not None else ItemDictionary()
        self.engine = MinerEngine()
        self.buffer: deque[tuple[int, tuple]] = deque()
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
        in landmark mode.  The buffer drops its entry only after the engine
        accepted the removal.
        """
        cfg = self.config
        if cfg.mode != SLIDING or len(self.buffer) < cfg.capacity:
            return None
        old_tid, old_items = self.buffer[0]
        removed = self.engine.shift_remove(old_tid, old_items)
        self.buffer.popleft()
        return removed

    def push_ids(self, items: Iterable[int]) -> tuple[ShiftReport | None, ShiftReport]:
        """Push an already-interned itemset.

        Returns the eviction report (None when nothing was evicted) and the
        addition report.  The new tid is checked before the eviction runs,
        and the buffer and tid counter change only after the engine accepted
        a half, so a rejected push leaves the driver as it was.  An engine
        left unusable by a failed shift refuses the push before ``items`` is
        read, so a lazy ``map`` over ``intern`` interns nothing.
        """
        self.engine.check_usable()
        items = tuple(sorted(set(items)))
        tid = self.next_tid
        if tid in self.engine.window_tids:
            raise ValueError(f"tid {tid} is already in the window")
        removed = self.evict()
        added = self.engine.shift_add(tid, items)
        self.next_tid = tid + 1
        self.buffer.append((tid, items))
        return removed, added

    def snapshot(self, min_supp: int = 1) -> list[tuple[tuple, int]]:
        """The closed itemsets at or above ``min_supp``, with original tokens.

        Rows come in the engine's (id-lex) order.  Ids pushed around the
        dictionary (push_ids with uninterned ints) have no token and are
        emitted as-is.  A row's ids ascend, so testing its first and last id
        clears the whole row for translation in one C-level ``map``.
        """
        tokens = self.dictionary.tokens
        tok = tokens.__getitem__
        known = len(tokens)
        return [(tuple(map(tok, items)) if 0 <= items[0] and items[-1] < known
                 else tuple(tok(a) if 0 <= a < known else a for a in items), supp)
                for items, supp in self.engine.snapshot(min_supp)]

    @property
    def live_cis(self) -> int:
        return self.engine.store.live_count


def replay(source: Iterable[Iterable[int]], driver: StreamDriver) -> Iterator[StatsRecord]:
    """Push each itemset of ``source`` through ``driver``, one record per push.

    ``source`` must yield itemsets of item ids (see formats.StreamSource);
    give the driver the source's dictionary to keep tokens consistent.  Each
    record is yielded before the next push, so the caller can read the
    driver's state, a snapshot say, as it stands after that push.
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
