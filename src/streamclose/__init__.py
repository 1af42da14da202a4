"""Closed-itemset mining over sliding and landmark transaction windows.

The miner maintains the exact family of closed itemsets of the current
window under single-transaction additions and evictions.  Each closed
itemset is one record holding its itemset tuple, keyed by that tuple and
filed in the inverted list of each of its items; intersections grow item by
item in a per-shift trie.  A brute-force referee (``streamclose.oracle``)
provides ground truth for verification.
"""

from .engine import MinerEngine, ShiftReport
from .estimator import ClosedItemsetStreamMiner, NotFittedError
from .formats import ParseError, StreamSource
from .store import ItemDictionary
from .window import StatsRecord, StreamDriver, replay

__version__ = "0.1.0"

__all__ = [
    "ClosedItemsetStreamMiner",
    "ItemDictionary",
    "MinerEngine",
    "NotFittedError",
    "ParseError",
    "ShiftReport",
    "StatsRecord",
    "StreamDriver",
    "StreamSource",
    "replay",
    "__version__",
]
