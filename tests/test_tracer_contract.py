"""The benchmark's tracer attaches to library methods by name; each must fire.

perfbench/worker.py shadows bound methods of the engine, its trie and index
and the estimator with span wrappers, and wraps the estimator module's
``materialize_itemset``.  A method that is renamed, or that the library
stops calling through the shadowed attribute, would read as zero seconds
in the benchmark's per-layer report instead of failing anything.  This test
drives the worker's own attach functions with counting wrappers over a short
sliding stream with evictions and every query kind, and checks that every
attached name fired.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from streamclose import ClosedItemsetStreamMiner, estimator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Each evicted transaction leaves at least one CI obsolete, so removals
# reach the index as well as the trie.
STREAM = [("a", "b", "c"), ("b", "c"), ("a", "c", "d"), ("c",), ("a", "b"),
          ("b", "d"), ("a", "b", "c", "d"), ("d",), ("e", "a"), ("c", "e")]


class CountingTracer:
    """Stands in for perfbench's Tracer: same attach/wrap calls, counts only."""

    def __init__(self):
        self.attached: list[str] = []
        self.calls: Counter = Counter()

    def wrap(self, fn, name: str):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def attach(self, obj, attr: str, name: str) -> None:
        self.attached.append(name)
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
    finally:
        sys.path.remove(str(PERFBENCH))
    return worker


def test_every_traced_method_fires(worker, monkeypatch):
    tracer = CountingTracer()
    miner = ClosedItemsetStreamMiner(window_size=3, mode="sliding").fit([])
    worker.trace_engine(tracer, miner.driver_)
    worker.trace_estimator(tracer, miner)
    monkeypatch.setattr(estimator, "materialize_itemset", tracer.wrap(
        estimator.materialize_itemset, "store.materialize"))
    tracer.attached.append("store.materialize")

    obsolete = 0
    for t in STREAM:
        removed, _ = miner.update(t)
        if removed is not None:
            obsolete += len(removed.obsolete)
    assert obsolete > 0
    assert miner.predict([["e"], ["z"]]) == [2, 0]
    assert miner.transform([["a"]]) == [("a", "e")]
    assert miner.discover(1)

    assert len(set(tracer.attached)) == len(tracer.attached) >= 12
    silent = [name for name in tracer.attached if tracer.calls[name] == 0]
    assert silent == []
