"""Run one benchmark workload in this process and print its result as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 [--smoke]

run.py starts this script once per workload (twice for a traced run) and
turns its one-line JSON result into the benchmark's report.  The library is
imported from the ``src`` directory next to this one and driven only
through its public API.  Outputs are checked against ``streamclose.oracle``
after the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import generators
from benchmark_json import load_spec
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PUSH_SPAN = "window.push"


def import_library():
    """Import streamclose from this checkout's ``src`` and nowhere else.

    Returns the package, its estimator module (traced runs wrap the
    module-level materialize_itemset there) and the referee.
    """
    sys.path.insert(0, str(SRC))
    import streamclose
    from streamclose import estimator, oracle
    if not Path(streamclose.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"streamclose was not found under {SRC}")
    return streamclose, estimator, oracle


class Counts:
    """Exact per-shift counts summed from ShiftReports."""

    FIELDS = ("pushes", "entries_scanned", "nodes_created", "new", "promoted",
              "obsolete", "demoted")

    def __init__(self):
        for f in self.FIELDS:
            setattr(self, f, 0)

    def add(self, removed, added) -> None:
        self.pushes += 1
        for r in (removed, added):
            if r is None:
                continue
            self.entries_scanned += r.entries_scanned
            self.nodes_created += r.nodes_created
            self.new += len(r.new_cis)
            self.promoted += len(r.promoted)
            self.obsolete += len(r.obsolete)
            self.demoted += len(r.demoted)

    @property
    def changes(self) -> int:
        return self.new + self.promoted + self.obsolete + self.demoted

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}


class Run:
    """Samples and counts gathered by one workload run."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.push_s: list[float] = []
        self.push_path_s = 0.0
        self.query_s: list[float] = []
        self.emit_s: list[float] = []
        self.counts = Counts()
        self.fingerprint: dict | None = None
        self.queries: list = []  # (round, stream position, query, support, closure)
        self.attempted = 0
        self.exceptions = 0
        self.mismatches = 0
        self.check_s = 0.0
        self.peak_rss_mb = 0.0
        self.live_cis = 0
        self.list_entries = 0


def trace_engine(tracer: Tracer, driver) -> None:
    engine = driver.engine
    tracer.attach(engine, "shift_add", "engine.shift_add")
    tracer.attach(engine, "shift_remove", "engine.shift_remove")
    tracer.attach(engine, "update_cis_inc", "engine.update_cis_inc")
    tracer.attach(engine, "update_cis_dec", "engine.update_cis_dec")
    tracer.attach(engine, "closure_record", "engine.closure_record")
    tracer.attach(engine, "snapshot", "store.snapshot")
    tracer.attach(engine.trie, "reset", "trie.reset")
    tracer.attach(engine.index, "add", "store.index_add")
    tracer.attach(engine.index, "remove", "store.index_remove")


def trace_estimator(tracer: Tracer, miner) -> None:
    tracer.attach(miner, "predict", "estimator.predict")
    tracer.attach(miner, "transform", "estimator.transform")


def peak_rss_mb() -> float:
    """Peak resident memory so far.  Read at the end of the fixed-size prefix
    the fingerprint covers, so it does not grow with how many rounds or
    segments a faster program gets through (freed arenas are not returned)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_queries(oracle, run: Run, transactions_of, window: int | None) -> None:
    """Referee every recorded query answer against the window it was asked in.

    ``transactions_of(round)`` gives the round's transaction list; the
    window at stream position ``pos`` holds transactions ``pos - window``
    to ``pos - 1`` (all of them in landmark mode).
    """
    db: dict[int, frozenset] = {}
    current_round = None
    filled = 0
    for rnd, pos, query, support, closure in run.queries:
        if rnd != current_round:
            current_round, db, filled = rnd, {}, 0
            stream = transactions_of(rnd)
        while filled < pos:
            db[filled] = frozenset(stream[filled % len(stream)])
            if window is not None:
                db.pop(filled - window, None)
            filled += 1
        want_support = len(oracle.support_tids(db, query))
        want_closure = oracle.closure(db, query)
        if support != want_support or closure is None or frozenset(closure) != want_closure:
            run.mismatches += 1
            if run.mismatches == 1:
                print(f"query mismatch at position {pos}: {query} -> {support}, {closure}; "
                      f"referee says {want_support}, {sorted(want_closure)}", file=sys.stderr)


def run_sliding(lib, name: str, p: dict, seed: int, seconds: float,
                tracer: Tracer | None) -> Run:
    streamclose, _, oracle = lib
    stream = generators.generate(p, random.Random(f"{name}:{seed}:input"), p["stream_length"])
    qrng = random.Random(f"{name}:{seed}:query")
    n, window, segment = len(stream), p["window"], p["segment"]
    run = Run()

    def transactions(text, dictionary):
        while True:
            yield from streamclose.StreamSource(text, dictionary)

    # Each set-up fills its window from another part of the stream, so the
    # median set-up time does not hang on one window's contents.  The last
    # set-up is the one the measured phase continues from.
    for k in range(p["setup_repeats"]):
        if k:
            stream = stream[window:] + stream[:window]
        text = generators.fimi_text(stream)
        miner = source = None
        gc.collect()
        t0 = time.perf_counter()
        miner = streamclose.ClosedItemsetStreamMiner(window_size=window, mode="sliding").fit([])
        driver = miner.driver_
        source = transactions(text, driver.dictionary)
        for _ in range(window):
            driver.push_ids(next(source))
        run.setup_s.append(time.perf_counter() - t0)
    gc.collect()

    read = source.__next__
    push = driver.push_ids
    if tracer is not None:
        read = tracer.wrap(read, "formats.parse")
        push = tracer.wrap(push, PUSH_SPAN)
        trace_engine(tracer, driver)
        trace_estimator(tracer, miner)
    predict, transform, discover = miner.predict, miner.transform, miner.discover
    clock = time.perf_counter
    counts = run.counts
    pos = window
    query_support_sum = 0
    deadline = clock() + seconds
    try:
        with tracer or contextlib.nullcontext():
            while True:
                for _ in range(segment):
                    ta = clock()
                    items = read()
                    tb = clock()
                    removed, added = push(items)
                    tc = clock()
                    run.push_s.append(tc - tb)
                    run.push_path_s += tc - ta
                    counts.add(removed, added)
                    pos += 1
                    query = generators.sample_query(
                        qrng, stream[(pos - 1 - qrng.randrange(window)) % n])
                    td = clock()
                    support = predict([query])[0]
                    closure = transform([query])[0]
                    run.query_s.append(clock() - td)
                    run.queries.append((0, pos, query, support, closure))
                    query_support_sum += support
                te = clock()
                discover(2)
                run.emit_s.append(clock() - te)
                if run.fingerprint is None:
                    run.peak_rss_mb = peak_rss_mb()
                    run.fingerprint = dict(counts.as_dict(), live_cis=driver.live_cis,
                                           list_entries=driver.engine.index.entry_count,
                                           query_support_sum=query_support_sum)
                if clock() >= deadline:
                    break
    except Exception:
        traceback.print_exc()
        run.exceptions += 1
    run.live_cis = driver.live_cis
    run.list_entries = driver.engine.index.entry_count
    run.attempted = counts.pushes + len(run.query_s) + len(run.emit_s) + 1

    t0 = time.perf_counter()
    check_queries(oracle, run, lambda _: stream, window)
    # Final gate: the whole family of the last window, supports included.
    want = oracle.closed_itemsets(
        {i: frozenset(stream[(pos - window + i) % n]) for i in range(window)})
    got = {frozenset(items): s for items, s in driver.snapshot(1)}
    if got != want:
        run.mismatches += 1
        print(f"final window family differs from the referee: {len(got)} vs "
              f"{len(want)} closed itemsets", file=sys.stderr)
    run.check_s = time.perf_counter() - t0
    return run


def run_landmark(lib, name: str, p: dict, seed: int, seconds: float,
                 tracer: Tracer | None) -> Run:
    streamclose, _, oracle = lib
    warmup, updates, emit_every = p["warmup"], p["round_updates"], p["emit_every"]
    qrng = random.Random(f"{name}:{seed}:query")
    run = Run()
    streams = []
    clock = time.perf_counter
    counts = run.counts
    deadline = clock() + seconds
    try:
        # Fixed-size rounds, each from a fresh estimator, until the deadline:
        # every round covers the same state sizes, however fast the program.
        while not streams or clock() < deadline:
            rnd = len(streams)
            stream = generators.generate(
                p, random.Random(f"{name}:{seed}:input:{rnd}"), warmup + updates)
            streams.append(stream)
            miner = None
            gc.collect()
            t0 = clock()
            miner = streamclose.ClosedItemsetStreamMiner(mode="landmark").fit(stream[:warmup])
            run.setup_s.append(clock() - t0)
            update = miner.update
            if tracer is not None:
                update = tracer.wrap(update, PUSH_SPAN)
                trace_engine(tracer, miner.driver_)
                trace_estimator(tracer, miner)
            predict, transform, discover = miner.predict, miner.transform, miner.discover
            query_support_sum = 0
            with tracer or contextlib.nullcontext():
                for pos in range(warmup + 1, warmup + updates + 1):
                    tb = clock()
                    removed, added = update(stream[pos - 1])
                    tc = clock()
                    run.push_s.append(tc - tb)
                    run.push_path_s += tc - tb
                    counts.add(removed, added)
                    query = generators.sample_query(qrng, stream[qrng.randrange(pos)])
                    td = clock()
                    support = predict([query])[0]
                    closure = transform([query])[0]
                    run.query_s.append(clock() - td)
                    run.queries.append((rnd, pos, query, support, closure))
                    query_support_sum += support
                    if (pos - warmup) % emit_every == 0:
                        te = clock()
                        discover(2)
                        run.emit_s.append(clock() - te)
            driver = miner.driver_
            run.live_cis = driver.live_cis
            run.list_entries = driver.engine.index.entry_count
            if run.fingerprint is None:
                run.peak_rss_mb = peak_rss_mb()
                run.fingerprint = dict(counts.as_dict(), live_cis=run.live_cis,
                                       list_entries=run.list_entries,
                                       query_support_sum=query_support_sum)
    except Exception:
        traceback.print_exc()
        run.exceptions += 1
    run.attempted = counts.pushes + len(run.query_s) + len(run.emit_s)

    t0 = time.perf_counter()
    check_queries(oracle, run, streams.__getitem__, None)
    run.check_s = time.perf_counter() - t0
    return run


RUNNERS = {"sliding": run_sliding, "landmark": run_landmark}


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile; NaN when there are no samples."""
    if not samples:
        return math.nan
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(samples: list[float]) -> list:
    """Highest of the usual percentiles with at least ten samples beyond it,
    as [name, milliseconds]; [None, None] when not even the median has."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.5):
        if len(samples) * (1 - q) >= 10:
            return [f"p{q * 100:g}", quantile(samples, q) * 1e3]
    return [None, None]


def end_to_end(run: Run) -> dict:
    ms = 1e3
    return {
        "push_tps": len(run.push_s) / run.push_path_s if run.push_s else math.nan,
        "push_p50_ms": quantile(run.push_s, 0.5) * ms,
        "push_p95_ms": quantile(run.push_s, 0.95) * ms,
        "query_qps": len(run.query_s) / sum(run.query_s) if run.query_s else math.nan,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": quantile(run.setup_s, 0.5),
    }


def reported(run: Run) -> dict:
    """Timings the report prints beside the gated ones (spec.json "reported")."""
    ms = 1e3
    return {
        "push_p99_ms": quantile(run.push_s, 0.99) * ms,
        "emit_p50_ms": quantile(run.emit_s, 0.5) * ms,
        "query_p50_ms": quantile(run.query_s, 0.5) * ms,
        "query_p95_ms": quantile(run.query_s, 0.95) * ms,
        "query_p99_ms": quantile(run.query_s, 0.99) * ms,
    }


def per_layer(run: Run, tracer: Tracer) -> dict:
    c = run.counts
    s = tracer.self_s
    pushes = max(1, c.pushes)
    return {
        "formats.parse_s": s["formats.parse"],
        "window.push_self_s": s[PUSH_SPAN],
        "engine.route_s": s["engine.shift_add"] + s["engine.shift_remove"],
        "engine.pushes": c.pushes,
        "engine.entries_scanned": c.entries_scanned,
        "engine.entries_scanned_per_push": c.entries_scanned / pushes,
        "engine.categorize_add_s": s["engine.update_cis_inc"],
        "engine.categorize_remove_s": s["engine.update_cis_dec"],
        "engine.changes_per_push": c.changes / pushes,
        "engine.useful_per_scanned": c.changes / max(1, c.entries_scanned),
        "engine.closure_s": s["engine.closure_record"],
        "trie.nodes_created": c.nodes_created,
        "trie.nodes_per_push": c.nodes_created / pushes,
        "trie.end_node_ratio": c.changes / max(1, c.nodes_created),
        "trie.reset_s": s["trie.reset"],
        "store.index_add_s": s["store.index_add"],
        "store.index_remove_s": s["store.index_remove"],
        "store.snapshot_s": s["store.snapshot"],
        "store.materialize_s": s["store.materialize"],
        "store.live_cis": run.live_cis,
        "store.list_entries": run.list_entries,
        "estimator.predict_s": s["estimator.predict"],
        "estimator.transform_s": s["estimator.transform"],
        "gc.pause_s": s["gc"],
        "gc.push_pause_s": tracer.gc_in_root_s,
        "gc.collections": tracer.gc_collections,
        "gc.gen2_collections": tracer.gc_gen2_collections,
        "trace.push_wall_s": tracer.total_s[PUSH_SPAN],
        "oracle.check_s": run.check_s,
        "oracle.mismatches": run.mismatches,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    params = wl["smoke" if args.smoke else "params"]
    lib = import_library()

    tracer = Tracer(PUSH_SPAN) if args.trace else None
    runner = RUNNERS[wl["kind"]]
    if tracer is None:
        run = runner(lib, wl["name"], params, args.seed, args.seconds, None)
    else:
        _, estimator_mod, _ = lib
        materialize = estimator_mod.materialize_itemset
        estimator_mod.materialize_itemset = tracer.wrap(materialize, "store.materialize")
        try:
            run = runner(lib, wl["name"], params, args.seed, args.seconds, tracer)
        finally:
            estimator_mod.materialize_itemset = materialize

    failed = run.exceptions + run.mismatches
    result = {
        "workload": wl["name"],
        "seed": args.seed,
        "correct": failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": failed,
        "end_to_end": end_to_end(run),
        "reported": reported(run),
        "per_layer": per_layer(run, tracer) if tracer is not None else None,
        "samples": {"push": len(run.push_s), "query": len(run.query_s),
                    "emit": len(run.emit_s), "setup": len(run.setup_s)},
        "tail": {"push": tail(run.push_s), "query": tail(run.query_s),
                 "emit": tail(run.emit_s)},
        "fingerprint": run.fingerprint,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
