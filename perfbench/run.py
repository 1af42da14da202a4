"""The streamclose benchmark: every metric by name with its unit, outputs refereed.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py                  # every workload, seed 1, untraced
  python3 perfbench/run.py --smoke ...      # tiny inputs (the benchmark's own test)

Each workload runs in its own single-threaded worker process (worker.py), a
closed loop with one client.  With --trace 0 the last line of stdout is the
end-to-end result.  With --trace 1 an untraced worker runs first, then a
traced one, each for half of --seconds; the last line carries the per-layer metrics, including the
tracing overhead (traced minus untraced push_tps).  Earlier lines are a
readable report: sample counts, the tail percentile the samples support,
failures and the exact-count fingerprint.

Exit codes: 0 all outputs correct, 1 a referee mismatch or failed
operation, 2 a worker that crashed or did not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmark_json import load_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
# Per-layer self times inside a push; with the GC pauses taken inside pushes
# they add up to trace.push_wall_s.
PUSH_TREE = ("window.push_self_s", "engine.route_s", "engine.categorize_add_s",
             "engine.categorize_remove_s", "trie.reset_s", "store.index_add_s",
             "store.index_remove_s", "gc.push_pause_s")


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    # A fixed hash seed keeps str hashing, and so dict and set layouts, the
    # same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker did not finish within {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"{workload}: worker printed no result") from None


def report(spec: dict, untraced: dict, traced: dict | None) -> dict:
    """Print the readable report for one workload; return its metrics."""
    name = untraced["workload"]
    e2e = untraced["end_to_end"]
    samples = untraced["samples"]
    tail = untraced["tail"]
    print(f"== {name} (seed {untraced['seed']})")
    for m in spec["end_to_end"]:
        print(f"{name:16s} {m['name']:14s} {e2e[m['name']]:14.4f} {m['unit']}")
    for m in spec["reported"]:
        print(f"{name:16s} {m['name']:14s} {untraced['reported'][m['name']]:14.4f} "
              f"{m['unit']}  (printed, not gated)")
    counts = []
    for kind, n in samples.items():
        pct, value = tail.get(kind, (None, None))
        counts.append(f"{kind} n={n}" + (f" ({pct} = {value:.4f} ms)" if pct else ""))
    print(f"{name:16s} samples, with the highest percentile that has 10 beyond it: "
          + ", ".join(counts))
    ratio = untraced["failed"] / untraced["attempted"] if untraced["attempted"] else 1.0
    print(f"{name:16s} {'failed_ratio':14s} {ratio:14.4f} ratio  "
          f"({untraced['failed']} of {untraced['attempted']} operations)")
    print(f"{name:16s} fingerprint {json.dumps(untraced['fingerprint'], sort_keys=True)}")
    if traced is None:
        return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}

    layer = dict(traced["per_layer"])
    layer["trace.push_tps_untraced"] = e2e["push_tps"]
    layer["trace.push_tps_delta"] = traced["end_to_end"]["push_tps"] - e2e["push_tps"]
    for m in spec["per_layer"]:
        print(f"{name:16s} {m['name']:32s} {layer[m['name']]:14.6f} {m['unit']}")
    push_tree = sum(layer[k] for k in PUSH_TREE)
    print(f"{name:16s} push-tree self times + gc.push_pause_s = {push_tree:.4f} s "
          f"of trace.push_wall_s = {layer['trace.push_wall_s']:.4f} s")
    return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs from spec.json's smoke sizes")
    args = ap.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    results = []
    try:
        for name in workloads:
            start = time.monotonic()
            # A traced run splits its time between an untraced and a traced
            # worker, so it costs about as much as an untraced run.
            runs = 2 if args.trace else 1
            seconds = args.seconds / runs
            untraced = run_worker(name, args.seed, seconds, 0, args.smoke,
                                  TIME_LIMIT_S / runs)
            traced = None
            if args.trace:
                traced = run_worker(name, args.seed, seconds, 1, args.smoke,
                                    TIME_LIMIT_S - (time.monotonic() - start))
            results.append((name, untraced, traced))
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2

    metrics = {}
    correct, attempted, failed = True, 0, 0
    for name, untraced, traced in results:
        for metric, value in report(spec, untraced, traced).items():
            metrics[metric if len(results) == 1 else f"{name}/{metric}"] = value
        for r in (untraced, traced):
            if r is not None:
                correct = correct and r["correct"]
                attempted += r["attempted"]
                failed += r["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
