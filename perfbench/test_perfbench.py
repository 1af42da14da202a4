"""The benchmark's own test: smoke sizes over every workload.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchmark_json import BENCHMARK_JSON, load_spec, render  # noqa: E402
from run import PUSH_TREE  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def smoke(workload: str, seed: int = 3, trace: int = 0, root: Path = ROOT):
    return bench("--smoke", "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.3", "--trace", str(trace), root=root)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(proc: subprocess.CompletedProcess) -> dict:
    line = next(l for l in proc.stdout.splitlines() if " fingerprint " in l)
    return json.loads(line.split(" fingerprint ", 1)[1])


def test_benchmark_json_is_generated_from_spec():
    assert BENCHMARK_JSON.read_text() == render(SPEC)


def test_benchmark_json_shape():
    bench_json = json.loads(BENCHMARK_JSON.read_text())
    assert set(bench_json) == {"command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"}
    assert 2 <= len(bench_json["workloads"]) <= 8
    names = [m["name"] for m in bench_json["end_to_end"] + bench_json["per_layer"]]
    names += [w["name"] for w in bench_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench_json["end_to_end"] + bench_json["per_layer"])
    bounds = {m["name"]: m["bound"] for m in bench_json["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metrics_gate_and_fingerprint(workload):
    first, second = smoke(workload), smoke(workload)
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
        r = result(proc)
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in r["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        assert all(v["value"] > 0 for v in r["metrics"].values())
        assert all(f" {m['name']} " in proc.stdout for m in SPEC["reported"])
    # Exact counts over a fixed prefix repeat for a fixed seed.
    assert fingerprint(first) == fingerprint(second)
    assert fingerprint(first) != fingerprint(smoke(workload, seed=4))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_per_layer_metrics(workload):
    proc = smoke(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    r = result(proc)
    assert r["correct"] is True
    assert [(k, v["unit"]) for k, v in r["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["oracle.mismatches"] == 0
    push_tree = sum(m[k] for k in PUSH_TREE)
    assert push_tree == pytest.approx(m["trace.push_wall_s"], rel=1e-6)


def checkout_copy(tmp_path: Path) -> Path:
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_fails_without_the_program(tmp_path):
    proc = smoke(WORKLOADS[0], root=checkout_copy(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload,path,old,new", [
    # A wrong query answer must be caught by the per-query referee.
    ("landmark-query", "estimator.py",
     "out.append(rec.support if rec is not None else 0)",
     "out.append(rec.support + (rec.support > 3) if rec is not None else 0)"),
    # A wrong support in the family must be caught by the final-window gate.
    ("dense-sliding", "store.py",
     "rows.append((tuple(items), rec.support))",
     "rows.append((tuple(items), rec.support + (len(items) == 3)))"),
])
def test_referee_catches_a_broken_program(tmp_path, workload, path, old, new):
    root = checkout_copy(tmp_path)
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    target = root / "src" / "streamclose" / path
    text = target.read_text()
    assert old in text
    target.write_text(text.replace(old, new))
    proc = smoke(workload, root=root)
    assert proc.returncode == 1
    r = result(proc)
    assert r["correct"] is False and r["failed"] > 0
