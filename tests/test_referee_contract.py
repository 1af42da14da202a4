"""The benchmark's referee test breaks the library by exact source lines.

perfbench/test_perfbench.py::test_referee_catches_a_broken_program copies
``src/`` and replaces one exact line of a library file with a wrong one,
then expects the benchmark's referee to fail the run.  If a refactor drops
or rewords that line, the replacement finds nothing and that test fails,
but only under ``pytest perfbench``.  This test reads the same parametrize
mark and checks that each line is still in its file, so the break shows in
the library's own suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_TEST = ROOT / "perfbench" / "test_perfbench.py"
LIBRARY = ROOT / "src" / "streamclose"


def mutation_cases() -> list[tuple]:
    """The (workload, path, old, new) rows of the referee test's mark."""
    tree = ast.parse(PERFBENCH_TEST.read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "test_referee_catches_a_broken_program")
    mark = next(d for d in fn.decorator_list if isinstance(d, ast.Call)
                and ast.unparse(d.func) == "pytest.mark.parametrize")
    assert ast.literal_eval(mark.args[0]) == "workload,path,old,new"
    return ast.literal_eval(mark.args[1])


def test_the_referee_test_mutates_the_store_and_the_estimator():
    assert {path for _, path, _, _ in mutation_cases()} == {"store.py", "estimator.py"}


@pytest.mark.parametrize("workload,path,old,new", mutation_cases())
def test_each_mutated_line_is_in_its_file(workload, path, old, new):
    text = (LIBRARY / path).read_text()
    assert old in text, f"{path} no longer holds {old!r}"
    assert old != new
