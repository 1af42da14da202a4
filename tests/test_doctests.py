"""The library's documentation: docstring examples run, README names the API."""

import doctest
import re
from pathlib import Path

import streamclose
from streamclose import estimator
from streamclose.formats import STATS_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_estimator_docstring_examples_pass():
    result = doctest.testmod(estimator)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_public_name_is_in_the_readme():
    # the public surface is what README documents: a name exported but
    # never named there is either undocumented or has no caller
    text = README.read_text()
    missing = [name for name in streamclose.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert missing == []


def test_readme_states_the_stats_header():
    # README's header block is the one the code writes, column for column
    header = ",".join(STATS_COLUMNS)
    assert f"\n{header}\n" in README.read_text()
