"""The library's docstring examples run as part of the suite."""

import doctest

from streamclose import estimator


def test_estimator_docstring_examples_pass():
    result = doctest.testmod(estimator)
    assert result.attempted > 0
    assert result.failed == 0
