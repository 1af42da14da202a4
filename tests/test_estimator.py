"""Estimator facade: parameter protocol, streaming, queries, validation."""

import itertools

import pytest

from streamclose import ClosedItemsetStreamMiner, NotFittedError, oracle
from conftest import TABLE1, TABLE2, window_db


def test_default_construction_is_usable():
    miner = ClosedItemsetStreamMiner()
    miner.fit([["a", "b"], ["b"]])
    assert miner.discover() == [(("a", "b"), 1), (("b",), 2)]


def test_get_params_roundtrip():
    miner = ClosedItemsetStreamMiner(window_size=5, mode="sliding", min_support=2)
    params = miner.get_params()
    assert params == {"window_size": 5, "mode": "sliding", "min_support": 2}
    clone = ClosedItemsetStreamMiner(**params)
    assert clone.get_params() == params


def test_set_params():
    miner = ClosedItemsetStreamMiner()
    assert miner.set_params(window_size=3, mode="sliding") is miner
    assert miner.window_size == 3
    with pytest.raises(ValueError):
        miner.set_params(frobnicate=1)


def test_sklearn_clone_compatibility():
    base = pytest.importorskip("sklearn.base")
    miner = ClosedItemsetStreamMiner(window_size=7, mode="sliding")
    clone = base.clone(miner)
    assert clone is not miner
    assert clone.get_params() == miner.get_params()


def test_repr_shows_non_defaults():
    text = repr(ClosedItemsetStreamMiner(window_size=9, mode="sliding"))
    assert text == "ClosedItemsetStreamMiner(mode='sliding', window_size=9)"
    assert repr(ClosedItemsetStreamMiner()) == "ClosedItemsetStreamMiner()"


def test_fit_landmark_golden():
    miner = ClosedItemsetStreamMiner().fit(TABLE1)
    assert dict(miner.discover()) == TABLE2
    assert miner.n_seen_ == 10


def test_fit_resets_partial_fit_extends():
    miner = ClosedItemsetStreamMiner()
    miner.fit(TABLE1[:5])
    miner.fit(TABLE1[:9])          # fresh fit, not cumulative
    assert miner.n_seen_ == 9
    miner.partial_fit(TABLE1[9:])  # now extend
    assert miner.n_seen_ == 10
    assert dict(miner.discover()) == TABLE2


def test_partial_fit_initializes():
    miner = ClosedItemsetStreamMiner()
    miner.partial_fit([["x", "y"]])
    assert miner.discover() == [(("x", "y"), 1)]


def test_sliding_window_enforced():
    miner = ClosedItemsetStreamMiner(window_size=9, mode="sliding").fit(TABLE1)
    db = window_db(miner.driver_.buffer)
    tok = miner.driver_.dictionary.token
    want = {tuple(sorted(tok(a) for a in c)): s
            for c, s in oracle.closed_itemsets(db).items()}
    got = {tuple(sorted(items)): s for items, s in miner.discover()}
    assert got == want
    assert len(miner.driver_.buffer) == 9


def test_sliding_without_window_size_fails_at_fit():
    miner = ClosedItemsetStreamMiner(mode="sliding")
    with pytest.raises(ValueError):
        miner.fit(TABLE1)


@pytest.mark.parametrize("window_size", [2.5, True, "3"])
def test_fit_rejects_a_window_size_that_is_not_an_int(window_size):
    miner = ClosedItemsetStreamMiner(window_size=window_size, mode="sliding")
    with pytest.raises(TypeError, match="capacity must be an int"):
        miner.fit(TABLE1)
    assert not hasattr(miner, "driver_")


def test_update_returns_reports():
    miner = ClosedItemsetStreamMiner(window_size=1, mode="sliding")
    miner.fit([["a"]])
    removed, added = miner.update(["b"])
    assert removed is not None and removed.kind == "remove"
    assert added.kind == "add"
    assert miner.discover() == [(("b",), 1)]


def test_discover_min_support_override():
    miner = ClosedItemsetStreamMiner(min_support=2).fit(TABLE1)
    at2 = dict(miner.discover())
    assert at2 == {c: s for c, s in TABLE2.items() if s >= 2}
    assert dict(miner.discover(min_support=6)) == {("c",): 6}
    assert dict(miner.discover(min_support=1)) == TABLE2


@pytest.mark.parametrize("min_support", [2.7, True, "x", None])
def test_min_support_that_is_not_an_int_is_refused(min_support):
    # 2.7 used to emit at 2 and up, and "x" was accepted by fit and failed
    # only in discover
    miner = ClosedItemsetStreamMiner(min_support=min_support)
    with pytest.raises(TypeError, match="min_support must be an int"):
        miner.fit(TABLE1)
    with pytest.raises(TypeError, match="min_support must be an int"):
        miner.partial_fit(TABLE1)
    assert not hasattr(miner, "driver_")
    fitted = ClosedItemsetStreamMiner().fit(TABLE1)
    driver = fitted.driver_
    if min_support is not None:  # None asks discover for the constructor value
        with pytest.raises(TypeError, match="min_support must be an int"):
            fitted.discover(min_support=min_support)
    fitted.set_params(min_support=min_support)
    with pytest.raises(TypeError, match="min_support must be an int"):
        fitted.discover()
    with pytest.raises(TypeError, match="min_support must be an int"):
        fitted.fit(TABLE1[:2])
    assert fitted.driver_ is driver and fitted.n_seen_ == len(TABLE1)


def test_min_support_below_one_acts_as_one():
    miner = ClosedItemsetStreamMiner(min_support=-4).fit(TABLE1)
    assert dict(miner.discover()) == TABLE2
    assert dict(miner.discover(0)) == TABLE2


def test_transform_maps_to_closures():
    miner = ClosedItemsetStreamMiner().fit(TABLE1[:9])
    got = miner.transform([["h"], ["a", "b"], ["c", "g", "h"], ["z"], []])
    assert got[0] == ("f", "h")
    assert got[1] == ("a", "b", "c")
    assert got[2] == ("c", "d", "f", "g", "h")
    assert got[3] is None
    assert got[4] is None


def test_predict_supports():
    miner = ClosedItemsetStreamMiner().fit(TABLE1)
    assert miner.predict([["a", "b"], ["c"], ["g", "h"], ["z"], ["a", "z"]]) == \
        [3, 6, 4, 0, 0]


def test_queries_require_fit():
    miner = ClosedItemsetStreamMiner()
    with pytest.raises(NotFittedError):
        miner.discover()
    with pytest.raises(NotFittedError):
        miner.transform([["a"]])
    with pytest.raises(NotFittedError):
        miner.update(["a"])


def test_validation_rejects_bare_strings():
    # a bare string X would iterate as one-character transactions
    miner = ClosedItemsetStreamMiner().fit([["a"]])
    for call in (miner.fit, miner.partial_fit, miner.predict, miner.transform):
        with pytest.raises(TypeError, match="X is a bare string"):
            call("abc")
    with pytest.raises(TypeError, match="at position 0 is a bare string"):
        miner.fit(["ab", "cd"])
    assert miner.discover() == [(("a",), 1)]


# A bad transaction, the error it raises and a pattern its message matches.
BAD_TRANSACTIONS = {
    "str": ("xa", TypeError, "is a bare string"),
    "bytes": (b"xa", TypeError, "is a bare string"),
    "42": (42, TypeError, "is not iterable"),
    "2.5": (["x", 2.5], TypeError, "is float"),
    "True": (["x", True], TypeError, "is bool"),
    "False": (["x", False], TypeError, "is bool"),
    "empty": (["x", ""], ValueError, "empty string token"),
    "None": (["x", None], TypeError, "is NoneType"),
}


@pytest.mark.parametrize("case", BAD_TRANSACTIONS)
def test_every_entry_point_applies_the_one_token_rule(case):
    # The batch entry points see the bad transaction second, after one that
    # would intern a new token.  Each raises the same error; the mutating
    # ones change nothing, the dictionary included.
    bad, error, pattern = BAD_TRANSACTIONS[case]
    miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    miner.fit([["a", "b"], ["b", "c"]])
    driver = miner.driver_
    entry_points = {
        "StreamDriver.push": lambda: driver.push(bad),
        "update": lambda: miner.update(bad),
        "fit": lambda: miner.fit([["y"], bad]),
        "partial_fit": lambda: miner.partial_fit([["y"], bad]),
        "predict": lambda: miner.predict([["y"], bad]),
        "transform": lambda: miner.transform([["y"], bad]),
    }

    def state():
        return (miner.driver_, list(driver.dictionary.tokens), list(driver.buffer),
                driver.next_tid, miner.n_seen_, miner.discover())

    before = state()
    messages = set()
    for name, call in entry_points.items():
        with pytest.raises(error, match=pattern) as exc:
            call()
        assert type(exc.value) is error, name
        messages.add(str(exc.value).replace(" at position 1", ""))
        assert state() == before, name
    assert len(messages) == 1


@pytest.mark.parametrize("method", ["fit", "partial_fit"])
def test_a_refused_batch_changes_nothing(method):
    # fit used to replace the driver before checking, and a refused first
    # partial_fit left an unfitted miner holding a driver
    batch = [["a", "y"], ["z"], ["b", 1.5]]
    fitted = ClosedItemsetStreamMiner(window_size=2, mode="sliding").fit(TABLE1[:3])
    driver = fitted.driver_

    def state():
        return fitted.n_seen_, list(driver.dictionary.tokens), fitted.discover()

    before = state()
    with pytest.raises(TypeError):
        getattr(fitted, method)(batch)
    assert fitted.driver_ is driver
    assert state() == before

    unfitted = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    with pytest.raises(TypeError):
        getattr(unfitted, method)(batch)
    assert not hasattr(unfitted, "driver_") and not hasattr(unfitted, "n_seen_")
    with pytest.raises(NotFittedError):
        unfitted.discover()


def test_bool_tokens_are_rejected():
    # True equals 1: it used to share 1's id, so 1 was reported as True
    with pytest.raises(TypeError, match="is bool"):
        ClosedItemsetStreamMiner().fit([[True, "a"], [1, "b"]])
    miner = ClosedItemsetStreamMiner().fit([[1, "b"], [1]])
    with pytest.raises(TypeError, match="is bool"):
        miner.predict([[True]])
    assert miner.predict([[1]]) == [2]


def test_int_tokens_roundtrip():
    miner = ClosedItemsetStreamMiner().fit([[3, 1], [1]])
    assert miner.discover() == [((3, 1), 1), ((1,), 2)]


def test_queries_on_fully_evicted_tokens():
    miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    miner.fit([["a", "b"], ["c"], ["c"]])
    assert miner.predict([["a"], ["a", "b"], ["c", "a"], ["c"]]) == [0, 0, 0, 2]
    assert miner.transform([["a"], ["b", "a"], ["c"]]) == [None, None, ("c",)]


def test_queries_pick_the_closure_in_any_token_order():
    stream = [list("wxyv"), list("wxy"), list("wx"), list("xu"), list("xt"), list("xut"),
              list("x")]
    miner = ClosedItemsetStreamMiner().fit(stream)
    db = window_db(miner.driver_.buffer)
    tok = miner.driver_.dictionary.token
    for query in [("w", "x"), ("w", "x", "y"), ("x", "u")]:
        ids = [miner.driver_.dictionary.intern(t) for t in query]
        want = {tok(a) for a in oracle.closure(db, ids)}
        for order in itertools.permutations(query):
            assert miner.predict([order]) == [len(oracle.support_tids(db, ids))]
            assert set(miner.transform([order])[0]) == want


def test_query_duplicate_unknown_and_empty_tokens():
    miner = ClosedItemsetStreamMiner().fit(TABLE1)
    assert miner.predict([["a", "b", "a"], ["z"], ["a", "z"], []]) == [3, 0, 0, 0]
    assert miner.transform([["b", "a", "b"], ["z", "z"], []]) == \
        [("a", "b", "c"), None, None]


def test_failed_shift_poisons_the_miner():
    miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    miner.fit([["a", "b"], ["c"]])
    eng = miner.driver_.engine
    # drop the ab record from b's inverted list: evicting ab then leaves
    # the full-itemset node with no CI ending on it, after the record
    # ending on a has already been demoted
    b = miner.driver_.dictionary.intern("b")
    del eng.index.lists[b][next(iter(eng.index.lists[b]))]
    with pytest.raises(AssertionError):
        miner.update(["d"])
    for call in (lambda: miner.update(["e"]),
                 lambda: miner.partial_fit([["e"]]),
                 lambda: miner.predict([["c"]]),
                 lambda: miner.predict([["unknown"]]),
                 lambda: miner.transform([["c"]]),
                 lambda: miner.discover()):
        with pytest.raises(RuntimeError, match="failed part-way"):
            call()
    # a refit starts from a fresh engine
    miner.fit([["a", "b"], ["c"]])
    assert miner.predict([["c"], ["a", "b"]]) == [1, 1]
