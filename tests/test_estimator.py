"""Estimator facade: parameter protocol, streaming, queries, validation."""

import itertools

import pytest

from streamclose import ClosedItemsetStreamMiner, NotFittedError, oracle
from streamclose.estimator import check_itemset, check_transactions
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
    with pytest.raises(TypeError):
        check_transactions("abc")
    with pytest.raises(TypeError):
        check_itemset("abc")
    miner = ClosedItemsetStreamMiner()
    with pytest.raises(TypeError):
        miner.fit(["ab", "cd"])


def test_validation_rejects_bad_tokens():
    with pytest.raises(TypeError):
        check_itemset([1.5])
    with pytest.raises(ValueError):
        check_itemset([""])
    with pytest.raises(TypeError):
        check_itemset(42)


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
    # the full-itemset node to the bootstrap record alone, after the record
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
