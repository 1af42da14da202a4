"""Estimator facade: parameter protocol, streaming, queries, validation."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    db = window_db(miner.driver_.engine.window.items())
    tokens = miner.driver_.dictionary.tokens
    want = {tuple(sorted(tokens[a] for a in c)): s
            for c, s in oracle.closed_itemsets(db).items()}
    got = {tuple(sorted(items)): s for items, s in miner.discover()}
    assert got == want
    assert sorted(db) == list(range(1, 10))


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


# A bad transaction, the error it raises and its message, with "{at}" where
# a batch entry point names the bad transaction's position.
BAD_TRANSACTIONS = {
    "str": ("xa", TypeError, "transaction{at} is a bare string; pass a sequence of tokens"),
    "bytes": (b"xa", TypeError, "transaction{at} is a bare string; pass a sequence of tokens"),
    "42": (42, TypeError, "transaction{at} is not iterable"),
    "2.5": (["x", 2.5], TypeError, "token 2.5{at} is float; tokens must be str or int"),
    "True": (["x", True], TypeError, "token True{at} is bool; tokens must be str or int"),
    "False": (["x", False], TypeError, "token False{at} is bool; tokens must be str or int"),
    "empty": (["x", ""], ValueError, "empty string token{at}"),
    "None": (["x", None], TypeError, "token None{at} is NoneType; tokens must be str or int"),
}


@pytest.mark.parametrize("case", BAD_TRANSACTIONS)
def test_every_entry_point_applies_the_one_token_rule(case):
    # The batch entry points see the bad transaction at positions 0 to 2,
    # after ones that would intern new tokens, and name that position.  Each
    # raises the same error; the mutating ones change nothing, the
    # dictionary included.
    bad, error, message = BAD_TRANSACTIONS[case]
    miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    miner.fit([["a", "b"], ["b", "c"]])
    driver = miner.driver_
    calls = [("StreamDriver.push", lambda: driver.push(bad), ""),
             ("update", lambda: miner.update(bad), "")]
    for position in range(3):
        X = [["y"], ["a", "z"]][:position] + [bad, ["w"]]
        for name in ("fit", "partial_fit", "predict", "transform"):
            calls.append((name, functools.partial(getattr(miner, name), X),
                          f" at position {position}"))

    def state():
        return (miner.driver_, list(driver.dictionary.tokens), dict(driver.engine.window),
                driver.next_tid, miner.n_seen_, miner.discover())

    before = state()
    for name, call, at in calls:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error, name
        assert str(exc.value) == message.format(at=at), name
        assert state() == before, name


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


def test_transform_keeps_ids_pushed_around_the_dictionary():
    # an id from push_ids that was never interned has no token; transform
    # keeps it as it is, as discover does, instead of indexing the token
    # list with it (past the end it raised, below 0 it read a wrong token)
    miner = ClosedItemsetStreamMiner().fit([])
    miner.driver_.dictionary.intern("a")
    miner.driver_.push_ids([0, 7])
    assert miner.discover() == [(("a", 7), 1)]
    assert miner.transform([["a"]]) == [("a", 7)]
    miner = ClosedItemsetStreamMiner().fit([])
    for tok in ("a", "b"):
        miner.driver_.dictionary.intern(tok)
    miner.driver_.push_ids([-1, 0])
    assert miner.discover() == [((-1, "a"), 1)]
    assert miner.transform([["a"]]) == [(-1, "a")]
    miner.update(["a", "b"])
    assert miner.transform([["a"], ["b"]]) == [("a",), ("a", "b")]


# A push of tokens from a five-token alphabet, or a push_ids of raw ids from
# below 0 to past the dictionary's end: ids 0-4 have no token until their
# token is pushed, and ids 5-7 never get one.
mixed_pushes = st.lists(st.one_of(
    st.tuples(st.just("push"), st.frozensets(st.sampled_from("abcde"), max_size=4)),
    st.tuples(st.just("push_ids"), st.frozensets(st.integers(-3, 7), max_size=4))),
    max_size=20)


@settings(max_examples=80, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 5)), pushes=mixed_pushes,
       queries=st.lists(st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=3),
                        min_size=20, max_size=20))
def test_ids_pushed_around_the_dictionary_render_by_one_rule(capacity, pushes, queries):
    # after every push, discover and transform render each id by the rule at
    # that moment: an id with a token becomes it, any other id stays as it is
    if capacity is None:
        miner = ClosedItemsetStreamMiner(mode="landmark").fit([])
    else:
        miner = ClosedItemsetStreamMiner(window_size=capacity, mode="sliding").fit([])
    driver = miner.driver_
    for (kind, x), q in zip(pushes, queries):
        if kind == "push":
            driver.push(sorted(x))
        else:
            driver.push_ids(x)
        tokens = driver.dictionary.tokens

        def render(ids):
            return tuple(tokens[a] if 0 <= a < len(tokens) else a for a in sorted(ids))

        db = {t: frozenset(x) for t, x in driver.engine.window.items()}
        want = sorted((tuple(sorted(c)), s) for c, s in oracle.closed_itemsets(db).items())
        assert driver.snapshot() == [(render(c), s) for c, s in want]
        query = [t for t in sorted(q) if t in tokens]
        if query:
            ids = [tokens.index(t) for t in query]
            closure = render(oracle.closure(db, ids)) if oracle.support_tids(db, ids) else None
            assert miner.transform([query]) == [closure]


def test_queries_on_fully_evicted_tokens():
    miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    miner.fit([["a", "b"], ["c"], ["c"]])
    assert miner.predict([["a"], ["a", "b"], ["c", "a"], ["c"]]) == [0, 0, 0, 2]
    assert miner.transform([["a"], ["b", "a"], ["c"]]) == [None, None, ("c",)]


def test_queries_pick_the_closure_in_any_token_order():
    stream = [list("wxyv"), list("wxy"), list("wx"), list("xu"), list("xt"), list("xut"),
              list("x")]
    miner = ClosedItemsetStreamMiner().fit(stream)
    db = window_db(miner.driver_.engine.window.items())
    tokens = miner.driver_.dictionary.tokens
    for query in [("w", "x"), ("w", "x", "y"), ("x", "u")]:
        ids = [miner.driver_.dictionary.intern(t) for t in query]
        want = {tokens[a] for a in oracle.closure(db, ids)}
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
    driver = miner.driver_
    eng = driver.engine
    # drop the ab record from b's inverted list: evicting ab then leaves
    # the full-itemset node with no CI ending on it, after the record
    # ending on a has already been demoted
    b = driver.dictionary.intern("b")
    del eng.index.lists[b][next(iter(eng.index.lists[b]))]
    with pytest.raises(AssertionError):
        miner.update(["d"])

    def state():
        return (list(driver.dictionary.tokens), dict(eng.window), driver.next_tid,
                miner.n_seen_)

    # every call is refused before it interns a token (partial_fit and the
    # driver's pushes used to intern first)
    before = state()
    assert before[0] == ["a", "b", "c", "d"]
    assert before[1] == {0: (0, 1), 1: (2,)}  # the window before the failed shift
    for call in (lambda: miner.update(["e"]),
                 lambda: miner.partial_fit([["e", "f"]]),
                 lambda: miner.partial_fit([]),
                 lambda: driver.push(["g"]),
                 lambda: driver.push_ids(map(driver.dictionary.intern, ["h"])),
                 lambda: miner.predict([["c"]]),
                 lambda: miner.predict([["unknown"]]),
                 lambda: miner.transform([["c"]]),
                 lambda: miner.discover()):
        with pytest.raises(RuntimeError, match="failed part-way"):
            call()
        assert state() == before
    # a refit starts from a fresh engine
    miner.fit([["a", "b"], ["c"]])
    assert miner.predict([["c"], ["a", "b"]]) == [1, 1]


class Token(str):
    pass


class Number(int):
    pass


def test_subclass_tokens_answer_as_plain_tokens():
    plain_stream = [["a", 1, "b"], ["a", 1], ["b", 2], ["a", "b", 2], ["a", 2]]
    sub = {"a": Token("a"), "b": Token("b"), 1: Number(1), 2: Number(2)}
    queries = [["a"], [1, "b"], ["b", 2], [3], ["a", 1, "b", 2]]
    plain = ClosedItemsetStreamMiner(window_size=3, mode="sliding").fit(plain_stream[:4])
    plain.update(plain_stream[4])
    mixed = ClosedItemsetStreamMiner(window_size=3, mode="sliding").fit(
        [[sub[t] for t in row] for row in plain_stream[:4]])
    mixed.update([sub[t] for t in plain_stream[4]])
    supports, closures = plain.predict(queries), plain.transform(queries)
    assert supports == [2, 0, 2, 0, 0]
    assert mixed.discover() == plain.discover()
    for miner in (plain, mixed):
        for qs in (queries, [[sub.get(t, t) for t in q] for q in queries]):
            assert miner.predict(qs) == supports
            assert miner.transform(qs) == closures
    # a subclass still takes the whole rule: an empty one is refused
    with pytest.raises(ValueError, match="empty string token at position 0"):
        plain.predict([[Token("")]])


def test_queries_take_one_shot_iterables():
    miner = ClosedItemsetStreamMiner().fit(TABLE1)
    queries = [["a", "b"], ["c"], ["z"]]
    assert miner.predict(q for q in queries) == [3, 6, 0]
    assert miner.transform(iter(queries)) == miner.transform(queries)
    assert miner.predict([iter(["a", "b"])]) == [3]
