"""Estimator-style front end for the stream miner.

The class follows the scikit-learn parameter protocol (``get_params`` /
``set_params``, parameters stored verbatim by ``__init__``) so it can be
cloned, grid-searched and composed without scikit-learn being a dependency.
Streaming enters through ``fit`` / ``partial_fit`` / ``update``; results come
out of ``discover``, ``transform`` and ``predict``.

Each raw token is checked once by ``store.check_itemset``: ``fit`` and
``partial_fit`` check the whole batch before they change anything,
``update`` goes through ``StreamDriver.push``, and the read-only queries
check each query as they reach it.

A query issued right after a push pays mostly to bring code and data the
push did not touch back into the processor's caches, so ``predict`` and
``transform`` use the plain loops, attribute reads and dict probes the
push path runs, and create no iterator, bound method or key function.
A check costs its test alone until it fails: the error message, naming the
query's position, is built only then.
"""

from __future__ import annotations

from .store import check_int, check_itemset, materialize_itemset
from .window import LANDMARK, StreamDriver, WindowConfig


class NotFittedError(ValueError):
    """Estimator used before fit/partial_fit."""


def _transactions(X):
    """``X`` itself, a transaction collection; a bare string is refused."""
    if isinstance(X, (str, bytes)):
        raise TypeError("X is a bare string; pass an iterable of transactions")
    return X


def _lookup(driver: StreamDriver, tokens):
    """Closure record for checked ``tokens``, or None when unsupported.

    One dictionary probe per token; an unknown token is in no transaction.
    """
    id_of = driver.dictionary._ids
    ids = []
    for t in tokens:
        a = id_of.get(t)
        if a is None:
            return None
        ids.append(a)
    return driver.engine.closure_record(ids) if ids else None


class ClosedItemsetStreamMiner:
    """Maintain the closed itemsets of a transaction window incrementally.

    Parameters
    ----------
    window_size : int or None, default=None
        Sliding-window capacity.  Required when ``mode="sliding"``; ignored
        in landmark mode.  Anything but an ``int`` or None (a ``bool``, a
        float, a string) makes ``fit`` raise TypeError.
    mode : {"landmark", "sliding"}, default="landmark"
        Landmark keeps every transaction ever seen; sliding evicts the
        oldest once the window is full.
    min_support : int, default=1
        Emission threshold for ``discover``; values below 1 act as 1.
        Maintenance always tracks the full family, so this can be changed
        between calls at no cost.  Anything but an ``int`` (a ``bool``, a
        float, a string) makes ``fit``, ``partial_fit`` and ``discover``
        raise TypeError.

    Attributes
    ----------
    driver_ : StreamDriver
        The underlying window driver, available after fitting.
    n_seen_ : int
        Transactions pushed since ``fit``: the driver's tid counter.

    Examples
    --------
    >>> miner = ClosedItemsetStreamMiner(window_size=2, mode="sliding")
    >>> miner.fit([["a", "b"], ["b", "c"], ["a", "b"]])
    ClosedItemsetStreamMiner(mode='sliding', window_size=2)
    >>> sorted(miner.discover())
    [(('a', 'b'), 1), (('b',), 2), (('b', 'c'), 1)]
    >>> miner.transform([["b"]])
    [('b',)]
    >>> miner.predict([["a", "b"], ["z"]])
    [1, 0]
    """

    def __init__(self, window_size: int | None = None, mode: str = LANDMARK,
                 min_support: int = 1):
        self.window_size = window_size
        self.mode = mode
        self.min_support = min_support

    # -- parameter protocol -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {"window_size": self.window_size, "mode": self.mode,
                "min_support": self.min_support}

    def set_params(self, **params) -> "ClosedItemsetStreamMiner":
        valid = self.get_params()
        for k, v in params.items():
            if k not in valid:
                raise ValueError(f"invalid parameter {k!r} for {type(self).__name__}")
            setattr(self, k, v)
        return self

    def __repr__(self):
        shown = {k: v for k, v in sorted(self.get_params().items())
                 if v != type(self)().get_params()[k]}
        args = ", ".join(f"{k}={v!r}" for k, v in shown.items())
        return f"{type(self).__name__}({args})"

    # -- streaming ----------------------------------------------------------

    @property
    def n_seen_(self) -> int:
        return self.driver_.next_tid

    def fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Reset state and consume ``X``; a refused ``X`` changes nothing."""
        check_int(self.min_support, "min_support")
        batch = [check_itemset(x, i) for i, x in enumerate(_transactions(X))]
        self.driver_ = StreamDriver(WindowConfig(capacity=self.window_size, mode=self.mode))
        return self._consume(batch)

    def partial_fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Consume more transactions; a refused ``X`` changes nothing."""
        if not hasattr(self, "driver_"):
            return self.fit(X)
        self.driver_.engine.check_usable()
        check_int(self.min_support, "min_support")
        return self._consume(
            [check_itemset(x, i) for i, x in enumerate(_transactions(X))])

    def _consume(self, batch) -> "ClosedItemsetStreamMiner":
        """Push checked token tuples without checking them again."""
        push_ids = self.driver_.push_ids
        intern = self.driver_.dictionary.intern
        for tokens in batch:
            push_ids(map(intern, tokens))
        return self

    def update(self, transaction):
        """Push a single transaction; returns the (evict, add) shift reports."""
        return self._require_fitted().push(transaction)

    # -- queries ------------------------------------------------------------

    def discover(self, min_support: int | None = None) -> list[tuple[tuple, int]]:
        """Current closed itemsets with supports, token-level.

        Filtered at ``min_support`` (defaulting to the constructor value),
        ordered deterministically.
        """
        driver = self._require_fitted()
        ms = self.min_support if min_support is None else min_support
        return driver.snapshot(max(1, check_int(ms, "min_support")))

    def transform(self, X) -> list[tuple | None]:
        """Map each query itemset to its closure in the current window.

        The closure is the largest itemset contained in exactly the window
        transactions that contain the query.  Queries covered by no window
        transaction (and empty queries) map to None.  As in ``discover``,
        the closure's ids are translated by ``ItemDictionary.tokens_of``.
        """
        driver = self._require_fitted()
        store = driver.engine.store
        dictionary = driver.dictionary
        out = []
        i = 0
        for x in _transactions(X):
            rec = _lookup(driver, check_itemset(x, i))
            if rec is None:
                out.append(None)
            else:
                out.append(dictionary.tokens_of(materialize_itemset(store, rec)))
            i += 1
        return out

    def predict(self, X) -> list[int]:
        """Support of each query itemset in the current window (0 if none)."""
        driver = self._require_fitted()
        out = []
        i = 0
        for x in _transactions(X):
            rec = _lookup(driver, check_itemset(x, i))
            out.append(rec.support if rec is not None else 0)
            i += 1
        return out

    def _require_fitted(self) -> StreamDriver:
        """The driver, once fitted and while usable.

        Refuses use before fitting, and after a shift failed part-way.
        """
        try:
            driver = self.driver_
        except AttributeError:
            raise NotFittedError(
                f"{type(self).__name__} has not been fitted; call fit or partial_fit"
            ) from None
        driver.engine.check_usable()
        return driver
