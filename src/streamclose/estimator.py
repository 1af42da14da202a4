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
"""

from __future__ import annotations

from .store import check_itemset, materialize_itemset
from .window import LANDMARK, StreamDriver, WindowConfig


class NotFittedError(ValueError):
    """Estimator used before fit/partial_fit."""


def _check_min_support(ms) -> int:
    """Refuse a threshold that is not an ``int`` (``bool`` is not one)."""
    if isinstance(ms, bool) or not isinstance(ms, int):
        raise TypeError(f"min_support must be an int, got {ms!r}")
    return ms


def _transactions(X):
    """``enumerate(X)`` for a transaction collection; a bare string is refused."""
    if isinstance(X, (str, bytes)):
        raise TypeError("X is a bare string; pass an iterable of transactions")
    return enumerate(X)


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
        Number of transactions consumed so far.

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

    def _make_driver(self) -> StreamDriver:
        return StreamDriver(WindowConfig(capacity=self.window_size, mode=self.mode))

    def fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Reset state and consume ``X``; a refused ``X`` changes nothing."""
        _check_min_support(self.min_support)
        batch = [check_itemset(x, i) for i, x in _transactions(X)]
        self.driver_ = self._make_driver()
        self.n_seen_ = 0
        return self._consume(batch)

    def partial_fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Consume more transactions; a refused ``X`` changes nothing."""
        if not hasattr(self, "driver_"):
            return self.fit(X)
        _check_min_support(self.min_support)
        return self._consume([check_itemset(x, i) for i, x in _transactions(X)])

    def _consume(self, batch) -> "ClosedItemsetStreamMiner":
        """Push checked token tuples without checking them again."""
        push_ids = self.driver_.push_ids
        intern = self.driver_.dictionary.intern
        for tokens in batch:
            push_ids(map(intern, tokens))
            self.n_seen_ += 1
        return self

    def update(self, transaction):
        """Push a single transaction; returns the (evict, add) shift reports."""
        self._require_fitted()
        reports = self.driver_.push(transaction)
        self.n_seen_ += 1
        return reports

    # -- queries ------------------------------------------------------------

    def discover(self, min_support: int | None = None) -> list[tuple[tuple, int]]:
        """Current closed itemsets with supports, token-level.

        Filtered at ``min_support`` (defaulting to the constructor value),
        ordered deterministically.
        """
        self._require_fitted()
        ms = self.min_support if min_support is None else min_support
        return self.driver_.snapshot(max(1, _check_min_support(ms)))

    def _lookup(self, tokens):
        """Closure record for validated ``tokens``, or None when unsupported.

        One dictionary probe per token; an unknown token is in no transaction.
        """
        ids = list(map(self.driver_.dictionary._ids.get, tokens))
        if not ids or None in ids:
            return None
        return self.driver_.engine.closure_record(ids)

    def transform(self, X) -> list[tuple | None]:
        """Map each query itemset to its closure in the current window.

        The closure is the largest itemset contained in exactly the window
        transactions that contain the query.  Queries covered by no window
        transaction (and empty queries) map to None.
        """
        self._require_fitted()
        engine = self.driver_.engine
        tok = self.driver_.dictionary.tokens.__getitem__
        out = []
        for i, x in _transactions(X):
            rec = self._lookup(check_itemset(x, i))
            if rec is None:
                out.append(None)
            else:
                items = materialize_itemset(engine.store, engine.index, rec)
                out.append(tuple(map(tok, items)))
        return out

    def predict(self, X) -> list[int]:
        """Support of each query itemset in the current window (0 if none)."""
        self._require_fitted()
        out = []
        for i, x in _transactions(X):
            rec = self._lookup(check_itemset(x, i))
            out.append(rec.support if rec is not None else 0)
        return out

    def _require_fitted(self) -> None:
        """Refuse use before fitting, and after a shift failed part-way."""
        if not hasattr(self, "driver_"):
            raise NotFittedError(
                f"{type(self).__name__} has not been fitted; call fit or partial_fit")
        self.driver_.engine.check_usable()
