"""Estimator-style front end for the stream miner.

The class follows the scikit-learn parameter protocol (``get_params`` /
``set_params``, parameters stored verbatim by ``__init__``) so it can be
cloned, grid-searched and composed without scikit-learn being a dependency.
Streaming enters through ``fit`` / ``partial_fit`` / ``update``; results come
out of ``discover``, ``transform`` and ``predict``.
"""

from __future__ import annotations

from .store import materialize_itemset
from .window import LANDMARK, StreamDriver, WindowConfig


class NotFittedError(ValueError):
    """Estimator used before fit/partial_fit."""


def check_itemset(x, position=None) -> tuple:
    """Validate one transaction: an iterable of str/int tokens.

    Bare strings are rejected because iterating them silently splits into
    characters, which is never what a caller meant.
    """
    where = "" if position is None else f" at position {position}"
    if isinstance(x, (str, bytes)):
        raise TypeError(
            f"transaction{where} is a bare string; pass a sequence of tokens")
    try:
        tokens = tuple(x)
    except TypeError:
        raise TypeError(f"transaction{where} is not iterable") from None
    for t in tokens:
        if not isinstance(t, (str, int)):
            raise TypeError(
                f"token {t!r}{where} is {type(t).__name__}; tokens must be str or int")
        if t == "":
            raise ValueError(f"empty string token{where}")
    return tokens


def check_transactions(X) -> list[tuple]:
    """Validate a transaction collection, returning token tuples."""
    if isinstance(X, (str, bytes)):
        raise TypeError("X is a bare string; pass an iterable of transactions")
    return [check_itemset(x, i) for i, x in enumerate(X)]


class ClosedItemsetStreamMiner:
    """Maintain the closed itemsets of a transaction window incrementally.

    Parameters
    ----------
    window_size : int or None, default=None
        Sliding-window capacity.  Required when ``mode="sliding"``; ignored
        in landmark mode.
    mode : {"landmark", "sliding"}, default="landmark"
        Landmark keeps every transaction ever seen; sliding evicts the
        oldest once the window is full.
    min_support : int, default=1
        Emission threshold for ``discover``.  Maintenance always tracks the
        full family, so this can be changed between calls at no cost.

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
        config = WindowConfig(capacity=self.window_size, mode=self.mode,
                              min_supp=max(1, int(self.min_support)))
        return StreamDriver(config)

    def fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Reset state and consume ``X`` (an iterable of transactions)."""
        self.driver_ = self._make_driver()
        self.n_seen_ = 0
        return self.partial_fit(X)

    def partial_fit(self, X, y=None) -> "ClosedItemsetStreamMiner":
        """Consume more transactions without resetting."""
        if not hasattr(self, "driver_"):
            self.driver_ = self._make_driver()
            self.n_seen_ = 0
        for t in check_transactions(X):
            self.driver_.push(t)
            self.n_seen_ += 1
        return self

    def update(self, transaction):
        """Push a single transaction; returns the (evict, add) shift reports."""
        self._require_fitted()
        reports = self.driver_.push(check_itemset(transaction))
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
        return self.driver_.snapshot(max(1, int(ms)))

    def _lookup(self, tokens):
        """Closure record for a token itemset, or None when unsupported."""
        dictionary = self.driver_.dictionary
        if not tokens or not all(tok in dictionary for tok in tokens):
            return None
        return self.driver_.engine.closure_record(
            dictionary.intern(tok) for tok in tokens)

    def transform(self, X) -> list[tuple | None]:
        """Map each query itemset to its closure in the current window.

        The closure is the largest itemset contained in exactly the window
        transactions that contain the query.  Queries covered by no window
        transaction (and empty queries) map to None.
        """
        self._require_fitted()
        engine = self.driver_.engine
        dictionary = self.driver_.dictionary
        out = []
        for t in check_transactions(X):
            rec = self._lookup(t)
            if rec is None:
                out.append(None)
            else:
                items = materialize_itemset(engine.store, engine.index, rec.id)
                out.append(tuple(dictionary.token(a) for a in items))
        return out

    def predict(self, X) -> list[int]:
        """Support of each query itemset in the current window (0 if none)."""
        self._require_fitted()
        out = []
        for t in check_transactions(X):
            rec = self._lookup(t)
            out.append(rec.support if rec is not None else 0)
        return out

    def _require_fitted(self) -> None:
        """Refuse use before fitting, and after a shift failed part-way."""
        if not hasattr(self, "driver_"):
            raise NotFittedError(
                f"{type(self).__name__} has not been fitted; call fit or partial_fit")
        self.driver_.engine.check_usable()
