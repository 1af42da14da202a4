"""Stateful referee fuzz of the estimator's streaming and query API.

Hypothesis interleaves fit, partial_fit, update, pushes made on the miner's
driver directly, predict, transform and discover on one miner, in sliding
mode (capacity 1-6) or landmark mode, over an alphabet of eight tokens.
Every answer is checked against the referee on the engine's window record,
and the whole family after every step; the record itself must hold the last
pushes, at most the capacity of them, and ``n_seen_`` must count every push.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from streamclose import ClosedItemsetStreamMiner, oracle

ALPHABET = tuple("abcdefgh")
transactions = st.frozensets(st.sampled_from(ALPHABET), max_size=6)
# Queries may name a token no transaction carries.
queries = st.lists(st.frozensets(st.sampled_from(ALPHABET + ("z",)), max_size=4),
                   min_size=1, max_size=4)


class QueryMachine(RuleBasedStateMachine):
    @initialize(capacity=st.one_of(st.none(), st.integers(1, 6)),
                batch=st.lists(transactions, max_size=4))
    def start(self, capacity, batch):
        if capacity is None:
            self.miner = ClosedItemsetStreamMiner(mode="landmark")
        else:
            self.miner = ClosedItemsetStreamMiner(window_size=capacity, mode="sliding")
        self.capacity = capacity
        self.miner.fit([sorted(t) for t in batch])
        self.pushed = len(batch)

    def window(self) -> dict:
        tokens = self.miner.driver_.dictionary.tokens
        return {tid: frozenset(tokens[a] for a in items)
                for tid, items in self.miner.driver_.engine.window.items()}

    @rule(batch=st.lists(transactions, max_size=4))
    def partial_fit(self, batch):
        self.miner.partial_fit([sorted(t) for t in batch])
        self.pushed += len(batch)

    @rule(t=transactions)
    def update(self, t):
        removed, added = self.miner.update(sorted(t))
        self.pushed += 1
        assert added.kind == "add"
        assert (removed is not None) == (self.capacity is not None
                                         and self.pushed > self.capacity)

    @rule(t=transactions)
    def driver_push(self, t):
        self.miner.driver_.push(sorted(t))
        self.pushed += 1

    @rule(t=transactions)
    def driver_push_ids(self, t):
        driver = self.miner.driver_
        driver.push_ids([driver.dictionary.intern(tok) for tok in sorted(t)])
        self.pushed += 1

    @rule(qs=queries)
    def predict(self, qs):
        db = self.window()
        want = [len(oracle.support_tids(db, q)) if q else 0 for q in qs]
        assert self.miner.predict([sorted(q) for q in qs]) == want

    @rule(qs=queries)
    def transform(self, qs):
        db = self.window()
        got = self.miner.transform([sorted(q) for q in qs])
        for q, closure in zip(qs, got):
            if not q or not oracle.support_tids(db, q):
                assert closure is None
            else:
                assert len(set(closure)) == len(closure)
                assert frozenset(closure) == oracle.closure(db, q)

    @rule(min_support=st.integers(0, 4))
    def discover(self, min_support):
        rows = self.miner.discover(min_support)
        want = {c: s for c, s in oracle.closed_itemsets(self.window()).items()
                if s >= max(1, min_support)}
        assert {frozenset(c): s for c, s in rows} == want
        intern = self.miner.driver_.dictionary.intern
        keys = [tuple(intern(tok) for tok in c) for c, _ in rows]
        assert keys == sorted(keys)

    @invariant()
    def family_matches_referee(self):
        driver = self.miner.driver_
        assert self.miner.n_seen_ == self.pushed
        held = self.pushed if self.capacity is None else min(self.pushed, self.capacity)
        assert sorted(driver.engine.window) == list(range(self.pushed - held, self.pushed))
        want = oracle.closed_itemsets(self.window())
        assert {frozenset(c): s for c, s in driver.snapshot(1)} == want


QueryMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40,
                                          deadline=None)
test_query_api_matches_referee = QueryMachine.TestCase
