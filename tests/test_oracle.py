"""Referee checks: worked-example values plus the lattice laws it must obey."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamclose import oracle
import categories
from conftest import TABLE1, TABLE2, TABLE3

D10 = {n + 1: frozenset(t) for n, t in enumerate(TABLE1)}
D19 = {n: D10[n] for n in range(1, 10)}


def fam(db, **kw):
    return {tuple(sorted(c)): s for c, s in oracle.closed_itemsets(db, **kw).items()}


# ---------------------------------------------------------------------------
# covering tids / common items / closure
# ---------------------------------------------------------------------------

def test_support_tids_worked_example():
    assert oracle.support_tids(D10, "ab") == {1, 2, 7}


def test_support_tids_empty_itemset_covers_all():
    assert oracle.support_tids(D10, ()) == set(D10)


def test_support_tids_bcgh():
    assert oracle.support_tids(D10, "bcgh") == {1, 10}


def test_common_items_worked_example():
    assert oracle.common_items(D10, {2, 7}) == frozenset("abc")


def test_common_items_singleton():
    assert oracle.common_items(D10, {5}) == frozenset("g")


def test_common_items_whole_database_is_empty():
    assert oracle.common_items(D10, set(D10)) == frozenset()


def test_common_items_rejects_empty_tidset():
    with pytest.raises(ValueError):
        oracle.common_items(D10, set())


def test_common_items_unknown_tid():
    with pytest.raises(KeyError):
        oracle.common_items(D10, {99})


def test_closure_worked_example():
    assert oracle.closure(D10, "ab") == frozenset("abc")


def test_closure_idempotent_on_closed():
    assert oracle.closure(D10, "abc") == frozenset("abc")


def test_closure_of_h_before_tenth():
    assert oracle.closure(D19, "h") == frozenset("fh")


def test_closure_rejects_unsupported():
    with pytest.raises(ValueError):
        oracle.closure(D19, "abz")


# ---------------------------------------------------------------------------
# closed family
# ---------------------------------------------------------------------------

def test_closed_family_all_ten():
    assert fam(D10) == TABLE2


def test_closed_family_first_nine():
    assert fam(D19) == TABLE3


def test_closed_family_single_transaction():
    assert fam({7: frozenset("xy")}) == {("x", "y"): 1}


def test_closed_family_cap():
    rng = random.Random(7)
    db = {i: frozenset(rng.sample(range(16), 8)) for i in range(40)}
    with pytest.raises(oracle.CapExceededError):
        oracle.closed_itemsets(db, max_cis=10)


def test_closed_family_intersection_closed():
    cis = list(oracle.closed_itemsets(D10))
    family = set(cis)
    for a in cis:
        for b in cis:
            z = a & b
            if z:
                assert z in family


# ---------------------------------------------------------------------------
# shift classification
# ---------------------------------------------------------------------------

def test_classify_add_tenth_transaction():
    got = categories.classify_add(D19, "bcgh")
    assert got.new == {frozenset(x) for x in ("bcgh", "cgh", "gh", "h")}
    assert got.promoted == {frozenset(x) for x in ("bc", "c", "g")}
    assert got.closures[frozenset("gh")] == frozenset("fgh")


def test_classify_add_disjoint_transaction():
    got = categories.classify_add(D19, "zz")  # token "z" unseen
    assert got.promoted == set()
    assert got.new == {frozenset("z")}
    assert got.closures[frozenset("z")] is None


def test_classify_add_third_transaction():
    d12 = {1: D10[1], 2: D10[2]}
    got = categories.classify_add(d12, "cdfgh")
    assert got.new == {frozenset("cdfgh"), frozenset("cf")}
    assert got.closures[frozenset("cdfgh")] == frozenset("abcdefgh")
    assert got.closures[frozenset("cf")] == frozenset("abcef")
    assert got.promoted == set()


def test_classify_remove_first_transaction():
    got = categories.classify_remove(D10, 1)
    assert got.obsolete == {frozenset("abcdefgh")}
    assert len(got.demoted) == 21
    assert got.witnesses[frozenset("abcdefgh")] is None


def test_classify_remove_second_transaction():
    d2_10 = {n: D10[n] for n in range(2, 11)}
    got = categories.classify_remove(d2_10, 2)
    assert got.obsolete == {frozenset(x) for x in ("abc", "cf", "ef", "abcef", "f")}
    assert got.demoted == {frozenset("bc"), frozenset("c")}
    assert got.witnesses[frozenset("abc")] == frozenset("abcd")
    assert got.witnesses[frozenset("cf")] == frozenset("cdfgh")
    assert got.witnesses[frozenset("ef")] == frozenset("efh")
    assert got.witnesses[frozenset("f")] == frozenset("fh")
    assert got.witnesses[frozenset("abcef")] is None


def test_classify_remove_duplicate_transaction_only_demotes():
    db = {1: frozenset("ab"), 2: frozenset("ab"), 3: frozenset("abc")}
    got = categories.classify_remove(db, 1)
    assert frozenset("ab") in got.demoted
    assert got.obsolete == set()


def test_intersections_of_tenth():
    got = categories.intersections(D19, "bcgh")
    want = {frozenset(x) for x in ("bcgh", "cgh", "bc", "gh", "c", "g", "h")}
    assert got == want


# ---------------------------------------------------------------------------
# lattice laws on random data
# ---------------------------------------------------------------------------

small_db = st.dictionaries(
    keys=st.integers(0, 50),
    values=st.frozensets(st.integers(0, 7), min_size=0, max_size=6),
    min_size=1, max_size=12,
)
itemsets = st.frozensets(st.integers(0, 7), min_size=0, max_size=6)


@given(small_db, itemsets)
@settings(max_examples=150)
def test_galois_extension(db, x):
    tids = oracle.support_tids(db, x)
    if tids:
        assert x <= oracle.common_items(db, tids)


@given(small_db, itemsets)
@settings(max_examples=150)
def test_closure_idempotent(db, x):
    if not oracle.support_tids(db, x):
        return
    k = oracle.closure(db, x)
    assert oracle.closure(db, k) == k


@given(small_db, itemsets, itemsets)
@settings(max_examples=150)
def test_closure_monotone(db, x, y):
    bigger = x | y
    if not oracle.support_tids(db, bigger):
        return
    assert oracle.closure(db, x) <= oracle.closure(db, bigger)


@given(small_db)
@settings(max_examples=100)
def test_family_members_are_closed(db):
    fam_ = oracle.closed_itemsets(db)
    for c, s in fam_.items():
        assert s == len(oracle.support_tids(db, c))
        assert oracle.closure(db, c) == c


@given(small_db, itemsets)
@settings(max_examples=100)
def test_classify_add_partitions_intersections(db, t):
    if not t or any(t == v for v in db.values()):
        return
    got = categories.classify_add(db, t)
    fam_ = oracle.closed_itemsets(db)
    delta = {c & t for c in fam_ if c & t} | {t}
    assert got.new | got.promoted == delta
    assert not (got.new & got.promoted)
    # membership characterization: promoted are exactly the CIs under t
    assert got.promoted == {c for c in fam_ if c <= t}


@given(small_db)
@settings(max_examples=100)
def test_classify_remove_witness_rule(db):
    db = {j: v for j, v in db.items() if v}
    if not db:
        return
    tid = sorted(db)[0]
    got = categories.classify_remove(db, tid)
    fam_ = oracle.closed_itemsets(db)
    t = db[tid]
    # obsolete iff a witness exists with support exactly one less
    for c in got.obsolete | got.demoted:
        has_witness = (fam_[c] == 1 or any(
            g & t == c and fam_[g] == fam_[c] - 1 for g in fam_))
        assert has_witness == (c in got.obsolete)
