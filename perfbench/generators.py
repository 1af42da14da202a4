"""Seeded transaction generators for the benchmark workloads.

Each generator takes a ``random.Random`` and the workload's parameter dict
from spec.json and returns a list of transactions, each a sorted tuple of
string item tokens.  Tuples of strings drop out of the garbage collector's
tracking, so the benchmark's own copy of the stream does not change how
often the program's heap gets collected.  The program under test only ever sees these
transactions (as FIMI text or token lists), never the parameters.
"""

from __future__ import annotations

import random


def pattern_union(rng: random.Random, p: dict, n: int) -> list[tuple[str, ...]]:
    """Retail-shaped baskets: a union of planted patterns plus noise items.

    The same shape as the desk-scale smoke in the acceptance suite: planted
    patterns make itemsets recur, so the closed family stays bounded while
    inverted lists grow long.
    """
    alphabet = p["n_items"]
    lo, hi = p["pattern_size"]
    patterns = [rng.sample(range(alphabet), rng.randint(lo, hi))
                for _ in range(p["n_patterns"])]
    per_lo, per_hi = p["patterns_per_basket"]
    noise_lo, noise_hi = p["noise_items"]
    out = []
    for _ in range(n):
        items = set()
        for _ in range(rng.randint(per_lo, per_hi)):
            items.update(rng.choice(patterns))
        for _ in range(rng.randint(noise_lo, noise_hi)):
            items.add(rng.randrange(alphabet))
        out.append(tuple(str(a) for a in sorted(items)))
    return out


def independent_items(rng: random.Random, p: dict, n: int) -> list[tuple[str, ...]]:
    """Dense baskets over a small alphabet, item k drawn with its own probability.

    Probabilities are evenly spaced from ``p_min`` to ``p_max`` and fixed, so
    the seed changes the draws but not the shape of the closed family.  An
    empty draw is redrawn, so every basket can seed a query.
    """
    k = p["n_items"]
    lo, hi = p["p_min"], p["p_max"]
    probs = [lo + (hi - lo) * i / (k - 1) for i in range(k)]
    tokens = [f"d{i:02d}" for i in range(k)]
    out = []
    while len(out) < n:
        basket = tuple(tokens[i] for i in range(k) if rng.random() < probs[i])
        if basket:
            out.append(basket)
    return out


GENERATORS = {
    "pattern-union": pattern_union,
    "independent-items": independent_items,
}


def generate(p: dict, rng: random.Random, n: int) -> list[tuple[str, ...]]:
    return GENERATORS[p["generator"]](rng, p, n)


def fimi_text(transactions: list[tuple[str, ...]]) -> bytes:
    """One line per transaction, whitespace-separated tokens."""
    return "".join(" ".join(t) + "\n" for t in transactions).encode("utf-8")


def sample_query(rng: random.Random, transaction: tuple[str, ...]) -> tuple[str, ...]:
    """1 to 3 items of a nonempty ``transaction``, so the query is supported."""
    return tuple(rng.sample(transaction, min(len(transaction), rng.randint(1, 3))))
