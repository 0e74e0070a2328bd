"""Seeded random instance factories for the verification corpora; each
seed is a whole number, read by `parse_whole`."""

from __future__ import annotations

import random

from .errors import ValidationError
from .problems import CollectiveChoiceProblem, _scaled_problem
from .rationals import parse_whole

# The voter counts a corpus problem draws from.
CORPUS_VOTERS = (3, 5)


def gen_random_gfa(num_policies: int, n: int, seed: int) -> CollectiveChoiceProblem:
    """Random gfa problem (an even n is refused): shuffled rank rows, the
    voters' first, built from those integers."""
    num_policies = parse_whole(num_policies, "policy count", 2)
    n = parse_whole(n, "voter count", 1)
    if n % 2 == 0:
        raise ValidationError("gfa requires an odd number of voters")
    rng = random.Random(parse_whole(seed, "seed"))

    def ranks():
        values = list(range(1, num_policies + 1))
        rng.shuffle(values)
        return values

    rows = [ranks() for _ in range(n + 1)]
    return _scaled_problem([f"x{i}" for i in range(num_policies)], rows, 1)


def gfa_corpus(count: int, seed: int, max_policies: int = 6) -> list[CollectiveChoiceProblem]:
    """Deterministic corpus of random gfa instances for the theorem suites,
    each with a voter count drawn from `CORPUS_VOTERS`."""
    max_policies = parse_whole(max_policies, "max_policies", 2)
    rng = random.Random(parse_whole(seed, "seed"))
    out = []
    for k in range(parse_whole(count, "problem count")):
        m = rng.randrange(2, max_policies + 1)
        n = CORPUS_VOTERS[rng.randrange(len(CORPUS_VOTERS))]
        out.append(gen_random_gfa(m, n, seed=rng.randrange(2**31)))
    return out


def gen_random_with_ties(num_policies: int, n: int, seed: int,
                         levels: int = 3) -> CollectiveChoiceProblem:
    """Random problem where utilities draw from few levels, forcing
    indifference: the voters' rows first, built from those integers."""
    num_policies = parse_whole(num_policies, "policy count", 2)
    n, levels = parse_whole(n, "voter count", 1), parse_whole(levels, "level count", 1)
    rng = random.Random(parse_whole(seed, "seed"))
    rows = [[rng.randrange(levels) for _ in range(num_policies)] for _ in range(n + 1)]
    return _scaled_problem([f"x{i}" for i in range(num_policies)], rows, 1)
