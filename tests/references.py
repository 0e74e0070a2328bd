"""Brute-force references shared by several test modules.

Each one reads the `Fraction` utilities (or the override tournament) in
plain Python loops, so it shares no code with the rank and integer
kernels it checks.
"""

from __future__ import annotations


def ref_support_mask(problem, y, x, weak=False):
    """Bitmask of the voters preferring y to x (weakly if `weak`)."""
    mask = 0
    for i, row in enumerate(problem.voter_utilities):
        if row[y] > row[x] or (weak and row[y] == row[x]):
            mask |= 1 << i
    return mask


def ref_phi(problem, rule, x):
    """Favorite improvement by a scan over `Fraction` utilities: the setter's
    best policy that a winning coalition strictly prefers to x, lowest index
    on ties, or x itself."""
    setter, best = problem.setter_utilities, x
    for y in range(problem.num_policies):
        if setter[y] > setter[best] and rule.wins(ref_support_mask(problem, y, x)):
            best = y
    return best


def ref_majority(problem, y, x):
    """More than half of the voters strictly prefer y to x, or the
    override says y beats x."""
    if problem.majority_override is not None:
        return (y, x) in problem.majority_override.edges
    return 2 * ref_support_mask(problem, y, x).bit_count() > problem.n


def ref_margin(problem, x, y):
    """(# voters strictly preferring x) minus (# strictly preferring y)."""
    ahead = behind = 0
    for row in problem.voter_utilities:
        if row[x] > row[y]:
            ahead += 1
        elif row[y] > row[x]:
            behind += 1
    return ahead - behind


def ref_dominators(problem):
    """Per policy x, the bitmask of the policies y that dominate it: the
    setter strictly gains from x to y and a strict majority prefers y."""
    setter = problem.setter_utilities
    m = problem.num_policies
    return [sum(1 << y for y in range(m)
                if setter[y] > setter[x] and ref_majority(problem, y, x))
            for x in range(m)]


def enumerate_stable_subsets(problem) -> list[frozenset[int]]:
    """Every internally and externally stable set under dominance, found
    by scanning all 2**m subsets: S is stable when each policy is in S
    exactly if no member of S dominates it."""
    m = problem.num_policies
    dominators = ref_dominators(problem)
    return [frozenset(x for x in range(m) if (bits >> x) & 1)
            for bits in range(1 << m)
            if all(bool((bits >> x) & 1) == (dominators[x] & bits == 0) for x in range(m))]
