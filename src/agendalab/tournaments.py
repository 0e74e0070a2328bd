"""Tournament realization: voter profiles whose majority relation is given.

The classical two-voters-per-edge construction: for each directed pair
the two voters agree on it and exactly cancel everywhere else, and one
extra lexicographic voter makes the count odd.  Realized margins are
therefore +1 or +3 on every pair, and the derived strict majority
relation reproduces the input tournament exactly.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .problems import CollectiveChoiceProblem, TournamentSpec, _scaled_problem
from .rationals import parse_rational, scaled_numerators

REALIZE_LIMIT = 12   # voter count grows as 2*C(|X|,2)+1


def derive_tournament(problem: CollectiveChoiceProblem) -> TournamentSpec:
    """Strict majority relation of a problem as a tournament.

    Requires completeness: every pair must be strictly resolved, which
    holds under gfa (odd voters, strict preferences).
    """
    majority = problem._majority
    # unresolved pairs x < y, in (x, y) order
    tied = np.argwhere(np.triu(~(majority | majority.T), 1))
    if tied.size:
        x, y = tied[0].tolist()
        raise ValidationError(
            f"majority ties on pair ({problem.policies[x]}, "
            f"{problem.policies[y]}); no tournament")
    return TournamentSpec.from_edges(problem.num_policies, np.argwhere(majority).tolist())


def _ranking_row(ranking, m: int, unit: int) -> list[int]:
    """(m - k) * unit for the policy at position k of `ranking`."""
    row = [0] * m
    for position, policy in enumerate(ranking):
        row[policy] = (m - position) * unit
    return row


def mcgarvey_realize(tournament: TournamentSpec,
                     setter_utilities) -> CollectiveChoiceProblem:
    """Emit a 2E+1 voter problem realizing the tournament.

    Per directed edge, one voter pair nets +2 on that pair and zero on
    every other; the extra voter ranks policies by index.  Setter
    utilities come from the caller and must be strict so the result is
    a gfa problem.  The problem is built from integer rows over the
    setter's common denominator.
    """
    m = tournament.size
    if m > REALIZE_LIMIT:
        raise ValidationError(
            f"{m} policies would need {2 * m * (m - 1) // 2 + 1} voters; "
            f"limit is {REALIZE_LIMIT} policies")
    setter = tuple(map(parse_rational, setter_utilities))
    if len(setter) != m:
        raise ValidationError("setter utility vector length mismatch")
    if len(set(setter)) != m:
        raise ValidationError("setter utilities must be strict for a gfa realization")

    scale = lcm(*(u.denominator for u in setter))
    rows = []
    for winner, loser in sorted(tournament.edges):
        others = [p for p in range(m) if p not in (winner, loser)]
        rows.append(_ranking_row([winner, loser] + others, m, scale))
        rows.append(_ranking_row(list(reversed(others)) + [winner, loser], m, scale))
    rows.append(_ranking_row(list(range(m)), m, scale))
    rows.append(scaled_numerators(setter, scale))

    problem = _scaled_problem([f"x{i}" for i in range(m)], rows, scale, gfa=True)
    if derive_tournament(problem).edges != tournament.edges:
        raise InternalInvariantError("realized majority relation differs from input")
    return problem


def relabel(problem: CollectiveChoiceProblem, labels) -> CollectiveChoiceProblem:
    """Same problem with new policy labels."""
    labels = tuple(labels)
    if len(labels) != problem.num_policies:
        raise ValidationError("label count mismatch")
    return CollectiveChoiceProblem(
        policies=labels, voter_utilities=problem.voter_utilities,
        setter_utilities=problem.setter_utilities,
        majority_override=problem.majority_override, gfa=problem.gfa)
