"""Tournament realization: voter profiles whose majority relation is given.

McGarvey's construction, one voter pair per round of a round robin
(Stearns 1959), plus one lexicographic voter: realized margins are +1 or
+3 on every pair, so the strict majority relation reproduces the input
tournament exactly.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .problems import CollectiveChoiceProblem, TournamentSpec, _scaled_problem, _wins_table
from .rationals import parse_rational, scaled_numerators


def derive_tournament(problem: CollectiveChoiceProblem) -> TournamentSpec:
    """Strict majority relation of a problem as a tournament.

    Requires completeness: every pair must be strictly resolved, which
    holds under gfa (odd voters, strict preferences).
    """
    majority = _wins_table(problem, problem._majority_rule)
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
    """Emit a 2r + 1 voter problem realizing the tournament: 2(m - 1) + 1
    voters for even m, 2m + 1 for odd m >= 3, 1 for m = 1.

    The circle method splits the policy pairs into r rounds.  A round's two
    voters rank its pairs as oriented, in opposite pair order, and the
    policy that sits it out (odd m) first for one, last for the other: they
    net +2 on the round's pairs and zero elsewhere.  The extra voter ranks
    by index; the setter's strict utilities make a gfa problem, built from
    integer rows over their common denominator.
    """
    m = tournament.size
    setter = tuple(map(parse_rational, setter_utilities))
    if len(setter) != m:
        raise ValidationError("setter utility vector length mismatch")
    if len(set(setter)) != m:
        raise ValidationError("setter utilities must be strict for a gfa realization")

    scale = lcm(*(u.denominator for u in setter))
    hub = m - 1 + m % 2             # policies 0..hub-1 turn round the hub (for odd m, a bye)
    rows = []
    for r in range(hub):
        pairs = [(r, hub)] + [((r + k) % hub, (r - k) % hub) for k in range(1, (hub + 1) // 2)]
        ranked = [p if p in tournament.edges else p[::-1] for p in pairs if m not in p]
        out = [r] if hub == m else []       # paired with the bye
        if ranked:
            rows.append(_ranking_row(out + [*sum(ranked, ())], m, scale))
            rows.append(_ranking_row([*sum(ranked[::-1], ())] + out, m, scale))
    rows.append(_ranking_row(list(range(m)), m, scale))
    rows.append(scaled_numerators(setter, scale))

    problem = _scaled_problem([f"x{i}" for i in range(m)], rows, scale)
    if derive_tournament(problem).edges != tournament.edges:
        raise InternalInvariantError("realized majority relation differs from input")
    return problem


def relabel(problem: CollectiveChoiceProblem, labels) -> CollectiveChoiceProblem:
    """Same problem with new policy labels, built from its own integers and
    override (`_scaled_problem`): no `Fraction` is made."""
    labels = tuple(labels)
    if len(labels) != problem.num_policies:
        raise ValidationError("label count mismatch")
    ints = problem._ints
    return _scaled_problem(labels, ints.array, ints.scale, problem.majority_override)
