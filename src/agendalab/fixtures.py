"""Small worked-example fixtures used across tests, demos, and suites.

Two four-policy problems over {w, x, y, z} with setter preference
w > x > y > z.  In the cycle fixture the majority relation cycles in a
way the setter can ride all the way to w.  The blocked fixture flips
three edges so that x is unimprovable: the setter stalls at x from any
default below it, whatever the horizon.  The blocked relation is given
directly as a tournament; a voter-profile realization of it serves
per-voter play and the McGarvey round trip.
"""

from __future__ import annotations

from fractions import Fraction

from .oracle import CustomProtocol
from .problems import CollectiveChoiceProblem, TournamentSpec
from .tournaments import mcgarvey_realize, relabel

LABELS = ("w", "x", "y", "z")


def _ranks(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def majority_cycle_problem() -> CollectiveChoiceProblem:
    """Three voters whose majority relation cycles: y beats w beats x beats y,
    while z loses to y but beats both w and x."""
    return CollectiveChoiceProblem(
        policies=LABELS,
        voter_utilities=(
            _ranks((3, 2, 1, 4)),    # z > w > x > y
            _ranks((1, 4, 3, 2)),    # x > y > z > w
            _ranks((2, 1, 4, 3)),    # y > z > w > x
        ),
        setter_utilities=_ranks((4, 3, 2, 1)),
        gfa=True,
    )


def blocked_tournament() -> TournamentSpec:
    """The cycle fixture's relation with three edges flipped, making x
    majority-undominated."""
    w, x, y, z = range(4)
    return TournamentSpec.from_edges(4, [
        (x, w), (w, y), (z, w), (x, y), (x, z), (y, z)])


def blocked_default_problem() -> CollectiveChoiceProblem:
    """Relation-level fixture: the blocked tournament as an override.

    Voter utilities are the cycle fixture's (the relation is what the
    fixture pins down); the override replaces the derived majorities.
    """
    base = majority_cycle_problem()
    return CollectiveChoiceProblem(
        policies=base.policies,
        voter_utilities=base.voter_utilities,
        setter_utilities=base.setter_utilities,
        majority_override=blocked_tournament(),
        gfa=True,
    )


def blocked_default_realized() -> CollectiveChoiceProblem:
    """13-voter realization of the blocked tournament."""
    realized = mcgarvey_realize(blocked_tournament(), _ranks((4, 3, 2, 1)))
    return relabel(realized, LABELS)


def adjournment_trap_protocol(rounds: int) -> CustomProtocol:
    """Non-rich protocol: w, y, z offered adjourn-only, x amend-only.

    From default z this trap adjourns on y in every horizon, even
    though the amendment game would reach w.
    """
    w, x, y, z = range(4)
    actions = ((w, True), (y, True), (z, True), (x, False))
    table = {(t, default): actions
             for t in range(1, rounds + 1) for default in range(4)}
    return CustomProtocol(label="adjournment-trap", table=table)
