"""Small worked-example fixtures used across tests, demos, and suites.

Two four-policy problems over {w, x, y, z} with setter preference
w > x > y > z.  In the cycle fixture the majority relation cycles in a
way the setter can ride all the way to w.  The blocked fixture flips
three edges so that x is unimprovable: the setter stalls at x from any
default below it, whatever the horizon.  The blocked relation is given
directly as a tournament; a voter-profile realization of it serves
per-voter play and the McGarvey round trip.

All three are built from one table of integer rows, `_ROWS`, through
`_scaled_problem`: their `Fraction` utilities are made on first read.
"""

from __future__ import annotations

from .oracle import CustomProtocol
from .problems import CollectiveChoiceProblem, TournamentSpec, _scaled_problem
from .tournaments import mcgarvey_realize, relabel

LABELS = ("w", "x", "y", "z")

_ROWS = (
    (3, 2, 1, 4),    # z > w > x > y
    (1, 4, 3, 2),    # x > y > z > w
    (2, 1, 4, 3),    # y > z > w > x
    (4, 3, 2, 1),    # the setter: w > x > y > z
)


def majority_cycle_problem() -> CollectiveChoiceProblem:
    """Three voters whose majority relation cycles: y beats w beats x beats y,
    while z loses to y but beats both w and x."""
    return _scaled_problem(LABELS, _ROWS, 1)


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
    return _scaled_problem(LABELS, _ROWS, 1, blocked_tournament())


def blocked_default_realized() -> CollectiveChoiceProblem:
    """13-voter realization of the blocked tournament."""
    return relabel(mcgarvey_realize(blocked_tournament(), _ROWS[-1]), LABELS)


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
