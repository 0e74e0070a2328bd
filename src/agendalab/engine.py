"""Dynamic layer: favorite-improvement iterates and equilibrium objects.

The favorite improvement of a default x is the setter's best policy
among those some winning coalition strictly prefers to x, x itself
included.  Under generic finite alternatives (gfa) the T-round game has
a unique equilibrium outcome: the T-fold iterate of that map.  Every
iterate comes from one walker, `_orbit`, which stops at the first fixed
point.  This module also builds the one-round improvement correspondence
for problems with indifference, equilibrium outcome bounds obtained
from its selections (one walker, `nc_outcome_bounds`), and strategy
profiles.  One Markov-profile builder, `_markov_profile`, makes the
simple equilibrium profile here and the divide-the-dollar share-grab
profiles in `distributions` from a one-step map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .problems import (
    CollectiveChoiceProblem,
    VotingRule,
    _block_width,
    _Meter,
    _memoized,
    _phi_table,
    _require_rule,
    _require_voter_rows,
    _wins,
)
from .rationals import parse_whole


# ---------------------------------------------------------------------------
# favorite improvement and its orbit


def _orbit(problem: CollectiveChoiceProblem, rule: VotingRule, x: int,
           limit: int) -> list[int]:
    """[x, phi(x), ..., phi^k(x)] up to the first fixed point or k = `limit`.
    phi raises the setter's rank until it fixes a policy, so the entries
    are distinct.  No gfa gate: ties go to the lowest index (`_phi_table`)."""
    x, limit = problem.check_policy(x), parse_whole(limit, "step count")
    table = _phi_table(problem, rule)
    orbit = [x]
    while len(orbit) <= limit and table[orbit[-1]] != orbit[-1]:
        orbit.append(table[orbit[-1]])
    return orbit


def favorite_improvement(problem: CollectiveChoiceProblem, rule: VotingRule, x: int) -> int:
    """Setter's best policy among {x} plus the strict acceptance set of x:
    x itself exactly when x is unimprovable.  Refused without gfa (by
    `phi_iterates`), where `is_improvable(...).witness` names the lowest-index maximizer."""
    return phi_iterates(problem, rule, x, 1)[-1]


def phi_iterates(problem: CollectiveChoiceProblem, rule: VotingRule,
                 x0: int, count: int) -> list[int]:
    """[x0, phi(x0), ..., phi^count(x0)] (gfa): the orbit, its fixed point
    repeated up to `count` + 1 entries."""
    if not problem.gfa:
        raise ValidationError("improvement iterates are single-valued only under gfa")
    orbit = _orbit(problem, rule, x0, count)
    return orbit + orbit[-1:] * (count + 1 - len(orbit))


@dataclass(frozen=True)
class Trajectory:
    """Iterates of the favorite-improvement map from a starting default."""

    start: int
    steps: tuple[int, ...]                  # phi^1 .. phi^T, cut at the first fixed point
    fixed_point_reached_at: Optional[int]   # smallest t with phi^t unimprovable

    @property
    def outcome(self) -> int:
        return self.steps[-1] if self.steps else self.start


def equilibrium_outcome(problem: CollectiveChoiceProblem, rule: VotingRule,
                        x0: int, rounds: int) -> Trajectory:
    """Unique equilibrium outcome trajectory of the T-round game (gfa).

    The steps are the orbit after x0, cut at phi^T.  Every later round
    repeats the fixed point, so the outcome is the last step, or x0.
    """
    rounds = parse_whole(rounds, "round count", 1)
    if not problem.gfa:
        raise ValidationError("equilibrium outcomes are only unique under gfa")
    orbit = _orbit(problem, rule, x0, rounds + 1)     # one past T: is phi^T fixed?
    reached = len(orbit) - 1 if len(orbit) <= rounds + 1 else None
    return Trajectory(start=orbit[0], steps=tuple(orbit[1:rounds + 1]),
                      fixed_point_reached_at=reached)


# ---------------------------------------------------------------------------
# strategy profiles


@dataclass(frozen=True)
class StrategyProfile:
    """Tabulated or callable-backed behavior on (round, default) states.

    `propose(t, x) -> (proposal, adjourn_flag)`;
    `vote(voter, t, x, proposal) -> bool`;
    `ballots(t, x, policies, n) -> bool array`, shape (n, len(policies)):
    entry [i, k] is voter i's vote on `policies[k]` at (t, x).  The
    plain constructor derives `ballots` from `vote`, one call per policy
    and then per voter ascending (a plain profile's callables do not
    know the voter count, hence `n`); Markov profiles answer a block
    from their orbit table.  Table-backed profiles raise KeyError on
    missing states, which the oracle's verifier converts into a located
    validation error.

    A vote carries no adjournment flag: it is the voter's vote on every
    offer of `proposal` at (t, x).  Where the standing default x is
    offered both without and with adjournment (the `open_rule` preset),
    both offers share the vote on x; only the adjourning offer can end
    play differently from a rejection.
    """

    horizon: int
    propose: Callable[[int, int], tuple[int, bool]]
    vote: Callable[[int, int, int, int], bool]
    label: str = ""
    ballots: Optional[Callable[[int, int, Sequence[int], int], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "horizon", parse_whole(self.horizon, "horizon", 1))
        if self.ballots is None:
            vote = self.vote

            def ballots(t, x, policies, n):
                block = [[bool(vote(i, t, x, a)) for i in range(n)] for a in policies]
                return np.array(block, dtype=bool).reshape(-1, n).T

            object.__setattr__(self, "ballots", ballots)

    @staticmethod
    def from_tables(horizon: int, proposer_table: dict, voter_tables: list[dict],
                    label: str = "") -> "StrategyProfile":
        """The profile of these tables; a voter past `voter_tables` has no entries."""
        def propose(t, x):
            return proposer_table[(t, x)]

        def vote(i, t, x, a):
            return (voter_tables[i] if i < len(voter_tables) else {})[(t, x, a)]

        return StrategyProfile(horizon=horizon, propose=propose, vote=vote, label=label)


def _markov_profile(step: Sequence[int], rows: np.ndarray, rounds: int, label: str,
                    cap: Optional[int] = None, ties_from: int = 1) -> StrategyProfile:
    """Markov profile driven by a one-step map on policy indices.

    `step[x]` is the one-step image of policy x; `rows` holds one row
    per voter over the policies.  The setter proposes `step[x]` and never
    adjourns.  At round t of T and default x, voter i approves a when
    `rows[i]` ranks step^k(a) above step^k(x), where the continuation
    depth k is T - t, capped at `cap` if given; on a tie the voter
    approves exactly when t >= `ties_from`.

    The orbit table `powers[k] = step^k` over every policy is built once,
    iteratively, up to the deepest depth any round reads, and stops early
    once `step` fixes every entry (all later powers are equal).  A ballot
    block is then one rank comparison of two gathered column sets,
    `propose` reads the same table, and a vote is one entry of a
    one-policy block.  A round outside 1..T, or a policy index that is
    not a whole number in the table, raises `ValidationError`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    step = np.asarray(step, dtype=np.int64)
    size = len(step)
    powers = [np.arange(size, dtype=np.int64)]
    for _ in range(rounds if cap is None else min(rounds, cap)):
        image = step[powers[-1]]
        if np.array_equal(image, powers[-1]):
            break
        powers.append(image)

    def at(t: int, depth: int) -> np.ndarray:
        """step^depth over every policy (the table ends at the cap or where
        it stops changing), once t is checked to be a round."""
        parse_whole(t, "round", 1, rounds + 1)
        return powers[min(depth, len(powers) - 1)]

    def check(x: int) -> int:
        return parse_whole(x, "policy index", 0, size)

    def propose(t, x):
        return (int(at(t, 1)[check(x)]), False)

    def ballots(t, x, policies, n):
        power = at(t, rounds - t)
        if n != len(rows):
            raise ValidationError(f"profile {label!r} is for {len(rows)} voters, not {n}")
        if not all(type(a) is int and 0 <= a < size for a in policies):
            for a in policies:
                check(a)                          # raises at the first not a policy
        accept = rows.take(power.take(policies), axis=1)
        reject = rows[:, power[check(x)], None]
        return accept >= reject if t >= ties_from else accept > reject

    def vote(i, t, x, a):
        return bool(ballots(t, x, [a], len(rows))[i, 0])

    return StrategyProfile(horizon=rounds, propose=propose, vote=vote, label=label,
                           ballots=ballots)


def simple_equilibrium_profile(problem: CollectiveChoiceProblem, rule: VotingRule,
                               rounds: int) -> StrategyProfile:
    """The greedy Markov equilibrium of the T-round amendment game.

    The setter always proposes the favorite improvement of the current
    default; voter i approves a proposal exactly when the continuation
    from acceptance is weakly preferred to the one from rejection (ties
    go to the proposal).  An override problem's placeholder rows are refused.
    """
    _require_voter_rows(problem, "the simple equilibrium profile votes per voter")
    if not problem.gfa:
        raise ValidationError("the simple equilibrium profile requires gfa")
    rounds = parse_whole(rounds, "round count", 1)
    return _markov_profile(_phi_table(problem, rule), problem._ranks[:-1], rounds,
                           label="simple-equilibrium")


# ---------------------------------------------------------------------------
# one-round improvement correspondence and outcome bounds


def phi_or(problem: CollectiveChoiceProblem, rule: VotingRule, x: int) -> frozenset[int]:
    """One-round improvement correspondence at x.

    Weakly acceptable alternatives whose setter utility is at least the
    best over the almost-strict acceptance set.  Nonempty; contains x
    exactly when x is unimprovable.  Reads `_phi_or_table`.
    """
    return _phi_or_table(problem, rule)[problem.check_policy(x)]


def _phi_or_table(problem: CollectiveChoiceProblem,
                  rule: VotingRule) -> tuple[frozenset[int], ...]:
    """`phi_or` at every default, built once per rule.  The bar at x is the
    setter rank of phi(x) (`_phi_table`), ties included, so x's members are
    the weak winners in the prefix of the problem's `_setter_order` down to
    that rank.  Defaults with equal prefixes share weak `_wins` blocks, each
    of the prefix against `_block_width` defaults; on a grid most prefixes
    are a few alternatives long."""
    _require_rule(problem, rule)

    def build():
        setter, order = problem._ranks[-1], problem._setter_order
        # how many alternatives the setter ranks at or above each bar
        prefix = np.searchsorted(-setter[order], -setter[list(_phi_table(problem, rule))],
                                 side="right")
        table: list = [None] * problem.num_policies
        by_prefix = prefix.argsort(kind="stable")
        for group in np.split(by_prefix, np.flatnonzero(np.diff(prefix[by_prefix])) + 1):
            rows = order[:prefix[group[0]]]
            width = _block_width(problem, rows.size)
            for start in range(0, group.size, width):
                cols = group[start:start + width]
                members = _wins(problem, rule, cols, weak=True, rows=rows)
                for x, column in zip(cols.tolist(), members.T):
                    table[x] = frozenset(rows[column].tolist())
        return tuple(table)

    return _memoized(problem, ("phi_or", rule), build)


@dataclass(frozen=True)
class OutcomeBounds:
    """Equilibrium-outcome bounds from selections of the correspondence.

    `lower`: outcomes of composing a single selection T times — each is
    realized by some well-behaved equilibrium.  `upper`: outcomes of
    T-fold composites of per-round selections whose values at every
    default agree in setter utility — a necessary condition on
    equilibrium outcomes, so this over-approximates.  Restricting the
    agreement constraint to reachable defaults yields the same set
    (choices at unvisited defaults are unconstrained).
    """

    lower: frozenset[int]
    upper: frozenset[int]


def nc_outcome_bounds(problem: CollectiveChoiceProblem, rule: VotingRule,
                      x0: int, rounds: int, budget: int = 200_000) -> OutcomeBounds:
    """The `OutcomeBounds` of the T-round game from x0, T = `rounds`:
    `lower` holds the outcomes of composing one selection of the one-round
    correspondence T times, `upper` those of T-fold composites of per-round
    selections whose values at each default agree in setter utility.
    Each is one depth-first walk; the budget is charged 1 per visit."""
    rounds, x0 = parse_whole(rounds, "round count", 1), problem.check_policy(x0)
    meter = _Meter("selection enumeration exceeded budget", budget)
    correspondence = [sorted(members) for members in _phi_or_table(problem, rule)]
    setter = problem._ranks[-1].tolist()

    def walk(key) -> frozenset[int]:
        """Endpoints of `rounds` steps from x0 when each visited default
        fixes one class of its members, those alike under `key`, and
        steps to any member of that class.  Depth first on an explicit
        stack, one charge per visit."""
        reached: set[int] = set()
        fixed: dict[int, list[int]] = {}

        def successors(state: int):
            if state in fixed:
                yield from fixed[state]
                return
            classes: dict[int, list[int]] = {}
            for y in correspondence[state]:
                classes.setdefault(key(y), []).append(y)
            for members in classes.values():
                fixed[state] = members
                yield from members        # resumed only once a subtree is done
                del fixed[state]

        stack: list = []

        def visit(state: int, depth: int):
            meter.charge(1)
            if depth == rounds:
                reached.add(state)
            else:
                stack.append((depth + 1, successors(state)))

        visit(x0, 0)
        while stack:
            depth, pending = stack[-1]
            y = next(pending, None)
            if y is None:
                stack.pop()
            else:
                visit(y, depth)
        return frozenset(reached)

    # lower: each member is its own class; upper: members of equal setter utility
    return OutcomeBounds(lower=walk(lambda y: y), upper=walk(setter.__getitem__))
