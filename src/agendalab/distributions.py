"""Distribution problems, the share grab, and the scarcity/transferability audit.

Divide-the-dollar allocations and grids, pork-barrel project menus, and
transfer augmentations of arbitrary base problems all share the same
simplex enumeration.  The share-grab operator `dtd_beta` and its
equilibrium profiles (`dtd_profile`, from the engine's Markov-profile
builder) live with the divide-the-dollar grid.  Coarse grids violate
the distribution axioms near their boundaries; the audit makes those
violations explicit per (policy, player) pair so theorem checks can
restrict themselves to the clean region instead of silently failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .engine import StrategyProfile, _markov_profile
from .errors import BudgetExceededError, ValidationError
from .problems import CollectiveChoiceProblem, _column_chunks, _scaled_problem
from .rationals import parse_rational


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _count_compositions(total: int, parts: int) -> int:
    out = 1
    for i in range(1, parts):
        out = out * (total + i) // i
    return out


def _allocation_label(units, m: int) -> str:
    return f"({','.join(str(u) for u in units)})/{m}"


@dataclass(frozen=True)
class Allocation:
    """Division of the dollar on the 1/denom grid, setter share last."""

    units: tuple[int, ...]
    denom: int

    def __post_init__(self):
        if self.denom < 1:
            raise ValidationError("denominator must be positive")
        if any(u < 0 for u in self.units):
            raise ValidationError("shares must be nonnegative")
        if sum(self.units) != self.denom:
            raise ValidationError(
                f"shares sum to {sum(self.units)}/{self.denom}, expected exactly 1")
        if len(self.units) < 2:
            raise ValidationError("need at least one voter plus the setter")

    @property
    def n_voters(self) -> int:
        return len(self.units) - 1


@dataclass(frozen=True)
class DivideDollarGrid:
    """All divisions of the dollar with denominator m for n voters.

    Policies are indexed in lexicographic unit order; the induced
    problem has each player's own share as utility.  Never gfa: share
    ties are everywhere.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("need n >= 1 voters and denominator m >= 1")

    @cached_property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(Allocation(units=u, denom=self.m)
                     for u in _compositions(self.m, self.n + 1))

    @cached_property
    def _index(self) -> dict:
        return {a.units: i for i, a in enumerate(self.allocations)}

    def index(self, allocation: Allocation) -> int:
        if allocation.denom != self.m:
            raise ValidationError("allocation denominator does not match the grid")
        return self._index[allocation.units]

    def allocation(self, idx: int) -> Allocation:
        return self.allocations[idx]

    @cached_property
    def problem(self) -> CollectiveChoiceProblem:
        units = [a.units for a in self.allocations]
        return _scaled_problem([_allocation_label(u, self.m) for u in units],
                               list(zip(*units)), self.m)


def divide_dollar_problem(n: int, m: int) -> CollectiveChoiceProblem:
    return DivideDollarGrid(n=n, m=m).problem


def dtd_beta(allocation: Allocation) -> Allocation:
    """Zero out the (n-1)/2 largest voter shares into the setter's share.

    Ties select the lower-indexed voters.  The third iterate is the
    dictator allocation when n = 3.
    """
    n = allocation.n_voters
    if n % 2 == 0:
        raise ValidationError("the share-grab operator needs an odd number of voters")
    take = (n - 1) // 2
    order = sorted(range(n), key=lambda i: (-allocation.units[i], i))
    grabbed = set(order[:take])
    units = list(allocation.units)
    moved = sum(units[i] for i in grabbed)
    for i in grabbed:
        units[i] = 0
    units[n] += moved
    return Allocation(units=tuple(units), denom=allocation.denom)


def dtd_beta_power(allocation: Allocation, k: int) -> Allocation:
    for _ in range(k):
        allocation = dtd_beta(allocation)
    return allocation


def dtd_profile(n: int, m: int, rounds: int, flavor: str) -> StrategyProfile:
    """Share-grabbing equilibrium profiles over the denominator-m grid.

    `non_capricious`: the setter proposes the grab of the default and
    voters compare grab-iterate continuations, ties going to the
    proposal.  `capricious` (three voters only): identical except ties
    favor the proposal only in the last two rounds, which caps the
    setter at the two-fold grab of the initial default for every
    horizon of at least two rounds.
    """
    if flavor not in ("non_capricious", "capricious"):
        raise ValidationError(f"unknown flavor {flavor!r}")
    if flavor == "capricious" and n != 3:
        raise ValidationError("the capricious construction is specific to three voters")
    if n % 2 == 0:
        raise ValidationError("odd voter count required")
    if rounds < 2:
        raise ValidationError("need at least two rounds")
    grid = DivideDollarGrid(n=n, m=m)
    grab = [grid.index(dtd_beta(a)) for a in grid.allocations]
    units = [a.units[:-1] for a in grid.allocations]     # voters' shares
    cap, ties_from = (2, rounds - 1) if flavor == "capricious" else (None, 1)
    return _markov_profile(grab, np.array(units).T, rounds,
                           label=f"dtd-{flavor}", cap=cap, ties_from=ties_from)


# ---------------------------------------------------------------------------
# pork barrel


def pork_barrel_problem(projects, m: int, n: int,
                        budget: int = 200_000) -> CollectiveChoiceProblem:
    """Implementation subsets of projects with grid splits of benefits and costs.

    Each project k carries aggregate benefit B_k and cost C_k; a policy
    picks a subset to implement and, for each one, how to split B_k and
    C_k among the n voters and the setter on the 1/m grid.  Utilities
    sum per-player benefit minus cost over implemented projects.
    """
    if m < 1 or n < 1:
        raise ValidationError("need m >= 1 and n >= 1")
    parsed = []
    for b, c in projects:
        b, c = parse_rational(b), parse_rational(c)
        if b <= 0 or c < 0:
            raise ValidationError("projects need positive benefit and nonnegative cost")
        if (b * m).denominator != 1 or (c * m).denominator != 1:
            raise ValidationError(
                f"benefit {b} and cost {c} must be multiples of 1/{m}")
        parsed.append((int(b * m), int(c * m)))

    players = n + 1
    total = 0
    for mask in range(1 << len(parsed)):
        size = 1
        for k, (b_units, c_units) in enumerate(parsed):
            if (mask >> k) & 1:
                size *= _count_compositions(b_units, players)
                size *= _count_compositions(c_units, players)
        total += size
        if total > budget:
            raise BudgetExceededError("pork policy space exceeds the budget",
                                      required=total, budget=budget)

    labels, rows = [], []
    for mask in range(1 << len(parsed)):
        chosen = [k for k in range(len(parsed)) if (mask >> k) & 1]
        split_lists = []
        for k in chosen:
            b_units, c_units = parsed[k]
            split_lists.append([
                (bs, cs)
                for bs in _compositions(b_units, players)
                for cs in _compositions(c_units, players)])
        for combo in product(*split_lists):
            util = [0] * players                  # in units of 1/m
            parts = []
            for k, (bs, cs) in zip(chosen, combo):
                for i in range(players):
                    util[i] += bs[i] - cs[i]
                parts.append(f"{k}:b{_allocation_label(bs, m)}c{_allocation_label(cs, m)}")
            label = "skip" if not chosen else ";".join(parts)
            labels.append(label)
            rows.append(tuple(util))

    return _scaled_problem(labels, list(zip(*rows)), m)


# ---------------------------------------------------------------------------
# transfers


def transfers_problem(base: CollectiveChoiceProblem, m: int) -> CollectiveChoiceProblem:
    """Quasi-linear transfer augmentation of a base problem, on the 1/m grid.

    For each base policy the players' total utility is redistributed
    over nonnegative grid allocations; each player's utility is their
    own slice.  Slices of equal total coincide and are deduplicated.
    """
    if m < 1:
        raise ValidationError("need m >= 1")
    players = base.n + 1
    seen: dict[tuple[int, ...], None] = {}
    for x in range(base.num_policies):
        total = sum(row[x] for row in base.voter_utilities) + base.setter_utilities[x]
        if total < 0:
            raise ValidationError(
                f"policy {base.policies[x]!r} has negative total utility {total}")
        scaled = total * m
        if scaled.denominator != 1:
            raise ValidationError(
                f"total utility {total} of {base.policies[x]!r} is not a multiple of 1/{m}")
        for units in _compositions(int(scaled), players):
            seen.setdefault(units, None)
    allocations = sorted(seen)
    return _scaled_problem([_allocation_label(u, m) for u in allocations],
                           list(zip(*allocations)), m)


# ---------------------------------------------------------------------------
# axiom audit


@dataclass(frozen=True)
class AxiomViolation:
    policy: int
    player: int                  # voters 0..n-1, setter is index n
    axiom: str


@dataclass(frozen=True)
class AxiomAudit:
    scarcity_violations: tuple[AxiomViolation, ...]
    transferability_violations: tuple[AxiomViolation, ...]

    @property
    def passes(self) -> bool:
        return not self.scarcity_violations and not self.transferability_violations

    def dirty_policies(self) -> frozenset[int]:
        return frozenset(v.policy for v in
                         self.scarcity_violations + self.transferability_violations)

    def clean_policies(self, num_policies: int) -> frozenset[int]:
        """Policies with no violation for any player."""
        return frozenset(range(num_policies)) - self.dirty_policies()


def audit_dp_axioms(problem: CollectiveChoiceProblem) -> AxiomAudit:
    """Exhaustive scarcity and transferability check over (policy, player).

    Scarcity: a policy short of player i's maximum must give some other
    player more than their minimum, or be strictly Pareto dominated.
    Transferability: a policy above player i's minimum must admit an
    alternative strictly better for everyone else.

    Both axioms only compare utilities within one player's row, so the
    check runs on each row's dense ranks, for one block of policies x
    at a time (`_column_chunks`): O(players * m * chunk) transient memory.
    """
    ranks = problem._ranks
    players = ranks.shape[0]
    above_min = ranks > 0
    below_max = ranks < ranks.max(axis=1, keepdims=True)
    # [i, x]: some player other than i is above their minimum at x
    others_gain = above_min.sum(axis=0) - above_min > 0
    scarce = below_max & ~others_gain
    transferable = np.empty_like(above_min)
    for cols in _column_chunks(problem):
        better = ranks[:, :, None] > ranks[:, None, cols]   # [j, y, x]: j gains moving to y
        gainers = better.sum(axis=0)
        # x is strictly Pareto dominated
        scarce[:, cols] &= ~(gainers == players).any(axis=0)
        # [i, x]: some y is strictly better for every player other than i
        transferable[:, cols] = (gainers - better == players - 1).any(axis=1)
    transfer_gap = above_min & ~transferable
    return AxiomAudit(
        scarcity_violations=tuple(
            AxiomViolation(policy=int(x), player=int(i), axiom="scarcity")
            for x, i in np.argwhere(scarce.T)),
        transferability_violations=tuple(
            AxiomViolation(policy=int(x), player=int(i), axiom="transferability")
            for x, i in np.argwhere(transfer_gap.T)))
