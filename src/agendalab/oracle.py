"""Independent subgame-perfect-equilibrium solver and profile verifier.

This is the ground truth the favorite-improvement predictions are
tested against.  The solver runs backward induction over (round,
default) states of the full extensive form: at each state every
feasible proposal is evaluated, every voter votes as if pivotal between
the two continuation outcomes, and the setter picks her best passing
result.  It does so for every default of a round at once, on arrays:
the rule's strict winning-coalition table (`_wins_table`, one per rule,
shared by every protocol, read by the backward step `_step` alone)
settles every vote, identical continuations getting a unanimous yes,
and every protocol, preset or custom, is read as one round's action
mask (`_offers`), one column chunk at a time, so a relation-override
problem is solved as it is.  One loop, `_backward`, charges and takes
every step.  The solver, the verifier and `play_out` never read the
improvement operators; only `check_richness` on a custom table and
`protocol_equivalence` compare against favorite-improvement iterates.

A preset game is stationary: the setter cannot commit, so round t of a
T-round game is the first round of the (T - t + 1)-round game.  So the
backward rows of every horizon solved so far are memoized with the
problem per (rule, preset); a longer horizon extends them and a shorter
one reads their prefix, so every default and horizon of a preset costs
one backward step per round up to the fixed point.  A preset step reads
only the row after it, so once a round's outcome row repeats the one
before it every later round repeats both rows: they are appended again,
the same read-only arrays, not solved.  Custom tables are not stationary
and are solved per call.  Each call walks its own equilibrium path on plain
ints, read from those rows, to its outcome: a round's proposal passed
exactly when the round's own backward outcome is the proposal's accept
outcome, so the walk reads no vote.  The report's value table and
trace, each step with its approvers, are made on first read, so a
caller that reads only outcomes never pays for them.

Generalized adjournment protocols are supported: a proposal may carry
an adjournment provision whose passage ends deliberation immediately.
The richness validator separates protocols for which all of this is
outcome-equivalent from trap protocols that are not.  The presets, each
one row of `_PRESET_OFFERS` that `GameSpec` reads once, are rich by
construction; only custom tables are scanned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Optional, Union

import numpy as np

from .engine import StrategyProfile, _orbit
from .errors import RichnessError, ValidationError
from .problems import (
    CollectiveChoiceProblem,
    VotingRule,
    _Meter,
    _coalition_holds,
    _memoized,
    _offer_chunks,
    _require_rule,
    _require_voter_rows,
    _wins_table,
)
from .rationals import _assemble, _FractionView, parse_whole

# the one statement of the preset offer rule: every preset offers every
# policy, each with its row's first flag as the adjournment flag, and when
# the row's second flag is set also the standing default with adjournment
_PRESET_OFFERS = {"amendment": (False, False), "successive": (True, False),
                  "open_rule": (False, True)}
PRESET_PROTOCOLS = tuple(_PRESET_OFFERS)


@dataclass(frozen=True)
class CustomProtocol:
    """Feasible proposal sets given as an explicit table.

    `table[(round, default)]` lists the available (policy, adjourn) actions,
    kept as given; `GameSpec` reads them as distinct `(int, bool)` offers.
    Tables keep the game spec serializable and make the richness check a
    plain scan.
    """

    label: str
    table: dict


Protocol = Union[str, CustomProtocol]


@dataclass(frozen=True)
class GameSpec:
    """A finite agenda game.  Its rule (`_require_rule`) and protocol are read
    once, here: a preset name as its `_PRESET_OFFERS` row, `_preset`; a custom
    table (`_preset` None) as `_offers`, each (round, default) key's distinct
    `(int, bool)` offers, first offer first; `feasible` reports a missing or
    empty set lazily."""

    problem: CollectiveChoiceProblem
    rule: VotingRule
    horizon: int
    initial_default: int
    protocol: Protocol = "amendment"

    def __post_init__(self):
        object.__setattr__(self, "horizon", parse_whole(self.horizon, "horizon", 1))
        object.__setattr__(self, "initial_default",
                           self.problem.check_policy(self.initial_default))
        _require_rule(self.problem, self.rule)
        object.__setattr__(self, "_preset", _PRESET_OFFERS.get(self.protocol)
                           if isinstance(self.protocol, str) else None)
        if self._preset is not None:
            return
        if not isinstance(self.protocol, CustomProtocol):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        label, m, offers = self.protocol.label, self.problem.num_policies, {}
        if not isinstance(self.protocol.table, Mapping):
            raise ValidationError(
                f"custom protocol {label!r}: a table maps (round, default) keys to "
                f"actions, not a {type(self.protocol.table).__name__}")
        for key, actions in self.protocol.table.items():
            try:
                t, x = key
                t, x = parse_whole(t, "round", 1), self.problem.check_policy(x)
                actions = iter(actions)
            except (TypeError, ValueError, ValidationError):
                raise ValidationError(
                    f"custom protocol {label!r} entry {key!r}: a key is a round of at "
                    f"least 1 and a default in 0..{m - 1}, its actions iterable") from None
            kept = []
            for action in actions:
                pair = isinstance(action, (tuple, list)) and len(action) == 2
                a, adjourn = action if pair and isinstance(action[1], bool) else (None, None)
                try:
                    kept.append((parse_whole(a, "policy", 0, m), adjourn))
                except ValidationError:
                    raise ValidationError(
                        f"custom protocol {label!r} offers {action!r} "
                        f"at (round {t}, default {x}); an action is a policy "
                        f"in 0..{m - 1} and a bool adjournment flag") from None
            offers[(t, x)] = tuple(dict.fromkeys(kept))
        object.__setattr__(self, "_offers", offers)

    @property
    def protocol_name(self) -> str:
        return self.protocol.label if self._preset is None else self.protocol

    @cached_property
    def _every_policy(self) -> tuple[tuple[int, bool], ...]:
        """A preset's offer of every policy, flagged by its row's first entry."""
        adjourn = self._preset[0]
        return tuple((y, adjourn) for y in range(self.problem.num_policies))

    def feasible(self, t: int, x: int) -> tuple[tuple[int, bool], ...]:
        """The distinct `(int, bool)` offers at (round t, default x), first
        offer first; a custom table's missing or empty set raises here.
        Both indices are read by `parse_whole`: t a round 1..horizon, x a
        policy of the problem."""
        t = parse_whole(t, "round", 1, self.horizon + 1)
        x = self.problem.check_policy(x)
        if self._preset is not None:
            return (self._every_policy + ((x, True),)) if self._preset[1] else self._every_policy
        offers = self._offers.get((t, x))
        if offers is None:
            raise ValidationError(
                f"custom protocol {self.protocol.label!r} has no feasible set at "
                f"(round {t}, default {x})")
        if not offers:
            raise ValidationError(
                f"empty feasible set at (round {t}, default {x})")
        return offers


@dataclass(frozen=True)
class TraceStep:
    """One round of the equilibrium path: the voters weakly preferring the
    accept outcome to the reject outcome approve (None on an override
    problem, whose voter rows are placeholders)."""

    round: int
    default: int
    proposal: int
    adjourn: bool
    approvers: Optional[frozenset[int]]
    passed: bool


def _value_table(report: "SolveReport") -> dict:
    """(round, default) -> continuation outcome, later rounds first, from the
    backward rows the report keeps: row k holds round T + 1 - k."""
    rows, _, _ = report._solved
    return dict(zip(product(range(len(rows), 0, -1), range(len(rows[0]))),
                    chain.from_iterable(row.tolist() for row in rows)))


def _pivotal_trace(report: "SolveReport") -> tuple[TraceStep, ...]:
    """The steps of the int path the report keeps, each step's approvers
    read from two columns of the voter ranks (None under an override)."""
    _, path, voters = report._solved
    return tuple(
        TraceStep(round=t, default=x, proposal=a, adjourn=bool(adjourn),
                  approvers=None if voters is None else frozenset(
                      np.flatnonzero(voters[:, accept] >= voters[:, reject]).tolist()),
                  passed=passed)
        for t, x, a, adjourn, passed, accept, reject in path)


@dataclass(frozen=True)
class SolveReport:
    """The equilibrium outcome, the continuation outcome of every (round,
    default) state and the equilibrium path.  `solve_spe` leaves
    `value_table` and `pivotal_trace` to views made on first read
    (`_value_table`, `_pivotal_trace`) from the read-only backward rows
    and the int path it keeps as a private `_solved`; each read of a
    fresh report builds a fresh dict and trace."""

    outcome: int
    value_table: dict = _FractionView(_value_table)   # (round, default) -> outcome
    pivotal_trace: tuple[TraceStep, ...] = _FractionView(_pivotal_trace)


@dataclass(frozen=True)
class Violation:
    player: str                  # "setter" or "voter k" (1-based)
    round: int
    default: int
    proposal: Optional[int]
    deviation: str
    gain: Fraction


@dataclass(frozen=True)
class DeviationReport:
    profile_valid: bool
    violations: tuple[Violation, ...]


def _offers(game: GameSpec, t: int) -> Callable[[slice], np.ndarray]:
    """Round t's feasible actions as a reader `mask_of(cols)` of the
    (2m x |cols|) boolean mask: entry [2 * policy + adjourn, j] is True
    when the protocol offers (policy, adjourn) at default cols[j], so row
    order is (policy, adjourn) order.

    A preset offers the same actions every round, as its `_PRESET_OFFERS`
    row says, and its reader builds only the chunk asked for.  A custom
    table's round is read default by default into one dense mask on the
    reader's first call, so a step is charged before its round is read,
    and the first missing or empty feasible set in that order raises.
    """
    m = game.problem.num_policies
    if game._preset is not None:
        adjourn, standing = game._preset

        def mask_of(cols):
            defaults = np.arange(m)[cols]
            mask = np.zeros((2 * m, len(defaults)), dtype=bool)
            mask[adjourn::2] = True
            if standing:
                mask[2 * defaults + 1, np.arange(len(defaults))] = True
            return mask

        return mask_of

    @cache
    def dense():
        mask = np.zeros((2 * m, m), dtype=bool)
        for x in range(m):
            for a, adjourn in game.feasible(t, x):
                mask[2 * a + adjourn, x] = True
        return mask

    return lambda cols: dense()[:, cols]


def _step(problem: CollectiveChoiceProblem, rule: VotingRule, val: np.ndarray,
          mask_of: Callable[[slice], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One round of backward induction at every default: the round's
    continuation outcomes and its chosen actions (2 * policy + adjourn),
    read-only, from the next round's outcomes `val` and the round's
    action-mask reader `mask_of` (`_offers`).

    Every vote is read from `beats`, the rule's memoized `_wins_table`.
    Action 2a + adjourn leads, once accepted, to `acc` = val[a] (amend) or
    a (adjourn), so its result at default x is acc if beats[acc, val[x]]
    else val[x] (the same policy when acc == val[x]: no unanimity check is
    needed), and the setter takes the best-ranked feasible result.  So
    the chosen action passed exactly when the row's outcome is its `acc`.
    The argmax breaks ties to the lowest (policy, adjourn) pair, which
    cannot affect the outcome under gfa.  Defaults go by `_offer_chunks`.
    """
    m, setter, beats = problem.num_policies, problem._ranks[-1], _wins_table(problem, rule)
    acc = np.empty(2 * m, dtype=np.int64)
    acc[0::2], acc[1::2] = val, np.arange(m)
    value, choice = np.empty((2, m), dtype=np.int64)
    for cols in _offer_chunks(problem):
        reject = val[None, cols]
        res = np.where(beats[acc[:, None], reject], acc[:, None], reject)
        best = np.where(mask_of(cols), setter[res], -1).argmax(axis=0)
        choice[cols] = best
        value[cols] = res[best, np.arange(res.shape[1])]
    value.flags.writeable = choice.flags.writeable = False
    return value, choice


def _backward(game: GameSpec, values: list, choices: list, meter: _Meter) -> tuple:
    """The backward rows (values[k] the k-round outcomes, choices[k - 1] the
    actions with k rounds left), extended in place to the horizon, one
    `_step` per round, each charged m * (m + 1) to `meter` before it runs.
    Empty rows (a cold solve) start from values[0], each default's own
    0-round outcome, read-only as every row is.

    A preset's step reads only the row after it, so once the last outcome
    row repeats the one before it every later step would repeat both its
    rows: the missing rounds get those same read-only arrays, charged m
    per round in one charge, and no step.
    """
    problem, horizon, m = game.problem, game.horizon, game.problem.num_policies
    if not values:
        values.append(np.arange(m))
        values[0].flags.writeable = False
    while len(choices) < horizon:
        if game._preset is not None and len(values) > 1 and np.array_equal(*values[-2:]):
            missing = horizon - len(choices)
            meter.charge(m * missing)
            values.extend([values[-1]] * missing)
            choices.extend([choices[-1]] * missing)
            break
        meter.charge(m * (m + 1))
        value, choice = _step(problem, game.rule, values[-1],
                              _offers(game, horizon - len(choices)))
        values.append(value)
        choices.append(choice)
    return values, choices


def solve_spe(game: GameSpec, budget: int = 5_000_000) -> SolveReport:
    """Backward induction over (round, default) states, every default at once.

    Requires strict preferences (gfa) so the equilibrium outcome is
    unique and vote profiles are pinned down; problems with indifference
    belong to `verify_profile`.  Each voter backs the strictly preferred
    continuation; identical continuations get a unanimous yes.  So a
    proposal passes exactly when the strict `_wins` relation holds of
    its accept outcome over its reject outcome, or the two are equal.
    Each round is one `_step` of the loop `_backward`, which reads those
    votes from the rule's memoized strict table, shared by every protocol
    and, under the majority rule, by reachability and tournaments.  So an
    override problem is solved as it is, under the simple-majority rule
    only, which `GameSpec` has checked.

    A preset game is stationary, so round t of a T-round game is step
    T + 1 - t of backward induction whatever T is: its rows (per rule and
    preset) are memoized with the problem, extended when a longer horizon
    is asked for and read as a prefix for a shorter one.  That costs one
    backward step per round up to the fixed point: once a step's outcome
    row equals its input row, `_backward` appends those same read-only
    arrays for every later round, without a step.  Table and rows cost
    m**2 bytes plus O(m) words per distinct round and one reference per
    repeated round.  A custom protocol's rows are solved per call.  The
    budget (`_Meter`) is charged m * (m + 1) per step a call computes,
    before it runs, and m per round appended past the fixed point: never
    more than T * m * (m + 1), and kept rows are free.  Each call walks
    the equilibrium path on plain ints, read from the rows, to its
    outcome: round t takes its choice and its two outcomes from the
    (T - t)-round rows, and its proposal passed exactly when the
    (T - t + 1)-round outcome is the accept outcome, so the walk reads no
    vote.  The report keeps the rows and that path, so its `value_table`
    (a fresh dict, later rounds first) and `pivotal_trace` are built only
    when first read, each step's approvers from two rank columns (None
    under an override).  Solving costs O(m * chunk) transient memory per
    block.
    """
    problem, horizon = game.problem, game.horizon
    if not problem.gfa:
        raise ValidationError(
            "solve_spe requires gfa; use verify_profile for problems with indifference")
    meter = _Meter("state space too large for the oracle", budget)
    if game._preset is None:
        values, choices = _backward(game, [], [], meter)
    else:
        # a cold store is kept once it reaches the horizon, so a refused cold
        # solve keeps nothing; a warm one is extended in place when short
        values, choices = _memoized(problem, ("rows", game.rule, game.protocol),
                                    lambda: _backward(game, [], [], meter))
        if len(choices) < horizon:
            _backward(game, values, choices, meter)

    # round t reads choices[T - t], the (T - t)-round outcomes values[T - t]
    # and its own outcome values[T - t + 1]
    path = []
    x = game.initial_default
    for t in range(1, horizon + 1):
        a, adjourn = divmod(choices[horizon - t].item(x), 2)
        later = values[horizon - t]
        accept, reject = a if adjourn else later.item(a), later.item(x)
        passed = values[horizon - t + 1].item(x) == accept
        path.append((t, x, a, adjourn, passed, accept, reject))
        if passed:
            x = a
            if adjourn:
                break
    voters = None if problem.majority_override is not None else problem._ranks[:-1]
    return _assemble(SolveReport, outcome=x, _solved=(values[:horizon + 1], path, voters))


# ---------------------------------------------------------------------------
# profile verification


def _voted_policies(offers, t: int, x: int) -> list[int]:
    """The distinct policies of a state's distinct offers, first offer
    first.  A vote carries no adjournment flag, so a policy offered with
    both flags is refused, except the standing default x: its amend offer
    has identical continuations, so both of its offers can share one
    vote."""
    policies = list(dict.fromkeys(a for a, _ in offers))
    if len(policies) < len(offers):
        flags: dict[int, bool] = {}
        for a, adjourn in offers:
            if flags.setdefault(a, adjourn) != adjourn and a != x:
                raise ValidationError(
                    "verify_profile needs each policy other than the standing default "
                    "offered with a single adjournment flag; "
                    f"policy {a} at (round {t}, default {x}) has both")
    return policies


def _offer_index(game: GameSpec, offered: tuple, t: int, x: int, proposal) -> int:
    """The index of a profile's raw `proposal` among the offers `offered` at
    (round t, default x).  A proposal that is not a (policy, adjourn) pair
    is refused, and so is one the protocol does not offer there: a policy
    that is not a whole number (`parse_whole`), an unoffered policy, or an
    offered one with the other flag."""
    try:
        a, adjourn = proposal
    except (TypeError, ValueError):
        raise ValidationError(
            f"profile proposes {proposal!r} at (round {t}, default {x}), "
            "which is not a (policy, adjourn) pair") from None
    try:
        return offered.index((parse_whole(a, "policy"), adjourn))
    except (ValidationError, ValueError):
        raise ValidationError(
            f"profile proposes policy {a}{' with adjournment' if adjourn else ''} "
            f"at (round {t}, default {x}), which protocol "
            f"{game.protocol_name!r} does not offer") from None


def _require_profile_fits(game: GameSpec, profile: StrategyProfile) -> None:
    """Refuse an override problem, whose voter rows are placeholders, and a
    profile whose horizon is not the game's."""
    _require_voter_rows(game.problem, "profiles are voted per voter")
    if profile.horizon != game.horizon:
        raise ValidationError(
            f"profile horizon {profile.horizon} != game horizon {game.horizon}")


def verify_profile(game: GameSpec, profile: StrategyProfile,
                   budget: int = 5_000_000) -> DeviationReport:
    """One-shot deviation audit of a tabulated profile.

    Reads the profile once per reachable (round, default) state, rounds
    ascending and defaults ascending: its proposal, then one `ballots`
    block with every voter's vote on each distinct offered policy.  A
    block that raises KeyError is read again one vote at a time, so that
    partial profiles raise a validation error listing every missing
    entry; so does a proposal that is not a (policy, adjourn) pair or
    that the protocol does not offer at its state (a policy that is not a
    whole number, an unoffered policy, or an offered one with the other
    adjournment flag).

    The rest runs on arrays.  Continuation outcomes under the profile are
    filled backward, one round of reachable defaults at a time: round t
    reads round t + 1 through each proposal's ballot.  Then every offer
    of every state is audited in one block: its accept and reject
    outcomes give (a) every feasible proposal deviation for the setter,
    flagged where it reaches a better-ranked outcome under fixed voting,
    and (b) the as-if-pivotal convention for every voter: a strict
    preference between the two continuations must be voted.  Violations
    are reported by state, then offer, the setter before the voters
    ascending; `Fraction`s appear only in the reported gains.  Memory is
    O(n) words per offer read.  Before each round of reachable states is
    walked, the budget is charged (its states) * m * (n + 1), so `required`
    is the work charged so far.

    A vote names a policy, not an adjournment flag, so a policy offered
    with both flags at one state is refused, with one exception: the
    standing default.  Offering it without adjournment leaves identical
    continuations, so both of its offers (the `open_rule` preset makes
    them at every state) share the one vote, and both are audited.
    """
    problem = game.problem
    _require_profile_fits(game, profile)

    # feasible actions of every reachable (round, default) state, round by
    # round: a failed vote keeps the default, a passed non-adjourning
    # proposal installs it, a passed adjourning one ends play.  Only these
    # states are read: a custom table may omit the others.
    n, m = problem.n, problem.num_policies
    meter = _Meter("profile verification too large", budget)
    actions: dict[tuple[int, int], tuple] = {}
    reach = {game.initial_default}
    for t in range(1, game.horizon + 1):
        meter.charge(len(reach) * m * (n + 1))
        successors = set(reach)
        for x in sorted(reach):
            actions[(t, x)] = game.feasible(t, x)
            successors.update(a for a, adjourn in actions[(t, x)] if not adjourn)
        reach = successors

    missing: list[tuple] = []
    offers: list[tuple[int, bool]] = []     # distinct offers of every state, in state order
    sizes: list[int] = []                   # offers per state
    on: list[int] = []                      # index into `offers` of each state's proposal
    blocks: list[np.ndarray] = []           # (n, offers) ballots of each state
    for (t, x), offered in actions.items():
        try:
            proposal = profile.propose(t, x)
        except KeyError:
            missing.append(("proposer", t, x))
        else:
            on.append(len(offers) + _offer_index(game, offered, t, x, proposal))
        policies = _voted_policies(offered, t, x)
        offers.extend(offered)
        sizes.append(len(offered))
        try:
            block = profile.ballots(t, x, policies, n)
        except KeyError:
            block = np.zeros((n, len(policies)), dtype=bool)
            for k, a in enumerate(policies):
                for i in range(n):
                    try:
                        block[i, k] = bool(profile.vote(i, t, x, a))
                    except KeyError:
                        missing.append((f"voter {i + 1}", t, x, a))
        if len(policies) < len(offered):     # the standing default's two offers
            block = block[:, [policies.index(a) for a, _ in offered]]
        blocks.append(block)
    if missing:
        raise ValidationError(f"profile not total on reachable states; missing: "
                              f"{missing[:20]}{'...' if len(missing) > 20 else ''}")

    # one entry per state, rounds ascending, and one per offer
    rounds, defaults = np.array(list(actions), dtype=np.int64).T
    state = np.repeat(np.arange(len(sizes)), sizes)
    policy = np.array([a for a, _ in offers], dtype=np.int64)
    adjourns = np.array([adjourn for _, adjourn in offers], dtype=bool)
    yes = np.concatenate(blocks, axis=1)
    passed = _coalition_holds(game.rule, yes)

    # continuation outcome of each state, later rounds first: its proposal
    # ends play (passed with adjournment) or moves to round t + 1 at the
    # passed proposal or the kept default; unreachable entries stay unread
    cont = np.zeros((game.horizon + 2, m), dtype=np.int64)
    cont[game.horizon + 1] = np.arange(m)
    on_policy, on_passed = policy[on], passed[on]
    ends = on_passed & adjourns[on]
    moves = np.where(on_passed, on_policy, defaults)
    first = np.searchsorted(rounds, np.arange(1, game.horizon + 2))
    for t in range(game.horizon, 0, -1):
        now = slice(first[t - 1], first[t])
        cont[t, defaults[now]] = np.where(ends[now], on_policy[now], cont[t + 1, moves[now]])

    # every offer at once: accept, reject, on-path and deviation outcomes;
    # a vote is wrong where the voter strictly prefers one continuation
    # and votes for the other
    t_of, x_of = rounds[state], defaults[state]
    accept = np.where(adjourns, policy, cont[t_of + 1, policy])
    reject = cont[t_of + 1, x_of]
    on_path = cont[t_of, x_of]
    deviation = np.where(passed, accept, reject)
    setter = problem._ranks[-1]
    setter_gains = setter[deviation] > setter[on_path]
    accept_ranks, reject_ranks = problem._ranks[:-1, accept], problem._ranks[:-1, reject]
    wrong = (accept_ranks != reject_ranks) & ((accept_ranks > reject_ranks) != yes)

    flagged = np.flatnonzero(setter_gains | wrong.any(axis=0))
    columns = (t_of, x_of, policy, adjourns, accept, reject, deviation, on_path, setter_gains)
    violations: list[Violation] = []
    for t, x, a, adjourn, accept_out, reject_out, dev_out, on_out, gains, bad in zip(
            *(column[flagged].tolist() for column in columns), wrong[:, flagged].T.tolist()):
        if gains:
            violations.append(Violation(
                player="setter", round=t, default=x, proposal=a,
                deviation=f"propose {problem.policies[a]}"
                          f"{' with adjournment' if adjourn else ''}",
                gain=problem.setter_utilities[dev_out] - problem.setter_utilities[on_out]))
        for i in [i for i, flag in enumerate(bad) if flag]:
            row = problem.voter_utilities[i]
            stake = row[accept_out] - row[reject_out]
            violations.append(Violation(
                player=f"voter {i + 1}", round=t, default=x, proposal=a,
                deviation="must approve strictly preferred continuation" if stake > 0
                else "must reject strictly dispreferred continuation",
                gain=abs(stake)))
    return DeviationReport(profile_valid=not violations, violations=tuple(violations))


def play_out(game: GameSpec, profile: StrategyProfile) -> int:
    """Policy implemented when everyone follows the profile: each round
    reads the proposal and its one-column `ballots` block.  Like
    `verify_profile`, it refuses an override problem, a profile of another
    horizon, a proposal that is not a pair and one its state does not
    offer (`_offer_index`)."""
    _require_profile_fits(game, profile)
    t, x = 1, game.initial_default
    while t <= game.horizon:
        proposal, offered = profile.propose(t, x), game.feasible(t, x)
        a, adjourn = offered[_offer_index(game, offered, t, x, proposal)]
        if _coalition_holds(game.rule, profile.ballots(t, x, [a], game.problem.n))[0]:
            if adjourn:
                return a
            x = a
        t += 1
    return x


# ---------------------------------------------------------------------------
# richness and protocol equivalence


@dataclass(frozen=True)
class RichnessReport:
    rich: bool
    # protocols mixing adjourn-only and amend-only policies at one state
    subset_witness: Optional[tuple[int, int, int, int]] = None   # (t, x, p_amend, q_adjourn)
    # states where neither the one-step nor the terminal improvement is offered
    feasibility_witness: Optional[tuple[int, int]] = None        # (t, x)


def check_richness(game: GameSpec) -> RichnessReport:
    """Scan all (round, default) states for the richness conditions.

    A state fails if some policy is offered only without adjournment
    while another is offered only with one, or if neither the one-step
    favorite improvement (without adjournment) nor the remaining-rounds
    improvement iterate (with adjournment) is available.  The named
    presets are rich by construction, with nothing to scan: each
    `_PRESET_OFFERS` row offers every policy under one flag, so none mixes
    amend-only and adjourn-only policies.  `GameSpec` has checked the rule.

    Note: a literal "all actions share one adjournment flag" reading
    would wrongly reject the open-rule preset (it offers every policy
    without adjournment plus the standing default with one); the
    mixed-only-availability condition implemented here is the one the
    equivalence argument actually needs.

    A custom table is scanned per call, one round's dense action mask
    (the one `solve_spe` reads) at a time; the first failing state in
    (round, default) order is the witness, the subset test taking
    precedence at a state.  Improvement iterates come from
    `engine._orbit`, one orbit per default, ties to the lowest index.
    """
    if game._preset is not None:
        return RichnessReport(rich=True)
    problem, m = game.problem, game.problem.num_policies
    orbits = [_orbit(problem, game.rule, x, game.horizon) for x in range(m)]
    step = [orbit[:2][-1] for orbit in orbits]      # phi^k(x) is orbit[:k + 1][-1]
    defaults = np.arange(m)
    for t in range(1, game.horizon + 1):
        mask = _offers(game, t)(slice(None))
        amend, adjourn = mask[0::2], mask[1::2]   # [policy, default]
        amend_only, adjourn_only = amend & ~adjourn, adjourn & ~amend
        mixed = amend_only.any(axis=0) & adjourn_only.any(axis=0)
        deep = [orbit[:game.horizon - t + 2][-1] for orbit in orbits]
        stuck = ~(amend[step, defaults] | adjourn[deep, defaults])
        failing = np.flatnonzero(mixed | stuck)
        if failing.size:
            x = int(failing[0])
            if mixed[x]:
                return RichnessReport(
                    rich=False, subset_witness=(t, x, int(amend_only[:, x].argmax()),
                                                int(adjourn_only[:, x].argmax())))
            return RichnessReport(rich=False, feasibility_witness=(t, x))
    return RichnessReport(rich=True)


@dataclass(frozen=True)
class EquivalenceReport:
    all_agree: bool
    phi_outcome: int
    outcomes: dict            # protocol name -> outcome


def protocol_equivalence(problem: CollectiveChoiceProblem, rule: VotingRule,
                         rounds: int, x0: int,
                         protocols: list[Protocol]) -> EquivalenceReport:
    """Solve each rich protocol and compare against the improvement iterate.

    Non-rich protocols are refused with the witness pair; solve their
    games directly with `solve_spe` to see what the trap yields.
    """
    if not problem.gfa:
        raise ValidationError("improvement iterates are single-valued only under gfa")
    phi_out = _orbit(problem, rule, x0, rounds)[-1]
    outcomes = {}
    for protocol in protocols:
        game = GameSpec(problem=problem, rule=rule, horizon=rounds,
                        initial_default=x0, protocol=protocol)
        report = check_richness(game)
        if not report.rich:
            witness = report.subset_witness or report.feasibility_witness
            raise RichnessError(
                f"protocol {game.protocol_name!r} is not rich (witness {witness}); "
                "solve it directly with solve_spe to inspect the trap outcome",
                witness=witness)
        outcomes[game.protocol_name] = solve_spe(game).outcome
    agree = all(out == phi_out for out in outcomes.values())
    return EquivalenceReport(all_agree=agree, phi_outcome=phi_out, outcomes=outcomes)
