"""Independent subgame-perfect-equilibrium solver and profile verifier.

This is the ground truth the favorite-improvement predictions are
tested against.  The solver runs backward induction over (round,
default) states of the full extensive form: at each state every
feasible proposal is evaluated, every voter votes as if pivotal between
the two continuation outcomes, and the setter picks her best passing
result.  It does so for every default of a round at once, on arrays:
one weak winning-coalition table (`_wins_table`, one per rule, shared
by every protocol) settles every vote, and every protocol, preset or
custom, is read as an action mask per round, one column chunk at a
time.  The solver, the verifier and `play_out` never read the
improvement operators; only `check_richness` on a custom table and
`protocol_equivalence` compare against favorite-improvement iterates.

A preset game is stationary: the setter cannot commit, so round t of a
T-round game is the first round of the (T - t + 1)-round game.  So the
backward rows of every horizon solved so far are memoized with the
problem per (rule, preset); a longer horizon extends them and a shorter
one reads their prefix, so every default and horizon of a preset costs
one backward step per round.  Custom tables are not stationary and are
solved per call.

Generalized adjournment protocols are supported: a proposal may carry
an adjournment provision whose passage ends deliberation immediately.
The richness validator separates protocols for which all of this is
outcome-equivalent from trap protocols that are not.  The presets are
rich by construction; only custom tables are scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Integral
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .engine import StrategyProfile, _orbit, phi_iterates
from .errors import (
    BudgetExceededError,
    RichnessError,
    UnsupportedCombinationError,
    ValidationError,
)
from .problems import (
    CollectiveChoiceProblem,
    VotingRule,
    _coalition_holds,
    _column_chunks,
    _memoized,
    _require_rule,
    _wins_table,
)

PRESET_PROTOCOLS = ("amendment", "successive", "open_rule")


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
    """A finite agenda game.  A custom protocol's table is validated once,
    here, and each state's offers kept as distinct `(int, bool)` pairs,
    first offer first; `feasible` reports a missing or empty set lazily."""

    problem: CollectiveChoiceProblem
    rule: VotingRule
    horizon: int
    initial_default: int
    protocol: Protocol = "amendment"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be at least one round")
        self.problem.check_policy(self.initial_default)
        if self.rule.n != self.problem.n:
            raise ValidationError(
                f"rule is for {self.rule.n} voters, problem has {self.problem.n}")
        if isinstance(self.protocol, str) and self.protocol not in PRESET_PROTOCOLS:
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if isinstance(self.protocol, CustomProtocol):
            m = self.problem.num_policies
            offers = {}
            for (t, x), actions in self.protocol.table.items():
                for action in actions:
                    pair = isinstance(action, (tuple, list)) and len(action) == 2
                    a, adjourn = action if pair else (None, None)
                    if not (isinstance(a, Integral) and 0 <= a < m
                            and isinstance(adjourn, bool)):
                        raise ValidationError(
                            f"custom protocol {self.protocol.label!r} offers {action!r} "
                            f"at (round {t}, default {x}); an action is a policy "
                            f"in 0..{m - 1} and a bool adjournment flag")
                offers[(t, x)] = tuple(dict.fromkeys((int(a), f) for a, f in actions))
            object.__setattr__(self, "_offers", offers)

    @property
    def protocol_name(self) -> str:
        return self.protocol if isinstance(self.protocol, str) else self.protocol.label

    @cached_property
    def _every_policy(self) -> tuple[tuple[int, bool], ...]:
        """A preset's offer of every policy, with adjournment under `successive`."""
        adjourn = self.protocol == "successive"
        return tuple((y, adjourn) for y in range(self.problem.num_policies))

    def feasible(self, t: int, x: int) -> tuple[tuple[int, bool], ...]:
        """The distinct `(int, bool)` offers at (round t, default x), first
        offer first; a custom table's missing or empty set raises here."""
        if self.protocol in ("amendment", "successive"):
            return self._every_policy
        if self.protocol == "open_rule":
            return self._every_policy + ((x, True),)
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
    round: int
    default: int
    proposal: int
    adjourn: bool
    approvers: frozenset[int]
    passed: bool


@dataclass(frozen=True)
class SolveReport:
    outcome: int
    value_table: dict            # (round, default) -> continuation outcome
    pivotal_trace: tuple[TraceStep, ...]


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


def _action_masks(game: GameSpec, rounds: range) -> Iterator[Callable[[slice], np.ndarray]]:
    """The feasible actions of each round in `rounds`, in that order, as a
    reader `mask_of(cols)` of the round's (2m x |cols|) boolean mask: entry
    [2 * policy + adjourn, j] is True when the protocol offers (policy,
    adjourn) at default cols[j], so row order is (policy, adjourn) order.

    A preset offers the same actions every round: every policy without
    adjournment (with it, under `successive`), and under `open_rule` also
    the standing default with adjournment.  Its one reader builds only the
    chunk asked for.  A custom table is read round by round, default by
    default, into one dense mask, so the first missing or empty feasible
    set in that order raises.
    """
    m = game.problem.num_policies
    if isinstance(game.protocol, str):
        def mask_of(cols):
            defaults = np.arange(m)[cols]
            mask = np.zeros((2 * m, len(defaults)), dtype=bool)
            mask[game.protocol == "successive"::2] = True
            if game.protocol == "open_rule":
                mask[2 * defaults + 1, np.arange(len(defaults))] = True
            return mask

        for _ in rounds:
            yield mask_of
        return
    for t in rounds:
        mask = np.zeros((2 * m, m), dtype=bool)
        for x in range(m):
            for a, adjourn in game.feasible(t, x):
                mask[2 * a + adjourn, x] = True
        yield lambda cols, mask=mask: mask[:, cols]


def _extend_rows(problem: CollectiveChoiceProblem, passes: np.ndarray, values: list,
                 choices: list, masks: Iterator) -> None:
    """Backward induction at every default, one round per action-mask
    reader in `masks`: append the round's continuation outcomes to
    `values` and its chosen actions (2 * policy + adjourn) to `choices`,
    reading the next round's outcomes `val` = values[-1].

    Action 2a + adjourn leads, once accepted, to `acc` = val[a] (amend) or
    a (adjourn), so its result at default x is acc if passes[acc, val[x]]
    else val[x], and the setter takes the best-ranked feasible result.
    The argmax breaks ties to the lowest (policy, adjourn) pair, which
    cannot affect the outcome under gfa.  Defaults go by `_column_chunks`.
    """
    m = problem.num_policies
    setter = problem._ranks[-1]
    chunks = _column_chunks(problem)
    acc = np.empty(2 * m, dtype=np.int64)
    acc[1::2] = np.arange(m)
    for mask_of in masks:
        val = values[-1]
        acc[0::2] = val
        value = np.empty(m, dtype=np.int64)
        choice = np.empty(m, dtype=np.int64)
        for cols in chunks:
            reject = val[None, cols]
            res = np.where(passes[acc[:, None], reject], acc[:, None], reject)
            best = np.where(mask_of(cols), setter[res], -1).argmax(axis=0)
            choice[cols] = best
            value[cols] = res[best, np.arange(res.shape[1])]
        values.append(value)
        choices.append(choice)


def solve_spe(game: GameSpec, budget: int = 5_000_000) -> SolveReport:
    """Backward induction over (round, default) states, every default at once.

    Requires strict preferences (gfa) so the equilibrium outcome is
    unique and vote profiles are pinned down; problems with indifference
    belong to `verify_profile`.  Each voter backs the strictly preferred
    continuation; identical continuations get a unanimous yes.  So a
    proposal passes exactly when `passes[accept, reject]`, the weak
    `_wins` relation (under gfa it differs from the strict one only on
    its diagonal).  Each round is one step of `_extend_rows`.

    `passes` is the rule's memoized weak `_wins_table`, shared by every
    protocol.  A preset game is stationary, so round t of a T-round game
    is step T + 1 - t of backward induction whatever T is: its rows (per
    rule and preset) are memoized with the problem, extended when a
    longer horizon is asked for and read as a prefix for a shorter one.
    Table and rows cost m**2 bytes plus O(T * m) words.  A custom
    protocol's rows are solved per call.  Either way each call checks its
    budget, builds a fresh `value_table` and recomputes the approvers of
    each step on the equilibrium path only; solving costs O(m * chunk)
    transient memory per block.
    """
    problem = game.problem
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(
            "the oracle votes per voter; realize the override as an explicit "
            "profile (e.g. a tournament realization) first")
    if not problem.gfa:
        raise ValidationError(
            "solve_spe requires gfa; use verify_profile for problems with indifference")
    m, horizon = problem.num_policies, game.horizon
    work = horizon * m * (m + 1)
    if work > budget:
        raise BudgetExceededError("state space too large for the oracle",
                                  required=work, budget=budget)

    passes = _wins_table(problem, game.rule, weak=True)
    if isinstance(game.protocol, str):
        # values[k] is the k-round outcome from each default and choices[k - 1]
        # the action with k rounds left; a preset's mask is the same every
        # round, so the steps still missing stand in for rounds
        values, choices = _memoized(problem, ("rows", game.rule, game.protocol),
                                    lambda: ([np.arange(m)], []))
        rounds = range(len(choices), horizon)
    else:
        values, choices = [np.arange(m)], []
        rounds = range(horizon, 0, -1)
    if rounds:
        _extend_rows(problem, passes, values, choices, _action_masks(game, rounds))

    # values[k] and choices[k - 1] belong to round T + 1 - k
    values = [row.tolist() for row in values[:horizon + 1]]
    value_table = {(horizon + 1 - k, x): out
                   for k, row in enumerate(values) for x, out in enumerate(row)}
    voters = problem._ranks[:-1]
    trace = []
    t, x = 1, game.initial_default
    while t <= horizon:
        a, adjourn = divmod(int(choices[horizon - t][x]), 2)
        later = values[horizon - t]
        accept_out, reject_out = a if adjourn else later[a], later[x]
        yes = np.flatnonzero(voters[:, accept_out] >= voters[:, reject_out])
        passed = bool(passes[accept_out, reject_out])
        trace.append(TraceStep(
            round=t, default=x, proposal=a, adjourn=bool(adjourn),
            approvers=frozenset(yes.tolist()), passed=passed))
        if passed and adjourn:
            return SolveReport(outcome=a, value_table=value_table,
                               pivotal_trace=tuple(trace))
        x = a if passed else x
        t += 1
    return SolveReport(outcome=x, value_table=value_table, pivotal_trace=tuple(trace))


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


def verify_profile(game: GameSpec, profile: StrategyProfile,
                   budget: int = 5_000_000) -> DeviationReport:
    """One-shot deviation audit of a tabulated profile.

    Reads the profile once per reachable (round, default) state, rounds
    ascending and defaults ascending: its proposal, then one `ballots`
    block with every voter's vote on each distinct offered policy.  A
    block that raises KeyError is read again one vote at a time, so that
    partial profiles raise a validation error listing every missing
    entry; so does a proposal the protocol does not offer at its state
    (an unoffered policy, or an offered one with the other adjournment
    flag).

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
    O(n) words per offer read.

    A vote names a policy, not an adjournment flag, so a policy offered
    with both flags at one state is refused, with one exception: the
    standing default.  Offering it without adjournment leaves identical
    continuations, so both of its offers (the `open_rule` preset makes
    them at every state) share the one vote, and both are audited.
    """
    problem = game.problem
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(
            "profiles are voted per voter; relation-override problems unsupported")
    if profile.horizon != game.horizon:
        raise ValidationError(
            f"profile horizon {profile.horizon} != game horizon {game.horizon}")

    # feasible actions of every reachable (round, default) state, round by
    # round: a failed vote keeps the default, a passed non-adjourning
    # proposal installs it, a passed adjourning one ends play.  Only these
    # states are read: a custom table may omit the others.
    actions: dict[tuple[int, int], tuple] = {}
    reach = {game.initial_default}
    for t in range(1, game.horizon + 1):
        successors = set(reach)
        for x in sorted(reach):
            actions[(t, x)] = game.feasible(t, x)
            successors.update(a for a, adjourn in actions[(t, x)] if not adjourn)
        reach = successors

    n, m = problem.n, problem.num_policies
    work = len(actions) * m * (n + 1)
    if work > budget:
        raise BudgetExceededError("profile verification too large",
                                  required=work, budget=budget)

    missing: list[tuple] = []
    offers: list[tuple[int, bool]] = []     # distinct offers of every state, in state order
    sizes: list[int] = []                   # offers per state
    on: list[int] = []                      # index into `offers` of each state's proposal
    blocks: list[np.ndarray] = []           # (n, offers) ballots of each state
    for (t, x), offered in actions.items():
        try:
            a, adjourn = profile.propose(t, x)
        except KeyError:
            missing.append(("proposer", t, x))
            a = adjourn = None
        else:
            if (a, adjourn) not in offered:
                raise ValidationError(
                    f"profile proposes policy {a}{' with adjournment' if adjourn else ''} "
                    f"at (round {t}, default {x}), which protocol "
                    f"{game.protocol_name!r} does not offer")
        policies = _voted_policies(offered, t, x)
        if a is not None:
            on.append(len(offers) + offered.index((a, adjourn)))
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
    reads the proposal and its one-column `ballots` block."""
    t, x = 1, game.initial_default
    while t <= game.horizon:
        a, adjourn = profile.propose(t, x)
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
    presets are rich by construction and only check the rule: `amendment`
    and `open_rule` offer every policy without adjournment, `successive`
    every policy with it, and none mixes amend-only and adjourn-only
    policies.

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
    problem, m = game.problem, game.problem.num_policies
    if isinstance(game.protocol, str):
        _require_rule(problem, game.rule)
        return RichnessReport(rich=True)
    orbits = [_orbit(problem, game.rule, x, game.horizon) for x in range(m)]
    step = [orbit[:2][-1] for orbit in orbits]      # phi^k(x) is orbit[:k + 1][-1]
    defaults, rounds = np.arange(m), range(1, game.horizon + 1)
    for t, mask_of in zip(rounds, _action_masks(game, rounds)):
        mask = mask_of(slice(None))
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
    phi_out = phi_iterates(problem, rule, x0, rounds)[-1]
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
