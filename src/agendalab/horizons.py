"""Commitment benchmarks and horizon comparison.

Three reachability notions bound what different commitment
technologies deliver: arbitrary majority chains (full commitment),
length-two chains (fixed agendas), and the favorite-improvement orbit
(no commitment), which the finite-horizon payoffs read too.  The first
contains the other two, which are not nested: from z in the
majority-cycle fixture the credible chains reach w, which no length-two
chain reaches.  The infinite-horizon benchmark comes through the unique
stable set under the joint setter-and-majority dominance relation; the
finite/infinite payoff comparison then splits every problem into
exactly one of two cases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import _orbit
from .errors import InternalInvariantError, ValidationError
from .problems import CollectiveChoiceProblem, _memoized, _phi_table, _wins, _wins_table
from .rationals import parse_whole


@dataclass(frozen=True)
class ReachabilityReport:
    mode: str
    start: int
    members: frozenset[int]
    best_for_setter: int
    witness_chain: tuple[int, ...]


def reachability(problem: CollectiveChoiceProblem, x0: int, mode: str,
                 k: Optional[int] = None) -> ReachabilityReport:
    """Reachability closures from a default under majority chains.

    mode "reachable": endpoints of finite chains of majority wins.
    mode "k_reachable": chains of at most k steps (k=0 gives {x0}).
    mode "two_reachable": the k=2 case, the policies not covered by x0.
    mode "credible": the favorite-improvement orbit (gfa only) — chains
    the setter can walk without commitment.
    Only "k_reachable" reads `k`; any other mode refuses one.
    """
    x0 = problem.check_policy(x0)
    if k is not None and mode != "k_reachable":
        raise ValidationError(f"k is read only by mode 'k_reachable', not {mode!r}")
    if mode == "two_reachable":
        mode, k = "k_reachable", 2
    if mode == "k_reachable":
        if k is None:
            raise ValidationError("k_reachable needs k >= 0")
        k = parse_whole(k, "step count")
    if mode in ("k_reachable", "reachable"):
        parent = _bfs(problem, x0, k if mode == "k_reachable" else None)
        best = next(y for y in problem._setter_order.tolist() if y in parent)
        if mode == "k_reachable":
            mode = f"k_reachable({k})" if k != 2 else "two_reachable"
        return ReachabilityReport(mode=mode, start=x0, members=frozenset(parent),
                                  best_for_setter=best,
                                  witness_chain=_unwind(parent, x0, best))
    if mode == "credible":
        if not problem.gfa:
            raise ValidationError("credible reachability needs the single-valued "
                                  "improvement map, i.e. gfa")
        # phi raises the setter's rank until it fixes a policy: the orbit ends at the best
        chain = tuple(_orbit(problem, problem._majority_rule, x0, problem.num_policies))
        return ReachabilityReport(mode=mode, start=x0, members=frozenset(chain),
                                  best_for_setter=chain[-1], witness_chain=chain)
    raise ValidationError(f"unknown reachability mode {mode!r}")


def _bfs(problem, x0, depth=None) -> dict:
    """Breadth-first majority chains from x0, at most `depth` steps long.

    Returns each reached policy's parent (None for x0); the keys are the
    reachable set, and parents unwind to shortest chains.
    """
    majority = _wins_table(problem, problem._majority_rule)
    parent = {x0: None}
    layer, steps = [x0], 0
    while layer and (depth is None or steps < depth):
        steps += 1
        next_layer = []
        for x in layer:
            for y in majority[:, x].nonzero()[0].tolist():
                if y not in parent:
                    parent[y] = x
                    next_layer.append(y)
        layer = next_layer
    return parent


def _unwind(parent, x0, target) -> tuple[int, ...]:
    chain = [target]
    while chain[-1] != x0:
        chain.append(parent[chain[-1]])
    return tuple(reversed(chain))


# ---------------------------------------------------------------------------
# stable set


@dataclass(frozen=True)
class StableSetReport:
    members: frozenset[int]
    psi_table: dict              # policy -> favorite stable improvement
    uniqueness_certified: bool


def stable_set(problem: CollectiveChoiceProblem) -> StableSetReport:
    """The unique internally and externally stable set under dominance.

    Dominance pairs a strict setter gain with a strict majority win, so it
    refines the setter's strict order and is acyclic; a finite acyclic
    relation has exactly one stable set (von Neumann & Morgenstern 1944;
    Richardson, Annals of Math. 58, 1953).  A greedy scan in decreasing
    setter utility builds it from the dominance row of each member it
    admits, and |S| x m checks on the member rows certify it at every m.

    Problems outside gfa are refused: their stable set is unique too, but
    ψ's lowest-index tie-break and the horizon identities that read it
    assume gfa.  The report is built once per problem and memoized with
    it; each call gets its own copy of `psi_table`.
    """
    if not problem.gfa:
        raise ValidationError("the favorite stable improvement and the horizon "
                              "identities assume gfa")
    report = _memoized(problem, ("stable_set",), lambda: _stable_set(problem))
    return replace(report, psi_table=dict(report.psi_table))


def _stable_set(problem: CollectiveChoiceProblem) -> StableSetReport:
    """`stable_set`'s greedy scan over the problem's `_setter_order`, and ψ."""
    setter, rule = problem._ranks[-1], problem._majority_rule
    dominated = np.zeros(problem.num_policies, dtype=bool)
    admitted: list[int] = []
    for x in problem._setter_order.tolist():
        if not dominated[x]:
            admitted.append(x)
            dominated |= _wins(problem, rule, slice(None), rows=[x])[0] & (setter[x] > setter)
    rows = np.array(sorted(admitted))

    # psi(x): the setter's best member that is x or dominates x, lowest index
    # on ties; [k, x] below is "member k is x or dominates x", true for some k
    candidate = _certify_stable(problem, rows) | (rows[:, None] == np.arange(len(setter)))
    best = np.where(candidate, setter[rows, None], -1).argmax(axis=0)
    psi = dict(enumerate(rows[best].tolist()))
    return StableSetReport(members=frozenset(admitted), psi_table=psi,
                           uniqueness_certified=True)


def _certify_stable(problem: CollectiveChoiceProblem, members) -> np.ndarray:
    """Raise unless `members` is internally stable (no member dominates a
    member) and externally stable (a member dominates every non-member)
    under the acyclic dominance relation, which then has no other stable
    set.  Reads and returns only the members' rows: [k, x] is "the k-th
    lowest member dominates x"."""
    setter, rows = problem._ranks[-1], np.array(sorted(members), dtype=np.int64)
    dominates = (_wins(problem, problem._majority_rule, slice(None), rows=rows)
                 & (setter[rows, None] > setter))
    inside = np.zeros(len(setter), dtype=bool)
    inside[rows] = True
    dominated = dominates.any(axis=0)
    if (dominated & inside).any():
        x = int(np.flatnonzero(dominated & inside)[0])
        y = int(rows[np.flatnonzero(dominates[:, x])[0]])
        raise InternalInvariantError(
            f"stable set {rows.tolist()} is not internally stable: {y} dominates {x}")
    if not (dominated | inside).all():
        x = int(np.flatnonzero(~(dominated | inside))[0])
        raise InternalInvariantError(
            f"stable set {rows.tolist()} is not externally stable: "
            f"no member dominates {x}")
    return dominates


# ---------------------------------------------------------------------------
# horizon comparison


@dataclass(frozen=True)
class HorizonRows:
    start: int
    u_table: dict                # rounds -> setter payoff
    u_inf: Fraction


def horizon_payoffs(problem: CollectiveChoiceProblem, x0: int,
                    t_list) -> HorizonRows:
    """Setter payoffs for finite horizons plus the infinite-horizon value.

    Each horizon in `t_list` is an integer number of rounds, at least one
    (a bool, float or text horizon is refused, not truncated).  Finite
    payoffs read the orbit of x0; the infinite-horizon value is the
    utility of the favorite stable improvement — a characterization
    import, not a simulated game.  It is read first: `stable_set` refuses non-gfa.
    """
    psi = stable_set(problem).psi_table
    t_list = sorted({parse_whole(t, "horizon", 1) for t in t_list})
    # every round past the orbit's end repeats its fixed point
    orbit = _orbit(problem, problem._majority_rule, x0, max(t_list, default=0))
    table = {t: problem.setter_utilities[orbit[min(t, len(orbit) - 1)]] for t in t_list}
    return HorizonRows(start=x0, u_table=table,
                       u_inf=problem.setter_utilities[psi[x0]])


@dataclass(frozen=True)
class HorizonReport:
    u_table: dict                # (x0, rounds) -> payoff, rounds in {1, 2}
    u_inf: dict                  # x0 -> payoff
    r_set: frozenset[int]
    case: str                    # "a" or "b"
    witness: Optional[int]


def horizon_classify(problem: CollectiveChoiceProblem) -> HorizonReport:
    """Split the problem into the two exhaustive horizon-preference cases.

    Case "a": some default makes a long finite deadline strictly better
    than one round, which in turn strictly beats no deadline at all.
    Case "b": the horizon never matters.  The at-most-once-improvable
    set is computed both from the improvement map and from the stable
    set identity (`stable_set` refuses non-gfa); disagreement is an internal error.
    """
    psi = stable_set(problem).psi_table
    m = problem.num_policies
    phi1 = _phi_table(problem, problem._majority_rule)
    unimprovable = frozenset(x for x in range(m) if phi1[x] == x)
    r_via_phi = frozenset(x for x in range(m) if phi1[x] in unimprovable)
    r_via_psi = frozenset(
        x for x in range(m)
        if phi1[x] == psi[x] and phi1[phi1[x]] == psi[phi1[x]])
    if r_via_phi != r_via_psi:
        raise InternalInvariantError(
            f"at-most-once-improvable sets disagree: {sorted(r_via_phi)} vs "
            f"{sorted(r_via_psi)}")

    u_table = {}
    u_inf = {}
    for x in range(m):
        u_table[(x, 1)] = problem.setter_utilities[phi1[x]]
        u_table[(x, 2)] = problem.setter_utilities[phi1[phi1[x]]]
        u_inf[x] = problem.setter_utilities[psi[x]]

    if r_via_phi == frozenset(range(m)):
        return HorizonReport(u_table=u_table, u_inf=u_inf, r_set=r_via_phi,
                             case="b", witness=None)
    y = min(x for x in range(m) if x not in r_via_phi)
    if problem._ranks[-1][phi1[y]] > problem._ranks[-1][psi[y]]:
        witness = y
    else:
        witness = phi1[y]
    return HorizonReport(u_table=u_table, u_inf=u_inf, r_set=r_via_phi,
                         case="a", witness=witness)
