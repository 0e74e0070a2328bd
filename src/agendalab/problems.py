"""Static collective choice layer.

A collective choice problem is a finite labeled policy set together
with exact-rational utilities for n voters and a single agenda setter.
The strict majority relation is derived from the voter utilities, or
supplied directly as a tournament override for relation-level fixtures
whose voter profiles are not pinned down.

On top of the problem sit voting rules (quota or explicit families of
winning coalitions), acceptance sets, improvability certificates,
manipulability, and the uniform improvement margin used to bound how
many proposal rounds the setter needs.

Every ordinal query reads dense per-row ranks, small integers at any
utility magnitude.  `_wins` ("does a winning coalition prefer y to
x?") alone turns ranks, or a majority override, into that relation;
acceptance sets and the favorite-improvement table are read from its
blocks, whole m x m tables (`_majority`, the oracle's weak vote table)
come only from `_wins_table`, and the setter's optimum and
certificate coalitions read rank columns.  The oracle never
reads the favorite-improvement table.  The ranks are built from the
scaled integers `_ints`; only the uniform margin reads those directly.
What is derived once per problem lives in its one `_memo`, through
`_memoized`.

A problem built from integer rows (`_scaled_problem`, used by every
grid, distribution, spatial and realization builder) keeps those
integers as its data: its `Fraction` utility fields are views, each
made on first read, and no kernel reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .errors import UnsupportedCombinationError, ValidationError
from .rationals import ScaledInts, _assemble, _FractionView, fraction_rows, parse_rational

# Largest number of voter-by-policy comparisons one block of `_wins`
# materializes when a whole table is built chunk by chunk, which keeps
# the transient arrays well under a megabyte at any problem size.
_CHUNK_COMPARISONS = 2**16

# ---------------------------------------------------------------------------
# tournaments


@dataclass(frozen=True)
class TournamentSpec:
    """Complete antisymmetric strict relation over policy indices.

    `edges` holds one (winner, loser) pair per unordered policy pair.
    """

    size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen = set()
        for winner, loser in self.edges:
            if not (0 <= winner < self.size and 0 <= loser < self.size):
                raise ValidationError(f"tournament edge ({winner},{loser}) out of range")
            if winner == loser:
                raise ValidationError("tournament relation must be irreflexive")
            key = (min(winner, loser), max(winner, loser))
            if key in seen:
                raise ValidationError(f"both orientations given for pair {key}")
            seen.add(key)
        expected = self.size * (self.size - 1) // 2
        if len(seen) != expected:
            raise ValidationError(
                f"tournament incomplete: {len(seen)} of {expected} pairs oriented")

    @staticmethod
    def from_edges(size: int, edges: Iterable[tuple[int, int]]) -> "TournamentSpec":
        return TournamentSpec(size, frozenset((int(w), int(l)) for w, l in edges))


# ---------------------------------------------------------------------------
# voting rules


@dataclass(frozen=True)
class VotingRule:
    """Family of winning voter coalitions.

    Quota rules store only the quota; explicit rules store the antichain
    of minimal winning coalitions as voter bitmasks (Python ints, so any
    voter count works).  Monotone closure is implicit: any superset of a
    winning coalition wins.
    """

    n: int
    quota: Optional[int] = None
    min_coalitions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"voter count {self.n} must be positive")
        if self.quota is not None:
            if not (1 <= self.quota <= self.n):
                raise ValidationError(f"quota {self.quota} outside 1..{self.n}")
            if self.min_coalitions:
                raise ValidationError("give either a quota or explicit coalitions, not both")
            return
        if not self.min_coalitions:
            raise ValidationError("explicit rule needs at least one winning coalition")
        full = (1 << self.n) - 1
        for mask in self.min_coalitions:
            if mask == 0 or mask & ~full:
                raise ValidationError(f"coalition mask {mask:#x} invalid for n={self.n}")
        masks = sorted(set(self.min_coalitions))
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & b == a or a & b == b:
                    raise ValidationError("minimal coalitions must form an antichain")
        object.__setattr__(self, "min_coalitions", tuple(masks))

    @staticmethod
    def quota_rule(n: int, q: int) -> "VotingRule":
        return VotingRule(n=n, quota=q)

    @staticmethod
    def simple_majority(n: int) -> "VotingRule":
        if n % 2 == 0:
            raise ValidationError(
                "simple majority is only defined here for an odd number of voters; "
                "use an explicit coalition family for even n")
        return VotingRule(n=n, quota=(n + 1) // 2)

    @staticmethod
    def explicit(n: int, coalitions: Iterable[Iterable[int]]) -> "VotingRule":
        masks = []
        for coalition in coalitions:
            mask = 0
            for voter in coalition:
                if not 0 <= voter < n:
                    raise ValidationError(f"voter {voter} out of range for n={n}")
                mask |= 1 << voter
            masks.append(mask)
        # keep only minimal masks so the stored family is an antichain
        minimal = [m for m in masks
                   if not any(o != m and o & m == o for o in masks)]
        return VotingRule(n=n, min_coalitions=tuple(sorted(set(minimal))))

    @property
    def is_simple_majority(self) -> bool:
        return self.quota is not None and self.n % 2 == 1 and self.quota == (self.n + 1) // 2

    @cached_property
    def coalition_members(self) -> tuple[tuple[int, ...], ...]:
        """Voter indices of each minimal coalition of an explicit rule."""
        return tuple(tuple(i for i in range(self.n) if (mask >> i) & 1)
                     for mask in self.min_coalitions)

    def wins(self, mask: int) -> bool:
        if self.quota is not None:
            return mask.bit_count() >= self.quota
        return any(c & mask == c for c in self.min_coalitions)

    @property
    def veto_proof(self) -> bool:
        """No single voter belongs to every winning coalition."""
        if self.quota is not None:
            return self.quota <= self.n - 1
        return all(any(not (c >> i) & 1 for c in self.min_coalitions)
                   for i in range(self.n))


# ---------------------------------------------------------------------------
# the problem itself


@dataclass(frozen=True)
class CollectiveChoiceProblem:
    """Finite policy set plus exact-rational preferences.

    voter_utilities has one row per voter, one column per policy.  When
    `majority_override` is present it replaces the profile-derived
    strict majority relation; utility-level operations then refuse the
    problem, since the two descriptions need not be consistent.

    `gfa` asserts the generic-finite-alternatives regime: odd voter
    count and no within-row utility ties for any player.

    The constructor keeps the `Fraction` rows it is given and compiles
    `_ints` from them when first needed.  A problem built from integer
    rows (`_scaled_problem`) keeps those integers instead, and its two
    utility fields are `Fraction` views of them, each made on first
    read; equality, hashing and repr read the fields, so the two kinds
    of problem are interchangeable.
    """

    policies: tuple[str, ...]
    voter_utilities: tuple[tuple[Fraction, ...], ...] = _FractionView(
        lambda problem: fraction_rows(problem._ints.vectors[:-1], problem._ints.scale))
    setter_utilities: tuple[Fraction, ...] = _FractionView(
        lambda problem: fraction_rows(problem._ints.vectors[-1:], problem._ints.scale)[0])
    majority_override: Optional[TournamentSpec] = None
    gfa: bool = False

    def __post_init__(self):
        self._check_rows((*self.voter_utilities, self.setter_utilities))

    def _check_rows(self, rows) -> None:
        """Shape and gfa checks on the utility rows, voters first, setter last
        (either kind: `Fraction` fields or the integers of `_ints`)."""
        m = len(self.policies)
        if m < 1:
            raise ValidationError("need at least one policy")
        if len(set(self.policies)) != m:
            raise ValidationError("duplicate policy labels")
        if len(rows[-1]) != m:
            raise ValidationError(
                f"setter utility row has {len(rows[-1])} entries, expected {m}")
        if len(rows) < 2:
            raise ValidationError("need at least one voter")
        for i, row in enumerate(rows[:-1]):
            if len(row) != m:
                raise ValidationError(
                    f"voter {i + 1} utility row has {len(row)} entries, expected {m}")
        if self.majority_override is not None and self.majority_override.size != m:
            raise ValidationError("override tournament size does not match policy count")
        if self.gfa:
            if self.n % 2 == 0:
                raise ValidationError("gfa requires an odd number of voters")
            # a row without ties reaches dense rank m - 1
            for i, top in enumerate(self._ranks.max(axis=1).tolist()):
                if top != m - 1:
                    name = f"voter {i + 1}" if i < self.n else "agenda setter"
                    raise ValidationError(f"gfa requires strict preferences; {name} has ties")

    # -- basic views --------------------------------------------------------

    @property
    def num_policies(self) -> int:
        return len(self.policies)

    @cached_property
    def n(self) -> int:
        """The voter count; `_scaled_problem` seeds it from its integer rows."""
        return len(self.voter_utilities)

    def policy_index(self, label: str) -> int:
        try:
            return self.policies.index(label)
        except ValueError:
            raise ValidationError(f"unknown policy label {label!r}") from None

    def check_policy(self, x: int) -> int:
        if not 0 <= x < self.num_policies:
            raise ValidationError(f"policy index {x} out of range")
        return x

    @cached_property
    def setter_max(self) -> Fraction:
        return self.setter_utilities[int(self._ranks[-1].argmax())]

    @cached_property
    def setter_optima(self) -> frozenset[int]:
        """The policies of the setter's top rank."""
        setter = self._ranks[-1]
        return frozenset(np.flatnonzero(setter == setter.max()).tolist())

    # -- compiled forms ------------------------------------------------------

    @cached_property
    def _ints(self) -> ScaledInts:
        """Voter rows, then the setter's, on one integer scale: compiled
        from the `Fraction` fields of a constructed problem, and the
        stored data itself of one built by `_scaled_problem`."""
        rows = [list(r) for r in self.voter_utilities] + [list(self.setter_utilities)]
        return ScaledInts(rows)

    @cached_property
    def _ranks(self) -> np.ndarray:
        """(n+1) x m dense per-row ranks, voters first, then the setter.

        Rank k is the row's k-th smallest distinct utility, so comparing
        ranks within a row is comparing utilities, exactly.
        """
        out = np.empty((self.n + 1, self.num_policies), dtype=np.int64)
        for i, row in enumerate(self._ints.vectors):
            position = {v: k for k, v in enumerate(sorted(set(row)))}
            out[i] = [position[v] for v in row]
        out.flags.writeable = False
        return out

    @cached_property
    def _beats(self) -> np.ndarray:
        """[y, x]: y beats x in the majority override (all False without one)."""
        m = self.num_policies
        out = np.zeros((m, m), dtype=bool)
        if self.majority_override is not None and self.majority_override.edges:
            winners, losers = zip(*self.majority_override.edges)
            out[list(winners), list(losers)] = True
        out.flags.writeable = False
        return out

    @cached_property
    def _memo(self) -> dict:
        """Results already derived from this problem, read only through
        `_memoized`: by ("phi", rule) the favorite-improvement table, by
        ("phi_or", rule) the one-round improvement correspondence at every
        default, by ("wins", rule, weak) a whole `_wins` table, by ("rows",
        rule, preset) the oracle's backward rows and by ("stable_set",) the
        stable-set report."""
        return {}

    @cached_property
    def _majority_rule(self) -> VotingRule:
        """Quota n//2 + 1: more than half of the voters, at any voter count
        (an override problem reads its tournament whatever the count)."""
        return VotingRule.quota_rule(self.n, self.n // 2 + 1)

    @property
    def _majority(self) -> np.ndarray:
        """[y, x]: more than half of the voters strictly prefer y to x, or
        the override says y beats x (at any voter count): the strict
        `_wins_table` of `_majority_rule`."""
        return _wins_table(self, self._majority_rule)


def _scaled_problem(policies, rows, denominator: int,
                    gfa: bool = False) -> CollectiveChoiceProblem:
    """The problem whose player p values policy x at rows[p][x] / denominator
    (integer rows, voters first, the setter last).  It keeps those
    integers as its `_ints` and builds no `Fraction`: its utility fields
    are views made on first read, and it equals the problem the public
    constructor makes from them."""
    ints = ScaledInts.from_scaled(rows, denominator)
    problem = _assemble(CollectiveChoiceProblem, policies=tuple(policies),
                        majority_override=None, gfa=gfa, _ints=ints, n=len(ints.vectors) - 1)
    problem._check_rows(ints.vectors)
    return problem


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ImprovementCertificate:
    """Witness that `base` can be improved for the setter and a coalition."""

    base: int
    witness: int
    coalition: Optional[frozenset[int]]   # None for relation-override problems
    setter_gain: Fraction


@dataclass(frozen=True)
class MarginReport:
    """Uniform improvement margin over the delta-suboptimal region.

    eta_star maps each delta-suboptimal policy to the largest eta such
    that some alternative improves the setter and a full winning
    coalition by at least eta.  eta_delta is the minimum over that
    region; t_bound the induced round bound, undefined (None) whenever
    the margin is not strictly positive.
    """

    delta: Fraction
    gamma_set: tuple[int, ...]
    eta_star: dict[int, Fraction]
    eta_delta: Optional[Fraction]
    t_bound: Optional[int]

    @property
    def lemma_holds(self) -> bool:
        return self.eta_delta is not None and self.eta_delta > 0


# ---------------------------------------------------------------------------
# operations


def _require_rule(problem, rule):
    if rule.n != problem.n:
        raise ValidationError(f"rule is for {rule.n} voters, problem has {problem.n}")
    if problem.majority_override is not None and not rule.is_simple_majority:
        raise UnsupportedCombinationError(
            "a majority override defines only the simple-majority relation; "
            "pair explicit or non-majority rules with utility-level problems")


def _coalition_holds(rule: VotingRule, prefer: np.ndarray) -> np.ndarray:
    """Reduce a voters-first boolean array over its first axis: does the
    set of voters marked True contain a winning coalition?"""
    if rule.quota is not None:
        return np.count_nonzero(prefer, axis=0) >= rule.quota
    out = np.zeros(prefer.shape[1:], dtype=bool)
    for members in rule.coalition_members:
        out |= prefer[list(members)].all(axis=0)
    return out


def _wins(problem: CollectiveChoiceProblem, rule: VotingRule, cols: slice,
          weak: bool = False) -> np.ndarray:
    """[y, x] for x in `cols`: some winning coalition strictly (weakly, if
    `weak`) prefers y to x.  Callers check the rule (`_require_rule`).

    A majority override *is* the relation; a tournament resolves every
    pair of distinct policies, so its diagonal is `weak`.  A block costs
    n * m * |cols| transient bytes: wide reads go by `_column_chunks`,
    and only `_wins_table` keeps a whole m x m table.
    """
    if problem.majority_override is not None:
        policies = np.arange(problem.num_policies)
        return problem._beats[:, cols] | (weak & (policies[:, None] == policies[None, cols]))
    voters = problem._ranks[:-1]
    column = voters[:, None, cols]
    return _coalition_holds(rule, voters[:, :, None] >= column if weak
                            else voters[:, :, None] > column)


def _column_chunks(problem: CollectiveChoiceProblem) -> list[slice]:
    """Column slices of at most `_CHUNK_COMPARISONS` voter comparisons each."""
    m = problem.num_policies
    width = max(1, _CHUNK_COMPARISONS // (m * problem.n))
    return [slice(start, start + width) for start in range(0, m, width)]


def _memoized(problem: CollectiveChoiceProblem, key: tuple, build: Callable[[], Any]):
    """`problem._memo[key]`, made by `build()` on first use."""
    memo = problem._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _wins_table(problem: CollectiveChoiceProblem, rule: VotingRule,
                weak: bool = False) -> np.ndarray:
    """The whole read-only m x m `_wins` table, built once per (rule, weak)
    in `_column_chunks`: O(n * m * chunk) transient memory, m**2 bytes
    kept.  Callers check the rule (`_require_rule`)."""
    def build():
        m = problem.num_policies
        out = np.empty((m, m), dtype=bool)
        for cols in _column_chunks(problem):
            out[:, cols] = _wins(problem, rule, cols, weak)
        out.flags.writeable = False
        return out

    return _memoized(problem, ("wins", rule, weak), build)


def _phi_table(problem: CollectiveChoiceProblem, rule: VotingRule) -> tuple[int, ...]:
    """Favorite improvement of every default, computed once per rule.

    Entry x is the lowest-index setter maximizer among the policies that
    a winning coalition and the setter both strictly prefer to x, or x
    itself when there is none.  Columns (defaults) are processed in
    `_column_chunks`, so the transient memory is O(n * m * chunk) and no
    m x m table is ever built; only the m-entry result is kept.
    """
    _require_rule(problem, rule)

    def build():
        setter = problem._ranks[-1]
        defaults = np.arange(problem.num_policies)
        table = []
        for cols in _column_chunks(problem):
            better = _wins(problem, rule, cols) & (setter[:, None] > setter[None, cols])
            # argmax keeps the first of equal maxima: the lowest index
            best = np.where(better, setter[:, None], -1).argmax(axis=0)
            table.extend(np.where(better.any(axis=0), best, defaults[cols]).tolist())
        return tuple(table)

    return _memoized(problem, ("phi", rule), build)


def acceptance_set(problem: CollectiveChoiceProblem, rule: VotingRule,
                   x: int, mode: str) -> frozenset[int]:
    """Policies some winning coalition accepts over default x.

    mode "strict": a winning coalition strictly prefers y.
    mode "weak": a winning coalition weakly prefers y (always contains x).
    mode "almost_strict": the strict set plus x itself; on finite spaces
    the closure operation degenerates to exactly this.
    """
    problem.check_policy(x)
    if mode not in ("strict", "weak", "almost_strict"):
        raise ValidationError(f"unknown acceptance mode {mode!r}")
    _require_rule(problem, rule)
    accepted = _wins(problem, rule, slice(x, x + 1), weak=(mode == "weak"))[:, 0]
    if mode == "almost_strict":
        accepted[x] = True
    return frozenset(np.flatnonzero(accepted).tolist())


def is_improvable(problem: CollectiveChoiceProblem, rule: VotingRule,
                  x: int) -> Optional[ImprovementCertificate]:
    """Best improvement certificate at x, or None if x is unimprovable.

    Among witnesses the setter-utility maximizer is returned, ties
    broken by lowest policy index.  Relation-override problems get a
    certificate without a voter coalition (votes are relation-level).
    """
    problem.check_policy(x)
    best = _phi_table(problem, rule)[x]
    if best == x:
        return None
    coalition = None
    if problem.majority_override is None:
        voters = problem._ranks[:-1]
        coalition = _canonical_winning_subcoalition(rule, voters[:, best] > voters[:, x])
    return ImprovementCertificate(
        base=x, witness=best, coalition=coalition,
        setter_gain=problem.setter_utilities[best] - problem.setter_utilities[x])


def _canonical_winning_subcoalition(rule: VotingRule, gainers: np.ndarray) -> frozenset[int]:
    """The lowest `quota` gainers, or the first minimal coalition that all gain."""
    if rule.quota is not None:
        return frozenset(np.flatnonzero(gainers)[:rule.quota].tolist())
    for members in rule.coalition_members:
        if gainers[list(members)].all():
            return frozenset(members)
    raise ValidationError("gainer set contains no winning coalition")  # pragma: no cover


def unimprovable_set(problem: CollectiveChoiceProblem, rule: VotingRule) -> frozenset[int]:
    """Fixed points of improvement: no coalition-backed setter gain exists."""
    return frozenset(x for x, y in enumerate(_phi_table(problem, rule)) if x == y)


@dataclass(frozen=True)
class ManipulabilityReport:
    manipulable: bool
    blocking: frozenset[int]          # unimprovable policies outside the setter optima


def is_manipulable(problem: CollectiveChoiceProblem, rule: VotingRule) -> ManipulabilityReport:
    """True iff every policy outside the setter's optimum set is improvable."""
    stuck = unimprovable_set(problem, rule)
    blocking = stuck - problem.setter_optima
    return ManipulabilityReport(manipulable=not blocking, blocking=blocking)


def uniform_margin(problem: CollectiveChoiceProblem, rule: VotingRule,
                   delta) -> MarginReport:
    """Uniform improvement margin for the delta-suboptimal policies.

    For each x with setter shortfall at least delta, eta_star(x) is the
    best over alternatives y of min(setter gain, coalition-min voter
    gain), where for a quota rule the coalition-min gain is the q-th
    largest voter gain and for explicit families it is maximized over
    the minimal winning coalitions.  y = x scores 0 and any y the setter
    does not strictly prefer scores at most 0, so only the alternatives
    the setter strictly prefers to x are scanned: sorted once by setter
    value, they are one suffix, and eta_star(x) is the larger of 0 and
    their best score.  That is O(n * k) for k such alternatives, at most
    m * (m - 1) / 2 (y, x) pairs in all.  Everything runs on the
    problem's scaled integers (an int64 array when they fit, Python ints
    otherwise), and one `Fraction` is built per distinct reported value.
    """
    delta = parse_rational(delta)
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(
            "uniform_margin needs utility-consistent majorities; "
            "relation overrides carry no gain information")
    _require_rule(problem, rule)

    ints = problem._ints
    setter_row = ints.vectors[-1]
    top = max(setter_row)
    # top - s_x >= delta, on the scale of the integers
    bar = delta.numerator * ints.scale
    gamma = tuple(x for x, s in enumerate(setter_row)
                  if (top - s) * delta.denominator >= bar)
    if not gamma:
        return MarginReport(delta=delta, gamma_set=(), eta_star={},
                            eta_delta=None, t_bound=0)

    voters, setter = ints.array[:-1], ints.array[-1]
    order = np.argsort(setter, kind="stable")
    ranked_setter, ranked_voters = setter[order], voters[:, order]
    # x falls short of the top, so its suffix is never empty
    starts = np.searchsorted(ranked_setter, setter[list(gamma)], side="right").tolist()
    best: dict[int, int] = {}
    for x, start in zip(gamma, starts):
        gains = ranked_voters[:, start:] - voters[:, x:x + 1]
        if rule.quota is not None:
            kth = rule.n - rule.quota             # the q-th largest gain
            coalition_gain = np.partition(gains, kth, axis=0)[kth]
        else:
            coalition_gain = np.array([gains[list(members)].min(axis=0)
                                       for members in rule.coalition_members]).max(axis=0)
        value = np.minimum(ranked_setter[start:] - setter[x], coalition_gain)
        best[x] = max(int(value.max()), 0)

    fractions = {v: Fraction(v, ints.scale) for v in set(best.values())}
    low = min(best.values())
    t_bound: Optional[int] = None
    if low > 0:
        t_bound = max(1, -(-(top - min(setter_row)) // low))
    return MarginReport(delta=delta, gamma_set=gamma,
                        eta_star={x: fractions[v] for x, v in best.items()},
                        eta_delta=fractions[low], t_bound=t_bound)
