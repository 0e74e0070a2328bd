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
acceptance sets, the favorite-improvement table, the one-round
improvement correspondence and the stable set are read from its blocks
or rows, and the setter's optimum and certificate coalitions read rank
columns.  A whole m x m table comes only from `_wins_table`, one strict
table per rule, for the kernels that read every pair: reachability,
tournaments and the oracle, which share it under the majority rule.
The oracle never reads the favorite-improvement table.  The ranks are
built from the one integer array of `_ints` by one kernel,
`_dense_ranks`; only the uniform margin reads that array directly.
Every count and index is read by `parse_whole`, and every work budget
by one meter, `_Meter`.  What is derived once per problem lives in its
one `_memo`, through `_memoized`.

The favorite-improvement table and the uniform margin are the two
per-default scans.  Both go through `_setter_walk`, which meets the
alternatives in setter order, best first, in blocks over the defaults
still open; a default leaves as soon as its answer is settled, which on
a large grid is mostly at the first alternative or the first few.
The setter order is sorted once per problem (`_setter_order`), and
`_block_width` alone sizes a `_wins` block's columns, so every block
keeps n * rows * cols <= `_CHUNK_COMPARISONS`; `_offer_chunks` sizes the
oracle step's (2m x cols) blocks, which have no voter axis.

Each problem is compiled once, when it is made: both constructors end
in `_compile`, which keeps `_ints`, `n` and `_ranks` (the public one
measures its rows first, since rows of unequal lengths make no array).
A problem built from integer rows (`_scaled_problem`, used by every
generator, grid, distribution, spatial and realization builder, by
`relabel` and by the fixtures) keeps those integers, as one array, as
its data: its `Fraction` utility fields are views, each made on first
read, and no kernel reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .errors import BudgetExceededError, UnsupportedCombinationError, ValidationError
from .rationals import (ScaledInts, _assemble, _FractionView, fraction_rows, parse_rational,
                        parse_whole)

# Largest number of voter-by-policy comparisons one block of `_wins`
# (or of the margin's gains) materializes when a table or a walk is built
# block by block, which keeps the transient arrays well under a megabyte
# at any problem size.
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
        size = parse_whole(self.size, "tournament size")
        edges = frozenset((parse_whole(w, "tournament edge end", 0, size),
                           parse_whole(l, "tournament edge end", 0, size))
                          for w, l in self.edges)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for winner, loser in edges:
            if winner == loser:
                raise ValidationError("tournament relation must be irreflexive")
            key = (min(winner, loser), max(winner, loser))
            if key in seen:
                raise ValidationError(f"both orientations given for pair {key}")
            seen.add(key)
        expected = size * (size - 1) // 2
        if len(seen) != expected:
            raise ValidationError(
                f"tournament incomplete: {len(seen)} of {expected} pairs oriented")

    @staticmethod
    def from_edges(size: int, edges: Iterable[tuple[int, int]]) -> "TournamentSpec":
        return TournamentSpec(size, frozenset(map(tuple, edges)))


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
        object.__setattr__(self, "n", parse_whole(self.n, "voter count", 1))
        if self.quota is not None:
            object.__setattr__(self, "quota", parse_whole(self.quota, "quota", 1, self.n + 1))
            if self.min_coalitions:
                raise ValidationError("give either a quota or explicit coalitions, not both")
            return
        if not self.min_coalitions:
            raise ValidationError("explicit rule needs at least one winning coalition")
        masks = sorted({parse_whole(mask, "coalition mask", 1, 1 << self.n)
                        for mask in self.min_coalitions})
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & b == a or a & b == b:
                    raise ValidationError("minimal coalitions must form an antichain")
        object.__setattr__(self, "min_coalitions", tuple(masks))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The fields' hash, made once: rules key the per-problem memo, read
        on every solve.  The tuple holds no None (its hash differs between
        processes before Python 3.12), so a pickled rule keeps a valid hash."""
        return hash((self.n, self.quota or 0, self.min_coalitions))

    @staticmethod
    def quota_rule(n: int, q: int) -> "VotingRule":
        return VotingRule(n=n, quota=q)

    @staticmethod
    def simple_majority(n: int) -> "VotingRule":
        if parse_whole(n, "voter count", 1) % 2 == 0:
            raise ValidationError(
                "simple majority is only defined here for an odd number of voters; "
                "use an explicit coalition family for even n")
        return VotingRule(n=n, quota=(n + 1) // 2)

    @staticmethod
    def explicit(n: int, coalitions: Iterable[Iterable[int]]) -> "VotingRule":
        n, masks = parse_whole(n, "voter count", 1), []
        for coalition in coalitions:
            mask = 0
            for voter in coalition:
                mask |= 1 << parse_whole(voter, "voter", 0, n)
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
        """Whether the voters of `mask` (bit i for voter i; 0 is the empty
        coalition, which never wins) form a winning coalition.  A mask
        naming a voter the rule does not have is refused (`parse_whole`)."""
        mask = parse_whole(mask, "coalition mask", 0, 1 << self.n)
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

    voter_utilities has one row per voter, one column per policy.  A
    `majority_override` replaces the derived strict majority relation and
    makes the voter rows placeholders, which every per-voter reader
    refuses (`_require_voter_rows`): the two descriptions need not agree.

    `gfa`, the generic-finite-alternatives regime (odd voter count, no
    within-row utility ties for any player, or under an override for the
    setter), is read from the rows; `gfa=True` requires it, naming the
    first tied row, and `False` opts nothing out.

    Both constructors end in `_compile`, when the problem is made: the
    public one compiles the `Fraction` rows it is given (a float or text
    utility is refused), and `_scaled_problem` keeps its integer rows,
    whose two utility fields are `Fraction` views, each made on first
    read; equality, hashing and repr read the fields, so the two kinds
    of problem are interchangeable.
    """

    policies: tuple[str, ...]
    voter_utilities: tuple[tuple[Fraction, ...], ...] = _FractionView(
        lambda problem: fraction_rows(problem._ints.array[:-1].tolist(), problem._ints.scale))
    setter_utilities: tuple[Fraction, ...] = _FractionView(
        lambda problem: fraction_rows(problem._ints.array[-1:].tolist(), problem._ints.scale)[0])
    majority_override: Optional[TournamentSpec] = None
    gfa: bool = False

    def __post_init__(self):
        # rows of unequal lengths make no one array: each is measured first
        m, voters = len(self.policies), self.voter_utilities
        for name, row in (("setter", self.setter_utilities),
                          *((f"voter {i + 1}", row) for i, row in enumerate(voters))):
            if len(row) != m:
                raise ValidationError(f"{name} utility row has {len(row)} entries, expected {m}")
        self._compile(ScaledInts((*voters, self.setter_utilities)))

    def _compile(self, ints: ScaledInts) -> None:
        """Check the shapes of the integer rows of `ints` (voters first,
        the setter last), then keep them as `_ints`, with the voter count
        `n`, the (n+1) x m dense ranks `_ranks` (`_dense_ranks`) and `gfa`,
        read from `_first_tie` of those ranks (under an override, of the
        setter's row only)."""
        (rows, width), m = ints.array.shape, len(self.policies)
        if m < 1:
            raise ValidationError("need at least one policy")
        for label in self.policies:
            if not isinstance(label, str):
                raise ValidationError(f"policy label {label!r} is not a string")
        if len(set(self.policies)) != m:
            raise ValidationError("duplicate policy labels")
        if width != m:
            raise ValidationError(f"{m} policy labels for {width} utility columns")
        if rows < 2:
            raise ValidationError("need at least one voter")
        if self.majority_override is not None and self.majority_override.size != m:
            raise ValidationError("override tournament size does not match policy count")
        n, ranks = rows - 1, _dense_ranks(ints.array)
        first = 0 if self.majority_override is None else n   # override voter rows are placeholders
        tie = _first_tie(ranks[first:])
        gfa = n % 2 == 1 and tie is None
        if self.gfa and not gfa:
            if n % 2 == 0:
                raise ValidationError("gfa requires an odd number of voters")
            row = first + tie[0]
            name = f"voter {row + 1}" if row < n else "agenda setter"
            raise ValidationError(f"gfa requires strict preferences; {name} has ties")
        for name, value in (("_ints", ints), ("n", n), ("_ranks", ranks), ("gfa", gfa)):
            object.__setattr__(self, name, value)

    # -- basic views --------------------------------------------------------

    @property
    def num_policies(self) -> int:
        return len(self.policies)

    def policy_index(self, label: str) -> int:
        try:
            return self.policies.index(label)
        except ValueError:
            raise ValidationError(f"unknown policy label {label!r}") from None

    def check_policy(self, x: int) -> int:
        """x as an int policy index (`parse_whole`)."""
        return parse_whole(x, "policy index", 0, len(self.policies))

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
    def _setter_order(self) -> np.ndarray:
        """Policies by setter rank down, lowest index first among equals (a
        stable argsort), read-only: the one setter order every kernel reads."""
        order = (-self._ranks[-1]).argsort(kind="stable")
        order.flags.writeable = False
        return order

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
        default, by ("wins", rule) a whole strict `_wins` table (built only
        by reachability, tournaments and the oracle), by ("rows", rule,
        preset) the oracle's backward rows and by ("stable_set",) the
        stable-set report."""
        return {}

    @cached_property
    def _majority_rule(self) -> VotingRule:
        """Quota n//2 + 1: more than half of the voters, at any voter count
        (an override problem reads its tournament whatever the count)."""
        return VotingRule.quota_rule(self.n, self.n // 2 + 1)


def _scaled_problem(policies, rows, denominator: int,
                    majority_override: Optional[TournamentSpec] = None) -> CollectiveChoiceProblem:
    """The problem whose player p values policy x at rows[p][x] / denominator
    (integer rows, voters first, the setter last, as lists or one 2-D
    array), under `majority_override` if given.  It keeps them as its
    `_ints`, one array reduced by their common factor
    (`ScaledInts.from_scaled`), and builds no `Fraction`: its utility
    fields are views made on first read, and it equals the problem the
    public constructor makes from them, which only documents still take."""
    problem = _assemble(CollectiveChoiceProblem, policies=tuple(policies),
                        majority_override=majority_override, gfa=False)
    problem._compile(ScaledInts.from_scaled(rows, denominator))
    return problem


def _dense_ranks(array: np.ndarray) -> np.ndarray:
    """Read-only dense per-row ranks of a 2-D integer array (int64, or
    Python ints of object dtype, one path): rank k is the row's k-th
    smallest distinct value, so comparing ranks within a row is comparing
    values, exactly.  Each row is sorted once (stable `argsort`); a rank
    steps up wherever adjacent sorted values differ, and the running
    count goes back to the sorted positions."""
    order = array.argsort(axis=1, kind="stable")
    rows = np.arange(array.shape[0])[:, None]
    ordered = array[rows, order]
    steps = np.zeros(array.shape, dtype=np.int64)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    ranks[rows, order] = steps.cumsum(axis=1)
    ranks.flags.writeable = False
    return ranks


def _first_tie(ranks: np.ndarray) -> Optional[tuple[int, int, int]]:
    """(row, a, b) for the first row of the dense ranks `ranks` that holds a
    tie: a < b are the two lowest columns of that row's lowest tied rank.
    None when every row reaches rank m - 1, that is, holds no tie."""
    last = ranks.shape[1] - 1
    row = next((i for i, top in enumerate(ranks.max(axis=1).tolist()) if top < last), None)
    if row is None:
        return None
    rank = int((np.bincount(ranks[row]) > 1).argmax())
    a, b = np.flatnonzero(ranks[row] == rank)[:2].tolist()
    return row, a, b


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ImprovementCertificate:
    """Witness that `base` can be improved for the setter and a coalition."""

    base: int
    witness: int
    coalition: Optional[frozenset[int]]   # None for relation-override problems
    setter_gain: Fraction


def _eta_star(report: "MarginReport") -> dict[int, Fraction]:
    """Each delta-suboptimal policy's margin, from the integer margins over
    the problem's scale that `uniform_margin` keeps: one `Fraction` per
    distinct value."""
    margins, scale = report._margins
    fractions = {v: Fraction(v, scale) for v in set(margins)}
    return dict(zip(report.gamma_set, map(fractions.__getitem__, margins)))


@dataclass(frozen=True)
class MarginReport:
    """Uniform improvement margin over the delta-suboptimal region.

    eta_star maps each delta-suboptimal policy to the largest eta such
    that some alternative improves the setter and a full winning
    coalition by at least eta.  eta_delta is the minimum over that
    region, None when the region is empty.  t_bound is the induced round
    bound: 0 when no policy is delta-suboptimal (gamma_set is empty), and
    None when gamma_set is non-empty and the margin is at most 0.
    `uniform_margin` keeps the region's integer margins and their scale
    as a private `_margins`, and `eta_star` is a view of them made on
    first read (`_eta_star`), equal to what the constructor keeps.
    """

    delta: Fraction
    gamma_set: tuple[int, ...]
    eta_star: dict[int, Fraction] = _FractionView(_eta_star)
    eta_delta: Optional[Fraction]
    t_bound: Optional[int]

    @property
    def lemma_holds(self) -> bool:
        return self.eta_delta is not None and self.eta_delta > 0


# ---------------------------------------------------------------------------
# operations


def _require_voter_rows(problem, why: str) -> None:
    """Refuse an override problem in a reader of its placeholder voter rows."""
    if problem.majority_override is not None:
        raise UnsupportedCombinationError(f"{why}; relation-override problems unsupported")


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
        return prefer.sum(axis=0) >= rule.quota
    out = np.zeros(prefer.shape[1:], dtype=bool)
    for members in rule.coalition_members:
        out |= prefer.take(members, axis=0).all(axis=0)
    return out


def _wins(problem: CollectiveChoiceProblem, rule: VotingRule, cols,
          weak: bool = False, rows=slice(None)) -> np.ndarray:
    """[y, x] for y in `rows` and x in `cols` (slices or index arrays): some
    winning coalition strictly (weakly, if `weak`) prefers y to x.
    Callers check the rule (`_require_rule`).

    A majority override *is* the relation; a tournament resolves every
    pair of distinct policies, so its diagonal is `weak`.  A block costs
    n * |rows| * |cols| transient bytes: wide reads go by `_column_chunks`,
    `_setter_walk` or a few rows at a time, and only `_wins_table` keeps a
    whole m x m table.
    """
    if problem.majority_override is not None:
        beats = _columns(problem._beats[rows], cols)
        if weak:
            policies = np.arange(problem.num_policies)
            return beats | (policies[rows][:, None] == policies[cols])
        return beats.copy()             # a block the caller may write to
    voters = problem._ranks[:-1]
    row, column = _columns(voters, rows)[:, :, None], _columns(voters, cols)[:, None]
    return _coalition_holds(rule, row >= column if weak else row > column)


def _columns(array: np.ndarray, index) -> np.ndarray:
    """array[:, index] for a slice or an index array; `take` keeps the
    gathered block C-ordered, which broadcast comparisons read faster."""
    return array[:, index] if isinstance(index, slice) else array.take(index, axis=1)


def _block_width(problem: CollectiveChoiceProblem, rows: int) -> int:
    """Columns for a `_wins` block of `rows` rows: within `_CHUNK_COMPARISONS`, one at least."""
    return max(1, _CHUNK_COMPARISONS // (problem.n * rows))


def _column_chunks(problem: CollectiveChoiceProblem) -> list[slice]:
    """Column slices of at most `_CHUNK_COMPARISONS` voter comparisons each."""
    m = problem.num_policies
    width = _block_width(problem, m)
    return [slice(start, start + width) for start in range(0, m, width)]


def _offer_chunks(problem: CollectiveChoiceProblem) -> list[slice]:
    """Column slices of the oracle step's (2m x cols) offer blocks, which
    have no voter axis: at most `_CHUNK_COMPARISONS` entries each."""
    m = problem.num_policies
    width = max(1, _CHUNK_COMPARISONS // (2 * m))
    return [slice(start, start + width) for start in range(0, m, width)]


def _setter_walk(problem: CollectiveChoiceProblem, defaults: np.ndarray,
                 settle: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
    """Walk the alternatives in setter order against the open defaults.

    Alternatives go in `_setter_order` (setter rank down, lowest index
    first among equals), in blocks.  `settle(rows, cols)` gets one block's
    alternatives, in walk order, and open defaults, both as index arrays
    (`cols` must not be written to), and returns which of those defaults
    it settled; a settled default leaves the walk.  A default also
    leaves, unsettled, once the walk reaches the alternatives the setter
    ranks at or below it.

    The first block spans up to _CHUNK_COMPARISONS / 16 voter
    comparisons and each later one twice its predecessor, up to
    _CHUNK_COMPARISONS; its rows are that budget over n * (open
    defaults), at least one, and its columns are split (`_block_width`)
    only when one row of them exceeds the chunk.  So every block keeps
    n * rows * cols <= _CHUNK_COMPARISONS (one comparison at least), and
    transient memory is O(n * m * chunk), as in `_column_chunks`.  A
    problem with n * m * m within a sixteenth of the chunk (any m <= 8)
    is one block, as a whole-table scan was; a large grid starts with
    one or two alternatives against every default, which settle most.
    """
    setter, order = problem._ranks[-1], problem._setter_order
    m, n, size = problem.num_policies, problem.n, _CHUNK_COMPARISONS >> 4
    start, pending = 0, defaults
    while pending.size:
        rows = order[start:start + max(1, size // (n * pending.size))]
        start += rows.size
        width = _block_width(problem, rows.size)
        found = [settle(rows, pending[i:i + width]) for i in range(0, pending.size, width)]
        if start == m:
            return
        # a default the setter ranks at or above the next alternative has no better one
        pending = pending[(setter[pending] < setter[order[start]]) & ~np.concatenate(found)]
        size = min(2 * size, _CHUNK_COMPARISONS)


_MISSING = object()


def _memoized(problem: CollectiveChoiceProblem, key: tuple, build: Callable[[], Any]):
    """`problem._memo[key]`, made by `build()` on first use: one probe of the
    memo once it is there, whatever the value (a kept None too)."""
    memo = problem._memo
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = build()
    return value


class _Meter:
    """The one work meter behind every budget but the grids' point bound:
    `budget` is read once by `parse_whole`, so a bad one is refused by a
    call that does no work.  `charge(work)` is made before the work it pays
    for; the first charge past the budget raises `BudgetExceededError(what)`
    with `required` the work charged so far, that charge included."""

    __slots__ = ("what", "budget", "spent")

    def __init__(self, what: str, budget) -> None:
        self.what, self.budget, self.spent = what, parse_whole(budget, "budget"), 0

    def charge(self, work: int) -> None:
        self.spent += work
        if self.spent > self.budget:
            raise BudgetExceededError(self.what, required=self.spent, budget=self.budget)


def _wins_table(problem: CollectiveChoiceProblem, rule: VotingRule) -> np.ndarray:
    """The whole read-only m x m strict `_wins` table, built once per rule
    in `_column_chunks`: O(n * m * chunk) transient memory, m**2 bytes
    kept.  Callers check the rule (`_require_rule`)."""
    def build():
        m = problem.num_policies
        out = np.empty((m, m), dtype=bool)
        for cols in _column_chunks(problem):
            out[:, cols] = _wins(problem, rule, cols)
        out.flags.writeable = False
        return out

    return _memoized(problem, ("wins", rule), build)


def _phi_table(problem: CollectiveChoiceProblem, rule: VotingRule) -> tuple[int, ...]:
    """Favorite improvement of every default, computed once per rule.

    Entry x is the lowest-index setter maximizer among the policies that
    a winning coalition and the setter both strictly prefer to x, or x
    itself when there is none.  `_setter_walk` meets the alternatives in
    exactly that order of preference (setter rank down, index up), so the
    first one that wins against x and that the setter prefers is entry x,
    read from one `_wins` block; and x is its own entry once the walk
    reaches the policies the setter ranks at or below it.  On a grid most
    defaults settle at the first alternative or the first few; the
    transient memory is O(n * m * chunk), and only the m-entry result is
    kept.
    """
    _require_rule(problem, rule)

    def build():
        setter = problem._ranks[-1]
        table = np.arange(problem.num_policies)

        def settle(rows, cols):
            wins = _wins(problem, rule, cols, rows=rows)
            # the first winner; if the setter does not prefer it, no later row helps
            first = rows[wins.argmax(axis=0)]
            found = wins.any(axis=0) & (setter[first] > setter[cols])
            table[cols] = np.where(found, first, cols)
            return found

        _setter_walk(problem, table.copy(), settle)
        return tuple(table.tolist())

    return _memoized(problem, ("phi", rule), build)


def acceptance_set(problem: CollectiveChoiceProblem, rule: VotingRule,
                   x: int, mode: str) -> frozenset[int]:
    """Policies some winning coalition accepts over default x.

    mode "strict": a winning coalition strictly prefers y.
    mode "weak": a winning coalition weakly prefers y (always contains x).
    mode "almost_strict": the strict set plus x itself; on finite spaces
    the closure operation degenerates to exactly this.
    """
    x = problem.check_policy(x)
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
    x = problem.check_policy(x)
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
    does not strictly prefer scores at most 0, so eta_star(x) is the
    larger of 0 and the best score of the alternatives the setter
    strictly prefers to x.  `_setter_walk` meets those from the setter's
    best down, so each later y scores at most its own setter gain, which
    falls: x's scan ends at the first block whose last alternative's
    setter gain is no more than the best score so far.  Past the first y
    whose coalition gain reaches its setter gain that always holds, and
    on an offset grid it holds at the first alternative for almost every
    x.  A block's gains take O(n * rows * cols) transient memory, within
    `_CHUNK_COMPARISONS`.  Everything runs on the problem's scaled
    integers (an int64 array when they fit, Python ints otherwise): the
    delta-suboptimal region is one array comparison of the setter's
    shortfalls with the ceiling of delta times the scale, and the report
    keeps the integer margins at that region.  Only `eta_delta` is made a
    `Fraction` here; `eta_star` is a view made on first read, one
    `Fraction` per distinct value.
    """
    delta = parse_rational(delta)
    if delta <= 0:
        raise ValidationError("delta must be positive")
    _require_voter_rows(problem, "uniform_margin reads voter gains")
    _require_rule(problem, rule)

    ints = problem._ints
    setter = ints.array[-1]
    top, bottom = int(setter.max()), int(setter.min())
    # top - s_x >= delta: the integer shortfall reaches ceil(delta * scale), clamped
    # to one past the spread (which no shortfall reaches) so that it fits the dtype
    bar = min(-(-delta.numerator * ints.scale // delta.denominator), top - bottom + 1)
    region = np.flatnonzero(top - setter >= bar)
    if not region.size:
        return MarginReport(delta=delta, gamma_set=(), eta_star={},
                            eta_delta=None, t_bound=0)

    # one row per policy, one column per voter: each pair's gains are contiguous
    voters = np.ascontiguousarray(ints.array[:-1].T)
    eta = np.zeros(problem.num_policies, dtype=ints.array.dtype)

    def settle(rows, cols):
        gains = voters[rows][:, None] - voters[cols]
        if rule.quota is not None:
            kth = rule.n - rule.quota             # the q-th largest gain
            gains.partition(kth)
            coalition_gain = gains[..., kth]
        else:
            coalition_gain = np.array([gains[..., list(members)].min(axis=-1)
                                       for members in rule.coalition_members]).max(axis=0)
        setter_gain = setter[rows][:, None] - setter[cols]
        best = np.maximum(eta[cols], np.minimum(setter_gain, coalition_gain).max(axis=0))
        eta[cols] = best
        # every later y scores at most its own setter gain, no more than the last row's
        return setter_gain[-1] <= best

    _setter_walk(problem, region, settle)
    margins = eta[region].tolist()
    low = min(margins)
    t_bound: Optional[int] = None
    if low > 0:
        t_bound = max(1, -(-(top - bottom) // low))
    return _assemble(MarginReport, delta=delta, gamma_set=tuple(region.tolist()),
                     eta_delta=Fraction(low, ints.scale), t_bound=t_bound,
                     _margins=(margins, ints.scale))
