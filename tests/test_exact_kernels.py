"""The integer kernels of the spatial, grid and distribution layers against
the `Fraction` code they replaced.

`SpatialProfile.utility`, `build_grid` and `audit_dp_axioms` evaluate
utilities once, as exact integers.  The reference implementations below
are the earlier `Fraction` versions: every utility is a `Fraction`
expression, the tie audit sorts `Fraction` keys and the axiom audit
compares `Fraction` utilities pairwise.  Results must match exactly:
points, utilities, attempt counts, genericity errors, and violations in
the same order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agendalab import (
    AxiomAudit,
    BoxSpace,
    CollectiveChoiceProblem,
    GridGenericityError,
    SimplexSpace,
    SpatialProfile,
    audit_dp_axioms,
    build_grid,
    divide_dollar_problem,
    gen_random_with_ties,
    pork_barrel_problem,
    spatial_problem,
    transfers_problem,
)
from agendalab.distributions import AxiomViolation
from agendalab.grids import GridBuildResult

F = Fraction
JITTER_RANGE = 2**16
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# reference implementations (Fraction arithmetic throughout)


def ref_utility(profile, player, point):
    return -sum((a - b) ** 2 for a, b in zip(point, profile.ideal_points[player])) / 2


def _ref_problem(rows, n_voters):
    labels = tuple(f"n{i}" for i in range(len(rows[0])))
    return CollectiveChoiceProblem(policies=labels, voter_utilities=tuple(rows[:-1]),
                                   setter_utilities=rows[-1], gfa=n_voters % 2 == 1)


def _ref_spatial_rows(profile, points):
    return tuple(tuple(ref_utility(profile, i, p) for p in points)
                 for i in range(profile.n_voters + 1))


def _ref_audit_and_rejitter(points, frozen, utilities, max_attempts, redraw):
    values = [utilities(p) for p in points]
    n_players = len(values[0]) if values else 0
    for attempt in range(1, max_attempts + 1):
        offender = None
        for player in range(n_players):
            order = sorted(range(len(points)), key=lambda i: values[i][player])
            for a, b in zip(order, order[1:]):
                if values[a][player] == values[b][player]:
                    offender = (player, a, b)
                    break
            if offender:
                break
        if offender is None:
            return attempt
        player, a, b = offender
        victim = b if b not in frozen else a
        if victim in frozen:
            raise GridGenericityError(
                f"anchor nodes tie for player {player + 1}", player=player, pair=(a, b))
        points[victim] = redraw(victim)
        values[victim] = utilities(points[victim])
    raise GridGenericityError(
        f"nodes {offender[1]} and {offender[2]} still tie for player "
        f"{offender[0] + 1} after {max_attempts} attempts",
        player=offender[0], pair=(offender[1], offender[2]))


def ref_build_box(space, epsilon, seed, profile, anchor=None, max_attempts=32,
                  jitter=True):
    d = space.dim
    if anchor is not None:
        corner_sq = sum(max((c - lo)**2, (hi - c)**2)
                        for c, (lo, hi) in zip(anchor, space.bounds))
        if corner_sq < epsilon**2:
            points = (anchor,)
            return GridBuildResult(
                problem=_ref_problem(_ref_spatial_rows(profile, points), profile.n_voters),
                points=points, epsilon=epsilon, covering_sq_bound=corner_sq, attempts=1)
    cells = []
    for lo, hi in space.bounds:
        length = hi - lo
        k = isqrt(-(-(length.numerator**2 * d * epsilon.denominator**2)
                    // (length.denominator**2 * epsilon.numerator**2))) + 1
        cells.append(k)
    total = 1
    for k in cells:
        total *= k
    spacings = [(hi - lo) / k for (lo, hi), k in zip(space.bounds, cells)]
    centers = []
    for index in range(total):
        coords, rem = [], index
        for (lo, _hi), k, h in zip(space.bounds, cells, spacings):
            coords.append(lo + (2 * (rem % k) + 1) * h / 2)
            rem //= k
        centers.append(tuple(coords))
    rng = random.Random(seed)

    def jitter_node(center):
        if not jitter:
            return center
        return tuple(c + rng.randrange(-(JITTER_RANGE - 1), JITTER_RANGE) * h
                     / (10 * JITTER_RANGE) for c, h in zip(center, spacings))

    points = [jitter_node(c) for c in centers]
    frozen = set()
    if anchor is not None:
        points.append(anchor)
        frozen.add(len(points) - 1)
    attempts = _ref_audit_and_rejitter(
        points, frozen,
        lambda p: tuple(ref_utility(profile, i, p) for i in range(profile.n_voters + 1)),
        max_attempts, lambda idx: jitter_node(centers[idx]))
    points = tuple(points)
    return GridBuildResult(
        problem=_ref_problem(_ref_spatial_rows(profile, points), profile.n_voters),
        points=points, epsilon=epsilon,
        covering_sq_bound=sum((F(3, 5) * h)**2 for h in spacings), attempts=attempts)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def ref_build_simplex(space, epsilon, seed, anchor=None, max_attempts=32, jitter=True):
    n_players = space.dim
    m = isqrt(-(-(121 * n_players * epsilon.denominator**2)
                // (100 * epsilon.numerator**2))) + 1
    nodes = [tuple(F(u, m) for u in units) for units in _compositions(m, n_players)]
    rng = random.Random(seed)
    scale = F(1, 10 * m * JITTER_RANGE * n_players)

    def jitter_node(node):
        if not jitter:
            return node
        top = min(range(n_players), key=lambda i: (-node[i], i))
        moved = F(0)
        out = list(node)
        for i in range(n_players):
            if i == top:
                continue
            t = rng.randrange(1, JITTER_RANGE)
            out[i] = node[i] + t * scale
            moved += t * scale
        out[top] = node[top] - moved
        return node if out[top] <= 0 else tuple(out)

    points = [jitter_node(p) for p in nodes]
    frozen = set()
    if anchor is not None:
        points.append(anchor)
        frozen.add(len(points) - 1)
    attempts = _ref_audit_and_rejitter(points, frozen, tuple, max_attempts,
                                       lambda idx: jitter_node(nodes[idx]))
    points = tuple(points)
    rows = tuple(tuple(p[i] for p in points) for i in range(n_players))
    return GridBuildResult(problem=_ref_problem(rows, space.n_voters), points=points,
                           epsilon=epsilon,
                           covering_sq_bound=F(121 * n_players, (10 * m)**2),
                           attempts=attempts)


def ref_audit_dp_axioms(problem):
    rows = list(problem.voter_utilities) + [problem.setter_utilities]
    players = len(rows)
    m = problem.num_policies
    max_u = [max(row) for row in rows]
    min_u = [min(row) for row in rows]
    pareto_improvable = [
        any(all(rows[p][y] > rows[p][x] for p in range(players)) for y in range(m))
        for x in range(m)]
    scarcity, transferability = [], []
    for x in range(m):
        for i in range(players):
            if rows[i][x] < max_u[i]:
                others_gain = any(rows[j][x] > min_u[j] for j in range(players) if j != i)
                if not others_gain and not pareto_improvable[x]:
                    scarcity.append(AxiomViolation(policy=x, player=i, axiom="scarcity"))
            if rows[i][x] > min_u[i]:
                escape = any(all(rows[j][y] > rows[j][x] for j in range(players) if j != i)
                             for y in range(m))
                if not escape:
                    transferability.append(
                        AxiomViolation(policy=x, player=i, axiom="transferability"))
    return AxiomAudit(scarcity_violations=tuple(scarcity),
                      transferability_violations=tuple(transferability))


def outcome(build, *args, **kwargs):
    """The build's result, or its genericity error reduced to comparable fields."""
    try:
        return build(*args, **kwargs)
    except GridGenericityError as exc:
        return ("GridGenericityError", str(exc), exc.player, exc.pair)


class CoarseRandom(random.Random):
    """Same draws as `random.Random`, folded onto eight values in the middle
    of each range, so jittered grids tie often and re-jitters run."""

    def randrange(self, start, stop=None, step=1):
        return (start + stop) // 2 - 4 + (super().randrange(start, stop, step) - start) % 8


# ---------------------------------------------------------------------------
# strategies

big_rationals = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**70))
small_rationals = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5, 7, 12)))
rationals = st.one_of(big_rationals, small_rationals, st.integers(-5, 5).map(F))


@st.composite
def profiles_and_points(draw):
    dim = draw(st.integers(1, 4))
    coords = st.lists(rationals, min_size=dim, max_size=dim).map(tuple)
    ideals = draw(st.lists(coords, min_size=2, max_size=5))
    profile = SpatialProfile(dim=dim, ideal_points=tuple(ideals),
                             box=((F(0), F(1)),) * dim)
    return profile, draw(st.lists(coords, min_size=1, max_size=4))


# ideal points as fractions of each box side: coarse ones sit on lattice
# symmetries, so unjittered grids tie; fine ones are the generic case
box_fractions = st.one_of(st.just(F(1, 2)), st.integers(0, 4).map(lambda k: F(k, 4)),
                          st.integers(0, 2**20).map(lambda k: F(k, 2**20)),
                          small_rationals)
# (lower corner, side length) per axis, and epsilons that keep grids small
box_axes = st.tuples(st.sampled_from((F(0), F(-1, 3), F(1, 7))),
                     st.sampled_from((F(1), F(2, 3), F(5, 2))))
BOX_EPSILONS = {1: (F(1, 6), F(1, 2), F(3)), 2: (F(1, 3), F(3, 4), F(4)),
                3: (F(1, 2), F(3, 4), F(5))}


@st.composite
def box_cases(draw):
    dim = draw(st.integers(1, 3))
    axes = draw(st.lists(box_axes, min_size=dim, max_size=dim))
    space = BoxSpace(tuple((lo, lo + length) for lo, length in axes))
    n_voters = draw(st.sampled_from((1, 2, 3)))
    ideals = [tuple(lo + draw(box_fractions) * (hi - lo) for lo, hi in space.bounds)
              for _ in range(n_voters + 1)]
    if draw(st.booleans()):         # one shared ideal point: ties for every player
        ideals = ideals[:1] * (n_voters + 1)
    profile = SpatialProfile(dim=dim, ideal_points=tuple(ideals), box=space.bounds)
    anchor = None
    if draw(st.booleans()):
        inside = box_fractions.filter(lambda f: 0 <= f <= 1)
        anchor = tuple(lo + draw(inside) * (hi - lo) for lo, hi in space.bounds)
    return dict(space=space, epsilon=draw(st.sampled_from(BOX_EPSILONS[dim])),
                seed=draw(st.integers(0, 2**31)), profile=profile, anchor=anchor,
                max_attempts=draw(st.sampled_from((1, 3, 64))), jitter=draw(st.booleans()))


@st.composite
def simplex_cases(draw):
    n_voters = draw(st.integers(1, 3))
    anchor = None
    if draw(st.booleans()):
        denominator = draw(st.sampled_from((1, 3, 7, 2**30)))
        cuts = sorted(draw(st.lists(st.integers(0, denominator),
                                    min_size=n_voters, max_size=n_voters)))
        bounds = [0, *cuts, denominator]
        anchor = tuple(F(b - a, denominator) for a, b in zip(bounds, bounds[1:]))
    return dict(space=SimplexSpace(n_voters),
                epsilon=draw(st.sampled_from((F(1, 2), F(3, 5), F(1)))),
                seed=draw(st.integers(0, 2**31)), anchor=anchor,
                max_attempts=draw(st.sampled_from((1, 3, 64))), jitter=draw(st.booleans()))


# ---------------------------------------------------------------------------
# properties


@SETTINGS
@given(profiles_and_points())
def test_spatial_utility_matches_fraction_reference(case):
    profile, points = case
    want = _ref_spatial_rows(profile, points)
    assert profile.utility_rows(points) == want
    for player, row in enumerate(want):
        for p, value in zip(points, row):
            got = profile.utility(player, p)
            assert type(got) is Fraction and got == value


def test_spatial_problem_matches_fraction_reference():
    profile = SpatialProfile(dim=2, ideal_points=((F(1, 3), F(2**70, 3**40)),
                                                  (F(-5, 7), F(1, 2**65)),
                                                  (F(0), F(9, 4))),
                             box=((F(0), F(1)),) * 2)
    points = [(F(1, 5), F(3)), (F(-2**80, 11), F(0)), (1, 2)]
    problem = spatial_problem(profile, points)
    rows = _ref_spatial_rows(profile, [tuple(F(c) for c in p) for p in points])
    assert problem.voter_utilities == rows[:-1]
    assert problem.setter_utilities == rows[-1]


@SETTINGS
@given(box_cases(), st.booleans())
def test_box_grid_matches_fraction_reference(case, coarse):
    with mock.patch.object(random, "Random", CoarseRandom if coarse else random.Random):
        want = outcome(ref_build_box, **case)
        got = outcome(build_grid, **case)
    assert got == want


@SETTINGS
@given(simplex_cases(), st.booleans())
def test_simplex_grid_matches_fraction_reference(case, coarse):
    with mock.patch.object(random, "Random", CoarseRandom if coarse else random.Random):
        want = outcome(ref_build_simplex, **case)
        got = outcome(build_grid, **case)
    assert got == want


def test_grid_references_cover_rejitter_and_genericity_errors():
    """Fixed cases for each way the tie audit ends, checked against the reference."""
    shared = SpatialProfile(dim=3, ideal_points=((F(1, 2),) * 3,) * 4,
                            box=((F(0), F(1)),) * 3)
    box = dict(space=BoxSpace.unit(3), epsilon=F(1, 2), seed=0, profile=shared)
    simplex = dict(space=SimplexSpace(2), epsilon=F(1, 2), seed=0)
    cases = [
        (ref_build_box, dict(box, jitter=False, max_attempts=3), "error"),
        (ref_build_box, dict(box, max_attempts=64), "rejittered"),
        (ref_build_box, dict(box, anchor=(F(1, 2),) * 3, max_attempts=64), "rejittered"),
        (ref_build_simplex, dict(simplex, jitter=False, max_attempts=3), "error"),
        (ref_build_simplex, dict(simplex, max_attempts=64), "rejittered"),
    ]
    for reference, kwargs, ending in cases:
        with mock.patch.object(random, "Random", CoarseRandom):
            want = outcome(reference, **kwargs)
            got = outcome(build_grid, **kwargs)
        assert got == want
        if ending == "error":
            assert got[0] == "GridGenericityError"
        else:
            assert got.attempts > 1


def _random_problem(rng, m, players, magnitude):
    def row():
        return tuple(F(rng.randrange(-magnitude, magnitude + 1), rng.choice((1, 3, 2**40)))
                     for _ in range(m))
    return CollectiveChoiceProblem(policies=tuple(f"x{i}" for i in range(m)),
                                   voter_utilities=tuple(row() for _ in range(players - 1)),
                                   setter_utilities=row())


@st.composite
def distribution_problems(draw):
    kind = draw(st.sampled_from(("dtd", "pork", "transfers", "ties", "random")))
    if kind == "dtd":
        return divide_dollar_problem(draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    if kind == "pork":
        m = draw(st.integers(1, 2))
        units = st.integers(1, 2).map(lambda k: F(k, m))
        projects = draw(st.lists(st.tuples(units, units | st.just(F(0))),
                                 min_size=1, max_size=2))
        return pork_barrel_problem(projects, m, draw(st.integers(1, 2)))
    base = gen_random_with_ties(draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                                seed=draw(st.integers(0, 2**31)))
    if kind == "transfers":
        return transfers_problem(base, draw(st.integers(1, 2)))
    if kind == "ties":
        return base
    rng = random.Random(draw(st.integers(0, 2**31)))
    magnitude = draw(st.sampled_from((2, 2**70)))
    return _random_problem(rng, draw(st.integers(1, 12)), draw(st.integers(2, 5)),
                           magnitude)


@SETTINGS
@given(distribution_problems())
def test_axiom_audit_matches_fraction_reference(problem):
    assert audit_dp_axioms(problem) == ref_audit_dp_axioms(problem)
