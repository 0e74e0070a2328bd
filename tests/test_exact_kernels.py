"""The integer kernels against the `Fraction` code they replaced.

`SpatialProfile.utility`, `build_grid` and `audit_dp_axioms` evaluate
utilities once, as exact integers, and `spatial_witness` builds its
improvement on integer numerators.  The pairwise relation `_wins`, the
strict majority relation, margins, acceptance sets, the improvement
correspondence, favorite improvements, improvability and the
unimprovable set read a problem's dense per-row ranks, and the
uniform margin its scaled integers.  The reference implementations
below are the earlier `Fraction` versions: every utility is a
`Fraction` expression, the tie audit sorts `Fraction` keys, the axiom
audit compares `Fraction` utilities pairwise, and every pairwise or
improvement query scans voters and policies in Python loops.  Results
must match exactly: points, utilities, attempt counts, genericity
errors, violations in the same order, relations, policy sets,
witnesses, certificates and margins.  The favorite-improvement table
and the margin stop scanning a default once it is settled; 216-node
grids and a setter tie check that early exit against the full scans.

Problems built from integer rows, grid points and the coplanarity scan
keep integers and make `Fraction`s only when read: the views must equal
the `Fraction` objects the public constructors build, and the kernels
must not build them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import ceil, isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agendalab import (
    AxiomAudit,
    BoxSpace,
    CollectiveChoiceProblem,
    GridGenericityError,
    ImprovementCertificate,
    MarginReport,
    SimplexSpace,
    SpatialDegeneracyError,
    SpatialProfile,
    TournamentSpec,
    ValidationError,
    VotingRule,
    acceptance_set,
    audit_dp_axioms,
    build_grid,
    check_noncoplanarity,
    coplanarity_form,
    divide_dollar_problem,
    favorite_improvement,
    gen_random_gfa,
    gen_random_with_ties,
    gen_spatial,
    is_improvable,
    is_manipulable,
    phi_or,
    pork_barrel_problem,
    spatial_problem,
    spatial_witness,
    transfers_problem,
    uniform_margin,
    unimprovable_set,
)
from agendalab import grids as grids_module
from agendalab import problems as problems_module
from agendalab.distributions import AxiomViolation
from agendalab.engine import _orbit, _phi_or_table
from agendalab.grids import GridBuildResult, _draws
from agendalab.problems import _column_chunks, _scaled_problem, _wins, _wins_table
from agendalab.rationals import ScaledInts, fraction_rows
from agendalab.spatial import CoplanarityReport, ImprovementTrace

from references import ref_majority, ref_support_mask

F = Fraction
JITTER_RANGE = 2**16
MAX_ATTEMPTS = 32
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


def ref_dense_ranks(rows):
    """Dense per-row ranks by a Python scan over each row's sorted distinct
    values: the loop that `problems._dense_ranks` replaced."""
    ranks = []
    for row in rows:
        position = {v: k for k, v in enumerate(sorted(set(row)))}
        ranks.append([position[v] for v in row])
    return ranks


def _ref_spatial_rows(profile, points):
    return tuple(tuple(ref_utility(profile, i, p) for p in points)
                 for i in range(profile.n_voters + 1))


def _ref_audit_and_rejitter(points, utilities, max_attempts, redraw):
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
        points[b] = redraw(b)
        values[b] = utilities(points[b])
    raise GridGenericityError(
        f"nodes {offender[1]} and {offender[2]} still tie for player "
        f"{offender[0] + 1} after {max_attempts} attempts",
        player=offender[0], pair=(offender[1], offender[2]))


def ref_build_box(space, epsilon, seed, profile):
    d = space.dim
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
        return tuple(c + rng.randrange(-(JITTER_RANGE - 1), JITTER_RANGE) * h
                     / (10 * JITTER_RANGE) for c, h in zip(center, spacings))

    points = [jitter_node(c) for c in centers]
    attempts = _ref_audit_and_rejitter(
        points,
        lambda p: tuple(ref_utility(profile, i, p) for i in range(profile.n_voters + 1)),
        MAX_ATTEMPTS, lambda idx: jitter_node(centers[idx]))
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


def ref_build_simplex(space, epsilon, seed):
    n_players = space.dim
    m = isqrt(-(-(121 * n_players * epsilon.denominator**2)
                // (100 * epsilon.numerator**2))) + 1
    nodes = [tuple(F(u, m) for u in units) for units in _compositions(m, n_players)]
    rng = random.Random(seed)
    scale = F(1, 10 * m * JITTER_RANGE * n_players)

    def jitter_node(node):
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
    attempts = _ref_audit_and_rejitter(points, tuple, MAX_ATTEMPTS,
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


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _scale(a, s):
    return tuple(x * s for x in a)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_halve_until(start, ok, cap=128):
    value = F(start)
    for _ in range(cap):
        if ok(value):
            return value
        value /= 2
    raise SpatialDegeneracyError(
        "dyadic step search exhausted its halving budget", step="step-size search")


def ref_spatial_witness(profile, x):
    """The earlier `Fraction` construction, without its final certificate."""
    if len(x) != profile.dim:
        raise ValidationError("query point dimension mismatch")
    x = tuple(F(c) for c in x)
    if x == profile.setter_ideal:
        raise ValidationError("the setter's ideal point admits no improvement")
    if profile.dim < 3:
        raise ValidationError("witness construction needs at least 3 dimensions")

    dims = None
    for cand in combinations(range(profile.dim), 3):
        if any(x[k] != profile.setter_ideal[k] for k in cand):
            dims = cand
            break
    n = profile.n_voters
    x3 = tuple(x[k] for k in dims)
    ideals3 = [tuple(p[k] for k in dims) for p in profile.ideal_points]
    g_setter = tuple(ideals3[n][k] - x3[k] for k in range(3))
    g_norm_sq = _dot(g_setter, g_setter)

    projections = []
    for i in range(n):
        g_i = tuple(ideals3[i][k] - x3[k] for k in range(3))
        coeff = _dot(g_i, g_setter) / g_norm_sq
        projections.append(_add(g_i, _scale(g_setter, -coeff)))

    lead = next((i for i in range(n) if any(projections[i])), None)
    if lead is None:
        raise SpatialDegeneracyError(
            "all projected voter gradients vanish at the base point",
            step="projected gradients")
    p_lead = projections[lead]
    collinear = {j for j in range(n) if j != lead
                 and _cross(projections[j], p_lead) == (0, 0, 0)}

    omega = _cross(g_setter, p_lead)
    plus = [j for j in range(n)
            if j not in collinear and j != lead and _dot(projections[j], omega) > 0]
    minus = [j for j in range(n)
             if j not in collinear and j != lead and _dot(projections[j], omega) < 0]
    if len(minus) > len(plus):
        omega = _scale(omega, F(-1))
        plus, minus = minus, plus
    coalition = frozenset(plus) | {lead}
    if 2 * len(coalition) < n + 1:
        raise SpatialDegeneracyError(
            "projected gradients split without a strict majority side",
            step="pigeonhole")

    k = 1
    direction = p_lead
    while True:
        direction = _add(_scale(p_lead, F(1, k)), _scale(omega, F(k - 1, k)))
        if all(_dot(projections[j], direction) > 0 for j in coalition):
            break
        k *= 2
        if k > 2**64:
            raise SpatialDegeneracyError(
                "no blend of lead gradient and orthogonal direction works",
                step="direction blend")

    def lift(point3):
        full = list(x)
        for k3, axis in enumerate(dims):
            full[axis] = point3[k3]
        return tuple(full)

    def gains_hold(point3, players):
        candidate = lift(point3)
        return all(ref_utility(profile, j, candidate) > ref_utility(profile, j, x)
                   for j in players)

    epsilon = _ref_halve_until(
        F(1), lambda e: gains_hold(_add(x3, _scale(direction, e)), coalition))
    midpoint3 = _add(x3, _scale(direction, epsilon))
    eps_off = _ref_halve_until(
        epsilon, lambda e: gains_hold(_add(midpoint3, _scale(g_setter, e)), coalition))
    zeta3 = _add(midpoint3, _scale(g_setter, eps_off))

    def witness_ok(b):
        point3 = _add(_scale(zeta3, b), _scale(x3, 1 - b))
        return gains_hold(point3, (*coalition, n))

    beta = _ref_halve_until(F(1, 2), witness_ok)
    witness3 = _add(_scale(zeta3, beta), _scale(x3, 1 - beta))
    normal = tuple(profile.setter_ideal[k] - x[k] for k in range(profile.dim))
    return ImprovementTrace(
        base=x, dims=dims, plane_normal=normal,
        projected_gradients=tuple(projections), direction=direction,
        epsilon=epsilon, epsilon_off_plane=eps_off, beta=beta,
        midpoint=lift(midpoint3), witness=lift(witness3), majority_coalition=coalition)


def outcome(build, *args, **kwargs):
    """The build's result, or its genericity error reduced to comparable fields."""
    try:
        return build(*args, **kwargs)
    except GridGenericityError as exc:
        return ("GridGenericityError", str(exc), exc.player, exc.pair)


def witness_outcome(build, profile, x):
    """The improvement trace, or the error reduced to class, failed step and message."""
    try:
        return build(profile, x)
    except (SpatialDegeneracyError, ValidationError) as exc:
        return (type(exc).__name__, getattr(exc, "step", None), str(exc))


WITNESS_KINDS = ("quarters", "grid", "near voter", "axis 3", "thirds")


def witness_case(kind, seed):
    """A profile and a base point of one kind.

    "quarters": coordinates on quarters, where projected gradients vanish
    or split without a majority side, half the time with x halfway between
    a voter's ideal and the setter's; "grid": the 2**-20 grid of
    `gen_spatial`; "near voter": within 2**-60..2**-200 of a voter's
    ideal point, where the step searches can run out of halvings;
    "axis 3": a 4-D point that differs from the setter's ideal only on
    axis 3, so the construction runs in the triple (0, 1, 3); "thirds":
    the 2**-20 grid with a base point in thirds or fifths, so the ideals
    are rescaled by a factor that is not a power of two.
    """
    rng = random.Random(seed)
    dim = 4 if kind == "axis 3" else rng.choice((3, 4, 5))
    n = rng.choice((1, 3, 5, 7))
    denominator = 4 if kind == "quarters" else 2**20

    def coords():
        return tuple(F(rng.randint(0, denominator), denominator) for _ in range(dim))

    ideals = [coords() for _ in range(n + 1)]
    if kind == "near voter":
        gap = F(1, 2**rng.randint(60, 200))
        x = tuple(c + rng.choice((-3, -2, -1, 1, 2, 3)) * gap for c in rng.choice(ideals[:n]))
    elif kind == "quarters" and rng.random() < 0.5:
        # halfway to the setter's ideal: that voter's projected gradient vanishes
        x = tuple((a + b) / 2 for a, b in zip(rng.choice(ideals[:n]), ideals[n]))
    elif kind == "axis 3":
        x = (*ideals[n][:3], F(rng.randint(0, denominator), denominator))
    elif kind == "thirds":
        q = rng.choice((3, 5))
        x = tuple(F(rng.randint(1, q - 1), q) for _ in range(dim))
    else:
        x = coords()
    return SpatialProfile(dim=dim, ideal_points=tuple(ideals), box=((F(0), F(1)),) * dim), x


def _fold(draws, start, stop):
    """Draws of range(start, stop) folded onto eight values in its middle."""
    return (start + stop) // 2 - 4 + (draws - start) % 8


class CoarseRandom(random.Random):
    """Same draws as `random.Random`, folded by `_fold`, so the references'
    jittered grids tie often and re-jitters run."""

    def randrange(self, start, stop=None, step=1):
        return _fold(super().randrange(start, stop, step), start, stop)


def _coarse_draws(rng, count, start, stop):
    """The library's `grids._draws`, folded as `CoarseRandom` folds `randrange`."""
    return _fold(_draws(rng, count, start, stop), start, stop)


@contextmanager
def coarsely(coarse=True):
    """With `coarse`, fold the references' `randrange` (`CoarseRandom`) and
    the library's `grids._draws` alike, so both tie at the same nodes."""
    if not coarse:
        yield
        return
    with mock.patch.object(random, "Random", CoarseRandom), \
            mock.patch.object(grids_module, "_draws", _coarse_draws):
        yield


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
# symmetries, so coarsely jittered grids tie; fine ones are the generic case
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
    return dict(space=space, epsilon=draw(st.sampled_from(BOX_EPSILONS[dim])),
                seed=draw(st.integers(0, 2**31)), profile=profile)


@st.composite
def simplex_cases(draw):
    return dict(space=SimplexSpace(draw(st.integers(1, 3))),
                epsilon=draw(st.sampled_from((F(1, 2), F(3, 5), F(1)))),
                seed=draw(st.integers(0, 2**31)))


# ---------------------------------------------------------------------------
# properties


@SETTINGS
@given(profiles_and_points())
def test_spatial_utility_matches_fraction_reference(case):
    profile, points = case
    want = _ref_spatial_rows(profile, points)
    assert fraction_rows(*profile.scaled_rows(points)) == want
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
    with coarsely(coarse):
        want = outcome(ref_build_box, **case)
        got = outcome(build_grid, **case)
    assert got == want
    if isinstance(got, GridBuildResult):
        assert_compiled_from_fractions(got.problem)


@SETTINGS
@given(simplex_cases(), st.booleans())
def test_simplex_grid_matches_fraction_reference(case, coarse):
    with coarsely(coarse):
        want = outcome(ref_build_simplex, **case)
        got = outcome(build_grid, **case)
    assert got == want
    if isinstance(got, GridBuildResult):
        assert_compiled_from_fractions(got.problem)


def test_grid_references_cover_rejitter_and_genericity_errors():
    """Fixed cases for each way the tie audit ends, checked against the reference."""
    shared = SpatialProfile(dim=3, ideal_points=((F(1, 2),) * 3,) * 4,
                            box=((F(0), F(1)),) * 3)
    box = dict(space=BoxSpace.unit(3), seed=0, profile=shared)
    simplex = dict(space=SimplexSpace(2), seed=0)
    # finer grids hold more ties than the attempts can re-draw
    cases = [
        (ref_build_box, dict(box, epsilon=F(1, 6)), "error"),
        (ref_build_box, dict(box, epsilon=F(1, 2)), "rejittered"),
        (ref_build_simplex, dict(simplex, epsilon=F(1, 3)), "error"),
        (ref_build_simplex, dict(simplex, epsilon=F(1, 2)), "rejittered"),
    ]
    for reference, kwargs, ending in cases:
        with coarsely():
            want = outcome(reference, **kwargs)
            got = outcome(build_grid, **kwargs)
        assert got == want
        if ending == "error":
            assert got[0] == "GridGenericityError"
        else:
            assert got.attempts > 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(WITNESS_KINDS), st.integers(0, 2**32))
def test_spatial_witness_matches_fraction_reference(kind, seed):
    profile, x = witness_case(kind, seed)
    assert (witness_outcome(spatial_witness, profile, x)
            == witness_outcome(ref_spatial_witness, profile, x))


def test_witness_reference_cases_cover_every_ending():
    """Fixed seeds on which each degeneracy step and a trace occur, checked
    against the reference."""
    endings = {}
    for kind in WITNESS_KINDS:
        for seed in range(40):
            profile, x = witness_case(kind, seed)
            got = witness_outcome(spatial_witness, profile, x)
            assert got == witness_outcome(ref_spatial_witness, profile, x)
            ending = "trace" if isinstance(got, ImprovementTrace) else got[1]
            endings.setdefault(ending, set()).add(kind)
    assert {"trace", "projected gradients", "pigeonhole", "step-size search"} <= set(endings)
    assert endings["trace"] == set(WITNESS_KINDS)


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
@given(distribution_problems(), st.sampled_from((1, 5, 2**16)))
def test_axiom_audit_matches_fraction_reference(problem, chunk):
    # small chunks split the defaults into many blocks
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        assert audit_dp_axioms(problem) == ref_audit_dp_axioms(problem)


def test_axiom_audit_reference_cases_cover_the_edges():
    """One policy, one voter, and tie-heavy problems wider than one column
    chunk at the default chunk size, against the reference."""
    single = CollectiveChoiceProblem(policies=("x",), voter_utilities=((F(1),), (F(2),)),
                                     setter_utilities=(F(0),))
    wide_dollar = divide_dollar_problem(3, 9)
    wide_ties = gen_random_with_ties(180, 3, seed=5)
    assert min(len(_column_chunks(p)) for p in (wide_dollar, wide_ties)) > 1
    for problem in (single, divide_dollar_problem(1, 6), wide_dollar, wide_ties,
                    pork_barrel_problem([(F(1), F(1, 2)), (F(3, 2), F(0))], 2, 1),
                    transfers_problem(gen_random_with_ties(4, 2, seed=3), 2)):
        assert audit_dp_axioms(problem) == ref_audit_dp_axioms(problem)


# ---------------------------------------------------------------------------
# compiled forms: builders hand their integers to the problem


def assert_compiled_from_fractions(problem):
    """The problem's `_ints` was seeded at construction and equals, field
    for field, what `ScaledInts` rebuilds from its `Fraction` rows."""
    assert "_ints" in vars(problem)
    seeded = problem._ints
    rebuilt = ScaledInts([list(r) for r in problem.voter_utilities]
                         + [list(problem.setter_utilities)])
    assert seeded.scale == rebuilt.scale
    assert seeded.array.dtype == rebuilt.array.dtype
    assert seeded.array.tolist() == rebuilt.array.tolist()
    assert all(type(v) is int for row in seeded.array.tolist() for v in row)


_GRID_PROFILE = gen_spatial(3, 5, seed=21)
# corners off the profile's 2**-20 lattice: the grid scale takes their denominators
_OFF_LATTICE = BoxSpace(((F(1, 3), F(4, 3)), (F(2, 7), F(9, 7)), (F(5, 11), F(16, 11))))
_BIG_PROFILE = SpatialProfile(dim=2, ideal_points=((F(1, 3), F(2**70, 3**40)),
                                                   (F(-5, 7), F(1, 2**65)), (F(0), F(9, 4))),
                              box=((F(0), F(1)),) * 2)
COMPILED_BUILDERS = {
    "box": lambda: build_grid(BoxSpace.unit(3), F(1, 2), seed=4,
                              profile=_GRID_PROFILE).problem,
    "box-off-lattice-axes": lambda: build_grid(
        _OFF_LATTICE, F(1, 2), seed=4, profile=_GRID_PROFILE).problem,
    "box-coarse": lambda: build_grid(
        BoxSpace.unit(3), F(5), seed=4, profile=_GRID_PROFILE).problem,
    "simplex": lambda: build_grid(SimplexSpace(3), F(3, 10), seed=2).problem,
    "divide-the-dollar": lambda: divide_dollar_problem(3, 6),
    "pork-barrel": lambda: pork_barrel_problem([(F(1), F(1, 2))], 2, 2),
    "transfers": lambda: transfers_problem(gen_random_with_ties(4, 2, seed=3), 3),
    "spatial": lambda: spatial_problem(_GRID_PROFILE, [(F(1, 5), F(3, 4), F(1, 9)),
                                                       (0, 1, F(1, 2))]),
    # utilities over D = 8 that reduce to quarters: the scale is D / gcd = 4
    "spatial-coarse-lattice": lambda: spatial_problem(
        SpatialProfile(dim=2, ideal_points=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                       box=((F(0), F(1)),) * 2), [(F(1, 2), F(1, 2)), (1, 1), (0, 0)]),
    "spatial-past-int64": lambda: spatial_problem(
        _BIG_PROFILE, [(F(1, 5), F(3)), (F(-2**80, 11), F(0)), (1, 2)]),
}


@pytest.mark.parametrize("builder", COMPILED_BUILDERS)
def test_builders_compile_their_problems_from_their_integers(builder):
    problem = COMPILED_BUILDERS[builder]()
    assert_compiled_from_fractions(problem)
    if builder == "box-coarse":
        assert problem.num_policies == 8   # two cells per axis, the fewest a box grid has
    if builder == "spatial-coarse-lattice":
        assert problem._ints.scale == 4
    assert problem._ints.array.dtype == (object if builder == "spatial-past-int64" else np.int64)


@pytest.mark.parametrize("quota", (26, 50))
def test_uniform_margin_matches_reference_at_many_voters(quota):
    # past the strategies' five voters: majority and near-unanimity quotas
    # over 51 voters, on strict problems and on ones with setter ties
    rule = VotingRule.quota_rule(51, quota)
    for seed in range(2):
        for problem in (gen_random_gfa(40, 51, seed), gen_random_with_ties(40, 51, seed)):
            setter = problem.setter_utilities
            spread = max(setter) - min(setter)
            for delta in (spread, spread / 3, F(1, 7)):
                assert uniform_margin(problem, rule, delta) == ref_uniform_margin(
                    problem, rule, delta)


# ---------------------------------------------------------------------------
# improvement queries: references (Fraction scans over voters and policies;
# the support mask and strict majority are in `references`)


def ref_wins(problem, rule, y, x, weak=False):
    if problem.majority_override is not None:
        return (y, x) in problem.majority_override.edges or (weak and y == x)
    return rule.wins(ref_support_mask(problem, y, x, weak))


def ref_acceptance_set(problem, rule, x, mode):
    if problem.majority_override is not None:
        strict = frozenset(y for y in range(problem.num_policies)
                           if (y, x) in problem.majority_override.edges)
        return strict if mode == "strict" else strict | {x}
    members = []
    for y in range(problem.num_policies):
        if mode == "strict" and y == x:
            continue
        if rule.wins(ref_support_mask(problem, y, x, weak=(mode == "weak"))):
            members.append(y)
    out = frozenset(members)
    return out | {x} if mode == "almost_strict" else out


def ref_is_improvable(problem, rule, x):
    setter = problem.setter_utilities
    best = None
    for y in range(problem.num_policies):
        if setter[y] <= setter[x]:
            continue
        if best is not None and setter[y] <= setter[best]:
            continue
        if problem.majority_override is not None:
            if (y, x) in problem.majority_override.edges:
                best = y
            continue
        if rule.wins(ref_support_mask(problem, y, x)):
            best = y
    if best is None:
        return None
    coalition = None
    if problem.majority_override is None:
        gainers = ref_support_mask(problem, best, x)
        if rule.quota is not None:
            coalition = frozenset(sorted(i for i in range(rule.n)
                                         if (gainers >> i) & 1)[:rule.quota])
        else:
            mask = next(c for c in rule.min_coalitions if c & gainers == c)
            coalition = frozenset(i for i in range(rule.n) if (mask >> i) & 1)
    return ImprovementCertificate(base=x, witness=best, coalition=coalition,
                                  setter_gain=setter[best] - setter[x])


def ref_favorite_improvement(problem, rule, x):
    cert = ref_is_improvable(problem, rule, x)
    return x if cert is None else cert.witness


def ref_phi_or(problem, rule, x):
    almost = ref_acceptance_set(problem, rule, x, "almost_strict")
    bar = max(problem.setter_utilities[y] for y in almost)
    weak = ref_acceptance_set(problem, rule, x, "weak")
    return frozenset(y for y in weak if problem.setter_utilities[y] >= bar)


def ref_eta_star_one(problem, rule, x):
    best = None
    for y in range(problem.num_policies):
        setter_gain = problem.setter_utilities[y] - problem.setter_utilities[x]
        if best is not None and setter_gain <= best:
            continue
        gains = [row[y] - row[x] for row in problem.voter_utilities]
        if rule.quota is not None:
            coalition_gain = sorted(gains, reverse=True)[rule.quota - 1]
        else:
            coalition_gain = max(
                min(gains[i] for i in range(rule.n) if (mask >> i) & 1)
                for mask in rule.min_coalitions)
        value = min(setter_gain, coalition_gain)
        if best is None or value > best:
            best = value
    return best


def ref_uniform_margin(problem, rule, delta):
    top = max(problem.setter_utilities)
    gamma = tuple(x for x in range(problem.num_policies)
                  if top >= problem.setter_utilities[x] + delta)
    if not gamma:
        return MarginReport(delta=delta, gamma_set=(), eta_star={}, eta_delta=None, t_bound=0)
    eta_star = {x: ref_eta_star_one(problem, rule, x) for x in gamma}
    eta_delta = min(eta_star.values())
    t_bound = None
    if eta_delta > 0:
        t_bound = max(1, ceil((top - min(problem.setter_utilities)) / eta_delta))
    return MarginReport(delta=delta, gamma_set=gamma, eta_star=eta_star,
                        eta_delta=eta_delta, t_bound=t_bound)


def assert_queries_match_reference(problem, rule):
    m = problem.num_policies
    top = max(problem.setter_utilities)
    assert problem.setter_max == top
    assert problem.setter_optima == frozenset(
        x for x in range(m) if problem.setter_utilities[x] == top)
    for x in range(m):
        for mode in ("strict", "weak", "almost_strict"):
            assert acceptance_set(problem, rule, x, mode) == ref_acceptance_set(
                problem, rule, x, mode)
        assert phi_or(problem, rule, x) == ref_phi_or(problem, rule, x)
        phi = ref_favorite_improvement(problem, rule, x)
        assert _orbit(problem, rule, x, 1)[-1] == phi
        if problem.gfa:
            assert favorite_improvement(problem, rule, x) == phi
        assert is_improvable(problem, rule, x) == ref_is_improvable(problem, rule, x)
    assert unimprovable_set(problem, rule) == frozenset(
        x for x in range(m) if ref_is_improvable(problem, rule, x) is None)
    if problem.majority_override is None:
        setter = problem.setter_utilities
        spread = max(setter) - min(setter)
        for delta in {spread, spread / 3, F(1, 7)} - {0}:
            assert uniform_margin(problem, rule, delta) == ref_uniform_margin(
                problem, rule, delta)


# ---------------------------------------------------------------------------
# improvement queries: strategies and properties

small_levels = st.integers(-3, 3).map(F)
big_levels = st.builds(F, st.integers(-2**90, 2**90), st.sampled_from((1, 3, 2**40)))


@st.composite
def choice_problems(draw, voters=st.integers(1, 5), override_voters=st.sampled_from((1, 3, 5))):
    """A problem and a rule for it: quota, explicit or override.

    An override problem gets the strict-majority quota rule; it is the
    simple-majority rule unless `override_voters` draws an even count.
    """
    m = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("quota", "explicit", "override")))
    n = draw(override_voters if kind == "override" else voters)
    # entries drawn from a few levels tie often; from many, rarely
    levels = draw(st.lists(draw(st.sampled_from((small_levels, big_levels))),
                           min_size=1, max_size=m + 2))
    row = st.lists(st.sampled_from(levels), min_size=m, max_size=m).map(tuple)
    voters = tuple(draw(row) for _ in range(n))
    override = None
    if kind == "override":
        override = TournamentSpec.from_edges(
            m, [(x, y) if draw(st.booleans()) else (y, x)
                for x in range(m) for y in range(x + 1, m)])
    problem = CollectiveChoiceProblem(policies=tuple(f"x{i}" for i in range(m)),
                                      voter_utilities=voters, setter_utilities=draw(row),
                                      majority_override=override)
    if kind == "override":
        rule = VotingRule.quota_rule(n, n // 2 + 1)
    elif kind == "quota":
        rule = VotingRule.quota_rule(n, draw(st.integers(1, n)))
    else:
        coalitions = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
                                   min_size=1, max_size=3))
        rule = VotingRule.explicit(n, coalitions)
    return problem, rule


@SETTINGS
@given(choice_problems(), st.sampled_from((1, 5, 2**16)))
def test_improvement_queries_match_fraction_reference(case, chunk):
    # small chunks split the favorite-improvement and margin walks into many blocks
    problem, rule = case
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        assert_queries_match_reference(problem, rule)


@SETTINGS
@given(choice_problems(voters=st.integers(1, 11), override_voters=st.integers(1, 6)),
       st.sampled_from((1, 5, 2**16)), st.data())
def test_pairwise_relation_matches_fraction_reference(case, chunk, data):
    # `_wins` blocks on arbitrary column slices, and the cached strict
    # majority read from them, over up to eleven voters
    problem, rule = case
    m = problem.num_policies
    start, stop = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    cols = slice(start, stop, data.draw(st.integers(1, 3)))
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        for weak in (False, True):
            assert _wins(problem, rule, cols, weak).tolist() == [
                [ref_wins(problem, rule, y, x, weak) for x in range(m)[cols]]
                for y in range(m)]
        assert _wins_table(problem, problem._majority_rule).tolist() == [
            [ref_majority(problem, y, x) for x in range(m)] for y in range(m)]


def _scaled(problem, factor, offset):
    """The same preferences at another magnitude."""
    def move(row):
        return tuple(u * factor + offset for u in row)
    return CollectiveChoiceProblem(
        policies=problem.policies, voter_utilities=tuple(map(move, problem.voter_utilities)),
        setter_utilities=move(problem.setter_utilities), gfa=problem.gfa)


@pytest.mark.parametrize("m", [63, 64])
def test_improvement_queries_match_reference_around_64_policies(m):
    strict = gen_random_gfa(m, 5, seed=m)
    tied = gen_random_with_ties(m, 5, seed=m, levels=4)
    huge = _scaled(tied, F(2**70, 3), F(2**65 + 1, 7))
    assert huge._ints.array.dtype == object     # margins run on Python ints
    explicit = VotingRule.explicit(5, [[0, 1], [1, 2, 3], [4, 0, 2]])
    for problem in (strict, tied, huge):
        for rule in (VotingRule.simple_majority(5), VotingRule.quota_rule(5, 4), explicit):
            assert_queries_match_reference(problem, rule)
    cycle = TournamentSpec.from_edges(m, [(x, y) if (x + y) % 3 else (y, x)
                                          for x in range(m) for y in range(x + 1, m)])
    override = CollectiveChoiceProblem(policies=strict.policies,
                                       voter_utilities=strict.voter_utilities,
                                       setter_utilities=strict.setter_utilities,
                                       majority_override=cycle)
    assert_queries_match_reference(override, VotingRule.simple_majority(5))


_EARLY_EXIT_RULES = (VotingRule.simple_majority(5), VotingRule.quota_rule(5, 4),
                     VotingRule.explicit(5, [[0, 1], [1, 2, 3], [4, 0, 2]]))


@pytest.mark.parametrize("box, blocked", [(((F(9, 8), F(2)),) * 3, False),
                                          (((F(1, 4), F(3, 4)),) * 3, True)],
                         ids=["offset", "interior"])
def test_setter_walk_matches_reference_on_grids(box, blocked, monkeypatch):
    # 216 nodes, past one block of the default chunk: every default of the
    # offset grid settles in the first block, and the interior grid's walks
    # cross several; either way the early exit reads under m**2 / 3 pairs
    problem = build_grid(BoxSpace.unit(3), F(1, 3), seed=2,
                         profile=gen_spatial(3, 5, seed=1, box=box)).problem
    m = problem.num_policies
    assert m == 216
    pairs = []                                  # (y, x) pairs read, one entry per block
    walk = problems_module._setter_walk

    def counted(problem, defaults, settle):
        def spy(rows, cols):
            pairs.append(rows.size * cols.size)
            return settle(rows, cols)
        return walk(problem, defaults, spy)

    monkeypatch.setattr(problems_module, "_setter_walk", counted)
    setter = problem.setter_utilities
    spread = max(setter) - min(setter)
    for rule in _EARLY_EXIT_RULES:
        certificates = [ref_is_improvable(problem, rule, x) for x in range(m)]
        pairs.clear()
        assert problems_module._phi_table(problem, rule) == tuple(
            x if c is None else c.witness for x, c in enumerate(certificates))
        assert (len(pairs) > 1) == blocked and sum(pairs) < m * m // 3
        assert [is_improvable(problem, rule, x) for x in range(m)] == certificates
        assert unimprovable_set(problem, rule) == frozenset(
            x for x, c in enumerate(certificates) if c is None)
        for delta in (spread / 20, spread / 3):
            pairs.clear()
            assert uniform_margin(problem, rule, delta) == ref_uniform_margin(
                problem, rule, delta)
            assert (len(pairs) > 1) == blocked and sum(pairs) < m * m // 3


@pytest.mark.parametrize("chunk", (1, 5, 2**16))
def test_setter_walk_passes_a_lower_index_tie(chunk):
    # policies 0 and 1 tie at the setter's top; from default 3 a majority
    # prefers 1 but not 0, so the walk meets 0 first and settles at 1
    problem = CollectiveChoiceProblem(
        policies=("a", "b", "c", "d"),
        voter_utilities=((F(0), F(5), F(1), F(2)), (F(0), F(5), F(1), F(2)),
                         (F(9), F(0), F(1), F(2))),
        setter_utilities=(F(3), F(3), F(1), F(0)))
    rule = VotingRule.simple_majority(3)
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        assert problems_module._phi_table(problem, rule)[3] == 1
        assert uniform_margin(problem, rule, F(3)).eta_star == {3: F(3)}
        for quota in (1, 2, 3):
            assert_queries_match_reference(problem, VotingRule.quota_rule(3, quota))


def ref_phi_or_column(problem, rule, x):
    """The correspondence at x from its own strict and weak `_wins` columns."""
    setter = problem._ranks[-1]
    column = slice(x, x + 1)
    bar = setter[_wins(problem, rule, column)[:, 0]].max(initial=setter[x])
    weak = _wins(problem, rule, column, weak=True)[:, 0]
    return frozenset(y for y in range(problem.num_policies) if weak[y] and setter[y] >= bar)


@SETTINGS
@given(choice_problems(), st.sampled_from((1, 5, 2**16)))
def test_phi_or_table_matches_the_per_default_formula(case, chunk):
    problem, rule = case
    with mock.patch("agendalab.problems._CHUNK_COMPARISONS", chunk):
        table = _phi_or_table(problem, rule)
    assert table == tuple(ref_phi_or_column(problem, rule, x)
                          for x in range(problem.num_policies))
    assert _phi_or_table(problem, rule) is table        # one table per rule


# ---------------------------------------------------------------------------
# views: integers kept, `Fraction`s made on first read


@st.composite
def integer_rows(draw):
    """Integer utility rows (voters, then the setter) over a denominator:
    a few levels, so rows tie, or magnitudes past int64."""
    m = draw(st.integers(1, 6))
    values = draw(st.sampled_from((st.integers(-2, 2), st.integers(-2**90, 2**90))))
    rows = [draw(st.lists(values, min_size=m, max_size=m))
            for _ in range(draw(st.integers(2, 6)))]
    return rows, draw(st.sampled_from((1, 6, 2**40, 3**50))), draw(st.booleans())


def validation_outcome(build):
    """The build's result, or its validation error's message."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


@SETTINGS
@given(integer_rows(), st.booleans())
def test_scaled_problem_equals_the_constructed_problem(case, read_first):
    rows, denominator, flag = case
    labels = [f"x{i}" for i in range(len(rows[0]))]
    *voters, setter = fraction_rows(rows, denominator)
    generic = len(voters) % 2 == 1 and all(len(set(row)) == len(row) for row in rows)
    flagged = validation_outcome(lambda: CollectiveChoiceProblem(
        policies=tuple(labels), voter_utilities=tuple(voters), setter_utilities=setter,
        gfa=flag))
    # gfa=True refuses exactly the problems outside the regime; False opts nothing out
    assert isinstance(flagged, str) == (flag and not generic)
    want = CollectiveChoiceProblem(policies=tuple(labels), voter_utilities=tuple(voters),
                                   setter_utilities=setter)
    got = _scaled_problem(labels, rows, denominator)
    assert got.gfa == want.gfa == generic
    assert isinstance(flagged, str) or flagged == want
    assert got.n == want.n == len(voters)
    assert "voter_utilities" not in vars(got) and "setter_utilities" not in vars(got)
    if read_first:
        assert got.setter_utilities == setter and "voter_utilities" not in vars(got)
        assert got.voter_utilities == tuple(voters)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert (got.voter_utilities, got.setter_utilities) == (tuple(voters), setter)
    assert dataclasses.replace(got, policies=tuple(reversed(labels))) == dataclasses.replace(
        want, policies=tuple(reversed(labels)))


def _seeded_rows(low, high, m, seed):
    """Six seeded integer rows of m values in [low, high]: five voters, then
    the setter."""
    rng = random.Random(f"{low}:{high}:{m}:{seed}")
    return [[rng.randint(low, high) for _ in range(m)] for _ in range(6)]


# (low, high): tie-heavy, negative, wide int64, and past 2**62 (object dtype)
_RANK_RANGES = [(-2, 2), (-9, -5), (-10**12, 10**12), (2**62, 2**62 + 3), (-2**90, 2**90)]
_RANK_IDS = ["ties", "negative", "wide", "ties-past-2^62", "past-int64"]


@pytest.mark.parametrize("low, high", _RANK_RANGES, ids=_RANK_IDS)
@pytest.mark.parametrize("m", [1, 2, 9, 40])
def test_dense_ranks_match_the_python_scan(low, high, m):
    for seed in range(3):
        rows = _seeded_rows(low, high, m, seed)
        array = ScaledInts.from_scaled(rows, 1).array
        assert array.dtype == (np.int64 if max(-low, high) < 2**62 else object)
        ranks = problems_module._dense_ranks(array)
        assert ranks.dtype == np.int64 and not ranks.flags.writeable
        assert ranks.tolist() == ref_dense_ranks(rows)


@pytest.mark.parametrize("low, high", _RANK_RANGES, ids=_RANK_IDS)
@pytest.mark.parametrize("denominator", [1, 6, 2**40])
def test_both_constructors_compile_the_same_ranks(low, high, denominator):
    rows = _seeded_rows(low, high, 7, denominator)
    labels = tuple(f"x{i}" for i in range(7))
    *voters, setter = fraction_rows(rows, denominator)
    built = CollectiveChoiceProblem(policies=labels, voter_utilities=tuple(voters),
                                    setter_utilities=setter)
    scaled = _scaled_problem(labels, rows, denominator)
    assert built.n == scaled.n == 5
    assert built._ints.scale == scaled._ints.scale
    assert built._ranks.tolist() == scaled._ranks.tolist() == ref_dense_ranks(rows)


@pytest.mark.parametrize("low, high", [(-10**12, 10**12), (-2**90, 2**90)],
                         ids=["int64", "object"])
def test_margin_region_holds_for_a_delta_denominator_past_int64(low, high):
    # delta's denominator times the setter's integer spread is past 2**63, so
    # the region must compare shortfalls with ceil(delta * scale), not multiply
    rows = _seeded_rows(low, high, 9, 0)
    problem = _scaled_problem(tuple(f"x{i}" for i in range(9)), rows, 6)
    ints, rule = problem._ints, VotingRule.simple_majority(5)
    assert ints.array.dtype == (np.int64 if high < 2**62 else object)
    setter = problem.setter_utilities
    tiny = F(1, 2**70)
    spread = max(ints.array[-1].tolist()) - min(ints.array[-1].tolist())
    for x in range(9):
        shortfall = max(setter) - setter[x]
        for delta in (shortfall - tiny, shortfall, shortfall + tiny):
            if delta <= 0:
                continue
            assert delta == shortfall or spread * delta.denominator > 2**63
            got = uniform_margin(problem, rule, delta)
            assert got == ref_uniform_margin(problem, rule, delta)
            assert (x in got.gamma_set) == (delta <= shortfall)


def test_grid_kernels_build_no_fraction_rows_or_points(monkeypatch):
    # the grid task of the benchmark: build, is_manipulable, uniform_margin,
    # then read the setter row; only that row becomes `Fraction`s
    made = []
    real = fraction_rows
    monkeypatch.setattr("agendalab.problems.fraction_rows",
                        lambda rows, d: made.append(len(rows)) or real(rows, d))
    grid = build_grid(BoxSpace.unit(3), F(1, 2), seed=4, profile=_GRID_PROFILE)
    rule = VotingRule.simple_majority(5)
    is_manipulable(grid.problem, rule)
    margin = uniform_margin(grid.problem, rule, F(1, 100))
    assert "eta_star" not in vars(margin)
    assert made == []
    setter = grid.problem.setter_utilities
    assert made == [1]
    assert "voter_utilities" not in vars(grid.problem) and "points" not in vars(grid)
    want = ref_build_box(BoxSpace.unit(3), F(1, 2), 4, _GRID_PROFILE)
    assert setter == want.problem.setter_utilities
    assert grid == want and grid.points == want.points
    # an off-lattice box and a simplex take the same path
    for reference, case, size in (
            (ref_build_box, dict(space=_OFF_LATTICE, epsilon=F(5), seed=4,
                                 profile=_GRID_PROFILE), 8),
            (ref_build_simplex, dict(space=SimplexSpace(2), epsilon=F(1, 2), seed=4), 15)):
        result = build_grid(**case)
        assert "points" not in vars(result)
        assert result == reference(**case)
        assert len(result.points) == size


def ref_coplanarity_form(p1, p2, p3, p4):
    u, v, w = ([b - a for a, b in zip(p1, q)] for q in (p2, p3, p4))
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def ref_check_noncoplanarity(profile):
    for dims in combinations(range(profile.dim), 3):
        projected = [tuple(p[k] for k in dims) for p in profile.ideal_points]
        for subset in combinations(range(len(projected)), 4):
            quad = [projected[i] for i in subset]
            value = coplanarity_form(*quad)
            assert value == ref_coplanarity_form(*quad)
            if value == 0:
                return CoplanarityReport(passes=False, violating_tuple=(dims, subset, value))
    return CoplanarityReport(passes=True)


@st.composite
def coplanarity_profiles(draw):
    """Profiles in d = 3..5 over denominators up to 2**200, where a drawn
    player may sit in the plane of three others in one drawn projection."""
    d = draw(st.sampled_from((3, 4, 5)))
    players = draw(st.integers(4, 7))
    denominators = st.sampled_from((1, 3, 2**20, 3**60, 2**200))
    coordinate = st.builds(F, st.integers(-2**64, 2**64), denominators)
    points = [draw(st.lists(coordinate, min_size=d, max_size=d)) for _ in range(players)]
    for _ in range(draw(st.integers(0, 2))):
        dims = draw(st.sampled_from(list(combinations(range(d), 3))))
        a, b, c, moved = draw(st.permutations(range(players)))[:4]
        s, t = draw(coordinate), draw(coordinate)
        for k in dims:
            points[moved][k] = points[a][k] + s * (points[b][k] - points[a][k]) + t * (
                points[c][k] - points[a][k])
    return SpatialProfile(dim=d, ideal_points=tuple(map(tuple, points)),
                          box=((F(0), F(1)),) * d)


@SETTINGS
@given(coplanarity_profiles())
def test_coplanarity_scan_matches_the_form(profile):
    assert check_noncoplanarity(profile) == ref_check_noncoplanarity(profile)


def test_coplanarity_scan_reports_the_first_violation_in_order():
    # two coplanar quadruples: (0, 1, 2, 4) in projection (1, 2, 3) and
    # (0, 1, 2, 3) in the later projection (1, 3, 4); the scan names the first
    base = gen_spatial(5, 5, seed=3)
    points = [list(p) for p in base.ideal_points]
    for moved, dims in ((4, (1, 2, 3)), (3, (1, 3, 4))):
        for k in dims:
            points[moved][k] = 2 * points[1][k] - points[0][k] + F(1, 3) * (
                points[2][k] - points[0][k])
    profile = SpatialProfile(dim=5, ideal_points=tuple(map(tuple, points)), box=base.box)
    report = check_noncoplanarity(profile)
    assert report == ref_check_noncoplanarity(profile)
    assert report.violating_tuple == ((1, 2, 3), (0, 1, 2, 4), 0)


# ---------------------------------------------------------------------------
# integer arrays: one compiled form from lists or arrays, int64 only where safe


def _scaled_fields(ints):
    return ints.scale, ints.array.dtype, ints.array.tolist()


@pytest.mark.parametrize("low, high", _RANK_RANGES, ids=_RANK_IDS)
@pytest.mark.parametrize("denominator", [1, 6, 2**40])
@pytest.mark.parametrize("factor", [1, 6])
def test_from_scaled_reads_lists_and_arrays_alike(low, high, denominator, factor):
    # a common factor shared with the denominator is divided out, on every input
    rows = [[v * factor for v in row] for row in _seeded_rows(low, high, 7, denominator)]
    want = _scaled_fields(ScaledInts.from_scaled(rows, denominator))
    inputs = [np.array(rows, dtype=object)]
    if max(-low, high) * factor < 2**63:
        inputs.append(np.array(rows, dtype=np.int64))
    for array in inputs:
        got = ScaledInts.from_scaled(array, denominator)
        assert _scaled_fields(got) == want
        assert all(type(v) is int for row in got.array.tolist() for v in row)
    assert want[1] == (np.int64 if max(-low, high) * factor // (
        denominator // want[0]) < 2**62 else object)


def test_from_scaled_widens_an_int64_array_past_the_safe_peak():
    # int64 values in [2**62, 2**63) fit the input but not the kernels' safe
    # range: the family holds Python ints, as it does from a list; a common
    # factor that brings the peak back under 2**62 gives int64 again
    for rows, denominator, dtype in (([[2**63 - 1, -5], [3, 2**62]], 1, object),
                                     ([[2**62 + 2, -6], [4, 2**62]], 2, np.int64),
                                     ([[-2**63, 1], [3, 2**62]], 7, object)):
        want = ScaledInts.from_scaled(rows, denominator)
        got = ScaledInts.from_scaled(np.array(rows, dtype=np.int64), denominator)
        assert _scaled_fields(got) == _scaled_fields(want)
        assert got.array.dtype == dtype


def test_families_past_int64_hold_python_ints():
    # numpy makes float64 of np.array([[1, 2**63]]) when it is given no dtype:
    # a family read from a list, or from `Fraction` rows, holds Python ints
    for ints, want in ((ScaledInts.from_scaled([[1, 2**63]], 1), [[1, 2**63]]),
                       (ScaledInts([[F(2**63), F(1)]]), [[2**63, 1]])):
        assert ints.scale == 1 and ints.array.dtype == object
        assert ints.array.tolist() == want
        assert all(type(v) is int for v in ints.array.ravel())


def test_empty_and_ragged_families_keep_their_located_errors():
    # rows of unequal lengths make no one array, and no rows make an array of
    # no rows: each constructor refuses them in the words it always used
    box = ((F(0), F(1)),) * 3
    with pytest.raises(ValidationError, match="^need at least one voter plus the setter$"):
        SpatialProfile(dim=3, ideal_points=(), box=box)
    with pytest.raises(ValidationError, match="^ideal point dimension mismatch$"):
        SpatialProfile(dim=3, ideal_points=((0, 0, 0), (1, 0), (0, 1, 0)), box=box)
    with pytest.raises(ValidationError, match="^need at least one voter$"):
        CollectiveChoiceProblem(policies=("a", "b"), voter_utilities=(),
                                setter_utilities=(0, 1))
    for voters, setter, found in ((((1, 0), (1,)), (0, 1), "voter 2 utility row has 1"),
                                  (((1, 0),), (0, 1, 2), "setter utility row has 3"),
                                  (((1, 0, 2),), (0, 1, 2), "setter utility row has 3")):
        with pytest.raises(ValidationError, match=f"^{found} entries, expected 2$"):
            CollectiveChoiceProblem(policies=("a", "b"), voter_utilities=voters,
                                    setter_utilities=setter)


def _box_grid_near_the_int64_bound(excess):
    """A 1-D box grid of 3 nodes whose setter ideal sits X grid units below
    the box, with X odd and chosen so that the utility bound (node peak +
    X)**2 is (2**31 + excess)**2: just below 2**62 for excess -1, just
    above for +1.  Its utilities share no factor with the denominator, so
    the problem's peak is that bound."""
    space, epsilon, seed = BoxSpace(((F(0), F(1)),)), F(1, 2), 3
    scale = 20 * JITTER_RANGE * 3           # three cells: one grid unit per jitter unit
    probe = ref_build_box(space, epsilon, seed, SpatialProfile(
        dim=1, ideal_points=((F(1, 2),), (F(0),)), box=space.bounds))
    peak = max(c for p in probe.points for c in p) * scale
    x = 2**31 + excess - peak
    profile = SpatialProfile(dim=1, ideal_points=((F(1, 2),), (F(-x, scale),)),
                             box=space.bounds)
    return dict(space=space, epsilon=epsilon, seed=seed, profile=profile), probe, x


@pytest.mark.parametrize("excess, dtype", [(-1, np.int64), (1, object)])
def test_box_grid_utilities_switch_to_python_ints_past_the_bound(excess, dtype):
    case, probe, x = _box_grid_near_the_int64_bound(excess)
    assert x % 2 == 1
    got, want = build_grid(**case), ref_build_box(**case)
    assert got == want and got.points == probe.points
    assert got.problem._ints.array.dtype == dtype
    assert max(map(abs, got.problem._ints.array[-1].tolist())) == (2**31 + excess)**2
    assert_compiled_from_fractions(got.problem)


def test_views_hold_python_ints():
    # every `Fraction` a grid or a margin report makes holds Python ints,
    # never numpy scalars, on the int64 and the object path alike
    big, _probe, _x = _box_grid_near_the_int64_bound(1)
    grids = [build_grid(BoxSpace.unit(3), F(1, 2), seed=4, profile=_GRID_PROFILE),
             build_grid(SimplexSpace(2), F(1, 2), seed=4), build_grid(**big)]
    for grid in grids:
        problem = grid.problem
        rule = VotingRule.quota_rule(problem.n, problem.n // 2 + 1)
        setter = problem.setter_utilities
        margin = uniform_margin(problem, rule, (max(setter) - min(setter)) / 3)
        values = [c for p in grid.points for c in p] + [
            v for row in (*problem.voter_utilities, setter) for v in row] + [
            *margin.eta_star.values(), margin.eta_delta]
        assert values and all(type(v.numerator) is int and type(v.denominator) is int
                              for v in values)
    rows, _denominator = _GRID_PROFILE.scaled_rows([(F(1, 3), 0, 1)])
    assert type(_GRID_PROFILE.utility(0, (F(1, 3), 0, 1)).numerator) is int
    assert rows.dtype == np.int64


def test_margin_report_makes_eta_star_on_first_read():
    # an unread report compares, prints, copies and pickles as the report the
    # public constructor makes from its fields, and its eta_star is the reference's
    grid = build_grid(BoxSpace.unit(3), F(1, 2), seed=4, profile=_GRID_PROFILE)
    problem, rule = grid.problem, VotingRule.simple_majority(5)
    setter = problem.setter_utilities
    delta = (max(setter) - min(setter)) / 5
    first = uniform_margin(problem, rule, delta)
    built = MarginReport(**{f.name: getattr(first, f.name)
                            for f in dataclasses.fields(MarginReport)})
    assert built == ref_uniform_margin(problem, rule, delta)
    assert repr(uniform_margin(problem, rule, delta)) == repr(built)
    for read in (lambda r: r, copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
        got = read(uniform_margin(problem, rule, delta))
        assert "eta_star" not in vars(got)
        assert got == built and repr(got) == repr(built)
    report = uniform_margin(problem, rule, delta)
    assert report.eta_star == built.eta_star and report.eta_star is report.eta_star
    assert len(report.eta_star) == len(report.gamma_set) > 0
