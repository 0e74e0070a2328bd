from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendalab import (
    ImprovementTrace,
    SpatialDegeneracyError,
    SpatialProfile,
    ValidationError,
    check_noncoplanarity,
    coplanarity_form,
    gen_spatial,
    spatial_problem,
    spatial_witness,
)
from test_exact_kernels import ref_spatial_witness

F = Fraction


def point(*coords):
    return tuple(F(c) for c in coords)


def test_gen_spatial_deterministic():
    a = gen_spatial(3, 3, seed=42)
    b = gen_spatial(3, 3, seed=42)
    assert a == b
    assert a != gen_spatial(3, 3, seed=43)
    for p in a.ideal_points:
        for c in p:
            assert 0 <= c <= 1 and c.denominator <= 2**20


def test_gen_spatial_validation():
    with pytest.raises(ValidationError):
        gen_spatial(3, 4, seed=1)           # even voter count
    with pytest.raises(ValidationError):
        gen_spatial(0, 3, seed=1)
    with pytest.raises(ValidationError):
        gen_spatial(1, 3, seed=1, box=((F(1), F(1)),))   # degenerate axis
    with pytest.raises(ValidationError, match="ideal point dimension mismatch"):
        gen_spatial(3, 5, 1, box=((0, 1), (0, 1)))        # a box of the wrong length


def test_drawn_profile_keeps_its_integers():
    # the kernels read the drawn integers; `ideal_points` is made only
    # when it is read, and equals what the public constructor keeps
    profile = gen_spatial(3, 5, seed=4)
    assert check_noncoplanarity(profile).passes and profile.n_voters == 5
    spatial_witness(profile, point("1/3", "1/4", "1/5"))
    assert "ideal_points" not in vars(profile)
    built = SpatialProfile(profile.dim, profile.ideal_points, profile.box)
    assert profile == built and hash(profile) == hash(built) and repr(profile) == repr(built)


def test_coplanarity_form_tetrahedron():
    value = coplanarity_form(point(0, 0, 0), point(1, 0, 0),
                             point(0, 1, 0), point(0, 0, 1))
    assert value == 1


def test_coplanarity_form_planar_square():
    value = coplanarity_form(point(0, 0, 0), point(1, 0, 0),
                             point(0, 1, 0), point(1, 1, 0))
    assert value == 0


def _rank_oracle(p1, p2, p3, p4) -> int:
    """Affine rank of the 4-tuple via fraction Gaussian elimination."""
    rows = [[b - a for a, b in zip(p1, p)] for p in (p2, p3, p4)]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(3):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=12, max_size=12))
def test_form_zero_iff_coplanar(flat):
    pts = [point(*flat[i:i + 3]) for i in range(0, 12, 3)]
    value = coplanarity_form(*pts)
    assert (value == 0) == (_rank_oracle(*pts) <= 2)


def test_form_is_alternating():
    rng = random.Random(5)
    for _ in range(20):
        pts = [point(*(rng.randrange(-5, 6) for _ in range(3))) for _ in range(4)]
        base = coplanarity_form(*pts)
        swapped = coplanarity_form(pts[1], pts[0], pts[2], pts[3])
        assert swapped == -base


def test_check_noncoplanarity_requires_3d():
    profile = gen_spatial(2, 3, seed=1)
    with pytest.raises(ValidationError):
        check_noncoplanarity(profile)


def test_check_noncoplanarity_projection_case():
    # coplanar in dims (0,1,2) but not in (0,1,3)
    pts = (point(0, 0, 0, 0), point(1, 0, 0, 1), point(0, 1, 0, 2),
           point(1, 1, 0, 5))
    profile = SpatialProfile(dim=4, ideal_points=pts,
                             box=((F(0), F(10)),) * 4)
    report = check_noncoplanarity(profile)
    assert not report.passes
    dims, players, value = report.violating_tuple
    assert dims == (0, 1, 2) and players == (0, 1, 2, 3) and value == 0
    proj = [tuple(p[k] for k in (0, 1, 3)) for p in pts]
    assert coplanarity_form(*proj) != 0


def test_check_noncoplanarity_passes_generic_draw():
    assert check_noncoplanarity(gen_spatial(3, 5, seed=7)).passes


# ---------------------------------------------------------------------------
# witness construction


def _verify_trace(profile, x, trace):
    n = profile.n_voters
    assert 2 * len(trace.majority_coalition) >= n + 1
    for j in trace.majority_coalition:
        assert profile.utility(j, trace.witness) > profile.utility(j, x)
    assert profile.utility(n, trace.witness) > profile.utility(n, x)
    shift = tuple(m - b for m, b in zip(trace.midpoint, x))
    assert sum(s * g for s, g in zip(shift, trace.plane_normal)) == 0


def test_witness_tetrahedral_midpoint():
    profile = SpatialProfile(
        dim=3,
        ideal_points=(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
                      point(F(1, 5), F(1, 7), F(1, 11))),
        box=tuple((F(-2), F(2)) for _ in range(3)))
    assert check_noncoplanarity(profile).passes
    x = point(F(1, 2), F(1, 2), 0)          # midpoint of two voter ideals
    trace = spatial_witness(profile, x)
    _verify_trace(profile, x, trace)


def test_witness_interior_segment_point():
    profile = gen_spatial(3, 5, seed=12)
    setter = profile.setter_ideal
    x = tuple(c / 3 + s * F(2, 3) for c, s in zip(point(1, 1, 1), setter))
    trace = spatial_witness(profile, x)
    _verify_trace(profile, x, trace)


def test_witness_rejects_setter_ideal():
    profile = gen_spatial(3, 5, seed=3)
    with pytest.raises(ValidationError):
        spatial_witness(profile, profile.setter_ideal)


def test_witness_degenerate_collinear_profile():
    profile = SpatialProfile(
        dim=3,
        ideal_points=(point(1, 1, 1), point(2, 2, 2), point(3, 3, 3),
                      point(0, 0, 0)),
        box=tuple((F(0), F(3)) for _ in range(3)))
    with pytest.raises(SpatialDegeneracyError) as info:
        spatial_witness(profile, point(F(1, 2), F(1, 2), F(1, 2)))
    assert info.value.step == "projected gradients"


def test_witness_high_dimension_slice():
    profile = gen_spatial(4, 5, seed=21)
    assert check_noncoplanarity(profile).passes
    x = point(F(1, 3), F(2, 7), F(3, 5), F(1, 9))
    trace = spatial_witness(profile, x)
    assert len(trace.dims) == 3
    # the witness moves only inside the chosen coordinate slice
    for axis in range(4):
        if axis not in trace.dims:
            assert trace.witness[axis] == x[axis]
    _verify_trace(profile, x, trace)


def test_witness_sampled_points_batch():
    rng = random.Random(9)
    for seed in (100, 101):
        profile = gen_spatial(3, 5, seed=seed)
        if not check_noncoplanarity(profile).passes:
            continue
        for _ in range(25):
            x = tuple(F(rng.randrange(0, 2**12 + 1), 2**12) for _ in range(3))
            if x == profile.setter_ideal:
                continue
            _verify_trace(profile, x, spatial_witness(profile, x))


_TRACE_VIEWS = {"plane_normal", "projected_gradients", "direction", "epsilon",
                "epsilon_off_plane", "beta", "midpoint", "witness"}


@pytest.mark.parametrize("dim, seed, x", [
    (3, 4, ("1/3", "1/4", "1/5")),
    (4, 21, ("1/3", "2/7", "3/5", "1/9")),
])
@pytest.mark.parametrize("carry", [lambda trace: trace, copy.copy,
                                   lambda trace: pickle.loads(pickle.dumps(trace))],
                         ids=["same", "copy", "pickle"])
def test_witness_trace_fields_are_made_on_first_read(dim, seed, x, carry):
    # the trace keeps the construction's integers; each `Fraction` field is
    # made on first read, also on a copy or an unpickled trace, and equals
    # the earlier `Fraction` construction's
    profile, x = gen_spatial(dim, 5, seed=seed), point(*x)
    trace = carry(spatial_witness(profile, x))
    assert not _TRACE_VIEWS & set(vars(trace))
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(ImprovementTrace)}
    assert _TRACE_VIEWS <= set(vars(trace))
    want = ref_spatial_witness(profile, x)
    assert fields == {name: getattr(want, name) for name in fields}
    built = ImprovementTrace(**fields)
    # each of `==`, `hash` and `repr` reads the views of an unread trace
    for same in (lambda trace: trace == built, lambda trace: hash(trace) == hash(built),
                 lambda trace: repr(trace) == repr(built)):
        assert same(carry(spatial_witness(profile, x)))


def test_spatial_problem_wraps_utilities():
    profile = gen_spatial(3, 3, seed=8)
    pts = [point(0, 0, 0), point(1, 1, 1)]
    problem = spatial_problem(profile, pts, labels=("origin", "corner"))
    assert problem.num_policies == 2 and problem.n == 3
    assert problem.setter_utilities[0] == profile.utility(3, pts[0])


def test_spatial_problem_reads_gfa_from_its_rows():
    profile = gen_spatial(3, 5, seed=8)
    rng = random.Random(3)
    pts = [point(*(F(rng.randrange(1, 97), 97) for _ in range(3))) for _ in range(12)]
    assert spatial_problem(profile, pts).gfa
    # a repeated point ties every row
    assert not spatial_problem(profile, pts + [pts[0]]).gfa


def test_points_must_be_exact_with_one_coordinate_per_axis():
    profile = gen_spatial(3, 3, seed=1)
    half = F(1, 2)
    with pytest.raises(ValidationError, match="point 0 has 2 coordinates, expected 3"):
        profile.utility(0, (half, half))
    with pytest.raises(ValidationError, match="point 1 has 1 coordinates, expected 3"):
        spatial_problem(profile, [(half,) * 3, (half,)])
    for call in (lambda: profile.utility(0, (half, 0.5, half)),
                 lambda: spatial_problem(profile, [(half, half, 0.5)]),
                 lambda: spatial_witness(profile, (0.5, half, half))):
        with pytest.raises(ValidationError, match="float"):
            call()
    assert profile.utility(0, ("1/2", 0, half)) == profile.utility(0, (half, F(0), half))


def test_float_ideal_and_coplanarity_points_are_refused():
    quad = ((0.5, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    with pytest.raises(ValidationError, match="0.5"):
        SpatialProfile(dim=3, ideal_points=quad, box=((F(0), F(1)),) * 3)
    with pytest.raises(ValidationError, match="0.5"):
        coplanarity_form(*quad)
    # a bool coordinate is refused too, although it is an int
    with pytest.raises(ValidationError,
                       match="^refusing True: exact values are ints or Fractions$"):
        SpatialProfile(dim=1, ideal_points=((True,), (F(0),)), box=((0, 1),))


def test_gen_spatial_reads_exact_box_bounds():
    with pytest.raises(ValidationError, match="float"):
        gen_spatial(3, 3, 1, box=((0.1, 1),) * 3)
    assert gen_spatial(3, 3, 1, box=(("1/10", 1),) * 3).box[0] == (F(1, 10), F(1))


def test_profile_box_is_parsed_and_checked():
    quad = (point(0, 0, 0), point(0, 1, 0), point(0, 0, 1), point(1, 1, 1))
    with pytest.raises(ValidationError, match="float"):
        SpatialProfile(dim=3, ideal_points=quad, box=((0.5, "x"),) * 3)
    with pytest.raises(ValidationError, match="degenerate box axis"):
        SpatialProfile(dim=3, ideal_points=quad, box=((1, 0),) * 3)
    profile = SpatialProfile(dim=3, ideal_points=quad, box=(("0", "1/2"),) * 3)
    assert profile.box == ((F(0), F(1, 2)),) * 3


def test_utility_is_half_the_squared_distance():
    profile = gen_spatial(4, 3, seed=5)
    rng = random.Random(5)
    for _ in range(10):
        x = tuple(F(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(4))
        for j, ideal in enumerate(profile.ideal_points):
            assert profile.utility(j, x) == -sum((a - b) ** 2 for a, b in zip(x, ideal)) / 2


def test_utility_on_a_fine_point_when_every_ideal_is_the_origin():
    # the ideals' integers are all 0 over scale 1, and the point's denominator
    # 2**70 is the factor that rescales them: it raised a raw OverflowError
    # where it met an int64 array
    profile = SpatialProfile(dim=1, ideal_points=((0,), (0,)), box=((0, 1),))
    assert profile.utility(0, (F(1, 2**70),)) == F(-1, 2**141)
    assert profile.scaled_rows([(F(1, 2**70),), (1,)])[0].tolist() == [[-1, -2**140]] * 2


def test_witness_certificates_read_scaled_rows_not_utility(monkeypatch):
    # `utility` is a view for callers; the exact rechecks read integer rows
    from agendalab.suites import run_suite

    def refuse(self, player, point):
        raise AssertionError("utility called")

    profile = gen_spatial(3, 5, seed=4)
    x = point("1/3", "1/4", "1/5")
    want = spatial_witness(profile, x)
    monkeypatch.setattr(SpatialProfile, "utility", refuse)
    assert spatial_witness(profile, x) == want
    record = run_suite("thm4_witness", samples=2)
    assert record.summary["failed"] == 0


def test_thm4_witness_suite_alternates_the_descriptor_dimension():
    from agendalab.suites import run_suite
    record = run_suite("thm4_witness", samples=2, d=4)
    assert [row["dim"] for row in record.rows] == [4, 5]
    assert record.summary["failed"] == 0
    with pytest.raises(ValidationError, match="at least 3 dimensions"):
        run_suite("thm4_witness", samples=1, d=2)


def test_witness_certificate_checked_without_assert(monkeypatch):
    # the final certificate must hold under `python -O` too, so it raises
    # rather than asserts; the first, unchecked step of each search is too long
    from agendalab import InternalInvariantError, spatial
    profile = gen_spatial(3, 5, seed=4)
    monkeypatch.setattr(spatial, "_halve_until", lambda start, ok, cap=128: start)
    with pytest.raises(InternalInvariantError, match="witness does not improve"):
        spatial_witness(profile, point("1/3", "1/4", "1/5"))
