from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from sweepdescent.errors import EmptySample, NonConvergence
from sweepdescent.functions import (LevelSet, LocalizedFunction, NormFunction,
                                    QuasiconvexFunction, get_function)
from sweepdescent import geometry
from sweepdescent.geometry import (BLOCK_ROWS, DilatedSet,
                                   IntersectionSet, TwoBallHullSet,
                                   _fibonacci_directions, _itp, _norms, _ray_block,
                                   _ray_boundary_points, _step_inside, ball_lens_project,
                                   hull_ray_exit, outward_normals, sample_boundary)
from sweepdescent.regularization import regularize
from sweepdescent.rng import split_rng, unit_directions

from conftest import dense_boundary_nearest

UNIT_DISK = NormFunction(2).sublevel(1.0)


def test_project_ball_exterior():
    assert np.allclose(UNIT_DISK.project([2.0, 0.0]), [1.0, 0.0])


def test_project_ball_interior_identity():
    assert np.allclose(UNIT_DISK.project([0.3, 0.1]), [0.3, 0.1])


def test_project_capsule_versus_dense_sample():
    # hull of the unit disk and its translate by (0.5, 0), probed from (2, 0),
    # and the gauge's level-1.5 hull, probed from (0, 3)
    for hull, x, want in [
            (TwoBallHullSet([0.0, 0.0], 1.0, [0.5, 0.0], 1.0), [2.0, 0.0], [1.5, 0.0]),
            (TwoBallHullSet([0.0, 0.0], 1.5, [0.0, 2.0], 0.5), [0.0, 3.0], [0.0, 2.5])]:
        sample = sample_boundary(hull, 0.002)
        brute = dense_boundary_nearest(sample.points, x)
        assert np.linalg.norm(brute - want) < 5e-3
        assert np.allclose(hull.project(x), want, atol=1e-12)


def test_projection_idempotent_and_membership():
    rng = split_rng(0, "idem")
    sets = [UNIT_DISK, TwoBallHullSet([0, 0], 1.5, [0, 2], 0.5),
            DilatedSet(UNIT_DISK, 0.3)]
    pts = rng.uniform(-3, 3, size=(200, 2))
    for oracle in sets:
        p1 = oracle.project(pts)
        p2 = oracle.project(p1)
        assert np.max(np.linalg.norm(p1 - p2, axis=1)) < 1e-9
        assert np.all(oracle.signed_boundary_distance(p1) <= 1e-7)
        d = np.maximum(oracle.signed_boundary_distance(pts), 0.0)
        assert np.max(np.abs(d - np.linalg.norm(pts - p1, axis=1))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_projection_nonexpansive_two_disk_hull(ax, ay, bx, by):
    hull = TwoBallHullSet([0.0, 0.0], 1.5, [0.0, 2.0], 0.5)
    pa = hull.project([ax, ay])
    pb = hull.project([bx, by])
    assert np.linalg.norm(pa - pb) <= np.hypot(ax - bx, ay - by) + 1e-8


def test_projection_nonexpansive_gallery_sublevels():
    from sweepdescent.functions import get_function
    rng = split_rng(21, "nonexp")
    for name in ("norm", "tube", "gauge"):
        oracle = get_function(name).sublevel(1.4)
        xs = rng.uniform(-3, 4, size=(100, 2))
        ys = rng.uniform(-3, 4, size=(100, 2))
        gap_in = np.linalg.norm(xs - ys, axis=1)
        gap_out = np.linalg.norm(oracle.project(xs) - oracle.project(ys), axis=1)
        assert np.all(gap_out <= gap_in + 1e-8)


def test_dilate_membership_and_projection():
    dil = DilatedSet(UNIT_DISK, 1.0)
    assert dil.signed_boundary_distance([0.0, 1.9]) <= 0.0
    assert dil.signed_boundary_distance([0.0, 2.1]) > 0.0
    half = DilatedSet(UNIT_DISK, 0.5)
    assert np.allclose(half.project([3.0, 0.0]), [1.5, 0.0])
    point_ball = DilatedSet(NormFunction(2).sublevel(0.0), 2.0)
    assert np.isclose(np.maximum(point_ball.signed_boundary_distance([3.0, 0.0]), 0.0), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(0.05, 1.5))
def test_dilation_distance_identity(x, y, eps):
    base = TwoBallHullSet([0.0, 0.0], 1.0, [1.0, 0.0], 0.4)
    dil = DilatedSet(base, eps)
    expected = max(max(float(base.signed_boundary_distance([x, y])), 0.0) - eps, 0.0)
    assert abs(max(float(dil.signed_boundary_distance([x, y])), 0.0) - expected) < 1e-8


def test_hausdorff_concentric_circles():
    # Directed distances as the moving-map checks measure them: boundary
    # samples of one set against the exact distance oracle of the other.
    inner, outer = NormFunction(2).sublevel(1.0), NormFunction(2).sublevel(2.0)
    a = sample_boundary(inner, 0.01)
    b = sample_boundary(outer, 0.01)
    assert abs(float(np.max(inner.distance(b.points))) - 1.0) < 1e-12
    assert abs(float(np.max(-outer.signed_boundary_distance(a.points))) - 1.0) < 1e-12


def test_hausdorff_tube_levels():
    # capsule hulls at levels 0 and 1 are one unit apart in Hausdorff distance
    lvl0 = NormFunction(2).sublevel(1.0)
    lvl1 = TwoBallHullSet([0, 0], 1.0, [1.0, 0.0], 1.0)
    far = float(np.max(lvl0.distance(sample_boundary(lvl1, 0.01).points)))
    assert abs(far - 1.0) < 1e-12


def test_outward_normal_examples():
    normals, ok = outward_normals(get_function("norm").sublevel(1.0),
                                  np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.all(ok)
    assert np.allclose(normals, [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)
    # the capsule hull of the unit disk and its translate by (1, 0)
    normals, ok = outward_normals(get_function("tube").sublevel(1.0), np.array([[2.0, 0.0]]))
    assert ok[0]
    assert np.allclose(normals[0], [1.0, 0.0], atol=1e-6)
    assert abs(np.linalg.norm(normals[0]) - 1.0) < 1e-9


def test_outward_normal_positive_alignment():
    rng = split_rng(1, "normals")
    # the hull of the disks of radius 1.5 at 0 and 0.5 at (0, 2)
    hull = get_function("gauge").sublevel(1.5)
    pts = rng.uniform(-3, 4, size=(50, 2))
    outside = pts[np.asarray(hull.distance(pts)) > 0.1]
    feet = hull.project(outside)
    normals, ok = outward_normals(hull, feet)
    assert np.all(ok)
    assert np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) < 1e-9
    assert np.all(np.einsum("ij,ij->i", normals, outside - feet) > 0)


def test_outward_normal_rejects_corner():
    # the lens B(0, 1) cut by B((1.2, 0), 1)
    lens = get_function("localized:norm:1.2,0:1").sublevel(1.0)
    # the two circles cross at x = 0.6, a genuine corner of the lens; the
    # second circle's arc is smooth at (0.2, 0)
    corner_y = np.sqrt(1.0 - 0.6**2)
    normals, ok = outward_normals(lens, np.array([[0.6, corner_y], [0.2, 0.0]]))
    assert ok.tolist() == [False, True]
    assert np.allclose(normals[1], [-1.0, 0.0], atol=1e-6)


def test_boundary_sample_spacing_and_accuracy():
    sample = sample_boundary(UNIT_DISK, 0.05, seed=3)
    radii = np.linalg.norm(sample.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-7
    gaps = cKDTree(sample.points).query(sample.points, k=2)[0][:, 1]
    assert np.min(gaps) > 0.05 / 2
    assert not sample.capped
    assert sample_boundary(UNIT_DISK, 0.05, seed=3, max_points=100).capped


def test_plane_samples_come_in_increasing_angle():
    # Counter-clockwise about the interior point, from angle 0: the secant
    # ratios of the prox-radius estimate pair neighbours in this order.
    lens = get_function("localized:tube:1.5,0:0.4").sublevel(0.5)
    capsule = TwoBallHullSet([0.0, 0.0], 1.0, [1.5, 0.0], 1.0)
    gauge = regularize(get_function("gauge"), 0.2).sublevel(1.0)
    for oracle in (UNIT_DISK, capsule, lens, gauge):
        rel = sample_boundary(oracle, 0.01).points - oracle.interior_point
        angles = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
        assert angles[0] == 0.0
        assert np.all(np.diff(angles) > 0.0)


def test_boundary_sample_dimension_3():
    ball = NormFunction(3).sublevel(1.0)
    sample = sample_boundary(ball, 0.2, seed=5)
    radii = np.linalg.norm(sample.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-7
    assert len(sample) > 50 and not sample.capped
    capped = sample_boundary(ball, 0.2, seed=5, max_points=100)
    assert capped.capped and len(capped) <= 100


def test_fibonacci_directions_are_unit_and_spread():
    dirs = _fibonacci_directions(1000)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    assert np.allclose(dirs[:, 2], 1.0 - (2.0 * np.arange(1000) + 1.0) / 1000)
    assert np.linalg.norm(np.mean(dirs, axis=0)) < 1e-3


@pytest.mark.parametrize("n", [0, 1, 128, BLOCK_ROWS, BLOCK_ROWS + 1, 19_099, 141_372])
def test_blocked_fibonacci_directions_equal_the_one_shot_lattice(n):
    # The one-shot lattice the blocks replaced; 141,372 rays is the top level
    # of the moving-map check of verify --function norm --dim 3.
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(1.0 - z * z)
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    want = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    got = _fibonacci_directions(n)
    assert got.shape == (n, 3) and got.tobytes() == want.tobytes()


def test_boundary_sample_dimension_3_ignores_the_seed():
    oracle = LocalizedFunction(get_function("norm", 3), [1.0, 0.0, 0.0], 0.4).sublevel(0.8)
    a = sample_boundary(oracle, 0.02, seed=0)
    b = sample_boundary(oracle, 0.02, seed=41)
    assert a.points.tobytes() == b.points.tobytes()


def test_boundary_sample_dimension_4_seeded_directions():
    # d >= 4 shoots ceil((4 r_max / resolution)^(d-1)) + 64 seeded rays:
    # 8^3 + 64 = 576 on the unit 4-ball at resolution 0.5.
    oracle = get_function("norm4", 4).sublevel(1.0)
    sample = sample_boundary(oracle, 0.5)
    assert len(sample) == 576 and not sample.capped
    assert np.max(np.abs(np.linalg.norm(sample.points, axis=1) - 1.0)) <= 1e-12
    capped = sample_boundary(oracle, 0.5, max_points=100)
    assert len(capped) == 100 and capped.capped
    a = sample_boundary(oracle, 0.5, seed=3)
    b = sample_boundary(oracle, 0.5, seed=4)
    assert a.points.tobytes() != b.points.tobytes()


def _round_and_lens_sets():
    norm3 = get_function("norm", 3)
    lens = LocalizedFunction(norm3, [1.0, 0.0, 0.0], 0.4)
    yield "norm3@0.5", norm3.sublevel(0.5), True
    yield "norm3@1.5", norm3.sublevel(1.5), True
    yield "norm3~0.25@0.5", regularize(norm3, 0.25).sublevel(0.5), True
    yield "lens@0.8", lens.sublevel(0.8), False
    yield "lens~0.2@0.8", regularize(lens, 0.2).sublevel(0.8), False


@pytest.mark.parametrize("name,oracle,round_set", list(_round_and_lens_sets()),
                         ids=[case[0] for case in _round_and_lens_sets()])
def test_boundary_sample_dimension_3_covering_radius(name, oracle, round_set):
    # The moving-map checks allow 2 * resolution for sampling. The covering
    # radius is the largest distance from 400k reference ray exits to the
    # sample; a lattice sized at one ray per 2 * resolution^2 of sphere area
    # covers a round set within about resolution.
    resolution = 0.01
    sample = sample_boundary(oracle, resolution)
    assert not sample.capped
    reference = _ray_boundary_points(oracle, _fibonacci_directions(400_000))
    covering = float(np.max(cKDTree(sample.points).query(reference)[0]))
    assert covering < 2.0 * resolution
    if round_set:
        assert covering <= 1.05 * resolution


def _plane_sets():
    gauge, tube = get_function("gauge"), get_function("tube")
    lens = get_function("localized:tube:1.5,0:0.4")
    yield "gauge@1", gauge.sublevel(1.0)
    yield "gauge@1.1", gauge.sublevel(1.1)
    yield "gauge@1.8", gauge.sublevel(1.8)
    yield "tube@1.5", tube.sublevel(1.5)
    yield "tube~0.25@1.7", regularize(tube, 0.25).sublevel(1.7)
    yield "lens@0.3", lens.sublevel(0.3)
    yield "lens~0.2@0.43", regularize(lens, 0.2).sublevel(0.43)


@pytest.mark.parametrize("name,oracle", list(_plane_sets()),
                         ids=[case[0] for case in _plane_sets()])
def test_boundary_sample_dimension_2_covering_radius(name, oracle):
    # One ray per resolution of arc length along the coarse polygon covers
    # round and non-round sets alike within resolution, half the 2 *
    # resolution the moving-map checks allow; measured worst 0.87 (lens@0.3).
    resolution = 0.01
    sample = sample_boundary(oracle, resolution)
    assert not sample.capped
    angles = np.linspace(0.0, 2 * np.pi, 400_001)[:-1]
    reference = _ray_boundary_points(oracle, np.stack([np.cos(angles), np.sin(angles)], axis=1))
    covering = float(np.max(cKDTree(sample.points).query(reference)[0]))
    assert covering <= resolution


def _bisection_ray_exits(oracle, dirs):
    """Reference: ray doubling, then 60 membership bisections per ray."""
    center = oracle.interior_point
    hi = np.ones(len(dirs))
    for _ in range(64):
        inside = oracle.signed_boundary_distance(center + hi[:, None] * dirs) <= 0.0
        if not np.any(inside):
            break
        hi[inside] *= 2.0
    lo = np.zeros(len(dirs))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = oracle.signed_boundary_distance(center + mid[:, None] * dirs) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return center + (0.5 * (lo + hi))[:, None] * dirs


RAY_ORACLES_3D = [
    NormFunction(3).sublevel(1.0),
    TwoBallHullSet([0.0, 0.0, 0.0], 1.0, [1.5, 0.5, 0.0], 0.4),
    DilatedSet(TwoBallHullSet([0.0, 0.0, 0.0], 0.7, [0.0, 1.0, 1.0], 0.7), 0.25),
]


@pytest.mark.parametrize("oracle", RAY_ORACLES_3D)
def test_ray_boundary_points_blocked_matches_unblocked(oracle):
    # The norm's LevelSet takes the closed form, the module sets the ITP search.
    dirs = unit_directions(split_rng(0, "ray-blocks"), 20_000, 3)
    assert len(dirs) > 2 * BLOCK_ROWS
    got = _ray_boundary_points(oracle, dirs)
    origin = oracle.interior_point
    if isinstance(oracle, LevelSet):
        want = oracle.f.level_ray_exits(oracle.alpha, origin, dirs)
    else:
        want = _ray_block(oracle.signed_boundary_distance, origin, dirs)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("oracle", RAY_ORACLES_3D + [
    get_function("gauge").sublevel(0.95),
    get_function("gauge").sublevel(1.05),
    get_function("localized:tube:1.5,0:0.4").sublevel(0.3),
], ids=["ball3", "hull3", "dilated-hull3", "gauge-0.95", "gauge-1.05",
        "localized-0.3"])
def test_ray_exits_match_bisection_reference(oracle):
    dirs = unit_directions(split_rng(1, "ray-exits"), 3000, oracle.dim)
    got = _ray_boundary_points(oracle, dirs)
    want = _bisection_ray_exits(oracle, dirs)
    t = np.linalg.norm(want - oracle.interior_point, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-14 * (1.0 + t))
    assert np.max(np.abs(oracle.signed_boundary_distance(got))) <= 1e-14


def _closed_form_sets():
    """(name, function, level) of every set whose ray exits are closed form:
    norm, tube and gauge hulls (the gauge across level 1), their
    eps-regularizations and plain localizations of tube and norm3, at levels
    whose sets are at least 0.2 across, where the ITP reference is exact to
    about 1e-15 relative."""
    tube, gauge = get_function("tube"), get_function("gauge")
    for dim in (2, 3, 4):
        for level in (0.2, 1.0, 2.5):
            yield f"norm{dim}@{level}", get_function("norm", dim), level
    for level in (0.2, 1.5, 3.5):
        yield f"tube@{level}", tube, level
    for level in (0.5, 0.95, 1.0, 1.05, 1.1, 1.7, 2.0):
        yield f"gauge@{level}", gauge, level
    for name, dim, level in (("tube", 2, 1.7), ("gauge", 2, 1.05), ("gauge", 2, 1.7),
                             ("norm", 3, 0.5)):
        yield f"{name}{dim}~0.25@{level}", regularize(get_function(name, dim), 0.25), level
    yield "localized-tube@0.43", get_function("localized:tube:1.5,0:0.4"), 0.43
    yield "localized-tube@0.6", get_function("localized:tube:1.5,0:0.4"), 0.6
    yield "localized-norm3@1.2", get_function("localized:norm:1,0,0:0.4", 3), 1.2


CLOSED_FORM_SETS = list(_closed_form_sets())


def _assert_matches_itp(f, level, origin, dirs):
    """The closed-form exits against the default ITP routine as a reference:
    within 1e-14 relative, and every exit a point of the set. The reference
    rays move 16 times slower, so that ITP's stop at 1e-15 of the doubled
    ray length (at least 1) is relative on sets down to 1/16 across."""
    got = f.level_ray_exits(level, origin, dirs)
    want = QuasiconvexFunction.level_ray_exits(f, level, origin, dirs / 16.0)
    t = np.linalg.norm(want - origin, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-14 * t)
    assert np.all(f.sublevel(level).signed_boundary_distance(got) <= 0.0)


@pytest.mark.parametrize("name,f,level", CLOSED_FORM_SETS,
                         ids=[case[0] for case in CLOSED_FORM_SETS])
def test_closed_form_ray_exits_match_the_itp_routine(name, f, level):
    oracle = f.sublevel(level)
    dirs = unit_directions(split_rng(2, "closed-form-exits"), 4000, f.dim)
    _assert_matches_itp(f, level, oracle.interior_point, dirs)
    # From other interior points too: the sample's own exits pulled halfway in.
    inner = 0.5 * (oracle.interior_point + _ray_boundary_points(oracle, dirs[:50]))
    for origin in inner[:10]:
        _assert_matches_itp(f, level, origin, dirs[:500])


def _fan(angle, widths=np.logspace(-12, -2, 11)):
    """Plane directions at angle and at angle +- each width."""
    phi = np.concatenate([[angle], angle + widths, angle - widths])
    return np.stack([np.cos(phi), np.sin(phi)], axis=1)


def test_closed_form_ray_exits_on_near_tangent_rays():
    # The gauge's hull at s = 1.7 is disk 1 (radius 1.7 about 0) and disk 2
    # (radius 0.7 about (0, 2.4)) along the y axis, with tangent normal (sin,
    # cos) in (axial, radial) coordinates. Rays fan out around the points
    # where the tangent segments meet the circles, around the rays from the
    # origin that graze circle 2, and around the axis; where they meet the
    # boundary two roots lie close. The tube's rays run along its axis,
    # parallel to the cylinder, and towards its tangent circles.
    gauge, tube = get_function("gauge"), get_function("tube")
    r1, axis_len, r2 = gauge.level_hull(1.7)
    sin = (r1 - r2) / axis_len
    cos = np.sqrt(1.0 - sin**2)
    # Plane angles, x > 0, and their mirror images in the y axis.
    right = [np.arctan2(r1 * sin, r1 * cos), np.arctan2(axis_len + r2 * sin, r2 * cos),
             np.pi / 2 - np.arcsin(r2 / axis_len), np.pi / 2]
    dirs = np.vstack([_fan(a) for b in right for a in (b, np.pi - b)] + [_fan(-np.pi / 2)])
    _assert_matches_itp(gauge, 1.7, np.zeros(2), dirs)
    _assert_matches_itp(gauge, 1.7, np.array([0.3, 1.1]), dirs)
    for level in (0.5, 2.0):
        along = np.vstack([_fan(a) for a in (0.0, np.pi, np.pi / 2, np.arctan2(1.0, level))])
        _assert_matches_itp(tube, level, np.zeros(2), along)
        _assert_matches_itp(tube, level, np.array([0.4, 0.5]), along)
        _assert_matches_itp(regularize(tube, 0.25), level, np.zeros(2), along)
    # Exactly along the axis the cylinder has no root; the caps give the exit.
    t = hull_ray_exit(np.zeros(2), np.array([[1.0, 0.0], [-1.0, 0.0]]), tube.hull_axis,
                      *tube.level_hull(2.0))
    assert t.tolist() == [3.0, 1.0]


def test_closed_form_sample_boundary_never_runs_itp(monkeypatch):
    # Every hull level set, hull regularization and plain localization takes
    # the closed form: with ITP disabled, sampling still succeeds.
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form ray exit fell back to ITP")

    monkeypatch.setattr(geometry, "_itp", refuse)
    for name, f, level in CLOSED_FORM_SETS:
        oracle = f.sublevel(level)
        sample = sample_boundary(oracle, 0.05 if f.dim == 2 else 0.2)
        assert np.all(oracle.signed_boundary_distance(sample.points) <= 0.0), name
    lens = regularize(get_function("localized:tube:1.5,0:0.4"), 0.2).sublevel(0.43)
    with pytest.raises(AssertionError, match="fell back to ITP"):
        sample_boundary(lens, 0.05)


def test_ray_exits_need_an_interior():
    with pytest.raises(EmptySample):
        sample_boundary(NormFunction(2).sublevel(0.0), 0.1)
    with pytest.raises(EmptySample):
        _ray_boundary_points(NormFunction(3).sublevel(0.0), np.eye(3))


@pytest.mark.parametrize("dim", range(1, 11))
def test_norms_equal_linalg_norm_bit_for_bit(dim):
    # Fewer than 64 rows, and eight columns or more (where numpy pairs the
    # terms), take numpy's own sum.
    rng = split_rng(0, "norms", dim)
    x = rng.normal(size=(400, dim)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(400, dim))
    x[:3] = [0.0], [-0.0], [np.inf]
    for rows in (x, x[:63], x[:64]):
        assert _norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
    for v in x[3:20]:
        assert _norms(v) == np.sqrt(np.add.reduce(v * v))
    assert _norms(x[:0]).shape == (0,)


def test_step_inside_keeps_members_and_steps_rows_outside_back():
    # Rays from the center of the unit ball: lengths 0.5 stay, lengths a few
    # ulps past 1 end inside, close to the sphere.
    signed = partial(NormFunction(3).level_signed_distance, 1.0)
    origin = np.zeros(3)
    dirs = unit_directions(split_rng(0, "step-inside"), 300, 3)
    ulps = np.repeat([0, 2, 5, 40], [150, 50, 50, 50])
    t = np.where(ulps == 0, 0.5, 1.0 + ulps * np.spacing(1.0))
    assert np.all(signed(origin + t[ulps > 0, None] * dirs[ulps > 0]) > 0)
    got = _step_inside(signed, origin, dirs, t)
    assert got[:150].tobytes() == (origin + t[:150, None] * dirs[:150]).tobytes()
    assert np.all(signed(got) <= 0.0)
    assert np.all(np.linalg.norm(got[150:], axis=1) >= 1.0 - 1e-13)
    with pytest.raises(NonConvergence):
        _step_inside(lambda p: np.ones(len(p)), origin, dirs[:3], np.ones(3))


_itp_row = st.tuples(
    st.floats(-10.0, 10.0), st.floats(1e-3, 1e3),  # bracket start and width
    st.floats(1e-3, 1.0),  # root position within the bracket
    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),  # slopes left and right of the root
    st.floats(1e-6, 10.0), st.floats(1e-6, 10.0),  # flat tails below and above
    st.sampled_from([0.0, 1e-9, 0.1]),  # width of a flat zero plateau
    st.sampled_from([1, 2, 3]),  # power of the rising side
    st.floats(1e-15, 1e-3))  # tolerance relative to the bracket's magnitude


@settings(max_examples=300, deadline=None)
@given(st.lists(_itp_row, min_size=1, max_size=12))
def test_itp_brackets_kinked_maps(rows_in):
    lo, w, u, s1, s2, floor, cap, flat, power, rtol = map(np.array, zip(*rows_in))
    hi = lo + w
    root = lo + u * w
    rise = np.minimum(root + flat * w, hi)

    def g(rows, t):
        left = np.maximum(s1[rows] * (t - root[rows]), -floor[rows])
        right = np.minimum(s2[rows] * np.maximum(t - rise[rows], 0.0) ** power[rows],
                           cap[rows])
        return np.where(t < root[rows], left, right)

    evals = np.zeros(len(lo), dtype=int)

    def counted(rows, t):
        np.add.at(evals, rows, 1)
        return g(rows, t)

    rows = np.arange(len(lo))
    tol = rtol * np.maximum(np.abs(lo), np.abs(hi))
    a, b = _itp(counted, lo, hi, g(rows, lo), g(rows, hi), tol)
    assert np.all(g(rows, a) < 0) and np.all(g(rows, b) >= 0)
    assert np.all(b - a <= 2.0 * tol)
    bisection_steps = np.ceil(np.log2(np.maximum(w / (2.0 * tol), 1.0)))
    assert np.all(evals <= bisection_steps + 1)


def test_intersection_projection_matches_brute_force():
    lens = IntersectionSet(TwoBallHullSet([0, 0], 1.8, [0, 0], 1.8), [2.0, 0.0], 0.5,
                           interior_point=[1.65, 0.0])
    assert np.allclose(lens.project([3.0, 0.0]), [1.8, 0.0], atol=1e-8)
    # a case where plain alternating projections land at the wrong point
    half = IntersectionSet(TwoBallHullSet([0, 0], 1.0, [0, 0], 1.0), [0.0, -100.0], 100.0,
                           interior_point=[0.0, -0.5])
    p = half.project([0.5, 2.0])
    brute_x = 0.5 * 100.0 / np.hypot(0.5, 102.0)
    assert np.linalg.norm(p - [brute_x, -(brute_x**2) / 200]) < 1e-3
    # A point of the first disk 5e-11 outside the second (angle 0.3 off the
    # axis towards the origin) is 5e-11 from the lens, not on it.
    lens = IntersectionSet(TwoBallHullSet([0.0, 0.0], 1.0, [0.0, 0.0], 1.0), [1.2, 0.0], 1.0,
                           interior_point=[0.6, 0.0])
    x = np.array([1.2, 0.0]) + (1.0 + 5e-11) * np.array([-np.cos(0.3), np.sin(0.3)])
    assert float(lens.signed_boundary_distance(x)) == pytest.approx(5e-11, abs=1e-15)
    assert lens.signed_boundary_distance(x) > 0.0


def _unit_lens_projection(s, x):
    """Closed-form projection onto the lens of the unit disks about (0, 0)
    and (s, 0), 0 < s <= 2."""
    b = np.array([s, 0.0])
    pa = x / max(np.linalg.norm(x), 1.0)
    pb = b + (x - b) / max(np.linalg.norm(x - b), 1.0)
    if np.linalg.norm(x) <= 1.0 and np.linalg.norm(x - b) <= 1.0:
        return x
    if np.linalg.norm(pa - b) <= 1.0:
        return pa
    if np.linalg.norm(pb) <= 1.0:
        return pb
    h = np.sqrt(max(1.0 - s * s / 4.0, 0.0))
    corners = np.array([[s / 2.0, h], [s / 2.0, -h]])
    return corners[np.argmin(np.linalg.norm(corners - x, axis=1))]


@settings(max_examples=150, deadline=None)
@given(st.floats(1.9, 2.0), st.floats(0.0, 2.0 * np.pi),
       st.lists(st.tuples(st.floats(-3.0, 5.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=8))
@example(1.9999, 0.0, [(1.0, 0.5), (1.0, -3.0), (3.5, 0.2), (1.0, 0.0)])
@example(1.9999, 1.0, [(1.0, 0.5), (1.0, -3.0), (1.87, -2.2e-6), (1.0, 0.0)])
@example(2.0, 0.0, [(1.0, 0.5), (1.0, -3.0), (1.87, -2.2e-6), (0.5, 0.0)])
@example(2.0, 1.0, [(1.0, 0.5), (1.0, -3.0), (1.87, -2.2e-6), (0.5, 0.0)])
def test_lens_projection_matches_closed_form(s, phi, points):
    # Thin lenses of unit disks whose centers are 1.9 to 2 apart, rotated by
    # phi so the lens falls anywhere between the kernel's ring samples. The
    # corners (s/2, +-h) have h = sqrt(1 - s^2/4); a feasibility test in
    # floats places them to about 1e-16 / h, which stays below 1e-9 while
    # h >= 1e-6 and reaches the 1.5e-8 square root of the float spacing at
    # the tangency s = 2, where the lens is one point.
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    lens = IntersectionSet(TwoBallHullSet([0.0, 0.0], 1.0, [0.0, 0.0], 1.0), rot @ [s, 0.0],
                           1.0, interior_point=[0.0, 0.0])
    x = np.array(points)
    want = np.array([_unit_lens_projection(s, p) for p in x]) @ rot.T
    got = lens.project(x @ rot.T)
    gate = 1e-9 if 1.0 - s * s / 4.0 >= 1e-12 else 5e-8
    assert np.max(np.linalg.norm(got - want, axis=1)) <= gate
    dist = np.linalg.norm(x @ rot.T - want, axis=1)
    assert np.max(np.abs(np.maximum(lens.signed_boundary_distance(x @ rot.T), 0.0) - dist)) \
        <= gate


@pytest.mark.parametrize("level", [0.3, 0.43])
def test_dilated_lens_boundary_samples_lie_on_the_set(level):
    # Checked with the projection distance, an oracle independent of the
    # signed distance the ray search runs on.
    oracle = regularize(get_function("localized:tube:1.5,0:0.4"), 0.2).sublevel(level)
    pts = sample_boundary(oracle, 0.01).points
    # One ray per resolution of arc length: consecutive exits in angular
    # order lie 0.96-1.04 resolution apart.
    rel = pts - oracle.interior_point
    ring = pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
    gaps = np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1)
    assert 0.5 * 0.01 <= np.min(gaps) and np.max(gaps) <= 1.1 * 0.01

    def projection_distance(q):
        return np.linalg.norm(q - oracle.project(q), axis=1)

    assert np.max(projection_distance(pts)) <= 1e-12
    out = pts - oracle.interior_point
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    assert np.all(projection_distance(pts + 1e-9 * out) > 0.0)


def _two_disk_hull_gap(pts, c1, r1, c2, r2):
    """min over t in [0, 1] of |x - c(t)| - r(t), where c(t) and r(t)
    interpolate the two balls. The hull of two balls is the union of the
    balls B(c(t), r(t)), and the map is convex in t, so a ternary search finds
    its minimum: negative inside the hull, the distance to it outside."""
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)

    def g(t):
        centers = (1.0 - t)[:, None] * c1 + t[:, None] * c2
        return np.linalg.norm(pts - centers, axis=1) - ((1.0 - t) * r1 + t * r2)

    lo, hi = np.zeros(len(pts)), np.ones(len(pts))
    for _ in range(100):
        t1, t2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        left = g(t1) <= g(t2)
        lo, hi = np.where(left, lo, t1), np.where(left, t2, hi)
    return np.minimum.reduce([g(lo), g(np.zeros(len(pts))), g(np.ones(len(pts)))])


def _assert_is_lens_projection(x, p, hull, center, radius):
    """p = P(x) onto hull(B(c1, r1), B(c2, r2)) cut by B(center, radius),
    checked without the lens kernel: p lies in both sets, and
    <x - p, y - p> <= 0 for a sample y of the three spheres' points in the
    lens, whose limits include every extreme point of the lens. The sample is
    uniform plus directions scattered around each p at angular scales from
    1e-8 to 1, so thin lenses are sampled too; every y is kept only where the
    membership tests above accept it."""
    c1, r1, c2, r2 = hull
    center = np.asarray(center, dtype=float)
    assert np.max(_two_disk_hull_gap(p, *hull)) <= 1e-12
    assert np.max(np.linalg.norm(p - center, axis=1) - radius) <= 1e-12
    rng = split_rng(0, "lens-sample", len(center))
    ys = []
    for c, r in ((c1, r1), (c2, r2), (center, radius)):
        u = p - np.asarray(c, dtype=float)
        dirs = [unit_directions(rng, 4000, len(center))]
        for scale in np.logspace(-8.0, 0.0, 9):
            d = u + scale * np.linalg.norm(u, axis=1, keepdims=True) * rng.normal(size=u.shape)
            dirs.append(d / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300))
        ys.append(np.asarray(c) + r * np.vstack(dirs))
    ys = np.vstack(ys)
    ys = ys[(_two_disk_hull_gap(ys, *hull) <= 0.0)
            & (np.linalg.norm(ys - center, axis=1) <= radius)]
    assert len(ys) > 100
    v = x - p
    for rows in np.array_split(np.arange(len(x)), 8):
        vi = np.max(v[rows] @ ys.T, axis=1) - np.einsum("ij,ij->i", v[rows], p[rows])
        assert np.max(vi) <= 1e-12


def _gallery_hull(name, dim, alpha):
    """The gallery's alpha-sublevel set as (c1, r1, c2, r2), written out."""
    zero = np.zeros(dim)
    if name == "tube":
        a = min(alpha, 3.0)
        return zero, 1.0, np.array([a, 0.0]), 1.0
    if name == "gauge":
        s = min(alpha, 2.0)
        return zero, s, np.array([0.0, max(2.0 * s - 1.0, 0.0)]), max(s - 1.0, 0.0)
    return zero, alpha, zero, alpha


def _rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


# (hull, ball center, ball radius) in the plane, with where the corners lie.
LENS_CASES = {
    # capsules: corners on the upper tangent segment, also off the origin
    # along a slanted axis
    "capsule-segment": (([0.0, 0.0], 1.0, [2.0, 0.0], 1.0), [1.0, 1.1], 0.4),
    "capsule-slanted": (([0.3, -0.2], 1.0, [1.5, 1.4], 1.0), [0.02, 1.26], 0.4),
    # gauge hulls: s = 0.6 (a ball, disk 2 nested), s = 1.5 with corners on
    # arc 2 and on the right tangent segment
    "gauge-0.6": (([0.0, 0.0], 0.6, [0.0, 0.2], 0.0), [0.5, 0.3], 0.3),
    "gauge-1.5-arc2": (([0.0, 0.0], 1.5, [0.0, 2.0], 0.5), [0.3, 2.4], 0.35),
    "gauge-1.5-segment": (([0.0, 0.0], 1.5, [0.0, 2.0], 0.5), [0.953, 1.55], 0.4),
    # a ball cut by a ball, and a lens of unit disks 1e-6 short of tangency
    "ball": (([0.0, 0.0], 1.0, [0.0, 0.0], 1.0), [1.2, 0.5], 0.6),
    "near-tangent": (([0.0, 0.0], 1.0, [0.0, 0.0], 1.0),
                     _rotation(0.7) @ [2.0 - 1e-6, 0.0], 1.0),
}


@pytest.mark.parametrize("case", sorted(LENS_CASES))
def test_intersection_projection_satisfies_the_projection_inequality(case):
    (c1, r1, c2, r2), center, radius = LENS_CASES[case]
    hull = TwoBallHullSet(c1, r1, c2, r2) if r2 > 0 else TwoBallHullSet(c1, r1, c1, r1)
    lens = IntersectionSet(hull, center, radius, interior_point=center)
    rng = split_rng(0, "lens-projection", case)
    x = np.asarray(center) + rng.uniform(-1.5, 1.5, size=(300, 2))
    _assert_is_lens_projection(x, lens.project(x), (c1, r1, c2, r2), center, radius)


@pytest.mark.parametrize("name,dim,fractions", [
    ("localized:tube:1.5,0:0.4", 2, (1e-6, 0.3, 0.7)),
    ("localized:gauge:0.3,2.3:0.35", 2, (1e-6, 0.4, 0.8)),
    ("localized:gauge:0.4,0.2:0.3", 2, (1e-6, 0.5)),
    ("localized:norm:2,0:0.5", 2, (1e-6, 0.5)),
    ("localized:norm:1,0.5,0:0.6", 3, (1e-6, 1e-3, 0.5)),
])
def test_localized_projection_satisfies_the_projection_inequality(name, dim, fractions):
    # Near-tangent levels (1e-6 of the level span above inf f) have thin
    # lenses; the gauge entries cut hulls with s > 1 (corners on arc 2) and
    # balls (s < 1).
    f = get_function(name, dim=dim)
    rng = split_rng(0, "localized-projection", name)
    for frac in fractions:
        level = f.inf_value + frac * (f.level_hi - f.inf_value)
        x = f.center + rng.uniform(-1.5, 1.5, size=(300, dim))
        hull = _gallery_hull(name.split(":")[1], dim, level)
        _assert_is_lens_projection(x, f.level_project(level, x), hull, f.center, f.delta)


def test_lens_kernel_batch_equals_one_row_calls():
    # One ball_lens_project call on per-row hulls about the origin along x,
    # cut by B((1.5, 0), 0.5): a disk of radius 1.5 (corners on its arc), a
    # capsule of radius 0.3 (corners on its tangent segments), a thin lens
    # (disk radius 1 + 2^-20) and a tangency (the unit disk, whose lens is
    # the one point (1, 0)). The batch must equal the one-row calls bit for
    # bit, and mix rows that stay with hull-projected, ball-projected and
    # corner rows.
    center, radius = np.array([1.5, 0.0]), 0.5
    hulls = [(1.5, 0.0, 1.5), (0.3, 1.5, 0.3), (1.0 + 2.0**-20, 0.0, 1.0 + 2.0**-20),
             (1.0, 0.0, 1.0)]
    rng = split_rng(0, "lens-batch")
    x = center + rng.uniform(-1.5, 1.5, size=(len(hulls) * 300, 2))
    params = np.repeat(np.array(hulls), 300, axis=0).T
    axis = np.array([1.0, 0.0])
    p = ball_lens_project(x, center, radius, axis, *params)
    one = np.vstack([ball_lens_project(x[i:i + 1], center, radius, axis, *params[:, i])
                     for i in range(len(x))])
    assert np.array_equal(p, one)
    on_ball = np.abs(np.linalg.norm(p - center, axis=1) - radius) <= 1e-12
    c2 = np.stack([params[1], np.zeros(len(x))], axis=1)
    on_hull = np.abs(_two_disk_hull_gap(p, np.zeros(2), params[0], c2, params[2])) <= 1e-12
    stay = np.all(p == x, axis=1)
    kinds = [stay, ~stay & on_hull & ~on_ball, ~stay & on_ball & ~on_hull,
             ~stay & on_ball & on_hull]
    assert all(np.sum(k[:600]) >= 10 for k in kinds)
    assert np.all(p[900:] == [1.0, 0.0])
    for k, (r1, axis_len, r2) in enumerate(hulls[:3]):
        rows = slice(300 * k, 300 * (k + 1))
        _assert_is_lens_projection(x[rows], p[rows], ([0.0, 0.0], r1, [axis_len, 0.0], r2),
                                   center, radius)
