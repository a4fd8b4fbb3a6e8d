import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepdescent import functions, geometry, regularization, sweeping, verification
from sweepdescent.errors import DomainError, EmptySample
from sweepdescent.functions import (GaugeFunction, LevelSet, LocalizedFunction,
                                    NormFunction, QuasiconvexFunction,
                                    SLOPE_RADII, TubeFunction, get_function,
                                    level_slopes, limiting_slope, slope_values)
from sweepdescent.geometry import (DilatedSet, IntersectionSet, TwoBallHullSet,
                                   ball_lens_project, sample_boundary)
from sweepdescent.regularization import RegularizedFunction, regularize
from sweepdescent.rng import split_rng, unit_directions
from sweepdescent.verification import _annulus_sample, aze_corvellec_check

from conftest import dense_boundary_nearest


def test_tube_eval_axis(tube):
    assert tube.eval([2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_tube_eval_ray(tube):
    x = np.cos(np.pi / 4) + 0.5
    y = np.sin(np.pi / 4)
    assert tube.eval([x, y]) == pytest.approx(0.5, abs=1e-12)


def test_tube_outside_domain(tube):
    assert tube.eval([4.2, 0.0]) == np.inf
    assert tube.eval([1.0, 1.5]) == np.inf


def _tube_offsets_reference(tube, alphas, pts):
    """The tube's offsets from the segment [0, min(alpha, level_hi)] x {0} as
    they were computed before the one-pass form: an anchor array, subtracted
    from the points, squares summed along the rows."""
    anchor = np.zeros(pts.shape)
    anchor[:, 0] = np.minimum(np.maximum(pts[:, 0], 0.0), np.minimum(alphas, tube.level_hi))
    delta = pts - anchor
    return np.sqrt(np.add.reduce(delta * delta, axis=1))


@pytest.mark.parametrize("r", [0.0, 0.25])
def test_tube_level_search_matches_its_earlier_expression_bit_for_bit(tube, r):
    # Edge rows: x = 0 and x = level_hi, y = +-0.0 and |y| = 1 + r, rows
    # outside the domain; the earlier search scattered into the rows in reach.
    xs = [-2.5, -1.0 - r, -0.3, -0.0, 0.0, 0.7, 1.5, 3.0, 3.6, 4.0 + r, 5.0]
    ys = [0.0, -0.0, 0.4, -0.9, 1.0 + r, -1.0 - r, 1.0 + r + 1e-15, 1.9]
    pts = np.array([[x, y] for x in xs for y in ys])
    reach = _tube_offsets_reference(tube, tube.level_hi, pts) - 1.0 <= r
    want = np.full(len(pts), np.inf)
    px, py = pts[reach, 0], pts[reach, 1]
    want[reach] = np.maximum(px - np.sqrt(np.maximum((1.0 + r)**2 - py**2, 0.0)), 0.0)
    got = tube.level_at_distance(pts, r)
    assert got.tobytes() == want.tobytes()
    assert np.any(np.isinf(got)) and np.any(got == 0.0) and np.any(got > 0.0)
    for k in (0, 4 * len(ys) + 1, 7 * len(ys) + 4, len(pts) - 1):
        one = tube.level_at_distance(pts[k], r)
        assert type(one) is float and one == want[k]
    alphas = np.linspace(-0.5, 3.5, len(pts))
    signed = tube.level_signed_distance(alphas, pts)
    assert signed.tobytes() == (_tube_offsets_reference(tube, alphas, pts) - 1.0).tobytes()


def test_gauge_eval_top(gauge):
    # top of the small disk sits at height 3s - 2, so f(0, 2) solves 3s-2 = 2
    assert gauge.eval([0.0, 2.0]) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_gauge_eval_inner_ball(gauge):
    assert gauge.eval([0.5, 0.0]) == pytest.approx(0.5, abs=1e-9)


def test_gauge_eval_matches_membership_bisection(gauge):
    rng = split_rng(7, "gauge-bisect")
    pts = rng.uniform([-2, -2], [2, 4], size=(100, 2))
    vals = np.asarray(gauge.eval(pts))
    finite = np.isfinite(vals)
    for x, v in zip(pts[finite], vals[finite]):
        assert gauge.sublevel(min(v + 1e-8, 2.0)).membership(x, tol=1e-9)
        if v > 1e-8:
            assert not gauge.sublevel(v - 1e-8).membership(x)


def test_slope_norm(norm):
    assert slope_values(norm, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-3)


def test_slope_constant_zero(norm):
    class Flat:
        dim = 2

        def eval(self, x):
            x = np.asarray(x, dtype=float)
            return 0.0 if x.ndim == 1 else np.zeros(len(x))

    assert slope_values(Flat(), [0.3, 0.4]) == 0.0


def test_slope_tube(tube):
    assert slope_values(tube, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-2)


def test_slope_outside_domain_flagged(tube):
    assert slope_values(tube, [5.0, 0.0]) == np.inf


def test_limiting_slope_examples(norm, tube):
    assert limiting_slope(norm, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-2)
    assert limiting_slope(norm, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-2)
    assert limiting_slope(tube, [1.5, 0.0]) >= 1.0 - 1e-2


def test_slope_dominates_limiting_slope(gallery):
    rng = split_rng(5, "slope-vs-lim")
    for f in gallery.values():
        pts = rng.uniform([-0.8, -0.8], [1.8, 0.8], size=(12, 2))
        vals = np.asarray(f.eval(pts))
        for x in pts[np.isfinite(vals)]:
            assert slope_values(f, x) >= limiting_slope(f, x) - 2e-2


def test_is_critical(norm, tube):
    # The probe's criticality rule: a limiting slope of at most 1e-2.
    assert limiting_slope(norm, [0.0, 0.0]) <= 1e-2
    assert not limiting_slope(norm, [1.0, 0.0]) <= 1e-2
    assert limiting_slope(tube, [0.2, 0.1]) <= 1e-2


def test_localize_eval_and_min(norm):
    h = LocalizedFunction(norm, [2.0, 0.0], 0.5)
    assert h.eval([2.4, 0.0]) == pytest.approx(2.4)
    assert h.eval([2.6, 0.0]) == np.inf
    assert h.inf_value == pytest.approx(1.5, abs=1e-9)


def test_localize_sublevel_projection(norm):
    h = LocalizedFunction(norm, [2.0, 0.0], 0.5)
    proj = h.sublevel(1.8).project([3.0, 0.0])
    sample = sample_boundary(h.sublevel(1.8), 0.002)
    brute = dense_boundary_nearest(sample.points, [3.0, 0.0])
    assert np.linalg.norm(proj - brute) < 5e-3
    assert np.allclose(proj, [1.8, 0.0], atol=1e-8)


def test_localize_requires_ball_inside_domain(tube, gauge):
    with pytest.raises(DomainError):
        LocalizedFunction(tube, [3.5, 0.0], 1.0)
    # The gauge's domain S(2) meets the x-axis at |x| = 2.
    with pytest.raises(DomainError):
        LocalizedFunction(gauge, [1.9, 0.0], 0.2)


@pytest.mark.parametrize("eps", [None, 0.25])
@pytest.mark.parametrize("name,dim", [("norm", 2), ("norm", 3), ("tube", 2), ("gauge", 2),
                                      ("localized:tube:1.5,0:0.4", 2),
                                      ("localized:gauge:0,0.5:0.5", 2)])
def test_domain_is_the_top_sublevel_set(name, dim, eps):
    # f is finite exactly on [f <= level_hi], away from that set's boundary.
    f = get_function(name, dim=dim)
    if eps is not None:
        f = regularize(f, eps)
    lo, hi = f.level_bbox(min(f.level_hi, 2.0))
    pts = split_rng(0, "domain", name, dim).uniform(lo - 1.0, hi + 1.0, size=(2000, dim))
    depth = f.level_signed_distance(f.level_hi, pts)
    keep = np.abs(depth) > 1e-9
    assert np.sum(keep) > 1900
    finite = np.isfinite(f.eval(pts[keep]))
    assert np.array_equal(finite, depth[keep] <= 0)
    assert np.any(finite) and (name.startswith("norm") or not np.all(finite))


def test_localized_name_roundtrip(norm):
    h = get_function("localized:norm:2,0:0.5")
    assert h.eval([2.2, 0.0]) == pytest.approx(2.2)
    # In d >= 3 the base names itself with its dimension (norm3).
    h3 = get_function("localized:norm:1,0,0:0.4", dim=3)
    again = get_function(h3.name, dim=3)
    assert again.name == h3.name == "localized:norm3:1,0,0:0.4"
    assert again.eval([1.2, 0.1, 0.0]) == h3.eval([1.2, 0.1, 0.0])
    with pytest.raises(ValueError):
        get_function("localized:norm:oops")
    with pytest.raises(ValueError):
        get_function("nosuch")


def test_localized_bottom_level_set_is_one_point(tube):
    # At inf_value the ball touches the base's level-0.1 capsule in the one
    # point (1.1, 0). The set's projection and distance work (to the 1e-8
    # that a tangency allows); it has no interior, so sampling its boundary
    # raises EmptySample. Its dilation is the eps-disk around that point,
    # whose center serves as the dilation's interior point.
    h = LocalizedFunction(tube, [1.5, 0.0], 0.4)
    oracle = h.sublevel(h.inf_value)
    pts = np.array([[3.0, 0.0], [1.1, 2.0], [0.0, 0.0], [1.5, 0.3]])
    assert np.max(np.abs(oracle.project(pts) - [1.1, 0.0])) <= 1e-7
    want = np.linalg.norm(pts - [1.1, 0.0], axis=1)
    assert np.max(np.abs(oracle.distance(pts) - want)) <= 1e-7
    with pytest.raises(EmptySample):
        sample_boundary(oracle, 0.01)
    dilated = regularize(h, 0.2).sublevel(h.inf_value)
    assert np.max(np.abs(dilated.interior_point - [1.1, 0.0])) <= 1e-7
    circle = sample_boundary(dilated, 0.01).points
    assert np.max(np.abs(np.linalg.norm(circle - [1.1, 0.0], axis=1) - 0.2)) <= 1e-7
    with pytest.raises(ValueError):
        h.sublevel(np.nextafter(h.inf_value, 0.0))


@pytest.mark.parametrize("name", ["localized:tube:1.5,0:0.4", "localized:tube:1.5,0:0.2",
                                  "localized:gauge:0.3,2.3:0.35",
                                  "localized:gauge:0.4,0.2:0.3"])
def test_localized_top_level_is_the_maximum_over_the_ball(name):
    # A quasiconvex function takes its maximum over a ball on the border.
    f = get_function(name)
    t = np.linspace(0.0, 2 * np.pi, 200_000, endpoint=False)
    border = f.center + f.delta * np.stack([np.cos(t), np.sin(t)], axis=1)
    gap = f.level_hi - float(np.max(f.base.eval(border)))
    assert 0.0 <= gap <= 1e-9


def test_localized_norm3_top_level_keeps_the_whole_ball():
    # A top level below the true maximum 1.4 cuts the domain short: the
    # regularized value 2e-4 inside the eps-dilated ball would read +inf.
    f = get_function("localized:norm3:1,0,0:0.4", dim=3)
    assert f.level_hi == np.linalg.norm(f.center) + f.delta
    value = regularize(f, 0.2).eval([[1.5998, 0.0, 0.0]])
    assert abs(value[0] - 1.3998) <= 1e-12


def test_localized_norm3_projection_is_feasible_near_the_bottom_level():
    # The 3-d lens of two balls, projected in each point's (axial, radial)
    # half-plane, at the bottom level (one point) and just above it.
    h = get_function("localized:norm:1,0.5,0:0.6", dim=3)
    x = h.center + split_rng(0, "norm3-bottom").uniform(-1.5, 1.5, size=(500, 3))
    for frac in (0.0, 1e-6, 1e-3):
        level = h.inf_value + frac * (h.level_hi - h.inf_value)
        p = h.level_project(level, x)
        assert np.max(h.base.level_signed_distance(level, p)) <= 1e-12
        assert np.max(np.linalg.norm(p - h.center, axis=1) - h.delta) <= 1e-12


def test_lens_constructors_reject_other_sets():
    # A localization cuts its base's two-ball hull with its ball, and an
    # intersection is a plane two-ball hull cut by a plane ball.
    with pytest.raises(ValueError):
        LocalizedFunction(regularize(get_function("tube"), 0.2), [1.5, 0.0], 0.4)
    with pytest.raises(ValueError):
        IntersectionSet(DilatedSet(NormFunction(2).sublevel(1.0), 0.1), [1.0, 0.0], 0.5,
                        [0.9, 0.0])
    with pytest.raises(ValueError):
        IntersectionSet(TwoBallHullSet([0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 0.0], 1.0),
                        [1.0, 0.0, 0.0], 0.5, [0.9, 0.0, 0.0])
    with pytest.raises(ValueError):
        IntersectionSet(TwoBallHullSet([0.0, 0.0], 1.0, [0.0, 0.0], 1.0), [1.0, 0.0], -0.5,
                        [0.9, 0.0])


def test_one_sublevel_constructor_and_one_membership_rule():
    # Every sublevel set is a view on its function's level oracles, and
    # membership and distance derive from the signed distance once, on LevelSet.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    gallery = list(subclasses(QuasiconvexFunction))
    assert {NormFunction, TubeFunction, GaugeFunction, LocalizedFunction,
            RegularizedFunction} <= set(gallery)
    assert not [c for c in gallery if "sublevel" in c.__dict__]
    classes = [c for m in (functions, geometry, regularization, sweeping, verification)
               for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    assert {LevelSet, TwoBallHullSet, DilatedSet, IntersectionSet} <= set(classes)
    assert [c for c in classes if {"membership", "distance"} & set(c.__dict__)] == [LevelSet]
    assert {"membership", "distance"} <= set(LevelSet.__dict__)


def test_aze_corvellec_examples(norm, tube):
    check = aze_corvellec_check(norm, ([0.5, -2.0], [2.5, 2.0]), 1.0, 1.0)
    assert check.passed and check.witness is None
    # The norm's domain is the whole plane: every seeded point counts.
    assert check.details["n_points"] == 200
    # The box reaches past the tube's domain (x <= 4): only the points inside count.
    assert 0 < aze_corvellec_check(tube, ([2.0, -1.0], [5.0, 1.0]), 0.5, 1.0).details[
        "n_points"] < 200
    # distance at (2, 0) to the unit ball equals the value gap exactly
    assert float(norm.sublevel(1.0).distance([2.0, 0.0])) == pytest.approx(1.0)
    assert aze_corvellec_check(tube, ([1.0, -0.6], [2.8, 0.6]), 0.5, 1.0).passed
    assert float(tube.sublevel(0.5).distance([2.0, 0.0])) == pytest.approx(0.5)


def test_aze_needs_positive_floor(norm):
    with pytest.raises(ValueError):
        aze_corvellec_check(norm, ([0, 0], [1, 1]), 0.5, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.5, 3.5), st.floats(-1.5, 1.5),
       st.floats(-1.5, 3.5), st.floats(-1.5, 1.5), st.floats(0, 1))
def test_quasiconvexity_tube(ax, ay, bx, by, t):
    tube = get_function("tube")
    a, b = np.array([ax, ay]), np.array([bx, by])
    mid = t * a + (1 - t) * b
    fa, fb, fm = (float(tube.eval(p)) for p in (a, b, mid))
    assert fm <= max(fa, fb) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 4), st.floats(-2, 2), st.floats(-2, 4),
       st.floats(0, 1))
def test_quasiconvexity_gauge(ax, ay, bx, by, t):
    gauge = get_function("gauge")
    a, b = np.array([ax, ay]), np.array([bx, by])
    mid = t * a + (1 - t) * b
    fa, fb, fm = (float(gauge.eval(p)) for p in (a, b, mid))
    assert fm <= max(fa, fb) + 1e-9


def test_sublevel_nesting(gallery):
    rng = split_rng(11, "nesting")
    pts = rng.uniform([-2.5, -2.5], [4.0, 4.0], size=(400, 2))
    for f in gallery.values():
        for lo, hi in [(0.3, 0.8), (0.8, 1.4), (1.4, 1.9)]:
            in_lo = np.asarray(f.sublevel(lo).membership(pts, tol=0.0))
            in_hi = np.asarray(f.sublevel(hi).membership(pts, tol=1e-12))
            assert np.all(in_hi[in_lo])


def test_membership_matches_eval_1000(gallery):
    rng = split_rng(13, "member-eval")
    pts = rng.uniform([-2.5, -2.5], [4.0, 4.0], size=(1000, 2))
    for f in gallery.values():
        vals = np.asarray(f.eval(pts))
        for alpha in (0.5, 1.0, 1.6):
            member = np.asarray(f.sublevel(alpha).membership(pts, tol=1e-9))
            assert np.all(member == (vals <= alpha + 1e-9))


def test_quasiconvexity_1000_triples(gallery):
    rng = split_rng(14, "qc-triples")
    for f in gallery.values():
        a = rng.uniform([-2.0, -2.0], [4.0, 4.0], size=(1000, 2))
        b = rng.uniform([-2.0, -2.0], [4.0, 4.0], size=(1000, 2))
        t = rng.uniform(size=(1000, 1))
        mid = t * a + (1 - t) * b
        fa, fb = np.asarray(f.eval(a)), np.asarray(f.eval(b))
        fm = np.asarray(f.eval(mid))
        cap = np.maximum(fa, fb)
        finite = np.isfinite(cap)
        assert np.all(fm[finite] <= cap[finite] + 1e-9)


def test_boundary_points_carry_level_value(gallery):
    # off the domain boundary, sublevel boundary points sit on the level set;
    # on the domain boundary the value may drop (cutting effect)
    for f in gallery.values():
        for alpha in (0.6, 1.2):
            oracle = f.sublevel(alpha)
            sample = sample_boundary(oracle, 0.01, seed=2)
            pts = sample.points[:1000]
            # ray bisection places samples within 1e-7 of the boundary, which
            # can be float-outside the domain; nudge toward the interior
            inward = oracle.interior_point - pts
            inward /= np.linalg.norm(inward, axis=1, keepdims=True)
            pts = pts + 1e-9 * inward
            vals = np.asarray(f.eval(pts))
            on_dom_boundary = np.abs(f.level_signed_distance(f.level_hi, pts)) <= 1e-6
            interior = ~on_dom_boundary
            assert np.all(np.abs(vals[interior] - alpha) <= 1e-6)
            assert np.all(vals[on_dom_boundary] <= alpha + 1e-6)


def test_gauge_min_curvature_matches_radius(gauge):
    # minimal internal curvature radius of the level boundary: s - 1 above
    # the transition level, s below it
    from sweepdescent.regularization import prox_radius_estimate
    for s, expect in [(1.25, 0.25), (1.5, 0.5), (2.0, 1.0),
                      (0.5, 0.5), (0.75, 0.75)]:
        est = prox_radius_estimate(gauge, s, seed=1)
        assert est.r_hat == pytest.approx(expect, rel=0.1)


def test_norm_dim5_slope():
    norm5 = get_function("norm", dim=5)
    x = np.zeros(5)
    x[0] = 2.0
    assert slope_values(norm5, x) == pytest.approx(1.0, abs=5e-3)


def test_norm_dim1_slope():
    # The 1-d sweep holds both directions, so no compass round runs.
    norm1 = get_function("norm", dim=1)
    assert slope_values(norm1, [[2.0], [-0.5]]) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_slope_values_batch_matches_single(tube):
    pts = np.array([[2.0, 0.0], [1.5, 0.3], [2.5, -0.2]])
    batch = slope_values(tube, pts, seed=3)
    singles = [slope_values(tube, p, seed=3) for p in pts]
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("name,dim", [("norm", 2), ("norm", 3), ("tube", 2),
                                      ("gauge", 2),
                                      ("localized:tube:1.5,0:0.4", 2)])
def test_level_slopes_dual_route(name, dim, regularized):
    # The level-search slope against the probe sweep of slope_values on 400
    # seeded annulus points. The closed h-ball contains the probe sphere, so
    # the level search is never below the sweep; the sweep's misses bound
    # the gap from above. On the cheap 2-d cases every sweep seed 0-7 runs
    # too, since the seed sets the offset of the swept angles.
    f = get_function(name, dim=dim)
    if regularized:
        f = regularize(f, 0.2 if name.startswith("localized") else 0.25)
    pts = _annulus_sample(f, f.default_window, 400, 0, "dual-route")
    s_level = level_slopes(f, pts)
    cheap = name == "tube" or (name == "gauge" and not regularized)
    for seed in range(8) if cheap else [0]:
        rows = slice(100) if seed else slice(None)
        s_probe = slope_values(f, pts[rows], seed=seed)
        assert np.all(s_level[rows] >= s_probe - 1e-9)
        assert np.max((s_level[rows] - s_probe) / s_level[rows]) <= 1e-6
    h = np.array(SLOPE_RADII)[:, None]
    if name == "norm":
        # s_h = 1 wherever the h-ball stays off the argmin (the eps-ball of
        # the regularization).
        reach = np.linalg.norm(pts, axis=1) - (f.eps if regularized else 0.0)
        assert np.all(reach > h.max())
        assert s_level == pytest.approx(np.ones(len(pts)), abs=1e-9)
    if name == "tube" and not regularized:
        # Off the argmin the h-ball's lowest level is x - sqrt((1+h)^2 - y^2),
        # so s_h = (sqrt((1+h)^2 - y^2) - sqrt(1 - y^2)) / h.
        x, y = pts[:, 0], pts[:, 1]
        rows = np.all(x > np.sqrt((1.0 + h)**2 - y**2), axis=0)
        assert np.sum(rows) > 300
        want = np.max((np.sqrt((1.0 + h)**2 - y**2) - np.sqrt(1.0 - y**2)) / h, axis=0)
        assert s_level[rows] == pytest.approx(want[rows], rel=1e-9)


def _reference_sublevel(f, alpha):
    """The alpha-sublevel set of a gallery entry, built from the standalone
    sets of geometry rather than from f's level oracles."""
    if isinstance(f, RegularizedFunction):
        return DilatedSet(_reference_sublevel(f.base, alpha), f.eps)
    if isinstance(f, LocalizedFunction):
        # Projection and signed distance never read the interior point.
        return IntersectionSet(_reference_sublevel(f.base, min(alpha, f.level_hi)),
                               f.center, f.delta, interior_point=f.center)
    a = min(alpha, f.level_hi)
    if isinstance(f, NormFunction):
        return TwoBallHullSet(np.zeros(f.dim), a, np.zeros(f.dim), a)
    if isinstance(f, TubeFunction):
        return TwoBallHullSet([0.0, 0.0], 1.0, [a, 0.0], 1.0)
    assert isinstance(f, GaugeFunction)
    return TwoBallHullSet([0.0, 0.0], a, [0.0, max(2.0 * a - 1.0, 0.0)], max(a - 1.0, 0.0))


@pytest.mark.parametrize("eps", [None, 0.25])
@pytest.mark.parametrize("name,dim", [("norm", 2), ("norm", 3), ("tube", 2),
                                      ("gauge", 2),
                                      ("localized:tube:1.5,0:0.4", 2)])
def test_level_signed_distance_matches_sublevel_oracle(name, dim, eps):
    # Every batched oracle (signed distance, projection, distance) and the
    # sublevel view against an independent per-row reference set.
    f = get_function(name, dim=dim)
    if eps is not None:
        f = regularize(f, eps)
    top = f.level_hi if np.isfinite(f.level_hi) else 2.0
    span = top - f.inf_value
    # The bottom level (for the localization one point), three inside the
    # window (for the gauge s = 0.6, 1 and 1.5: a ball, the transition and a
    # proper hull) and one above the saturation level, where each class
    # clamps.
    levels = (f.inf_value,) + tuple(f.inf_value + c * span for c in (0.3, 0.5, 0.75)) \
        + (top + 0.5,)
    rng = split_rng(0, "level-signed", name, dim)
    lo, hi = f.level_bbox(top)
    alphas = np.repeat(levels, 30)
    pts = rng.uniform(lo - 0.5, hi + 0.5, size=(len(alphas), dim))
    derived = {"distance": lambda ref, p: np.maximum(ref.signed_boundary_distance(p), 0.0),
               "membership": lambda ref, p: ref.signed_boundary_distance(p) <= 0.0}
    for oracle, batched in (("signed_boundary_distance", f.level_signed_distance),
                            ("project", f.level_project),
                            ("distance", f.level_distance),
                            ("membership", None)):
        read = derived.get(oracle, lambda ref, p: getattr(ref, oracle)(p))
        want = np.array([read(_reference_sublevel(f, a), p)
                         for a, p in zip(alphas, pts)], dtype=float)
        if batched is not None:
            assert np.max(np.abs(batched(alphas, pts) - want)) <= 1e-12, oracle
        got = np.array([getattr(f.sublevel(a), oracle)(p)
                        for a, p in zip(alphas, pts)], dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-12, oracle


@pytest.mark.parametrize("eps", [None, 0.2])
@pytest.mark.parametrize("name,dim", [("norm", 2), ("norm", 3), ("tube", 2),
                                      ("gauge", 2),
                                      ("localized:tube:1.5,0:0.4", 2)])
def test_scalar_level_projects_bit_equal_to_per_row_levels(name, dim, eps):
    # A catching-up step passes its scalar level to level_project as is; it
    # must give the bits of the same level repeated per row, signed zeros
    # included, and a fresh array, since the step may write into it.
    f = get_function(name, dim=dim)
    if eps is not None:
        f = regularize(f, eps)
    top = f.level_hi if np.isfinite(f.level_hi) else 2.0
    lo, hi = f.level_bbox(top)
    pts = split_rng(0, "scalar-level", name, dim).uniform(lo - 0.5, hi + 0.5, size=(200, dim))
    pts[:4] = 0.0
    pts[:4, 0] = -0.0
    pts[:4, -1] = [-0.0, 0.5, -3.0, 2.0]
    pts[4:8, 1:] = -0.0
    for level in (f.inf_value, f.inf_value + 0.4 * (top - f.inf_value), top, top + 0.5):
        got = f.level_project(level, pts)
        want = f.level_project(np.full(len(pts), level), pts)
        assert got.shape == want.shape == pts.shape
        assert got.tobytes() == want.tobytes(), level
        assert not np.shares_memory(got, pts) and not np.shares_memory(want, pts)


@pytest.mark.parametrize("eps", [None, 0.2])
def test_localized_signed_distance_outside_is_the_distance(eps):
    # Seeded points outside the ball, concentrated around the two lens
    # corners, where the larger of the two signed distances falls short of
    # the distance to the intersection.
    h = get_function("localized:tube:1.5,0:0.4")
    f = h if eps is None else regularize(h, eps)
    level = 0.3
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ring = h.center + h.delta * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sd = h.base.level_signed_distance(level, ring)
    corners = theta[np.flatnonzero(np.sign(sd) != np.sign(np.roll(sd, -1)))]
    assert len(corners) == 2
    rng = split_rng(0, "lens-corners", eps)
    t = np.repeat(corners, 500) + rng.normal(0.0, 0.3, size=1000)
    r = h.delta + rng.uniform(0.0, 0.5, size=1000)
    pts = h.center + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
    got = f.level_signed_distance(np.full(len(pts), level), pts)
    want = np.linalg.norm(pts - f.level_project(level, pts), axis=1)
    outside = want > 0
    assert np.sum(outside) > 500
    assert np.max(np.abs(got[outside] - want[outside])) <= 1e-10
    assert np.all(got[~outside] <= 0.0)
    # A point of the base sublevel 5e-11 outside the ball (angle 0.3 off the
    # axis towards the origin): the lens accepts it as its own projection,
    # yet its distance to the set is the 5e-11 to the ball.
    x = h.center + (h.delta + 5e-11) * np.array([-np.cos(0.3), np.sin(0.3)])
    gap = float(h.level_signed_distance(level, x[None, :])[0])
    assert gap == pytest.approx(5e-11, abs=1e-15)
    assert not h.sublevel(level).membership(x)


LENSES = [("localized:tube:1.5,0:0.4", 2, None), ("localized:gauge:0,1.2:0.5", 2, None),
          ("localized:norm:1,0,0:0.4", 3, None),
          # a lens 0.01 wide, and a ball internally tangent at (1, 0) to the
          # unit circle, the base's level-1 boundary (the top level)
          ("localized:norm:1.99,0:1", 2, 1.0), ("localized:norm:0.5,0:0.5", 2, 1.0)]


@pytest.mark.parametrize("name,dim,level,eps", [
    (name, dim, level, eps) for name, dim, level in [
        ("norm", 2, 1.0), ("norm", 3, 1.0), ("tube", 2, 1.2), ("gauge", 2, 0.7),
        ("gauge", 2, 1.5)] for eps in (None, 0.2)] + [(*lens, None) for lens in LENSES])
def test_level_normals_are_the_signed_distance_gradient(name, dim, level, eps):
    # Brute force on seeded points of the set's box and around its boundary:
    # outside, the normal is the unit vector from the projection; inside, a
    # step of the signed distance s along it, x - s * n, lands on the
    # boundary.
    f = get_function(name, dim=dim)
    f = f if eps is None else regularize(f, eps)
    if level is None:
        level = 0.5 * (f.inf_value + f.level_hi)
    lo, hi = f.level_bbox(level)
    rng = split_rng(0, "level-normals", name, dim, eps)
    near = sample_boundary(f.sublevel(level), 0.002 if dim == 2 else 0.02).points
    near = near[::len(near) // 2000 + 1]
    pts = np.vstack([rng.uniform(lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo), size=(2000, dim)),
                     near + rng.normal(0.0, 0.001, size=near.shape)])
    normals, corner = f.level_normals(level, pts)
    s = f.level_signed_distance(level, pts)
    assert not np.any(corner)
    assert np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) <= 1e-15
    out, inside = s > 1e-3, s < 0.0
    assert np.sum(out) > 100 and np.sum(inside) > 100
    delta = pts[out] - f.level_project(level, pts[out])
    want = delta / np.linalg.norm(delta, axis=1)[:, None]
    assert np.max(np.abs(normals[out] - want)) <= 1e-12
    landed = pts[inside] - s[inside, None] * normals[inside]
    assert np.max(np.abs(f.level_signed_distance(level, landed))) <= 1e-15


def test_level_normals_flag_the_lens_corners_only():
    # The lens B(0, 1) cut by B((1.2, 0), 1) has corners (0.6, +-0.8).
    f = get_function("localized:norm:1.2,0:1")
    corner_y = np.sqrt(1.0 - 0.6**2)
    normals, corner = f.level_normals(1.0, np.array([[0.6, corner_y], [0.6, -corner_y],
                                                      [0.2, 0.0], [1.0, 0.0]]))
    assert corner.tolist() == [True, True, False, False]
    assert np.allclose(normals[2:], [[-1.0, 0.0], [1.0, 0.0]], rtol=0.0, atol=1e-15)
    # Boundary samples away from the corners are smooth points.
    pts = sample_boundary(f.sublevel(1.0), 0.01).points
    gap = np.min([np.linalg.norm(pts - [0.6, y], axis=1) for y in (corner_y, -corner_y)], axis=0)
    assert not np.any(f.level_normals(1.0, pts)[1][gap > 1e-9])


def test_level_at_distance_terminates_at_large_levels():
    # Near level 40 neighbouring floats are 7.1e-15 apart, wider than an
    # absolute 2e-15 ITP tolerance; the search must still stop, on the
    # localized base and on the nested route of semigroup-identity.
    h = regularize(get_function("localized:norm:40,0:0.5"), 0.1)
    vals = h.eval(np.array([[40.2, 0.0], [40.55, 0.0], [40.7, 0.0]]))
    assert vals[:2] == pytest.approx([40.1, 40.45], abs=1e-12)
    assert vals[2] == np.inf
    g = regularize(get_function("norm"), 0.25)
    x = np.array([[40.7, 0.1], [40.0, 0.0], [1e3, 3.0]])
    nested = QuasiconvexFunction.level_at_distance(g, x, 0.25)
    assert nested == pytest.approx(np.linalg.norm(x, axis=1) - 0.5, abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 1e-5, 1e-4, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 1.5])
@pytest.mark.parametrize("name,dim", [
    ("norm", 2), ("norm", 3), ("tube", 2), ("localized:tube:1.5,0:0.4", 2),
    ("localized:gauge:0,0.5:0.5", 2), ("localized:norm:1,0,0:0.4", 3),
    ("localized:norm:1.2,0:1", 2)])
def test_level_at_distance_closed_forms_match_the_generic_search(name, dim, r):
    # The closed forms against the base class's ITP search on the signed
    # distance: seeded points inside and outside the domain, plus points at
    # the bottom level (the origin, the tube's unit disk, a localization's
    # minimizer). A localization adds its center, points whose r-ball holds
    # its ball (r > delta) and points on the rim |x - c| = r + delta.
    f = get_function(name, dim=dim)
    rng = split_rng(0, "level-at-distance", name, dim)
    if isinstance(f, LocalizedFunction):
        c, u = f.center, unit_directions(rng, 200, dim)
        pts = np.vstack([c + (f.delta + r + 0.1) * rng.uniform(-1.0, 1.0, size=(2000, dim)),
                         c, f.base.level_project(f.inf_value, c[None, :]),
                         c + 0.5 * max(r - f.delta, 0.0) * u])
        rim = c + (r + f.delta) * u
    else:
        lo, hi = f.level_bbox(f.level_hi if np.isfinite(f.level_hi) else 2.0)
        pts = np.vstack([rng.uniform(lo - 1.0, hi + 1.0, size=(2000, dim)),
                         np.zeros((1, dim)), 0.5 * np.eye(dim), [1.0] + [0.0] * (dim - 1)])
        rim = np.zeros((0, dim))
    closed = f.level_at_distance(np.vstack([pts, rim]), r)
    generic = QuasiconvexFunction.level_at_distance(f, np.vstack([pts, rim]), r)
    finite = np.isfinite(closed)
    assert np.array_equal(finite, np.isfinite(generic))
    assert 0 < np.sum(finite) and (name == "norm" or np.sum(finite) < len(finite))
    assert np.any(closed[finite] == f.inf_value)
    gap = np.zeros(len(closed))
    gap[finite] = np.abs(closed[finite] - generic[finite])
    assert np.max(gap[:len(pts)]) <= 1e-12
    # On the rim the lens B(x, r) cap B(c, delta) shrinks to a point, and its
    # half chord is the square root of the rounding of |x - c|: there both
    # routes are exact only to about 1e-8 (checked in 50-digit arithmetic).
    assert np.max(gap[len(pts):], initial=0.0) <= 1e-7
    # A regularization inherits the generic search, so semigroup-identity's
    # nested route never reuses the closed form of its base.
    assert "level_at_distance" not in RegularizedFunction.__dict__


@pytest.mark.parametrize("r", [0.0, 1e-5, 1e-4, 0.05, 0.2, 0.4])
def test_localized_level_search_makes_at_most_two_lens_calls(monkeypatch, r):
    # The generic search makes one lens call per ITP pass; the closed form
    # makes two for all 400 rows, its domain test and its level-v test.
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return ball_lens_project(*args)

    monkeypatch.setattr(functions, "ball_lens_project", counting)
    f = get_function("localized:tube:1.5,0:0.4")
    pts = f.center + split_rng(0, "lens-calls").uniform(-0.6, 0.6, size=(400, 2))
    f.level_at_distance(pts, r)
    assert 1 <= len(calls) <= 2
    calls.clear()
    QuasiconvexFunction.level_at_distance(f, pts, r)
    assert len(calls) > 10
