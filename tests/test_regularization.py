import numpy as np
import pytest
from scipy.spatial import cKDTree

from sweepdescent.errors import DegenerateDirection, OutOfReach
from sweepdescent.functions import (GaugeFunction, LocalizedFunction, NormFunction,
                                    TubeFunction, get_function, slope_values)
from sweepdescent.geometry import (BLOCK_ROWS, DilatedSet, _hull_frame, _norms,
                                   dilated_projection, outward_normals, sample_boundary)
from sweepdescent.regularization import (_secant_ratios, complement_projection,
                                         prox_radius_estimate, regularize,
                                         semigroup_gaps, slope_deficits)
from sweepdescent.rng import split_rng, unit_directions


def test_regularize_norm_values(norm):
    freg = regularize(norm, 0.5)
    assert freg.eval([2.0, 0.0]) == pytest.approx(1.5, abs=1e-9)
    assert freg.eval([0.25, 0.0]) == 0.0


def test_regularize_tube_axis(tube):
    freg = regularize(tube, 0.5)
    # cross-check: min of the base over the half-radius disk around (3, 0)
    rng = split_rng(2, "grid")
    w = rng.uniform(-0.5, 0.5, size=(200000, 2))
    w = w[np.linalg.norm(w, axis=1) <= 0.5]
    brute = np.min(np.asarray(tube.eval(np.array([3.0, 0.0]) - w)))
    assert freg.eval([3.0, 0.0]) == pytest.approx(1.5, abs=1e-9)
    assert brute == pytest.approx(1.5, abs=2e-3)


def test_regularize_gauge_top(gauge):
    freg = regularize(gauge, 0.25)
    # (0, 2) is the nearest boundary point of the 4/3-level set
    assert freg.eval([0.0, 2.25]) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_eval_regularized_outside_domain(tube):
    freg = regularize(tube, 0.25)
    assert freg.eval([4.5, 0.0]) == np.inf


def test_eval_regularized_at_the_dilated_domain_edge(tube):
    # The dilated domain's top edge is y = 1.25 over [0, 3]; a point outside
    # it by less than the old 1e-12 slack used to get level_hi = 3. Just
    # inside, the value falls short of 1.5 by about 1e-6 (a square root).
    freg = regularize(tube, 0.25)
    assert 1.5 - 2e-6 < freg.eval([1.5, 1.25 - 5e-13]) < 1.5
    assert freg.eval([1.5, 1.25 + 5e-13]) == np.inf
    assert freg.eval([1.5, 1.25 + 2e-12]) == np.inf


def test_eval_regularized_bottom_level(norm):
    freg = regularize(norm, 0.5)
    assert freg.eval([0.4, 0.1]) == 0.0


def test_sublevel_is_dilation(tube):
    freg = regularize(tube, 0.25)
    rng = split_rng(3, "dilation-id")
    pts = rng.uniform([-2, -2], [5, 2], size=(300, 2))
    for alpha in (0.4, 1.0, 1.6):
        base_d = np.asarray(tube.sublevel(alpha).distance(pts))
        reg_d = np.asarray(freg.sublevel(alpha).distance(pts))
        assert np.max(np.abs(reg_d - np.maximum(base_d - 0.25, 0.0))) < 1e-9


def test_pointwise_below_base(gallery):
    rng = split_rng(4, "below")
    pts = rng.uniform([-1.5, -1.5], [3.5, 2.5], size=(200, 2))
    for f in gallery.values():
        freg = regularize(f, 0.25)
        fb = np.asarray(f.eval(pts))
        fr = np.asarray(freg.eval(pts))
        assert np.all(fr <= fb + 1e-9)


def _base_points(freg, x):
    """Projections of the rows x onto the base sublevels at their regularized
    values, which the base points carry."""
    return freg.base.level_project(freg.eval(x), x)


def test_base_point_examples(norm, tube):
    fr = regularize(norm, 0.5)
    x = np.array([[2.0, 0.0], [1.2, 0.0]])
    assert np.allclose(_base_points(fr, x), [[1.5, 0.0], [0.7, 0.0]], atol=1e-8)
    # At the bottom level the base set is the argmin, the origin.
    assert np.allclose(_base_points(fr, np.array([[0.2, 0.0]])), [[0.0, 0.0]], atol=1e-9)
    ft = regularize(tube, 0.5)
    assert np.allclose(_base_points(ft, np.array([[3.0, 0.0]])), [[2.5, 0.0]], atol=1e-8)


def test_base_point_consistency(gallery):
    rng = split_rng(5, "base-pt")
    for f in gallery.values():
        freg = regularize(f, 0.25)
        pts = rng.uniform([-1.0, -1.0], [2.5, 2.0], size=(150, 2))
        vals = np.asarray(freg.eval(pts))
        keep = np.isfinite(vals) & (vals > f.inf_value + 1e-6)
        z = freg.base.level_project(vals[keep], pts[keep])
        assert np.max(np.abs(np.asarray(f.eval(z)) - vals[keep])) <= 1e-6
        assert np.max(np.linalg.norm(pts[keep] - z, axis=1)) <= 0.25 + 1e-6


def test_semigroup_examples(norm, tube):
    assert np.all(semigroup_gaps(regularize(norm, 0.5), 0.25,
                                 [[2.0, 0.0], [0.3, 0.0]]) <= 1e-6)
    assert np.all(semigroup_gaps(regularize(tube, 0.5), 0.1, [3.0, 0.0]) <= 1e-6)


def test_semigroup_batch(gallery):
    rng = split_rng(6, "semigroup")
    pts = rng.uniform([-1.0, -1.0], [3.0, 2.0], size=(60, 2))
    for f in gallery.values():
        assert np.all(semigroup_gaps(regularize(f, 0.25), 0.1, pts) <= 1e-6)


def test_slope_inequality_examples(norm, tube, gauge):
    for f, eps, x in [(norm, 0.5, [2.0, 0.0]), (tube, 0.25, [2.5, 0.0]),
                      (gauge, 0.25, [0.0, 2.25])]:
        assert slope_deficits(regularize(f, eps), x)[0] <= 1e-3


def test_complement_projection_radial(norm):
    fr = regularize(norm, 0.5)
    assert np.allclose(complement_projection(fr, 1.0, [1.2, 0.0]), [1.5, 0.0])
    assert np.allclose(complement_projection(fr, 1.0, [0.0, 1.4]), [0.0, 1.5])


def test_complement_projection_tube(tube):
    ft = regularize(tube, 0.5)
    assert np.allclose(complement_projection(ft, 1.0, [2.4, 0.0]), [2.5, 0.0],
                       atol=1e-12)


def test_complement_projection_identity_outside(norm):
    fr = regularize(norm, 0.5)
    # already beyond the dilated interior: projection returns the point
    assert np.allclose(complement_projection(fr, 1.0, [2.0, 0.0]), [2.0, 0.0])


def test_complement_projection_out_of_reach(norm):
    fr = regularize(norm, 0.5)
    with pytest.raises((OutOfReach, DegenerateDirection)):
        complement_projection(fr, 1.0, [0.5, 0.0])


def test_prox_radius_gauge_levels(gauge):
    for level, expect in [(1.25, 0.25), (1.5, 0.5), (0.5, 0.5), (0.75, 0.75)]:
        est = prox_radius_estimate(gauge, level, seed=0)
        assert est.r_hat == pytest.approx(expect, rel=0.1)
        assert est.sample_count > 20


def test_prox_radius_norm_circle(norm):
    est = prox_radius_estimate(norm, 2.0, seed=0)
    assert est.r_hat == pytest.approx(2.0, rel=0.05)


def test_prox_radius_norm_sphere_3d():
    est = prox_radius_estimate(get_function("norm", 3), 1.0)
    assert abs(est.r_hat - 1.0) <= 1e-6


@pytest.mark.parametrize("name,dim,eps,level,radius", [
    ("tube", 2, 0.25, 1.0, 1.25), ("gauge", 2, None, 1.05, 0.05), ("norm", 3, None, 0.5, 0.5),
    ("localized:tube:1.5,0:0.4", 2, 0.2, 0.5, 0.2)])
def test_prox_radius_exact_normals_give_the_exact_radius(name, dim, eps, level, radius):
    # The smallest circular arcs: the capsule's caps dilated by 0.25, the
    # gauge's small disk at s = 1.05, the sphere, and the dilated lens corners.
    f = get_function(name, dim)
    f = f if eps is None else regularize(f, eps)
    est = prox_radius_estimate(f, level, seed=0)
    assert est.r_hat == pytest.approx(radius, rel=1e-12)
    assert est.skipped_corners == 0


def test_prox_radius_of_a_ball_smaller_than_any_probe_step(norm):
    # The level-5.5e-10 set of the norm regularized at 1e-9 is a ball of
    # radius 1.55e-9; its ray exits are closed form, exact to rounding. The
    # 1e-4 floor of the refinement spacing must not coarsen its sample to
    # the 64-ray floor: it is sampled as its copy scaled by 1e9 is.
    est = prox_radius_estimate(regularize(norm, 1e-9), 5.5e-10)
    assert est.r_hat == pytest.approx(1.55e-9, rel=1e-14)
    assert est.sample_count == prox_radius_estimate(regularize(norm, 1.0), 0.55).sample_count
    assert est.sample_count > 64


@pytest.mark.parametrize("name,level,refined", [("norm", 1.0, False), ("gauge", 1.05, True)])
def test_prox_radius_refines_only_to_a_finer_pass(name, level, refined):
    # The unit sphere's r_hat / 20 = 0.05 is coarser than the first pass's
    # spacing, which then stands; the gauge's small disk at s = 1.05 asks for
    # 0.0025, finer by more than a quarter, and gets the second pass.
    f = get_function(name, 3 if name == "norm" else 2)
    lo, hi = f.level_bbox(level)
    first = sample_boundary(f.sublevel(level), float(np.linalg.norm(hi - lo)) * np.pi / 600)
    est = prox_radius_estimate(f, level, seed=0)
    if refined:
        assert est.sample_count > len(first)
    else:
        assert est.sample_count == len(first) == 19099


def test_secant_ratios_3d_match_sorted_pair_reference():
    hull = regularize(get_function("norm", 3), 0.25).sublevel(1.0)
    resolution = 0.1
    pts = sample_boundary(hull, resolution, seed=4).points
    normals, ok = outward_normals(hull, pts)
    pts, normals = pts[ok], normals[ok]
    got = _secant_ratios(pts, normals, 3, resolution)
    # The earlier pair list: a sorted Python list of index tuples.
    pairs = np.array(sorted(cKDTree(pts).query_pairs(3.0 * resolution)))
    db = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    dn = normals[pairs[:, 1]] - normals[pairs[:, 0]]
    num = np.einsum("ij,ij->i", db, db)
    den = np.einsum("ij,ij->i", db, dn)
    good = den > 1e-9 * np.sqrt(num)
    want = num[good] / den[good]
    assert len(got) == len(want) > 1000
    assert np.min(got) == np.min(want)
    assert np.array_equal(np.sort(got), np.sort(want))


def test_secant_ratios_3d_match_brute_force_pairs():
    # Every pair i < j of a lens sample (not round, so the ratios spread),
    # kept where its squared distance, summed in coordinate order, is at most
    # (3 * resolution)^2: no tree builds the reference pair set. The sample's
    # pairs fill more than one block of BLOCK_ROWS.
    lens = LocalizedFunction(get_function("norm", 3), [1.0, 0.0, 0.0], 0.4).sublevel(0.9)
    resolution = 0.037
    pts = sample_boundary(lens, resolution).points
    normals, ok = outward_normals(lens, pts)
    pts, normals = pts[ok], normals[ok]
    assert 500 <= len(pts) <= 700
    got = _secant_ratios(pts, normals, 3, resolution)
    i, j = np.triu_indices(len(pts), k=1)
    d = pts[j] - pts[i]
    near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= (3.0 * resolution) ** 2
    i, j = i[near], j[near]
    db, dn = pts[j] - pts[i], normals[j] - normals[i]
    num = np.einsum("ij,ij->i", db, db)
    den = np.einsum("ij,ij->i", db, dn)
    good = den > 1e-9 * np.sqrt(num)
    want = num[good] / den[good]
    assert len(i) > BLOCK_ROWS and len(got) == len(want)
    assert np.min(got) == np.min(want) < 0.5
    assert np.sort(got).tobytes() == np.sort(want).tobytes()


def test_prox_radius_dilated_lower_bound(tube):
    freg = regularize(tube, 0.25)
    est = prox_radius_estimate(freg, 1.0, seed=0)
    assert est.r_hat >= 0.9 * 0.25
    # capsule caps dilate to radius 1 + eps
    assert est.r_hat == pytest.approx(1.25, rel=0.05)


def test_prox_radius_localized_regularized_sharp(tube):
    # dilated lens corners have curvature radius exactly eps
    h = LocalizedFunction(tube, [1.5, 0.0], 0.4)
    he = regularize(h, 0.2)
    est = prox_radius_estimate(he, 0.5, seed=0)
    assert est.r_hat >= 0.9 * 0.2
    assert est.r_hat == pytest.approx(0.2, rel=0.05)


def test_monotone_in_epsilon(gallery):
    rng = split_rng(8, "monotone")
    pts = rng.uniform([-1.0, -1.0], [3.0, 2.0], size=(100, 2))
    for f in gallery.values():
        vals = [np.asarray(regularize(f, e).eval(pts)) for e in (0.1, 0.25, 0.5)]
        assert np.all(vals[1] <= vals[0] + 1e-9)
        assert np.all(vals[2] <= vals[1] + 1e-9)


def test_eval_matches_polar_grid_oracle(gallery):
    from sweepdescent.verification import _check_eval_consistency
    windows = {"norm": (0.5, 1.5), "tube": (0.3, 1.7), "gauge": (1.2, 1.8)}
    for name, f in gallery.items():
        check = _check_eval_consistency(regularize(f, 0.25), windows[name],
                                        100, seed=9)
        assert check.passed, (name, check.details)
        assert check.details["n_points"] >= 100


def test_regularized_slope_at_cap_angle(tube):
    # on the dilated cap at angle t the slope is 1 / cos(t)
    freg = regularize(tube, 0.25)
    angle = np.pi / 6
    x = np.array([1.5 + 1.25 * np.cos(angle), 1.25 * np.sin(angle)])
    assert slope_values(freg, x) == pytest.approx(1.0 / np.cos(angle), rel=1e-3)


# The projections as they were written before the hull functions shared one
# grown-radius kernel: plain level_project must match them bit for bit, and
# the regularized steps must match their two-step forms to a few ulps.
def _old_hull_section(a, rho, r1, axis_len, r2):
    sin, cos = _hull_frame(r1, axis_len, r2)
    k = cos * a - sin * rho
    on1 = k <= 0.0
    on2 = ~on1 & (k >= cos * axis_len)
    d1 = np.hypot(a, rho)
    d2 = np.hypot(a - axis_len, rho)
    signed = np.where(on1, d1 - r1, np.where(on2, d2 - r2, sin * a + cos * rho - r1))
    s1 = r1 / np.maximum(d1, 1e-150)
    s2 = r2 / np.maximum(d2, 1e-150)
    out = signed > 0
    pa = np.where(on1, a * s1, np.where(on2, axis_len + (a - axis_len) * s2, a - signed * sin))
    prho = np.where(on1, rho * s1, np.where(on2, rho * s2, rho - signed * cos))
    return np.where(out, pa, a), np.where(out, prho, rho), signed


def _old_level_project(f, alphas, pts):
    if isinstance(f, NormFunction):
        norms = _norms(pts)
        scale = np.where(norms > alphas, alphas / np.where(norms > 0, norms, 1.0), 1.0)
        return pts * scale[:, None]
    if isinstance(f, TubeFunction):
        anchor = np.zeros(pts.shape)
        anchor[:, 0] = np.minimum(np.maximum(pts[:, 0], 0.0), np.minimum(alphas, f.level_hi))
        delta = pts - anchor
        dist = _norms(delta)
        out = dist > 1.0
        res = pts.copy()
        if np.count_nonzero(out):
            res[out] = anchor[out] + delta[out] / dist[out, None]
        return res
    pa, prho, _ = _old_hull_section(pts[:, 1], np.abs(pts[:, 0]), *f.level_hull(alphas))
    res = np.empty(pts.shape)
    res[:, 0], res[:, 1] = np.copysign(prho, pts[:, 0]), pa
    return res


def _two_step_complement(freg, alpha, x2):
    z = freg.base.level_project(alpha, x2)
    delta = x2 - z
    dist = _norms(delta)
    if np.count_nonzero(dist <= 1e-12):
        bad = int(np.argmin(dist))
        if bool(freg.base.sublevel(alpha).membership(x2[bad], tol=1e-12)):
            raise OutOfReach("point lies in the base sublevel set, beyond the prox-regular reach")
        raise DegenerateDirection("projection direction collapsed")
    return np.where((dist >= freg.eps)[:, None], x2, z + delta * (freg.eps / dist)[:, None])


def _kernel_cases(name):
    """(base, levels, points): seeded rows around the level sets, levels above
    level_hi, on-axis rows with a -0.0 ordinate, and for the gauge the levels
    1 +- 1e-12 where its hull turns from nested to proper and rows with a
    -0.0 axial coordinate."""
    rng = split_rng(11, "kernel", name)
    if name.startswith("norm"):
        dim = int(name[4:] or 2)
        f = NormFunction(dim)
        pts = rng.uniform(-2.0, 2.0, size=(400, dim))
        axis = np.zeros((2, dim))
        axis[:, 0] = (1.4, -0.3)
        axis[:, 1:] = -0.0
        levels = rng.uniform(0.2, 1.6, size=402)
    elif name == "tube":
        f = TubeFunction()
        pts = rng.uniform((-1.6, -1.6), (4.6, 1.6), size=(400, 2))
        axis = np.array([[2.6, -0.0], [-1.2, -0.0]])
        levels = rng.uniform(0.2, 3.6, size=402)
    else:
        f = GaugeFunction()
        pts = rng.uniform((-2.4, -1.5), (2.4, 4.2), size=(400, 2))
        axis = np.array([[-0.0, 2.6], [-0.0, -1.2], [2.6, -0.0], [-1.2, -0.0]])
        levels = np.concatenate([rng.choice([1.0 - 1e-12, 1.0, 1.0 + 1e-12], size=200),
                                 rng.uniform(0.6, 2.4, size=204)])
    return f, levels, np.vstack([pts, axis])


KERNEL_BASES = ["norm", "norm3", "tube", "gauge"]


def _assert_ulps(new, old, ulps=4, gain=1.0):
    """new within ulps of old at unit scale, times the gain by which old's
    rounding was amplified."""
    tol = ulps * np.spacing(np.maximum(np.abs(old), 1.0)) * np.maximum(gain, 1.0)
    assert np.all(np.abs(new - old) <= tol)


@pytest.mark.parametrize("name", KERNEL_BASES)
def test_plain_level_project_is_bitwise_the_old_projection(name):
    f, levels, pts = _kernel_cases(name)
    for alphas in (levels, 1.0):
        new, old = f.level_project(alphas, pts), _old_level_project(f, alphas, pts)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("name", KERNEL_BASES)
def test_grown_kernel_matches_the_dilated_base_projection(name):
    f, levels, pts = _kernel_cases(name)
    freg = regularize(f, 0.25)
    # Rows exactly eps out, pushed from their base projection along its normal.
    z = f.level_project(levels, pts)
    normals, _ = f.level_normals(levels, z)
    at_eps = np.where((_norms(pts - z) > 0)[:, None], z + 0.25 * normals, pts)
    for x in (pts, at_eps):
        for alphas in (levels, 1.0):
            pushed, dist = dilated_projection(x, f.level_project(alphas, x), 0.25)
            _assert_ulps(freg.level_project(alphas, x),
                         np.where((dist > 0.25)[:, None], pushed, x))


@pytest.mark.parametrize("name", KERNEL_BASES)
def test_complement_kernel_matches_the_two_step_push(name):
    f, levels, pts = _kernel_cases(name)
    freg = regularize(f, 0.25)
    z = f.level_project(levels, pts)
    normals, _ = f.level_normals(levels, z)
    signed = f.level_signed_distance(levels, pts)
    outside = signed > 1e-9
    at_eps = z[outside] + 0.25 * normals[outside]
    a = levels[outside]
    for x, s in ((pts[outside], signed[outside]), (at_eps, np.full(len(at_eps), 0.25))):
        new = np.array([complement_projection(freg, a[i], x[i]) for i in range(len(x))])
        old = np.vstack([_two_step_complement(freg, a[i], x[i:i + 1]) for i in range(len(x))])
        # The two-step push scales the rounding of x - z by eps / |x - z|.
        _assert_ulps(new, old, gain=(0.25 / s)[:, None])
        pushed = s < 0.25
        assert np.all(np.abs(freg.level_signed_distance(a[pushed], new[pushed])) <= 1e-14)
        assert len(x) > 100


@pytest.mark.parametrize("name", KERNEL_BASES + ["localized:tube:1.5,0:0.4"])
def test_complement_projection_raises_as_the_two_step_form(name):
    f = get_function(name, dim=3 if name == "norm3" else 2)
    freg = regularize(f, 0.2 if name.startswith("localized") else 0.25)
    level = 0.5 if name.startswith("localized") else 1.3
    inside = f.level_interior_point(level)
    far = inside + 3.0
    on_edge = f.level_project(level, far[None, :])[0]
    for rows in ([inside], [on_edge], [far, inside]):
        rows = np.array(rows)
        with pytest.raises(OutOfReach) as old:
            _two_step_complement(freg, level, rows)
        with pytest.raises(OutOfReach, match=str(old.value)):
            complement_projection(freg, level, rows)


NESTED_BASES = ["norm", "norm3", "tube", "gauge", "localized:tube:1.5,0:0.4"]


@pytest.mark.parametrize("name", NESTED_BASES)
def test_nested_regularization_grows_by_the_sum(name, monkeypatch):
    # Regularizing by e1 and then e2 grows the base's sets by e1 + e2, so
    # the nested steps and exits reach the base with the whole growth and
    # match regularize(f, e1 + e2) bit for bit. The seeded rows keep clear of
    # the grown boundaries by far more than the rounding of d - e1 - e2.
    f = get_function(name, dim=3 if name == "norm3" else 2)
    lens = name.startswith("localized")
    e1, e2 = (0.05, 0.15) if lens else (0.1, 0.15)
    level, level_range = (0.5, (0.45, 0.7)) if lens else (1.3, (0.5, 1.6))
    inner = regularize(f, e1)
    nested, whole = regularize(inner, e2), regularize(f, e1 + e2)
    lo, hi = f.level_bbox(level)
    rng = split_rng(12, "nested", name)
    pts = rng.uniform(lo - 0.6, hi + 0.6, size=(400, f.dim))
    levels = rng.uniform(*level_range, size=400)
    for alphas in (level, levels):
        assert np.array_equal(nested.level_project(alphas, pts).view(np.uint64),
                              whole.level_project(alphas, pts).view(np.uint64))
    # The nested complement is defined from outside its base, the inner set.
    out = pts[inner.level_signed_distance(level, pts) > 1e-9]
    assert len(out) > 100
    assert np.array_equal(complement_projection(nested, level, out).view(np.uint64),
                          complement_projection(whole, level, out).view(np.uint64))
    origin = whole.level_interior_point(level)
    dirs = unit_directions(split_rng(12, "nested-rays", name), 500, f.dim)
    assert np.array_equal(nested.level_ray_exits(level, origin, dirs).view(np.uint64),
                          whole.level_ray_exits(level, origin, dirs).view(np.uint64))
    # eval stays the generic search, on the inner regularization's sets.
    radii = []
    search = inner.level_at_distance
    monkeypatch.setattr(inner, "level_at_distance",
                        lambda x, r: radii.append(r) or search(x, r))
    np.testing.assert_allclose(nested.eval(pts[:40]), whole.eval(pts[:40]),
                               rtol=0, atol=1e-6)
    assert radii == [e2]


@pytest.mark.parametrize("eps", [0.0, -0.25, np.nan])
def test_a_radius_that_is_not_positive_is_refused(eps):
    # A NaN radius fails every comparison, so only not eps > 0 refuses it.
    with pytest.raises(ValueError, match="regularization radius must be positive"):
        regularize(get_function("tube"), eps)
    with pytest.raises(ValueError, match="dilation radius must be positive"):
        DilatedSet(NormFunction(2).sublevel(1.0), eps)
