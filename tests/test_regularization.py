import numpy as np
import pytest
from scipy.spatial import cKDTree

from sweepdescent.errors import DegenerateDirection, OutOfReach
from sweepdescent.functions import LocalizedFunction, get_function, slope_values
from sweepdescent.geometry import BLOCK_ROWS, outward_normals, sample_boundary
from sweepdescent.regularization import (_secant_ratios, complement_projection,
                                         prox_radius_estimate, regularize,
                                         semigroup_gaps, slope_deficits)
from sweepdescent.rng import split_rng


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
