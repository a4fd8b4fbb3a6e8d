import numpy as np
import pytest

from sweepdescent import verification
from sweepdescent.errors import MissingConstants
from sweepdescent.functions import LocalizedFunction, get_function, limiting_slope
from sweepdescent.geometry import BLOCK_ROWS
from sweepdescent.regularization import regularize
from sweepdescent.rng import split_rng
from sweepdescent.sweeping import SweepingConfig
from sweepdescent.verification import (_check_eval_consistency,
                                       _check_lipschitz_transfer,
                                       hoffmann_localization_check,
                                       membership_U_epsilon,
                                       probe_steepest_descent,
                                       run_verification_suite, verify_H1_H3,
                                       verify_moving_map_lipschitz)


def test_moving_map_norm_levels(norm):
    check_s, check_u, direct = verify_moving_map_lipschitz(
        norm, 1.0, 1.5, n_levels=3, slope_floor=1.0, resolution=0.01)
    assert check_s.passed and check_u.passed
    assert direct == pytest.approx(1.0, abs=0.02)


def test_moving_map_tube_levels(tube):
    check_s, check_u, direct = verify_moving_map_lipschitz(
        tube, 0.5, 1.5, n_levels=3, slope_floor=1.0, resolution=0.01)
    assert check_s.passed and check_u.passed
    assert direct == pytest.approx(1.0, abs=0.03)


def test_moving_map_reports_sample_counts_and_cap():
    # At resolution 0.01 the 3-d ray count at level 3, 2 * pi * 300^2 rays,
    # exceeds max_points.
    norm3 = get_function("norm", 3)
    check_s, check_u, _ = verify_moving_map_lipschitz(
        norm3, 0.5, 3.0, n_levels=2, slope_floor=1.0, resolution=0.01)
    for check in (check_s, check_u):
        assert check.details["capped"] == [False, True]
        assert 0 < check.details["n_samples"][0] < check.details["n_samples"][1]
        assert check.details["n_samples"][1] <= 200_000


def test_moving_map_refused_without_floor(norm):
    with pytest.raises(MissingConstants):
        verify_moving_map_lipschitz(norm, 1.0, 1.5, slope_floor=0.0)


def test_H1_H3_norm(norm):
    h1, h2, h3 = verify_H1_H3(norm, (1.0, 2.0), n_levels=3)
    assert h1.passed and h2.passed and h3.passed
    assert h2.details["slope_floor"] == pytest.approx(1.0, abs=1e-2)
    # complements of balls are prox-regular at the ball radius
    assert h3.details["r_hats"][0] == pytest.approx(1.0, rel=0.05)


def test_H1_H3_gauge_degenerates(gauge):
    _, _, h3 = verify_H1_H3(gauge, (0.9, 1.1), n_levels=5)
    assert h3.passed is False
    assert min(h3.details["r_hats"]) < 0.06


def test_H1_H3_localized_regularized(tube):
    # the ball-localized tube regularized at 0.2 satisfies all three
    h = LocalizedFunction(tube, [1.5, 0.0], 0.4)
    he = regularize(h, 0.2)
    h1, h2, h3 = verify_H1_H3(he, he.default_window, n_levels=3)
    assert h1.passed and h2.passed and h3.passed
    assert h3.margin >= 0.18


def test_membership_U_epsilon_examples(norm, tube):
    assert membership_U_epsilon(regularize(norm, 0.5), [2.0, 0.0])
    assert not membership_U_epsilon(regularize(norm, 0.5), [0.1, 0.0])
    assert membership_U_epsilon(regularize(tube, 0.25), [2.5, 0.0])
    assert not membership_U_epsilon(regularize(tube, 0.25), [5.0, 5.0])


@pytest.mark.parametrize("name,dim", [("tube", 2), ("norm", 2), ("norm", 3)],
                         ids=["tube", "norm", "norm3"])
def test_membership_U_epsilon_batch_matches_points(name, dim):
    f = get_function(name, dim)
    pts = split_rng(4, "criticality-batch").uniform(-1.0, 4.0, size=(40, dim))
    pts[:3] = 0.0
    pts[1, 0], pts[2] = 0.05, 9.0  # critical, critical, outside the tube
    batch = membership_U_epsilon(regularize(f, 0.25), pts)
    single = [membership_U_epsilon(regularize(f, 0.25), p) for p in pts]
    assert batch.dtype == bool and all(isinstance(b, bool) for b in single)
    assert batch.tolist() == single
    assert 0 < batch.sum() < len(pts)
    slopes = limiting_slope(f, pts)
    assert np.array_equal(slopes, [limiting_slope(f, p) for p in pts])


def test_probe_steepest_descent_norm(norm):
    freg = regularize(norm, 0.25)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.4, steps=80)
    probe = probe_steepest_descent(freg, 20, cfg, window=(0.8, 1.5), seed=0)
    assert probe.details["fraction"] >= 0.95


def test_hoffmann_norm_example(norm):
    # center inside the level set makes the scaling factor exactly one
    check = hoffmann_localization_check(LocalizedFunction(norm, [0.5, 0.0], 1.0), [1.2, 0.0], 0.8)
    assert check.passed
    assert check.details["factor"] == pytest.approx(1.0)
    assert check.details["lhs"] == pytest.approx(0.4, abs=1e-9)


def test_hoffmann_tube_example(tube):
    check = hoffmann_localization_check(LocalizedFunction(tube, [1.5, 0.0], 0.4), [1.8, 0.0], 0.6)
    assert check.passed


def test_hoffmann_skipped_outside_regime(norm):
    # denominator delta - d(center, [f <= beta]) <= 0: check must be skipped
    check = hoffmann_localization_check(LocalizedFunction(norm, [3.0, 0.0], 0.5), [3.2, 0.0], 1.0)
    assert check.passed is None
    assert "reason" in check.details


def test_distance_bound_fails_with_its_worst_point(norm):
    # For the norm d(x, [f <= 1]) = f(x) - 1, ten times the bound a floor of
    # 10 allows; the worst point is the sample farthest from the unit ball.
    check = verification.aze_corvellec_check(norm, ([0.5, -2.0], [2.5, 2.0]), 1.0, 10.0)
    assert check.passed is False and check.margin is None
    assert np.linalg.norm(check.witness) > 2.5


def test_distance_bound_skipped_without_samples_in_the_domain():
    # The box lies outside the tube's domain, so all 200 samples are dropped.
    check = verification.aze_corvellec_check(get_function("tube"), ([10, 10], [11, 11]),
                                             0.5, 1.0)
    assert check.passed is None and check.witness is None
    assert check.details["n_points"] == 0
    assert "reason" in check.details


def test_report_determinism_and_requires(norm):
    rep1 = run_verification_suite(norm, eps=0.25, window=(0.5, 1.5), seed=3,
                                  n_points=40, probe_starts=5)
    rep2 = run_verification_suite(norm, eps=0.25, window=(0.5, 1.5), seed=3,
                                  n_points=40, probe_starts=5)
    assert rep1.to_json_text() == rep2.to_json_text()
    rep1.require("h2-slope-floor", "h3-complement-prox-radius")
    with pytest.raises(MissingConstants):
        rep1.require("nonexistent-check")
    probe = rep1.get("steepest-descent-probe")
    assert probe.details["fraction"] >= 0.9


def test_report_seed_changes_payload(norm):
    rep1 = run_verification_suite(norm, window=(0.5, 1.5), seed=1)
    rep2 = run_verification_suite(norm, window=(0.5, 1.5), seed=2)
    assert rep1.to_json_text() != rep2.to_json_text()


def test_suite_refuses_consumers_after_failed_prereq(gauge):
    # window straddling the degenerate level: the probe must be skipped
    rep = run_verification_suite(gauge, eps=None, window=(0.9, 1.1), seed=0)
    assert rep.get("h3-complement-prox-radius").passed is False
    with pytest.raises(MissingConstants):
        rep.require("h3-complement-prox-radius")


def test_full_suite_tube_regularized(tube):
    rep = run_verification_suite(tube, eps=0.25, window=(0.3, 1.7), seed=0,
                                 n_points=60, probe_starts=10)
    assert rep.passed_all(), rep.failed_names()
    assert rep.constants["slope_floor"] >= 0.99
    assert rep.constants["prox_radius"] >= 0.9 * 0.25
    assert rep.get("semigroup-identity").passed
    assert rep.get("dilation-prox-lower-bound").passed


def test_eval_consistency_skipped_without_samples(norm):
    # Every sampled value lies below inf + eps, so no sample survives.
    check = _check_eval_consistency(regularize(norm, 0.25), (0.05, 0.2), 10, 0)
    assert check.passed is None
    assert check.details["n_points"] == 0
    assert "reason" in check.details


def test_lipschitz_transfer_skipped_without_samples():
    # No point of a 0.2-ball lies eps + 0.02 = 0.22 deep inside it.
    freg = regularize(get_function("localized:tube:1.5,0:0.2"), 0.2)
    check = _check_lipschitz_transfer(freg, freg.default_window, 20, 0)
    assert check.passed is None
    assert check.details["n_points"] == 0
    assert "reason" in check.details


@pytest.mark.parametrize("name,window,n_points", [("gauge", (1.2, 1.8), 12),
                                                  ("tube", (0.3, 1.7), 12)])
def test_eval_consistency_grids_only_until_n_points_certify(monkeypatch, name, window,
                                                            n_points):
    # Gridding every filtered candidate and keeping the first n_points that
    # certify gives the same report as gridding in order until n_points have
    # certified; the check grids fewer candidates.
    freg = regularize(get_function(name), 0.25)
    pts = verification._annulus_sample(freg, window, 3 * n_points, 7, "eval-consistency")
    vals = freg.eval(pts)
    depth = freg.base.level_signed_distance(freg.base.level_hi, pts)
    keep = (vals >= freg.inf_value + freg.eps) & (depth <= -(freg.eps + 0.02))
    pts, vals = pts[keep], vals[keep]
    coarse = verification.grid_min_regularized(freg, pts, n=41)
    fine = verification.grid_min_regularized(freg, pts, n=81)
    certified = np.flatnonzero(np.abs(coarse - fine) <= 5e-4)[:n_points]
    want = np.max(np.abs(coarse[certified] - vals[certified]))

    gridded = []
    grid = verification.grid_min_regularized

    def counted(f, points, n):
        gridded.append(len(points))
        return grid(f, points, n=n)

    monkeypatch.setattr(verification, "grid_min_regularized", counted)
    check = _check_eval_consistency(freg, window, n_points, 7)
    assert check.details == {"worst_gap": want, "n_points": len(certified)}
    assert len(certified) == n_points
    assert n_points <= sum(gridded) / 2 < len(pts)


@pytest.mark.parametrize("name", ["tube", "gauge"])
def test_blocked_polar_grid_equals_the_one_shot_grid(name):
    # The grid as one (points x probes) batch, before it ran in blocks of at
    # most BLOCK_ROWS probes: 7 points are no whole number of blocks at
    # n = 41, and take one block each at n = 81.
    freg = regularize(get_function(name), 0.25)
    pts = verification._annulus_sample(freg, freg.default_window, 7, 3, "blocked-grid")
    assert len(pts) % (BLOCK_ROWS // 41**2) != 0 and BLOCK_ROWS < 2 * 81**2
    for n in (41, 81):
        radii = np.linspace(0.0, freg.eps, n)
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        rr, aa = np.meshgrid(radii, angles, indexing="ij")
        offsets = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1).reshape(-1, 2)
        probes = pts[:, None, :] - offsets[None, :, :]
        want = np.min(freg.base.eval(probes.reshape(-1, 2)).reshape(probes.shape[:2]), axis=1)
        got = verification.grid_min_regularized(freg, pts, n=n)
        assert got.tobytes() == want.tobytes()
        one = verification.grid_min_regularized(freg, pts[2:3], n=n)
        assert one.shape == (1,) and one[0] == want[2]
