from dataclasses import replace

import numpy as np
import pytest

from sweepdescent import sweeping
from sweepdescent.errors import (DegenerateDirection, DomainError,
                                 LevelUnderflow, MissingConstants,
                                 ReverseRefused, ThetaGuard)
from sweepdescent.functions import HullFunction, get_function, slope_values
from sweepdescent.geometry import _ray_boundary_points, sample_boundary
from sweepdescent.regularization import regularize
from sweepdescent.rng import split_rng, unit_directions
from sweepdescent.sweeping import (SweepingConfig, Trajectory, _inward_step,
                                   flow_map, format_rows,
                                   forward_catching_up_batch, invert_flow_check,
                                   reverse_catching_up, trajectory_to_csv)

from conftest import dense_boundary_nearest


def cap_point(level, angle, eps=0.25):
    """Point on the dilated capsule cap circle at the given level."""
    return np.array([level + (1 + eps) * np.cos(angle),
                     (1 + eps) * np.sin(angle)])


def test_forward_norm_radial(norm):
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=1000)
    traj = forward_catching_up_batch(norm, [2.0, 0.0], cfg)
    assert np.linalg.norm(traj.endpoint - [1.0, 0.0]) <= 5e-3
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)


def test_forward_waiting_phase(norm):
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=1000)
    traj = forward_catching_up_batch(norm, [1.5, 0.0], cfg)
    waiting = traj.times <= 0.5
    assert np.all(traj.points[waiting] == np.array([1.5, 0.0]))
    riding = ~waiting
    assert np.max(np.abs(traj.values[riding] - traj.levels[riding])) <= 1e-9


@pytest.mark.parametrize("name,dim,eps", [("norm", 3, None), ("tube", 2, 0.25),
                                          ("gauge", 2, 0.25),
                                          ("localized:tube:1.5,0:0.4", 2, 0.2)])
def test_forward_batch_with_start_levels_per_row_equals_one_start_runs(name, dim, eps):
    # One start level per row: each run of the batch carries the bits of the
    # one-start run at its level. Rows 0-3 start on their level boundary; row
    # 4 starts 0.03 inside and waits for the first two steps.
    f = get_function(name, dim=dim)
    f = f if eps is None else regularize(f, eps)
    lo, hi = f.default_window
    alpha2 = np.linspace(lo, hi, 5)
    far = f.level_interior_point(hi) + 5.0 * unit_directions(split_rng(0, "per-row", name), 5, dim)
    x0 = f.level_project(alpha2 - [0.0, 0.0, 0.0, 0.0, 0.03], far)
    batch = forward_catching_up_batch(f, x0, SweepingConfig(alpha2=alpha2, horizon=0.1, steps=8))
    assert batch.levels.shape == (9, 5) and batch.points.shape == (9, 5, dim)
    for i in range(5):
        one = forward_catching_up_batch(f, x0[i], SweepingConfig(
            alpha2=float(alpha2[i]), horizon=0.1, steps=8))
        run = batch.trajectory(i)
        for key in ("times", "levels", "points", "values"):
            assert getattr(run, key).tobytes() == getattr(one, key).tobytes(), (i, key)
    assert np.all(batch.points[:3, 4] == x0[4]) and np.all(batch.points[3:, 4] != x0[4])


def test_forward_tube_regularized_axis(tube):
    freg = regularize(tube, 0.25)
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=1000)
    traj = forward_catching_up_batch(freg, [3.25, 0.0], cfg)
    assert np.linalg.norm(traj.endpoint - [2.25, 0.0]) <= 1e-2


def test_forward_rejects_bad_start(norm):
    cfg = SweepingConfig(alpha2=1.0, horizon=0.5, steps=10)
    with pytest.raises(DomainError):
        forward_catching_up_batch(norm, [2.0, 0.0], cfg)


def test_forward_level_underflow(norm):
    cfg = SweepingConfig(alpha2=1.0, horizon=1.5, steps=10)
    with pytest.raises(LevelUnderflow):
        forward_catching_up_batch(norm, [1.0, 0.0], cfg)


def test_value_decay_all_gallery(gallery):
    # after the waiting phase the tracked value follows the moving level to
    # within twice the projection tolerance
    runs = [
        ("norm", [2.0, 0.0], 2.0, 1.0),
        ("tube", [2.0, 0.0], 1.0, 0.6),
        ("gauge", [0.0, 2.25], None, 0.3),
    ]
    for name, x0, alpha2, horizon in runs:
        f = gallery[name]
        a2 = alpha2 if alpha2 is not None else float(f.eval(x0))
        cfg = SweepingConfig(alpha2=a2, horizon=horizon, steps=400)
        traj = forward_catching_up_batch(f, x0, cfg)
        assert np.max(np.abs(traj.values - traj.levels)) <= 2e-9


def test_boundary_riding_residual(tube):
    freg = regularize(tube, 0.25)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=300)
    traj = forward_catching_up_batch(freg, cap_point(1.5, np.pi / 6), cfg)
    assert np.max(traj.boundary_residuals(freg)) <= 1e-7


def test_step_length_bound(gallery):
    # steps never exceed the moving-map rate bound 1/slope-floor per unit time
    floors = {"norm": 1.0, "tube": 1.0, "gauge": 1.0 / 3.0}
    starts = {"norm": [2.0, 0.0], "tube": [2.0, 0.0], "gauge": [0.0, 2.25]}
    for name, f in gallery.items():
        a2 = float(f.eval(starts[name]))
        cfg = SweepingConfig(alpha2=a2, horizon=0.3, steps=200)
        traj = forward_catching_up_batch(f, starts[name], cfg)
        dt = cfg.horizon / cfg.steps
        step_len = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert np.max(step_len) <= (1.0 / floors[name]) * dt * 1.1


def test_speed_slope_sandwich_shrinks(tube):
    # the discrete speed approaches the reciprocal slope as steps double
    freg = regularize(tube, 0.25)
    x0 = cap_point(1.5, np.pi / 5)
    gaps = []
    for k in (100, 200, 400):
        cfg = SweepingConfig(alpha2=1.5, horizon=0.4, steps=k)
        traj = forward_catching_up_batch(freg, x0, cfg)
        slopes = slope_values(freg, traj.points[1:], seed=2)
        product = traj.speeds[1:] * slopes
        gaps.append(float(np.max(np.abs(product - 1.0))))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 5e-3


def test_speed_sandwich_two_sided(tube):
    # discrete speed between the reciprocal slope and reciprocal limiting slope
    from sweepdescent.functions import limiting_slope
    freg = regularize(tube, 0.25)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.4, steps=200)
    traj = forward_catching_up_batch(freg, cap_point(1.5, np.pi / 4), cfg)
    delta = 2e-2
    for j in (40, 100, 180):
        u = traj.points[j]
        speed = traj.speeds[j]
        slopes = slope_values(freg, u[None, :], seed=5)
        lim = limiting_slope(freg, u, seed=5)
        assert speed >= 1.0 / slopes[0] - delta
        assert speed <= 1.0 / lim + delta


def test_reverse_norm_radial(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=2000, map_lipschitz=1.0)
    traj = reverse_catching_up(freg, [1.0, 0.0], 1.0, cfg)
    assert np.linalg.norm(traj.endpoint - [2.0, 0.0]) <= 1e-2
    assert traj.times[0] == -1.0 and traj.times[-1] == 0.0


def test_reverse_zero_horizon(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=100, map_lipschitz=1.0)
    traj = reverse_catching_up(freg, [2.0, 0.0], 0.0, cfg)
    assert len(traj.times) == 1
    assert np.allclose(traj.endpoint, [2.0, 0.0])


def test_reverse_tube_axis(tube):
    freg = regularize(tube, 0.25)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=2000, map_lipschitz=1.0)
    traj = reverse_catching_up(freg, [2.25, 0.0], 0.5, cfg)
    assert np.linalg.norm(traj.endpoint - [2.75, 0.0]) <= 1e-2


def test_theta_guard_values(norm):
    freg = regularize(norm, 0.5)
    ok_cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=4,
                            map_lipschitz=1.0, prox_radius=0.5)
    assert ok_cfg.theta() == pytest.approx(0.5)
    traj = reverse_catching_up(freg, [1.0, 0.0], 1.0, ok_cfg)
    assert len(traj.times) == 5
    bad_cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=1,
                             map_lipschitz=1.0, prox_radius=0.5)
    with pytest.raises(ThetaGuard):
        reverse_catching_up(freg, [1.0, 0.0], 1.0, bad_cfg)


def test_reverse_refused_without_evidence(norm):
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=100, map_lipschitz=1.0)
    with pytest.raises(ReverseRefused):
        reverse_catching_up(norm, [1.5, 0.0], 1.0, cfg)
    # a validated prox radius unlocks reverse mode on a raw function
    cfg_ok = SweepingConfig(alpha2=1.5, horizon=1.0, steps=100,
                            map_lipschitz=1.0, prox_radius=1.0)
    traj = reverse_catching_up(norm, [0.5, 0.0], 1.0, cfg_ok)
    assert np.linalg.norm(traj.endpoint - [1.5, 0.0]) <= 1e-2


def test_reverse_needs_map_lipschitz(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=100)
    with pytest.raises(MissingConstants):
        reverse_catching_up(freg, [1.0, 0.0], 1.0, cfg)


def test_reverse_recovery_error_shrinks(tube):
    freg = regularize(tube, 0.25)
    x0 = cap_point(1.5, np.pi / 6)
    errors = []
    for k in (250, 500, 1000, 2000):
        cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=k, map_lipschitz=1.0)
        fwd = forward_catching_up_batch(freg, x0, cfg)
        rev = reverse_catching_up(freg, fwd.endpoint, 0.5, cfg)
        errors.append(float(np.linalg.norm(rev.endpoint - x0)))
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= 0.75 * hi + 1e-9
    assert errors[-1] <= 1e-2


def test_reverse_step_expansion_bound(tube):
    # consecutive gaps between two reverse runs grow at most by 1/(1-theta)
    freg = regularize(tube, 0.25)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=400,
                         map_lipschitz=1.0, prox_radius=0.25)
    theta = cfg.theta(0.5)
    u1 = cap_point(1.0, np.pi / 7)
    u2 = cap_point(1.0, np.pi / 5)
    r1 = reverse_catching_up(freg, u1, 0.5, cfg)
    r2 = reverse_catching_up(freg, u2, 0.5, cfg)
    gaps = np.linalg.norm(r1.points - r2.points, axis=1)
    ratio = gaps[1:] / gaps[:-1]
    assert np.max(ratio) <= 1.0 / (1.0 - theta) + 1e-8


def test_reverse_batch_equals_single_runs(tube):
    # A batch of reverse starts runs every start as its own one-start run,
    # bit for bit: regularized (complement projection) and plain (inward
    # boundary step under a validated prox radius).
    angles = np.linspace(-1.2, 1.2, 5)
    runs = [
        (regularize(tube, 0.25), np.stack([cap_point(1.0, a) for a in angles]), None),
        (tube, np.stack([cap_point(1.0, a, eps=0.0) for a in angles]
                        + [[0.5, 1.0], [0.25, -1.0]]), 1.0),
    ]
    for f, starts, prox_radius in runs:
        cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=50,
                             map_lipschitz=1.0, prox_radius=prox_radius)
        batch = reverse_catching_up(f, starts, 0.5, cfg)
        assert batch.points.shape == (51, len(starts), 2)
        assert batch.values.shape == (51, len(starts))
        for i, start in enumerate(starts):
            single = reverse_catching_up(f, start, 0.5, cfg)
            assert single.points.shape == (51, 2)
            assert np.array_equal(batch.trajectory(i).points, single.points)
            assert np.array_equal(batch.trajectory(i).values, single.values)
            assert np.array_equal(batch.levels, single.levels)


def test_inward_step_matches_exact_nearest_boundary_points(norm, tube):
    rng = split_rng(11, "inward-step")
    # Norm: the nearest point of the level-a sphere is x * a / |x|.
    x = rng.uniform(-1.0, 1.0, size=(50, 2))
    x = x[np.linalg.norm(x, axis=1) > 0.1]
    assert np.allclose(_inward_step(norm, 1.5, x),
                       x * (1.5 / np.linalg.norm(x, axis=1))[:, None], rtol=0.0, atol=1e-9)
    # Capsule: from its segment anchor, radially out to distance 1. Points
    # within 1e-4 of the lines where the caps meet the sides are left out;
    # test_level_normals_are_the_signed_distance_gradient covers them.
    a = 1.2
    x = np.stack([rng.uniform(-0.9, a + 0.9, 400), rng.uniform(-0.9, 0.9, 400)], axis=1)
    anchor = np.stack([np.clip(x[:, 0], 0.0, a), np.zeros(len(x))], axis=1)
    gap = np.linalg.norm(x - anchor, axis=1)
    keep = (gap > 0.1) & (gap < 0.95) & (np.abs(x[:, 0]) > 1e-4) & (np.abs(x[:, 0] - a) > 1e-4)
    x, anchor, gap = x[keep], anchor[keep], gap[keep]
    exact = anchor + (x - anchor) / gap[:, None]
    assert np.allclose(_inward_step(tube, a, x), exact, rtol=0.0, atol=1e-9)
    # Points on or outside the boundary stay where they are.
    out = np.array([[a + 1.0, 0.0], [3.0, 2.0]])
    assert np.array_equal(_inward_step(tube, a, out), out)


def test_inward_step_on_the_lens_matches_a_dense_boundary_sample():
    f = get_function("localized:tube:1.5,0:0.4")
    level = 0.5
    rng = split_rng(12, "lens-step")
    x = np.stack([rng.uniform(1.1, 1.5, 400), rng.uniform(-0.35, 0.35, 400)], axis=1)
    s_base = f.base.level_signed_distance(level, x)
    s_ball = np.linalg.norm(x - f.center, axis=1) - f.delta
    # Inside the lens and away from its medial axis, where both pieces tie.
    x = x[(np.maximum(s_base, s_ball) < -0.01) & (np.abs(s_base - s_ball) > 0.02)][:40]
    assert len(x) >= 20
    dense = sample_boundary(f.sublevel(level), 1e-4).points
    step = _inward_step(f, level, x)
    for p, q in zip(x, step):
        assert np.linalg.norm(q - dense_boundary_nearest(dense, p)) <= 2e-4
    assert np.max(np.abs(f.level_signed_distance(level, step))) <= 1e-12


def test_inward_step_degenerate_at_the_norm_origin(norm):
    with pytest.raises(DegenerateDirection):
        _inward_step(norm, 1.0, np.zeros((1, 2)))


def test_pairwise_nonexpansive_forward(gallery):
    rng = split_rng(17, "pairs")
    windows = {"norm": 2.0, "tube": 1.5, "gauge": 1.5}
    for name, f in gallery.items():
        alpha2 = windows[name]
        horizon = 0.4 * (alpha2 - f.inf_value)
        cfg = SweepingConfig(alpha2=alpha2, horizon=horizon, steps=150)
        lo, hi = f.level_bbox(alpha2)
        pts = lo + (hi - lo) * rng.uniform(size=(300, 2))
        inside = np.asarray(f.sublevel(alpha2).membership(pts, tol=0.0))
        pts = pts[inside][:200]
        batch = forward_catching_up_batch(f, pts, cfg)
        half = len(pts) // 2
        gaps = np.linalg.norm(batch.points[:, :half, :]
                              - batch.points[:, half:2 * half, :], axis=2)
        assert np.all(np.diff(gaps, axis=0) <= 1e-8)


def test_batch_speeds_and_residuals_match_single_runs(norm):
    # A batch trajectory gives one column of speeds and residuals per start,
    # the values of that start's own run.
    starts = np.array([[1.5, 0.0], [0.0, 2.0], [1.2, -1.2]])
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=10)
    batch = forward_catching_up_batch(norm, starts, cfg)
    speeds, residuals = batch.speeds, batch.boundary_residuals(norm)
    assert speeds.shape == residuals.shape == (11, 3)
    for i, x0 in enumerate(starts):
        single = forward_catching_up_batch(norm, x0, cfg)
        run = batch.trajectory(i)
        assert np.array_equal(run.points, single.points)
        assert np.allclose(speeds[:, i], single.speeds, rtol=0.0, atol=1e-14)
        assert np.allclose(residuals[:, i], single.boundary_residuals(norm),
                           rtol=0.0, atol=1e-14)


def test_flow_map_radial_rays(norm):
    freg = regularize(norm, 0.5)
    angles = np.linspace(0, 2 * np.pi, 9)[:-1]
    grid = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=200)
    fm = flow_map(freg, grid, cfg)
    assert fm.points.shape == (201, 8, 2)
    dirs = grid / np.linalg.norm(grid, axis=1, keepdims=True)
    ends = fm.endpoint
    assert np.allclose(ends, dirs, atol=1e-9)  # radius 0.5 + 0.5 rays


def test_flow_map_zero_horizon_identity(norm):
    freg = regularize(norm, 0.5)
    grid = np.array([[2.0, 0.0], [0.0, 2.0]])
    cfg = SweepingConfig(alpha2=1.5, horizon=0.0, steps=1)
    fm = flow_map(freg, grid, cfg)
    assert np.allclose(fm.endpoint, grid)


def test_flow_map_injectivity_probe(tube):
    freg = regularize(tube, 0.25)
    angles = np.linspace(-1.2, 1.2, 16)
    grid = np.stack([cap_point(1.5, a) for a in angles])
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=200)
    fm = flow_map(freg, grid, cfg)
    ends = fm.endpoint
    gaps = np.linalg.norm(ends[:, None, :] - ends[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert float(np.min(gaps)) > 1e-4


def test_flow_map_requires_boundary_grid(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=10)
    with pytest.raises(DomainError):
        flow_map(freg, np.array([[1.0, 0.0]]), cfg)


def test_invert_flow_trivial_pair(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=200,
                         map_lipschitz=1.0, prox_radius=1.0)
    rec = invert_flow_check(freg, [2.0, 0.0], [2.0, 0.0], 0.5, 0.5, cfg,
                            func_lipschitz=1.0)
    assert rec["D_in"] == 0.0 and rec["bilipschitz_ok"]


def test_invert_flow_radial_pair(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=400,
                         map_lipschitz=1.0, prox_radius=1.0)
    rec = invert_flow_check(freg, [2.0, 0.0], [0.0, 2.0], 0.5, 0.5, cfg,
                            func_lipschitz=1.0)
    assert rec["bilipschitz_ok"] and rec["nonexpansive_ok"]
    assert rec["dist_out"] == pytest.approx(1.5 * np.sqrt(2), abs=1e-9)


def test_invert_flow_check_batch_equals_single_pairs(norm):
    # All 2n starts of a batch run in one forward batch; each pair's record
    # equals its own call bit for bit, with one time per pair or one for all.
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=40,
                         map_lipschitz=1.0, prox_radius=1.0)
    rng = split_rng(0, "flow-check-batch")
    a1, a2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, 6))
    radii = np.array([2.0, 2.0, 1.8, 2.0, 2.0, 2.0])
    m1 = np.stack([np.cos(a1), np.sin(a1)], axis=1) * radii[:, None]
    m2 = np.stack([np.cos(a2), np.sin(a2)], axis=1) * 2.0
    m2[3] = m1[3]
    t1 = np.array([0.0, 0.3, 0.5, 0.5, 1.0, 0.7])
    t2 = np.array([0.2, 0.3, 0.9, 0.5, 1.0, 0.0])
    for times in ((t1, t2), (0.5, 0.25)):
        rec = invert_flow_check(freg, m1, m2, *times, cfg, func_lipschitz=1.0)
        assert set(rec) == {"D_in", "dist_out", "bound", "bilipschitz_ok", "nonexpansive_ok"}
        for i in range(6):
            one = invert_flow_check(freg, m1[i], m2[i], *[np.broadcast_to(t, 6)[i] for t in times],
                                    cfg, func_lipschitz=1.0)
            for key, value in one.items():
                assert type(value) in (float, bool), key
                assert np.asarray(value).tobytes() == rec[key][i].tobytes(), (i, key)
    assert rec["D_in"][3] == 0.25


def test_invert_flow_needs_constants(norm):
    freg = regularize(norm, 0.5)
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=100)
    with pytest.raises(MissingConstants):
        invert_flow_check(freg, [2.0, 0.0], [0.0, 2.0], 0.2, 0.3, cfg,
                          func_lipschitz=1.0)


def test_trajectory_interpolation(norm):
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=10)
    traj = forward_catching_up_batch(norm, [2.0, 0.0], cfg)
    mid = traj.interpolate(0.55)
    assert np.allclose(mid, [1.45, 0.0], atol=1e-12)


def test_trajectory_csv_format(tmp_path, norm):
    cfg = SweepingConfig(alpha2=2.0, horizon=0.5, steps=5)
    traj = forward_catching_up_batch(norm, [2.0, 0.0], cfg)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, norm, path, comment="toolstamp")
    lines = path.read_text().splitlines()
    assert lines[0] == "# toolstamp"
    assert lines[1] == "step,t,level,x0,x1,f,speed,dist_to_boundary"
    assert len(lines) == 2 + 6
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[5]) == 2.0


def _per_cell_repr_csv(traj, f, comment=""):
    """The writer that format_rows replaced, kept as the reference: one repr
    per cell of one tolist() table."""
    dim = traj.points.shape[1]
    cols = ["step", "t", "level"] + [f"x{i}" for i in range(dim)] + [
        "f", "speed", "dist_to_boundary"]
    table = np.column_stack([traj.times, traj.levels, traj.points, traj.values, traj.speeds,
                             traj.boundary_residuals(f)]).tolist()
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(cols))
    lines += [",".join([str(j), *map(repr, row)]) for j, row in enumerate(table)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_trajectory_csv_bytes_match_the_per_row_formatter(tmp_path):
    # Each cell's text must be its repr, for one run and for a run of a batch.
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 2.5e-310, 1.0 / 3.0,
                         -1e300, 0.1, 7.0])

    class Residuals:
        def level_signed_distance(self, alphas, points):
            return np.resize(specials[::-1], len(points))

    times = np.array([-0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5])
    levels = np.resize(specials[2:], len(times))
    points = np.resize(specials, (len(times), 3, 2))
    points[:, 1] = np.roll(points[:, 0], 3, axis=0)
    batch = Trajectory(times=times, levels=levels, points=points,
                       values=np.resize(specials[1:], (len(times), 3)))
    single = Trajectory(times=times, levels=levels, points=np.roll(points[:, 0], 1, axis=0),
                        values=np.resize(specials[4:], len(times)))
    for traj in (single, batch.trajectory(1)):
        path = tmp_path / "traj.csv"
        with np.errstate(invalid="ignore"):
            trajectory_to_csv(traj, Residuals(), path, comment="stamp")
            want = _per_cell_repr_csv(traj, Residuals(), "stamp")
        assert path.read_bytes() == want
        cells = set(",".join(want.decode().splitlines()[2:]).split(","))
        assert {"-0.0", "inf", "-inf", "nan", "5e-324"} <= cells


@pytest.mark.parametrize("rows", [0, 1, 2, 9])
def test_format_rows_matches_per_cell_repr(rows):
    # Both zeros sit in every table: a formatter that tells values apart by
    # == instead of by bits gives one of them the other's text. Two rows is
    # where single-index and itemgetter shortcuts go wrong.
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0 / 3.0, 0.1]
    table = np.resize(np.array(specials), (rows, 4))
    table[-1:, 3] = table[:1, 0]
    names = [f"r{j}" for j in range(rows)]
    want = [",".join(map(repr, row)) for row in table.tolist()]
    assert format_rows(table) == want
    assert format_rows(table, names, map(str, range(rows))) == [
        f"{name},{j},{row}" for j, (name, row) in enumerate(zip(names, want))]
    assert format_rows(table[:, :1]) == [repr(row[0]) for row in table.tolist()]


def test_flow_map_runs_written_in_turn_match_the_per_cell_repr_writer(tmp_path, tube):
    # The runs of a flow map share one partition, whose cells are formatted
    # once for all of them.
    f = regularize(tube, 0.25)
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    grid = _ray_boundary_points(f.sublevel(1.5), np.stack([np.cos(angles), np.sin(angles)], 1))
    fm = flow_map(f, grid, SweepingConfig(alpha2=1.5, horizon=0.8, steps=40))
    for i in range(len(grid)):
        path = tmp_path / f"trajectory_{i:03d}.csv"
        trajectory_to_csv(fm.trajectory(i), f, path, comment="stamp")
        assert path.read_bytes() == _per_cell_repr_csv(fm.trajectory(i), f, "stamp")


def test_partitions_sharing_times_or_levels_written_alternately(tmp_path, norm):
    # Each pair shares one of the two partition columns, so a partition
    # cache keyed on the other alone hands one run the other's cells.
    cfg = SweepingConfig(alpha2=2.0, horizon=0.5, steps=8)
    base = forward_catching_up_batch(norm, [2.0, 0.0], cfg)
    same_times = forward_catching_up_batch(norm, [1.5, 0.5], replace(cfg, alpha2=1.9))
    same_levels = replace(base, times=0.5 * base.times)
    assert np.array_equal(same_times.times, base.times)
    assert not np.array_equal(same_times.levels, base.levels)
    assert np.array_equal(same_levels.levels, base.levels)
    assert not np.array_equal(same_levels.times, base.times)
    path = tmp_path / "traj.csv"
    for traj in (base, same_times, base, same_levels, base, same_levels):
        trajectory_to_csv(traj, norm, path)
        assert path.read_bytes() == _per_cell_repr_csv(traj, norm)


def test_one_row_steps_call_no_python_level_numpy_wrappers(monkeypatch, gallery):
    # numpy's Python-level wrappers cost several times a ufunc on one row, and
    # a descend takes one one-row step per partition point. Each forward step
    # (plain and regularized), a regularized reverse step and a forward and a
    # reverse step on the regularized localized tube (the lens) run once with
    # them patched to raise.
    lens = regularize(get_function("localized:tube:1.5,0:0.4"), 0.2)
    lens_boundary = lens.level_project(0.5, np.array([[2.5, 0.1]]))
    steps = []
    monkeypatch.setattr(sweeping, "_catching_up",
                        lambda f, x0, times, levels, step, hold=None: steps.append((step, levels[1], x0)))
    for name, x0 in (("norm", [[1.2, 0.5]]), ("tube", [[1.5, 0.6]]), ("gauge", [[0.3, 1.5]])):
        for f in (gallery[name], regularize(gallery[name], 0.25)):
            cfg = SweepingConfig(alpha2=float(f.eval(x0[0])), horizon=0.2, steps=4)
            forward_catching_up_batch(f, x0, cfg)
    forward_catching_up_batch(lens, [[1.8, 0.1]], SweepingConfig(
        alpha2=float(lens.eval([1.8, 0.1])), horizon=0.2, steps=4))
    reverse_catching_up(regularize(gallery["tube"], 0.25), cap_point(1.0, 0.7)[None, :], 0.5,
                        SweepingConfig(alpha2=1.5, horizon=0.5, steps=50, map_lipschitz=1.0))
    reverse_catching_up(lens, lens_boundary, 0.1,
                        SweepingConfig(alpha2=0.6, horizon=0.1, steps=10, map_lipschitz=1.0))
    assert len(steps) == 9

    def wrapper(*args, **kwargs):
        raise AssertionError("a Python-level numpy wrapper on the one-row step path")

    with monkeypatch.context() as m:
        for name in ("broadcast_to", "stack", "clip", "full", "any", "flatnonzero"):
            m.setattr(np, name, wrapper)
        m.setattr(np.linalg, "norm", wrapper)
        moved = [step(level, x0) for step, level, x0 in steps]
    assert all(not np.array_equal(x, x0) for x, (_, _, x0) in zip(moved, steps))


def test_config_validation():
    with pytest.raises(ValueError):
        SweepingConfig(alpha2=1.0, horizon=-0.1, steps=10)
    with pytest.raises(ValueError):
        SweepingConfig(alpha2=1.0, horizon=1.0, steps=0)
    cfg = SweepingConfig(alpha2=1.0, horizon=1.0, steps=4)
    with pytest.raises(MissingConstants):
        cfg.theta()


@pytest.mark.parametrize("key", ["map_lipschitz", "prox_radius"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
def test_config_rejects_constants_that_are_not_positive(key, value):
    # theta divides by the prox radius and scales with the map constant, and
    # a theta of 0 or below would pass its guard.
    with pytest.raises(ValueError, match=key):
        SweepingConfig(alpha2=1.5, horizon=1.0, steps=4, **{key: value})


def test_reverse_rejects_a_negative_horizon(norm):
    # [2.5, 0] lies on the boundary of the level-2 set that tbar = -0.5
    # would start from, above the reference level alpha2.
    cfg = SweepingConfig(alpha2=1.5, horizon=1.0, steps=4, map_lipschitz=1.0, prox_radius=0.5)
    with pytest.raises(ValueError, match="tbar"):
        reverse_catching_up(regularize(norm, 0.5), [2.5, 0.0], -0.5, cfg)


def test_regularized_steps_take_one_growth_call(monkeypatch):
    # A regularized step, forward and reverse, on a two-ball hull or on the
    # lens, is one call of its base's projection onto the set grown by eps
    # (_grown_project). A hull's is its kernel alone: its level_project does
    # not run.
    steps = []
    monkeypatch.setattr(sweeping, "_catching_up",
                        lambda f, x0, times, levels, step, hold=None: steps.append((f, step, levels[1], x0)))
    for name, dim, eps, x0, alpha2 in (
            ("norm", 2, 0.25, [1.2, 0.5], 1.6), ("norm", 3, 0.25, [1.2, 0.5, 0.3], 1.6),
            ("tube", 2, 0.25, [1.5, 0.6], 1.6), ("gauge", 2, 0.25, [0.3, 1.5], 1.6),
            ("localized:tube:1.5,0:0.4", 2, 0.2, [1.8, 0.1], 0.6)):
        f = regularize(get_function(name, dim=dim), eps)
        forward_catching_up_batch(f, [x0], SweepingConfig(
            alpha2=float(f.eval(x0)), horizon=0.1, steps=4))
        start = f.level_project(alpha2 - 0.1, np.asarray([x0]) + 1.0)
        reverse_catching_up(f, start, 0.1, SweepingConfig(
            alpha2=alpha2, horizon=0.1, steps=10, map_lipschitz=1.0))
    assert len(steps) == 10

    for f, step, level, x0 in steps:
        calls = []

        with monkeypatch.context() as m:
            for name in ("_grown_project", "level_project"):
                inner = getattr(f.base, name)
                m.setattr(f.base, name, lambda *args, name=name, inner=inner:
                          calls.append((name, args[2:])) or inner(*args))
            assert not np.array_equal(step(level, x0), x0)
        lens = [] if isinstance(f.base, HullFunction) else [("level_project", ())]
        assert calls == [("_grown_project", (f.eps,))] + lens


def test_forward_batch_of_no_starts_is_an_empty_run(tube):
    traj = forward_catching_up_batch(regularize(tube, 0.25), np.zeros((0, 2)),
                                     SweepingConfig(alpha2=1.5, horizon=0.5, steps=4))
    assert traj.points.shape == (5, 0, 2) and traj.values.shape == (5, 0)
