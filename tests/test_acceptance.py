"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them). Where a
benchmark is solved exactly by the discretization (ball projections are
radial rescalings, so the norm flow carries no step error), convergence-rate
clauses are vacuous; they are then checked against a machine-noise floor and
reported as saturated rather than asserted on roundoff quotients.
"""

import numpy as np
import pytest

from sweepdescent.errors import ThetaGuard
from sweepdescent.functions import LocalizedFunction, get_function, slope_values
from sweepdescent.regularization import (prox_radius_estimate, regularize,
                                         semigroup_gaps)
from sweepdescent.rng import split_rng
from sweepdescent.sweeping import (SweepingConfig, forward_catching_up_batch,
                                   invert_flow_check, reverse_catching_up)
from sweepdescent.verification import (_check_base_point,
                                       _check_eval_consistency,
                                       estimate_function_lipschitz,
                                       estimate_slope_floor,
                                       probe_steepest_descent,
                                       verify_moving_map_lipschitz)

NOISE_FLOOR = 1e-12


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def cap_point(level, angle, eps=0.25):
    return np.array([level + (1 + eps) * np.cos(angle),
                     (1 + eps) * np.sin(angle)])


def radial_error(dim, steps):
    f = get_function("norm", dim=dim)
    x0 = 2.0 * np.ones(dim) / np.sqrt(dim)
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=steps)
    traj = forward_catching_up_batch(f, x0, cfg)
    return float(np.linalg.norm(traj.endpoint - x0 / 2.0))


def test_criterion_1_radial_benchmark():
    details = []
    ok = True
    for dim in (2, 5):
        e1000 = radial_error(dim, 1000)
        e2000 = radial_error(dim, 2000)
        ok &= e1000 <= 5e-3
        if e1000 <= NOISE_FLOOR and e2000 <= NOISE_FLOOR:
            details.append(f"d={dim}: err(k=1000)={e1000:.1e} "
                           "(exact; rate clause saturated at machine noise)")
        else:
            ratio = e2000 / e1000
            ok &= 0.4 <= ratio <= 0.6
            details.append(f"d={dim}: err={e1000:.2e}, halving ratio={ratio:.2f}")
    report(1, ok, "; ".join(details))


def test_criterion_2_value_decay():
    runs = [
        ("norm", None, [2.0, 0.0], 2.0, 1.0),
        ("tube", None, [2.0, 0.0], 1.0, 0.6),
        ("gauge", None, [0.0, 2.25], None, 0.3),
        ("norm", 0.25, [2.0, 0.0], 1.75, 1.0),
        ("tube", 0.25, [3.25, 0.0], 2.0, 1.0),
        ("gauge", 0.25, [0.0, 2.5], None, 0.3),
    ]
    worst = 0.0
    for name, eps, x0, alpha2, horizon in runs:
        f = get_function(name)
        if eps is not None:
            f = regularize(f, eps)
        a2 = alpha2 if alpha2 is not None else float(f.eval(x0))
        cfg = SweepingConfig(alpha2=a2, horizon=horizon, steps=1000)
        traj = forward_catching_up_batch(f, x0, cfg)
        riding = traj.levels <= float(f.eval(np.asarray(x0))) + 1e-12
        worst = max(worst, float(np.max(np.abs(
            traj.values[riding] - traj.levels[riding]))))
    report(2, worst <= 1e-6,
           f"max |f(u_j) - level_j| = {worst:.2e} over 6 runs (tol 1e-6)")


def test_criterion_3_waiting_phase():
    f = get_function("norm")
    cfg = SweepingConfig(alpha2=2.0, horizon=1.0, steps=1000)
    x0 = np.array([1.5, 0.0])  # value alpha2 - 0.5
    traj = forward_catching_up_batch(f, x0, cfg)
    waiting = traj.times <= 0.5
    exact = bool(np.all(traj.points[waiting] == x0))
    residual = float(np.max(traj.boundary_residuals(f)[~waiting]))
    ok = exact and residual <= 1e-6
    report(3, ok, f"first half exact={exact}, riding residual={residual:.2e}")


def test_criterion_4_reverse_recovery():
    cases = [
        ("norm", 0.5, np.array([2.0, 0.0]), 1.5),
        ("tube", 0.25, cap_point(1.5, np.pi / 6), 1.5),
    ]
    details, ok = [], True
    for name, eps, x0, alpha2 in cases:
        freg = regularize(get_function(name), eps)
        errors = []
        for k in (250, 500, 1000, 2000):
            cfg = SweepingConfig(alpha2=alpha2, horizon=0.5, steps=k,
                                 map_lipschitz=1.0)
            fwd = forward_catching_up_batch(freg, x0, cfg)
            rev = reverse_catching_up(freg, fwd.endpoint, 0.5, cfg)
            errors.append(float(np.linalg.norm(rev.endpoint - x0)))
        ok &= errors[-1] <= 1e-2
        if max(errors) <= NOISE_FLOOR:
            details.append(f"{name}: exact to machine noise "
                           f"(err(k=2000)={errors[-1]:.1e})")
        else:
            ratios = [b / a for a, b in zip(errors, errors[1:])]
            ok &= all(r <= 0.75 for r in ratios)
            details.append(f"{name}: err(k=2000)={errors[-1]:.2e}, "
                           f"ratios={[round(r, 2) for r in ratios]}")
    report(4, ok, "; ".join(details))


def test_criterion_5_theta_guard():
    freg = regularize(get_function("norm"), 0.5)
    cfg_ok = SweepingConfig(alpha2=1.5, horizon=1.0, steps=4,
                            map_lipschitz=1.0, prox_radius=0.5)
    accepted = False
    try:
        reverse_catching_up(freg, [1.0, 0.0], 1.0, cfg_ok)
        accepted = True
    except ThetaGuard:
        pass
    refused = False
    cfg_bad = SweepingConfig(alpha2=1.5, horizon=1.0, steps=1,
                             map_lipschitz=1.0, prox_radius=0.5)
    try:
        reverse_catching_up(freg, [1.0, 0.0], 1.0, cfg_bad)
    except ThetaGuard:
        refused = True
    ok = accepted and refused and cfg_ok.theta() == pytest.approx(0.5)
    report(5, ok, f"theta=0.5 accepted={accepted}, theta=2 refused={refused}")


def test_criterion_6_nonexpansiveness():
    rng = split_rng(0, "acceptance-pairs")
    windows = {"norm": 2.0, "tube": 1.5, "gauge": 1.5}
    worst = -np.inf
    for name, alpha2 in windows.items():
        f = get_function(name)
        horizon = 0.4 * (alpha2 - f.inf_value)
        cfg = SweepingConfig(alpha2=alpha2, horizon=horizon, steps=200)
        lo, hi = f.level_bbox(alpha2)
        pts = lo + (hi - lo) * rng.uniform(size=(800, 2))
        pts = pts[np.asarray(f.sublevel(alpha2).membership(pts, tol=0.0))][:200]
        assert len(pts) == 200
        batch = forward_catching_up_batch(f, pts, cfg)
        gaps = np.linalg.norm(batch.points[:, :100, :]
                              - batch.points[:, 100:, :], axis=2)
        worst = max(worst, float(np.max(np.diff(gaps, axis=0))))
    report(6, worst <= 1e-8,
           f"max inter-trajectory distance increase = {worst:.2e} "
           "(100 pairs x 3 functions, slack 1e-8)")


def test_criterion_7_regularization_consistency():
    windows = {"norm": (0.5, 1.5), "tube": (0.3, 1.7), "gauge": (1.2, 1.8)}
    rng = split_rng(1, "acceptance-semigroup")
    details, ok = [], True
    for name, window in windows.items():
        f = get_function(name)
        freg = regularize(f, 0.25)
        grid_check = _check_eval_consistency(freg, window, 100, seed=0)
        base_check = _check_base_point(freg, window, 100, seed=0)
        lo, hi = f.level_bbox(window[1])
        pts = lo + (hi - lo) * rng.uniform(size=(100, 2))
        semi = bool(np.all(semigroup_gaps(regularize(f, 0.25), 0.1, pts) <= 1e-6))
        ok &= bool(grid_check.passed and base_check.passed and semi)
        details.append(f"{name}: grid gap {grid_check.details['worst_gap']:.1e}, "
                       f"base gap {base_check.details['max_value_gap']:.1e}, "
                       f"semigroup {semi}")
    report(7, ok, "; ".join(details))


def test_criterion_8_slope_inequality():
    windows = {"norm": (0.5, 1.5), "tube": (0.3, 1.7), "gauge": (1.2, 1.8)}
    worst = -np.inf
    for name, window in windows.items():
        f = get_function(name)
        for eps in (0.1, 0.25, 0.5):
            freg = regularize(f, eps)
            rng = split_rng(2, "acceptance-slope", name, int(eps * 100))
            lo, hi = freg.level_bbox(window[1])
            pts = lo + (hi - lo) * rng.uniform(size=(600, 2))
            vals = np.asarray(freg.eval(pts))
            keep = (np.isfinite(vals) & (vals > f.inf_value + 1e-6)
                    & (vals >= window[0]) & (vals <= window[1]))
            pts, vals = pts[keep][:100], vals[keep][:100]
            assert len(pts) == 100
            z = freg.base.level_project(vals, pts)
            s_reg = slope_values(freg, pts, seed=3)
            s_base = slope_values(f, z, seed=3)
            worst = max(worst, float(np.max(s_base - s_reg)))
    report(8, worst <= 1e-3,
           f"max slope deficit = {worst:.2e} over 100 pts x 3 eps x 3 "
           "functions (tol 1e-3)")


def test_criterion_9_prox_radius_recovery():
    gauge = get_function("gauge")
    details, ok = [], True
    for level, expect in [(1.25, 0.25), (1.5, 0.5), (0.5, 0.5), (0.75, 0.75)]:
        est = prox_radius_estimate(gauge, level, seed=0)
        good = abs(est.r_hat - expect) <= 0.1 * expect
        ok &= good
        details.append(f"s={level}: r={est.r_hat:.3f} (expect {expect})")
    tube_reg = regularize(get_function("tube"), 0.25)
    est_t = prox_radius_estimate(tube_reg, 1.0, seed=0)
    ok &= est_t.r_hat >= 0.9 * 0.25
    h_reg = regularize(LocalizedFunction(get_function("tube"), [1.5, 0.0], 0.4), 0.2)
    est_h = prox_radius_estimate(h_reg, 0.5, seed=0)
    ok &= est_h.r_hat >= 0.9 * 0.2
    details.append(f"dilated: tube {est_t.r_hat:.3f} >= 0.225, "
                   f"localized {est_h.r_hat:.3f} >= 0.18")
    report(9, ok, "; ".join(details))


def test_criterion_10_moving_map_lipschitz():
    details, ok = [], True
    for name, window in [("norm", (1.0, 1.5)), ("tube", (0.5, 1.5))]:
        f = get_function(name)
        floor = estimate_slope_floor(f, window, n_points=120, seed=0)
        check_s, check_u, direct = verify_moving_map_lipschitz(
            f, window[0], window[1], n_levels=4, slope_floor=floor,
            resolution=0.01, seed=0)
        ok &= bool(check_s.passed and check_u.passed)
        details.append(f"{name}: rate {direct:.4f} <= 1/floor "
                       f"{1.0 / floor:.4f} + 2res")
    report(10, ok, "; ".join(details))


def test_criterion_11_bilipschitz_flow():
    freg = regularize(get_function("tube"), 0.25)
    window = (0.9, 1.5)
    floor = estimate_slope_floor(freg, window, n_points=100, seed=0)
    r_hat = min(prox_radius_estimate(freg, lvl, seed=0).r_hat
                for lvl in np.linspace(window[0], window[1], 3))
    lip = estimate_function_lipschitz(freg, window, n_points=100, seed=0)
    cfg = SweepingConfig(alpha2=1.5, horizon=0.5, steps=150,
                         map_lipschitz=1.0 / floor, prox_radius=r_hat)
    rng = split_rng(4, "acceptance-bilip")
    angles = rng.uniform(-1.2, 1.2, size=(200, 2))
    times = rng.uniform(0.0, 0.5, size=(200, 2))
    failures = 0
    worst_ratio = 0.0
    for (a1, a2), (t1, t2) in zip(angles, times):
        rec = invert_flow_check(freg, cap_point(1.5, a1), cap_point(1.5, a2),
                                t1, t2, cfg, func_lipschitz=lip)
        if not (rec["bilipschitz_ok"] and rec["nonexpansive_ok"]):
            failures += 1
        if rec["dist_out"] > 0:
            worst_ratio = max(worst_ratio, rec["D_in"] / rec["dist_out"])
    bound = lip + np.exp(cfg.map_lipschitz * cfg.horizon / cfg.prox_radius)
    report(11, failures == 0,
           f"200 pairs, worst D/dist = {worst_ratio:.2f} vs bound "
           f"{bound:.2f} * 1.05, failures = {failures}")


def test_criterion_12_steepest_descent_probe():
    details, ok = [], True
    for name, window, threshold in [("norm", (0.75, 1.4), 0.95),
                                    ("tube", (0.5, 1.4), 0.90)]:
        freg = regularize(get_function(name), 0.25)
        cfg = SweepingConfig(alpha2=window[1], horizon=0.4, steps=80)
        probe = probe_steepest_descent(freg, 50, cfg, window=window, seed=0)
        frac = probe.details["fraction"]
        ok &= frac >= threshold
        details.append(f"{name}: fraction {frac:.2f} (need {threshold})")
    report(12, ok, "; ".join(details) + " - empirical probe, not a proof")
