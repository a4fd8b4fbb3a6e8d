"""Batch property-verification harness with a structured diagnostics report.

Each check binds one verified property to a named, repeatable test with a
pass/fail verdict, a numeric margin and a witness on failure. One rule,
_check, builds every result: the anchor comes from ANCHORS, the verdict is
True, False or None (skipped, as when a check examined no sample), and the
witness is kept only on failure. Estimated
constants (slope floor, moving-map Lipschitz rate, prox radius, function
Lipschitz bound) are reported alongside and feed the sweeping consumers.
Probabilistic claims are reported as pass fractions over seeded samples,
never as proof verdicts.

Slope estimator per check:
- level_slopes, the level-search slope (one batched level_at_distance call
  per radius): h2-slope-floor and every check built on its floor,
  func_lipschitz and the probe's criticality filter.
- slope_values, the probe sweep (difference quotients of eval alone), where
  the level search would be circular: steepest-descent-probe, whose speed is
  a sublevel distance per level drop, and slope-transfer, which B(z, h) in
  B(x, eps + h) would make hold by construction.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, MissingConstants
from .functions import (LocalizedFunction, QuasiconvexFunction, level_slopes,
                        limiting_slope, slope_values)
from .geometry import BLOCK_ROWS, _atleast_2d, _norms, sample_boundary
from .regularization import (RegularizedFunction, prox_radius_estimate,
                             regularize, semigroup_gaps, slope_deficits)
from .rng import split_rng
from .sweeping import SweepingConfig

CRITICALITY_TOL = 1e-2
PROBE_STEP_TOL = 5e-2
PROBE_STEP_FRACTION = 0.95

ANCHORS = {
    "h1-coercive-nonempty-interior":
        "sublevel sets in the window are compact with interior points",
    "h2-slope-floor": "slope bounded away from zero on the window annulus",
    "h3-complement-prox-radius": "complement prox-regularity radius uniform over the window",
    "moving-map-lipschitz-sublevel":
        "sublevel moving map is (1/slope-floor)-Lipschitz in Hausdorff distance",
    "moving-map-lipschitz-complement":
        "complement moving map is (1/slope-floor)-Lipschitz in Hausdorff distance",
    "constants-consistency": "direct Hausdorff rate does not exceed one over the slope floor",
    "distance-level-bound": "sublevel distance bounded by the value gap over the slope floor",
    "steepest-descent-probe": "speed-slope product stays near one along descent trajectories",
    "localization-distance-bound":
        "localized sublevel distances bounded by scaled base distances",
    "eval-consistency": "level-search value matches brute-force min over the dilation ball",
    "base-point-consistency": "base point carries the regularized value within the radius",
    "semigroup-identity": "split-radius regularization composes to the full radius",
    "slope-transfer": "regularized slope dominates the slope at the base point",
    "monotone-in-epsilon": "pointwise values are nonincreasing in the dilation radius",
    "lipschitz-transfer": "regularization preserves the local Lipschitz bound",
    "dilation-prox-lower-bound": "dilated complements stay prox-regular at the dilation radius",
}


@dataclass
class CheckResult:
    """Outcome of one named property check."""

    name: str
    anchor: str
    passed: bool | None  # None marks a skipped check
    margin: float | None = None
    witness: list | None = None
    details: dict = field(default_factory=dict)


@dataclass
class DiagnosticsReport:
    """Estimated constants plus the ordered list of check outcomes."""

    constants: dict
    checks: list
    config: dict
    seed: int

    def get(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def passed_all(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if c.passed is False]

    def require(self, *names: str) -> None:
        """Refuse to proceed when a prerequisite check failed or is missing."""
        for name in names:
            try:
                check = self.get(name)
            except KeyError as exc:
                raise MissingConstants(f"prerequisite check {name!r} missing") from exc
            if check.passed is not True:
                raise MissingConstants(f"prerequisite check {name!r} did not pass")

    def to_json_text(self) -> str:
        payload = {
            "constants": self.constants,
            "checks": [asdict(c) for c in sorted(self.checks, key=lambda c: c.name)],
            "config": self.config,
            "seed": self.seed,
        }
        return json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False)


def _check(name, passed, margin=None, witness=None, **details) -> CheckResult:
    """The one verdict rule: passed becomes a bool, or None for a skipped
    check; the witness is kept only when the check failed."""
    passed = None if passed is None else bool(passed)
    return CheckResult(name, ANCHORS[name], passed, margin,
                       witness if passed is False else None, details)


def _strict_json(obj):
    """Plain JSON values; non-finite numbers become the strings "Infinity",
    "-Infinity" and "NaN", which strict JSON has no numbers for."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _strict_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if np.isfinite(obj):
            return float(obj)
        return "NaN" if np.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def _annulus_sample(f: QuasiconvexFunction, window, n: int, seed, tag: str):
    """Seeded points with function values inside the window."""
    lo_v, hi_v = window
    box_lo, box_hi = f.level_bbox(hi_v)
    rng = split_rng(seed, "annulus", tag)
    out = []
    for _ in range(200):
        pts = box_lo + (box_hi - box_lo) * rng.uniform(size=(4 * n, f.dim))
        vals = np.asarray(f.eval(pts), dtype=float)
        keep = np.isfinite(vals) & (vals >= lo_v) & (vals <= hi_v)
        out.append(pts[keep])
        if sum(len(o) for o in out) >= n:
            break
    pts = np.concatenate(out)
    if len(pts) < n:
        raise DomainError(f"could not sample {n} points with values in {window}")
    return pts[:n]


def estimate_slope_floor(f: QuasiconvexFunction, window, n_points: int = 160,
                         seed: int = 0) -> float:
    """Minimum slope estimate over seeded points of the level annulus."""
    pts = _annulus_sample(f, window, n_points, seed, "slope-floor")
    return float(np.min(level_slopes(f, pts)))


def estimate_function_lipschitz(f: QuasiconvexFunction, window,
                                n_points: int = 160, seed: int = 0) -> float:
    """Maximum slope estimate over seeded points of the level annulus."""
    pts = _annulus_sample(f, window, n_points, seed, "func-lip")
    return float(np.max(level_slopes(f, pts)))


def verify_moving_map_lipschitz(f: QuasiconvexFunction, alpha1: float,
                                alpha2: float, n_levels: int = 4,
                                slope_floor: float | None = None,
                                resolution: float = 0.01, seed: int = 0):
    """Hausdorff rate of the sublevel and complement moving maps.

    Directed distances are measured from boundary samples of the larger set
    with exact oracle distances, so the tolerance is 2 * resolution.
    Returns (sublevel check, complement check, direct rate estimate).
    """
    if slope_floor is None or slope_floor <= 0:
        raise MissingConstants("needs a validated positive slope floor")
    levels = np.linspace(alpha1, alpha2, n_levels)
    samples = {lvl: sample_boundary(f.sublevel(lvl), resolution, seed=seed)
               for lvl in levels}
    rate_bound = 1.0 / slope_floor
    # Sample counts per level; a capped level is spaced coarser than resolution.
    counts = {"n_samples": [len(samples[lvl]) for lvl in levels],
              "capped": [samples[lvl].capped for lvl in levels]}
    margin_s, margin_u, direct = np.inf, np.inf, 0.0
    witness_s = witness_u = None
    for i, a in enumerate(levels):
        for b in levels[i + 1:]:
            gap = b - a
            pts_b = samples[b].points
            d_sub = float(np.max(f.level_distance(np.full(len(pts_b), a), pts_b)))
            depth = -np.asarray(f.sublevel(b).signed_boundary_distance(samples[a].points))
            d_comp = float(np.max(np.maximum(depth, 0.0)))
            bound = rate_bound * gap + 2.0 * resolution
            direct = max(direct, d_sub / gap)
            if bound - d_sub < margin_s:
                margin_s, witness_s = bound - d_sub, [float(a), float(b)]
            if bound - d_comp < margin_u:
                margin_u, witness_u = bound - d_comp, [float(a), float(b)]
    check_s = _check("moving-map-lipschitz-sublevel", margin_s >= 0, float(margin_s), witness_s,
                     direct_rate=direct, rate_bound=rate_bound, levels=levels.tolist(),
                     resolution=resolution, **counts)
    check_u = _check("moving-map-lipschitz-complement", margin_u >= 0, float(margin_u),
                     witness_u, rate_bound=rate_bound, resolution=resolution, **counts)
    return check_s, check_u, direct


def verify_H1_H3(f: QuasiconvexFunction, window, n_levels: int = 5,
                 seed: int = 0):
    """The three standing regularity diagnostics over a level window.

    H1: the sublevel sets have interior points; their boundedness shows in
    H3, whose boundary samples raise where a set is unbounded. H2: the slope
    stays bounded away from zero off the argmin. H3: the prox-regularity
    radius of the sublevel complements neither vanishes nor degenerates
    across the window (min > 1e-3 and min >= 0.1 * max).
    """
    lo_v, hi_v = window
    levels = np.linspace(lo_v, hi_v, n_levels)

    depths = [-float(oracle.signed_boundary_distance(oracle.interior_point))
              for oracle in map(f.sublevel, levels)]
    h1 = _check("h1-coercive-nonempty-interior", min(depths) > 1e-9, float(min(depths)),
                levels=levels.tolist(), interior_depths=depths)

    floor = estimate_slope_floor(f, window, seed=seed)
    h2 = _check("h2-slope-floor", floor > 0.0, floor, slope_floor=floor)

    estimates = [prox_radius_estimate(f, lvl, seed=seed) for lvl in levels]
    r_hats = [e.r_hat for e in estimates]
    r_min, r_max = float(np.min(r_hats)), float(np.max(r_hats))
    degenerate = (r_min <= 1e-3) or (r_min < 0.1 * r_max)
    h3 = _check("h3-complement-prox-radius", not degenerate, r_min,
                [float(levels[int(np.argmin(r_hats))])], levels=levels.tolist(),
                r_hats=r_hats, n_samples=[e.sample_count for e in estimates],
                skipped_corners=[e.skipped_corners for e in estimates])
    return h1, h2, h3


def membership_U_epsilon(freg: RegularizedFunction, x, seed: int = 0):
    """Non-lower-criticality through the base point of the regularization
    freg: a limiting slope of freg.base there above CRITICALITY_TOL.

    Takes one point (returns a bool) or an (n, d) batch (returns a boolean
    array) and makes one limiting_slope call.
    """
    x2, single = _atleast_2d(x)
    vals = np.asarray(freg.eval(x2), dtype=float)
    out = np.isfinite(vals)
    z = freg.base.level_project(vals[out], x2[out])
    out[out] = limiting_slope(freg.base, z, seed=seed) > CRITICALITY_TOL
    return bool(out[0]) if single else out


def probe_steepest_descent(freg: RegularizedFunction, n_starts: int,
                           cfg: SweepingConfig, window=None,
                           seed: int = 0) -> CheckResult:
    """Empirical speed-slope product test along seeded descent trajectories.

    Starts are sampled from the window annulus, filtered to non-lower
    critical points, and each runs a forward sweep from its own value level.
    A start passes when the discrete speed times the local slope stays within
    PROBE_STEP_TOL of one on at least PROBE_STEP_FRACTION of its steps. The
    reported fraction of passing starts is an empirical probe of the
    almost-everywhere statement, not a verdict on it.
    """
    if window is None:
        window = freg.default_window
    starts = _annulus_sample(freg, window, 3 * n_starts, seed, "probe-starts")
    keep = starts[membership_U_epsilon(freg, starts, seed=seed)]
    if len(keep) < n_starts:
        raise DomainError("not enough non-critical starts in the window")
    starts = keep[:n_starts]

    alpha2s = np.asarray(freg.eval(starts), dtype=float)
    horizon = min(cfg.horizon, 0.8 * float(np.min(alpha2s) - freg.inf_value))
    k = cfg.steps
    times = (np.arange(k + 1) * horizon) / k
    pts = np.empty((k + 1, len(starts), freg.dim))
    pts[0] = starts
    for j in range(1, k + 1):
        pts[j] = freg.level_project(alpha2s - times[j], pts[j - 1])
    speeds = np.linalg.norm(np.diff(pts, axis=0), axis=2) / (horizon / k)
    slopes = slope_values(freg, pts[1:].reshape(-1, freg.dim), seed=seed)
    products = speeds * slopes.reshape(k, len(starts))
    step_ok = np.abs(products - 1.0) <= PROBE_STEP_TOL
    per_start = step_ok.mean(axis=0)
    passing = per_start >= PROBE_STEP_FRACTION
    fraction = float(np.mean(passing))
    # Thresholds belong to the caller; the fraction is the result.
    return _check("steepest-descent-probe", None, fraction, fraction=fraction,
                  n_starts=int(n_starts), step_tol=PROBE_STEP_TOL,
                  step_fraction=PROBE_STEP_FRACTION, horizon=horizon, steps=int(k),
                  per_start_rate=per_start.tolist())


def hoffmann_localization_check(h: LocalizedFunction, z, beta: float) -> CheckResult:
    """Distance bound for the ball-localized function h at one probe point.

    With f = h.base, c = h.center and delta = h.delta:
    d(z, [h <= beta]) <= (delta + d(c, [f <= beta])) / (delta - d(c, [f <= beta]))
    * d(z, [f <= beta]) + 1e-6, skipped when the denominator is not positive.
    """
    f, delta = h.base, h.delta
    z = np.asarray(z, dtype=float)
    d_center = float(f.sublevel(beta).distance(h.center))
    denom = delta - d_center
    if denom <= 0:
        return _check("localization-distance-bound", None, reason="denominator not positive",
                      d_center=d_center, delta=delta)
    factor = (delta + d_center) / denom
    lhs = float(h.sublevel(beta).distance(z))
    rhs = factor * float(f.sublevel(beta).distance(z)) + 1e-6
    return _check("localization-distance-bound", lhs <= rhs, rhs - lhs, z.tolist(),
                  factor=factor, lhs=lhs, rhs=rhs, beta=beta)


def aze_corvellec_check(f: QuasiconvexFunction, region, alpha: float,
                        slope_floor: float, seed: int = 0) -> CheckResult:
    """Sampled error bound: d(x, [f <= alpha]) <= (f(x) - alpha)^+ / floor.

    Checked at the points of f's domain among 200 seeded points of the
    region, with slack 1e-3 relative plus 1e-6, and skipped when none lies
    in the domain. The relative slack absorbs the upward bias of the
    empirical slope floor, a minimum over seeded points: at most 2e-5 on
    tube~0.25 and norm3 in the benchmark's verify runs at seeds 0, 7 and 41,
    but 0.6-16% on the gauge at 0.9:1.1. The witness is the worst point.
    """
    if slope_floor <= 0:
        raise ValueError("requires a validated positive slope floor")
    lo, hi = (np.asarray(region[0], dtype=float), np.asarray(region[1], dtype=float))
    rng = split_rng(seed, "aze", alpha)
    pts = lo + (hi - lo) * rng.uniform(size=(200, len(lo)))
    fx = np.asarray(f.eval(pts), dtype=float)
    keep = np.isfinite(fx)
    pts, fx = pts[keep], fx[keep]
    if not len(pts):
        return _check("distance-level-bound", None, reason="no sample lies in the domain",
                      alpha=alpha, n_points=0)
    dist = np.asarray(f.sublevel(alpha).distance(pts))
    bound = np.maximum(fx - alpha, 0.0) / slope_floor * (1.0 + 1e-3) + 1e-6
    return _check("distance-level-bound", not np.any(dist > bound),
                  witness=pts[int(np.argmax(dist - bound))].tolist(), alpha=alpha,
                  n_points=len(pts))


def grid_min_regularized(freg: RegularizedFunction, points, n: int = 41):
    """Brute-force min of the base over a polar grid of the dilation ball.

    Independent of the level search: evaluates the base function on an
    n x n (radius x angle) grid of the eps-ball and takes the minimum, in
    blocks of whole points of at most BLOCK_ROWS probes (or one point).
    """
    if freg.dim != 2:
        raise DomainError("polar grid oracle is two-dimensional")
    pts = np.asarray(points, dtype=float)
    radii = np.linspace(0.0, freg.eps, n)
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    offsets = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1).reshape(-1, 2)
    out, step = np.empty(len(pts)), max(BLOCK_ROWS // len(offsets), 1)
    for start in range(0, len(pts), step):
        probes = pts[start:start + step, None, :] - offsets
        vals = np.asarray(freg.base.eval(probes.reshape(-1, 2)))
        out[start:start + step] = np.min(vals.reshape(probes.shape[:2]), axis=1)
    return out


def _check_eval_consistency(freg, window, n_points, seed) -> CheckResult:
    # The grid oracle only supports the 1e-3 comparison where its error is
    # second order in the angular spacing: away from the bottom level (value
    # at least eps above the infimum), with the dilation ball inside the
    # base domain (no feasibility-corner pinning), and certified per point
    # against a once-refined grid.
    if freg.dim != 2:
        return _check("eval-consistency", None, reason="polar grid oracle is two-dimensional",
                      n_points=0)
    pts = _annulus_sample(freg, window, 3 * n_points, seed, "eval-consistency")
    vals = np.asarray(freg.eval(pts), dtype=float)
    depth = freg.base.level_signed_distance(freg.base.level_hi, pts)
    keep = (vals >= freg.inf_value + freg.eps) & (depth <= -(freg.eps + 0.02))
    pts, vals = pts[keep], vals[keep]
    # The grids are row-wise, so gridding the candidates in order, each
    # chunk as large as the count still missing, keeps the same first
    # n_points certified rows as gridding them all.
    rows, coarse, start = [], [], 0
    while start < len(pts) and len(rows) < n_points:
        chunk = np.arange(start, min(start + n_points - len(rows), len(pts)))
        c = grid_min_regularized(freg, pts[chunk], n=41)
        certified = np.abs(c - grid_min_regularized(freg, pts[chunk], n=81)) <= 5e-4
        rows += chunk[certified].tolist()
        coarse += c[certified].tolist()
        start = chunk[-1] + 1
    pts, coarse, vals = pts[rows], np.array(coarse), vals[rows]
    if not len(pts):
        return _check("eval-consistency", None, reason="no sample survived the filters",
                      n_points=0)
    gap = np.abs(coarse - vals)
    worst = float(np.max(gap))
    return _check("eval-consistency", worst <= 1e-3, 1e-3 - worst,
                  pts[int(np.argmax(gap))].tolist(), worst_gap=worst, n_points=len(pts))


def _check_base_point(freg, window, n_points, seed) -> CheckResult:
    pts = _annulus_sample(freg, window, n_points, seed, "base-point")
    vals = np.asarray(freg.eval(pts), dtype=float)
    z = freg.base.level_project(vals, pts)
    value_gap = np.abs(np.asarray(freg.base.eval(z), dtype=float) - vals)
    reach = _norms(pts - z)
    return _check("base-point-consistency",
                  np.max(value_gap) <= 1e-6 and np.max(reach) <= freg.eps + 1e-6,
                  float(1e-6 - np.max(value_gap)), pts[int(np.argmax(value_gap))].tolist(),
                  max_value_gap=float(np.max(value_gap)), max_reach=float(np.max(reach)))


def _check_semigroup(freg, window, n_points, seed) -> CheckResult:
    pts = _annulus_sample(freg, window, n_points, seed, "semigroup")
    e1 = 0.4 * freg.eps
    e2 = freg.eps - e1
    gap = semigroup_gaps(freg, e1, pts)
    worst = float(np.max(gap))
    return _check("semigroup-identity", worst <= 1e-6, 1e-6 - worst,
                  pts[int(np.argmax(gap))].tolist(), eps_split=[e1, e2], worst_gap=worst)


def _check_slope_transfer(freg, window, n_points, seed) -> CheckResult:
    pts = _annulus_sample(freg, window, n_points, seed, "slope-transfer")
    vals = np.asarray(freg.eval(pts), dtype=float)
    pts = pts[vals > freg.inf_value + 1e-9]
    if not len(pts):
        return _check("slope-transfer", None,
                      reason="no sample lies 1e-9 above the bottom level", n_points=0)
    deficit = slope_deficits(freg, pts, seed=seed)
    worst = float(np.max(deficit))
    return _check("slope-transfer", worst <= 1e-3, 1e-3 - worst,
                  pts[int(np.argmax(deficit))].tolist(), worst_deficit=worst, n_points=len(pts))


def _check_monotone_eps(freg, window, n_points, seed) -> CheckResult:
    pts = _annulus_sample(freg, window, n_points, seed, "monotone-eps")
    radii = [0.1, 0.25, 0.5]
    stack = [np.asarray(regularize(freg.base, e).eval(pts)) for e in radii]
    worst = 0.0
    for lo_r, hi_r in zip(stack, stack[1:]):
        worst = max(worst, float(np.max(hi_r - lo_r)))
    return _check("monotone-in-epsilon", worst <= 1e-9, 1e-9 - worst, radii=radii,
                  worst_increase=worst)


def _check_lipschitz_transfer(freg, window, n_points, seed) -> CheckResult:
    # The transfer claim presumes the base is Lipschitz where the dilation
    # ball reaches; near a hard domain boundary (localized functions) the
    # regularization genuinely loses Lipschitz continuity, so pairs are kept
    # at dilation depth inside the base domain.
    rng = split_rng(seed, "lip-transfer")
    pts = _annulus_sample(freg, window, 3 * n_points, seed, "lip-transfer")
    depth = freg.base.level_signed_distance(freg.base.level_hi, pts)
    pts = pts[depth <= -(freg.eps + 0.02)][:n_points]
    if not len(pts):
        return _check("lipschitz-transfer", None,
                      reason="no sample lies at dilation depth in the base domain", n_points=0)
    mates = pts + 1e-3 * rng.normal(size=pts.shape)
    fe_p = np.asarray(freg.eval(pts))
    fe_m = np.asarray(freg.eval(mates))
    finite = np.isfinite(fe_p) & np.isfinite(fe_m)
    pts, mates, fe_p, fe_m = pts[finite], mates[finite], fe_p[finite], fe_m[finite]
    gaps = _norms(pts - mates)
    emp_reg = float(np.max(np.abs(fe_p - fe_m) / gaps))
    # Translate each pair by the dilation offset of its smaller endpoint: with
    # w such that f(y - w) = f_eps(y) at the smaller endpoint y, the larger
    # one satisfies f_eps(x) <= f(x - w), so the translated base pair (which
    # lives in the eps-enlarged region) realizes at least the same quotient.
    lower = np.where((fe_p <= fe_m)[:, None], pts, mates)
    w = lower - freg.base.level_project(np.minimum(fe_p, fe_m), lower)
    fb_p = np.asarray(freg.base.eval(pts - w))
    fb_m = np.asarray(freg.base.eval(mates - w))
    ok = np.isfinite(fb_p) & np.isfinite(fb_m)
    emp_base = float(np.max(np.abs(fb_p[ok] - fb_m[ok]) / gaps[ok]))
    return _check("lipschitz-transfer", emp_reg <= emp_base + 1e-6, emp_base + 1e-6 - emp_reg,
                  empirical_regularized=emp_reg, empirical_base=emp_base, n_points=len(pts))


def _check_prox_lower_bound(freg, h3: CheckResult) -> CheckResult:
    # The window's ends and middle, whose estimates H3 already made: its
    # levels are an odd-length linspace of the same window and seed.
    levels = h3.details["levels"][::2]
    r_hats = h3.details["r_hats"][::2]
    r_min = float(np.min(r_hats))
    return _check("dilation-prox-lower-bound", r_min >= 0.9 * freg.eps,
                  r_min - 0.9 * freg.eps, levels=levels, r_hats=r_hats, eps=freg.eps,
                  n_samples=h3.details["n_samples"][::2])


def run_verification_suite(f: QuasiconvexFunction, eps: float | None = None,
                           window=None, seed: int = 0, n_points: int = 100,
                           n_levels: int = 4, resolution: float = 0.01,
                           probe_starts: int = 20) -> DiagnosticsReport:
    """Full named-check suite for one function (optionally regularized)."""
    target = regularize(f, eps) if eps is not None else f
    if window is None:
        window = target.default_window
    checks = []

    h1, h2, h3 = verify_H1_H3(target, window, seed=seed)
    checks += [h1, h2, h3]
    floor = h2.details["slope_floor"]

    if floor > 0:
        check_s, check_u, direct = verify_moving_map_lipschitz(
            target, window[0], window[1], n_levels=n_levels,
            slope_floor=floor, resolution=resolution, seed=seed)
        checks += [check_s, check_u]
        gap = (window[1] - window[0]) / max(n_levels - 1, 1)
        slack = 2.0 * resolution / gap + 1e-6
        checks.append(_check("constants-consistency", direct <= 1.0 / floor + slack,
                             1.0 / floor + slack - direct, direct_rate=direct,
                             rate_bound=1.0 / floor))
        checks.append(aze_corvellec_check(target, target.level_bbox(window[1]),
                                          0.5 * (window[0] + window[1]), floor, seed=seed))
    else:
        checks.append(_check("moving-map-lipschitz-sublevel", None,
                             reason="slope floor not positive"))

    lip = estimate_function_lipschitz(target, window, seed=seed)
    constants = {
        "slope_floor": floor,
        "map_lipschitz": (1.0 / floor) if floor > 0 else None,
        "prox_radius": h3.margin,
        "func_lipschitz": lip,
    }

    if isinstance(target, RegularizedFunction):
        checks.append(_check_eval_consistency(target, window, n_points, seed))
        checks.append(_check_base_point(target, window, n_points, seed))
        checks.append(_check_semigroup(target, window, n_points, seed))
        checks.append(_check_slope_transfer(target, window, n_points, seed))
        checks.append(_check_monotone_eps(target, window, n_points, seed))
        checks.append(_check_lipschitz_transfer(target, window, n_points, seed))
        checks.append(_check_prox_lower_bound(target, h3))
        if probe_starts > 0 and h2.passed and h3.passed:
            probe_cfg = SweepingConfig(alpha2=window[1], horizon=0.4, steps=80)
            probe = probe_steepest_descent(target, probe_starts, probe_cfg,
                                           window=window, seed=seed)
            probe.passed = probe.details["fraction"] >= 0.9
            checks.append(probe)
        else:
            reason = ("disabled" if probe_starts <= 0
                      else "prerequisite checks failed")
            checks.append(_check("steepest-descent-probe", None, reason=reason))

    if isinstance(f, LocalizedFunction):
        rng = split_rng(seed, "hoffmann")
        span = f.level_hi - f.inf_value
        beta = f.inf_value + 0.5 * span
        z = f.center + 0.5 * f.delta * rng.normal(size=f.dim)
        checks.append(hoffmann_localization_check(f, z, beta))

    config = {
        "function": f.name,
        "epsilon": eps,
        "window": [float(window[0]), float(window[1])],
        "n_points": n_points,
        "n_levels": n_levels,
        "resolution": resolution,
        "probe_starts": probe_starts,
    }
    return DiagnosticsReport(constants=constants, checks=checks,
                             config=config, seed=seed)
