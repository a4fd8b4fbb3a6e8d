"""Max-convolution regularization of quasiconvex functions.

The eps-regularization of f is the unique function whose alpha-sublevel set
is the alpha-sublevel set of f dilated by the closed eps-ball; pointwise it
equals the infimum of f over the eps-ball around the query point, which is
the base function's level search level_at_distance(x, eps). The base point
z = proj(x; [f <= f_eps(x)]) carries that value: f(z) = f_eps(x).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateDirection, EmptySample, OutOfReach
from .functions import HullFunction, QuasiconvexFunction, slope_values
from .geometry import (BLOCK_ROWS, _atleast_2d, _norms, _step_inside, dilated_projection,
                       hull_ray_exit, outward_normals, sample_boundary)


class RegularizedFunction(QuasiconvexFunction):
    """Quasiconvex function with every sublevel set dilated by eps."""

    def __init__(self, base: QuasiconvexFunction, eps: float):
        if eps <= 0:
            raise ValueError("regularization radius must be positive")
        self.base = base
        self.eps = float(eps)
        self.name = f"{base.name}~{eps:g}"
        self.dim = base.dim
        self.inf_value = base.inf_value
        self.level_hi = base.level_hi
        self.default_window = getattr(base, "default_window", (0.5, 1.5))

    # level_at_distance stays the generic search on the dilated sublevels.
    # Composing radii (base.level_at_distance(x, eps + r)) would make the
    # nested and whole routes of semigroup-identity one computation.
    def eval(self, x):
        return self.base.level_at_distance(x, self.eps)

    def level_interior_point(self, alpha: float) -> np.ndarray:
        """The base's interior point, or where it has none (a localization's
        bottom level) the base set's point nearest its top-level interior point."""
        try:
            return self.base.level_interior_point(alpha)
        except EmptySample:
            top = self.base.level_interior_point(self.base.level_hi)
            return self.base.level_project(alpha, top[None, :])[0]

    def level_bbox(self, alpha: float):
        lo, hi = self.base.level_bbox(alpha)
        return lo - self.eps, hi + self.eps

    def level_project(self, alphas, points):
        pts = np.asarray(points, dtype=float)
        return dilated_projection(pts, self.base.level_project(alphas, pts), self.eps)

    def level_signed_distance(self, alphas, points):
        return self.base.level_signed_distance(alphas, points) - self.eps

    def level_ray_exits(self, alpha: float, origin, dirs):
        """A two-ball hull dilated by eps is the hull of the two balls
        dilated by eps, so a hull base takes the closed form with both radii
        grown by eps; other bases (a localization's lens) keep the default."""
        if not isinstance(self.base, HullFunction):
            return super().level_ray_exits(alpha, origin, dirs)
        r1, axis_len, r2 = self.base.level_hull(alpha)
        t = hull_ray_exit(origin, dirs, self.base.hull_axis, r1 + self.eps, axis_len,
                          r2 + self.eps)
        return _step_inside(partial(self.level_signed_distance, alpha), origin, dirs, t)

    def level_normals(self, alphas, points):
        """The base's normals, which every base takes at its clamped level.
        A dilation's boundary is C^{1,1}: no row is a corner."""
        normals, _ = self.base.level_normals(alphas, points)
        return normals, np.zeros(len(normals), dtype=bool)


def regularize(f: QuasiconvexFunction, eps: float) -> RegularizedFunction:
    """Wrap f so that every sublevel oracle is the eps-dilation of f's."""
    return RegularizedFunction(f, eps)


def semigroup_gaps(freg: RegularizedFunction, eps1: float, points):
    """|f_eps(x) - (f_eps1)_(eps - eps1)(x)| per point, 0 where both are inf.

    Regularizing by eps at once and in two steps must agree pointwise.
    """
    pts, _ = _atleast_2d(points)
    whole = np.asarray(freg.eval(pts), dtype=float)
    nested = np.asarray(regularize(regularize(freg.base, eps1), freg.eps - eps1).eval(pts),
                        dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(whole) & np.isinf(nested), 0.0, np.abs(whole - nested))


def slope_deficits(freg: RegularizedFunction, points, seed: int = 0):
    """Slope at the base point minus the regularized slope, per point.

    The slope of the regularization dominates the slope at its base point,
    so no deficit should exceed the slope estimator's accuracy.
    """
    pts, _ = _atleast_2d(points)
    z = freg.base.level_project(np.asarray(freg.eval(pts), dtype=float), pts)
    s_reg = slope_values(freg, pts, seed=seed)
    s_base = slope_values(freg.base, z, seed=seed)
    return s_base - s_reg


def complement_projection(freg: RegularizedFunction, alpha: float, x):
    """Nearest point of the closed complement of int [f_eps <= alpha].

    For x strictly between the base sublevel set and the dilated boundary the
    projection is the base projection pushed out radially to distance eps;
    points already outside the open dilated set are their own projection.
    """
    x2, single = _atleast_2d(x)
    z = freg.base.level_project(alpha, x2)
    delta = x2 - z
    dist = _norms(delta)
    if np.count_nonzero(dist <= 1e-12):
        bad = int(np.argmin(dist))
        if bool(freg.base.sublevel(alpha).membership(x2[bad], tol=1e-12)):
            raise OutOfReach(
                "point lies in the base sublevel set, beyond the prox-regular reach"
            )
        raise DegenerateDirection("projection direction collapsed")
    res = np.where((dist >= freg.eps)[:, None], x2,
                   z + delta * (freg.eps / dist)[:, None])
    return res[0] if single else res


@dataclass
class ProxRadiusEstimate:
    """Estimated minimal prox-regularity radius of a sublevel complement."""

    level: float
    r_hat: float
    sample_count: int
    skipped_corners: int = 0


def prox_radius_estimate(f: QuasiconvexFunction, alpha: float,
                         seed: int = 0) -> ProxRadiusEstimate:
    """Minimal internal curvature radius of the sublevel boundary.

    The secant ratios of close boundary samples and their outward normals
    (_secant_ratios) equal the radius on circular arcs; their minimum
    estimates the prox-regularity radius of the complement. The first pass
    samples at spacing pi / 600 of the level box's diagonal; one refinement
    pass re-samples at spacing max(r_hat / 20, 1e-4) when that is finer than
    the first by at least a quarter, and never replaces a finer pass by a
    coarser one, so a set smaller than the floor is sampled as its scaled-up
    copy would be. Corner samples are skipped and counted.
    """
    oracle = f.sublevel(alpha)
    lo, hi = f.level_bbox(alpha)
    resolution = float(np.linalg.norm(hi - lo)) * np.pi / 600
    r_hat, count, skipped = np.inf, 0, 0
    for _ in range(2):
        sample = sample_boundary(oracle, resolution, seed=seed)
        pts = sample.points
        normals, ok = outward_normals(oracle, pts)
        skipped += int(np.sum(~ok))
        pts, normals = pts[ok], normals[ok]
        count = len(pts)
        ratios = _secant_ratios(pts, normals, oracle.dim, resolution)
        if len(ratios):
            r_hat = float(np.min(ratios))
        next_res = max(r_hat / 20.0, 1e-4)
        if not np.isfinite(r_hat) or next_res > 0.75 * resolution:
            break
        resolution = next_res
    return ProxRadiusEstimate(level=alpha, r_hat=float(r_hat),
                              sample_count=count, skipped_corners=skipped)


def _secant_ratios(pts, normals, dim, resolution):
    """Secant ratios |db|^2 / <db, dn> (db, dn: a pair's differences of points and of
    normals) of ring neighbours in counter-clockwise order in 2-d, of all pairs at most
    3 * resolution apart in d >= 3. Only pairs with <db, dn> > 1e-9 |db| give a ratio, so
    flat, wrongly bent and zero-denominator pairs give none. A ratio ignores its pair's
    orientation, so the minimum depends neither on the order nor the orientation of pairs."""
    both = np.hstack([pts, normals])
    if dim == 2:
        # Plane samples come in counter-clockwise order (sample_boundary), so
        # neighbours in the array are neighbours on the boundary.
        blocks = [np.roll(both, -1, axis=0) - both]
    else:
        pairs = cKDTree(pts, balanced_tree=False).query_pairs(3.0 * resolution,
                                                              output_type="ndarray")
        blocks = (np.take(both, p[:, 1], axis=0) - np.take(both, p[:, 0], axis=0)
                  for p in np.split(pairs, range(BLOCK_ROWS, len(pairs), BLOCK_ROWS)))
    ratios = []
    for diff in blocks:
        db, dn = diff[:, :dim], diff[:, dim:]
        num = np.einsum("ij,ij->i", db, db)
        den = np.einsum("ij,ij->i", db, dn)
        good = den > 1e-9 * np.sqrt(num)
        ratios.append(num[good] / den[good])
    return np.concatenate(ratios)
