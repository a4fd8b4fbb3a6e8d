"""Quasiconvex function abstraction, slope estimators and benchmark gallery.

A function answers every geometric question through batched per-row level
oracles, (alphas, points) -> projection / signed distance / normal (its
exact gradient, with a corner flag), plus an interior point per level and
the exits of rays from it (level_ray_exits), its infimum, its domain [f <= level_hi] (np.inf for the norm) and one level
search: level_at_distance(x, r), the minimum of f over the closed ball B(x, r).
Pointwise evaluation (+inf outside the domain) is its case r = 0, and the
eps-regularization its case r = eps. sublevel(alpha) is a LevelSet, a view
that forwards to those oracles at the fixed level alpha; no function builds
its sublevel sets a second time, and membership and distance live on
LevelSet. Every function also answers its sublevel sets grown by g >= 0, the
sets of its g-regularization: _grown_project(alphas, points, g) -> (points, d),
d positive exactly on the rows outside the set, where points holds the grown
set's projection (callers take the other rows from their input), and
_grown_ray_exits(alpha, origin, dirs, g), whose case g = 0 is level_ray_exits.
The gallery carries three entries: the Euclidean norm in any dimension, a
tube-shaped function whose sublevel sets are capsules, and a two-disk gauge
whose level sets degenerate in curvature near the level 1.
Each is a HullFunction: it maps its levels to two-ball hulls,
level_hull(alphas) -> (r1, axis_len, r2) about the origin along hull_axis,
which a localization cuts with its ball through geometry.ball_lens_project,
and takes its normals and ray exits from them in closed form.
"""

from functools import cached_property, partial

import numpy as np

from .errors import DomainError, EmptySample
from .geometry import (_atleast_2d, _axial_section, _circle_crossing, _itp, _norms, _ray_block,
                       _restore, _step_inside, ball_lens_project, dilated_projection,
                       hull_normals, hull_ray_exit, hull_section, intersection_signed_distance)
from .rng import ball_points, split_rng, unit_directions

SLOPE_RADII = (1e-4, 1e-5)
LIMITING_RADIUS = 1e-2
LIMITING_VALUE_GAP = 1e-2
LIMITING_SAMPLES = 128


class LevelSet:
    """The sublevel set [f <= alpha] as a view on f's batched level oracles."""

    def __init__(self, f: "QuasiconvexFunction", alpha: float):
        self.f = f
        self.alpha = float(alpha)
        self.dim = f.dim

    @cached_property
    def interior_point(self):
        return self.f.level_interior_point(self.alpha)

    def project(self, x):
        x2, single = _atleast_2d(x)
        return _restore(self.f.level_project(self.alpha, x2), single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        return _restore(self.f.level_signed_distance(self.alpha, x2), single)

    def membership(self, x, tol: float = 0.0):
        return self.signed_boundary_distance(x) <= tol

    def distance(self, x):
        return np.maximum(self.signed_boundary_distance(x), 0.0)


class QuasiconvexFunction:
    """Base interface: eval, level oracles, infimum, top level, name."""

    name: str
    dim: int
    inf_value: float
    level_hi: float  # sublevels saturate here: [f <= level_hi] is the domain

    def eval(self, x):
        return self.level_at_distance(x, 0.0)

    def sublevel(self, alpha: float) -> LevelSet:
        if alpha < self.inf_value:
            raise ValueError(f"the level-{alpha!r} sublevel set of {self.name} is empty: "
                             f"inf f = {self.inf_value!r}")
        return LevelSet(self, alpha)

    def level_interior_point(self, alpha: float) -> np.ndarray:
        """Interior point of the alpha-sublevel set: the origin, which lies
        inside every sublevel set of the norm, the tube and the gauge."""
        return np.zeros(self.dim)

    def level_bbox(self, alpha: float):
        """Axis-aligned box (lo, hi) containing the alpha-sublevel set."""
        raise NotImplementedError

    def level_project(self, alphas, points):
        """Projection of points[i] onto the alphas[i]-sublevel set, batched.

        A scalar level broadcasts over the rows.
        """
        raise NotImplementedError

    def level_signed_distance(self, alphas, points):
        """Signed distance of points[i] to the alphas[i]-sublevel boundary."""
        raise NotImplementedError

    def level_distance(self, alphas, points):
        """Distance of points[i] to the alphas[i]-sublevel set, batched."""
        return np.maximum(self.level_signed_distance(alphas, points), 0.0)

    def level_normals(self, alphas, points):
        """Unit outward normal of the alphas[i]-sublevel boundary piece
        nearest points[i], the gradient of level_signed_distance on both
        sides, and a corner flag, batched."""
        raise NotImplementedError

    def level_ray_exits(self, alpha: float, origin, dirs):
        """Where the rays origin + t * dirs[i], t >= 0, leave the
        alpha-sublevel set, from an interior point origin, each a point of
        the set."""
        return self._grown_ray_exits(alpha, origin, dirs, 0.0)

    def _grown_project(self, alphas, points, g):
        """level_project's point z pushed out by g along x - z, with d = |x - z|."""
        pts = np.asarray(points, dtype=float)
        return dilated_projection(pts, self.level_project(alphas, pts), g)

    def _grown_ray_exits(self, alpha: float, origin, dirs, g):
        """Doubling, then ITP on level_signed_distance - g (geometry._ray_block)."""
        return _ray_block(lambda p: self.level_signed_distance(alpha, p) - g, origin, dirs)

    def level_at_distance(self, x, r):
        """Smallest level a with level_signed_distance(a, x) <= r, batched.

        This is the minimum of f over the closed r-ball around x, +inf where
        that ball misses the domain. The signed distance is continuous and
        nonincreasing in the level, so one row-wise ITP root-find on it
        brackets a between inf_value and the top level: level_hi where it is
        finite, else f(x).
        """
        x2, single = _atleast_2d(x)
        n = len(x2)
        top = (np.full(n, self.level_hi) if np.isfinite(self.level_hi)
               else np.asarray(self.eval(x2), dtype=float))
        g_lo = r - self.level_signed_distance(np.full(n, self.inf_value), x2)
        g_hi = r - self.level_signed_distance(top, x2)
        vals = np.where(g_lo >= 0, self.inf_value, np.inf)
        rows = np.flatnonzero((g_lo < 0) & (g_hi >= 0))

        def g(sub, a):
            return r - self.level_signed_distance(a, x2[rows[sub]])

        # 2e-15, but never below four ulps of the top level: a bracket one ulp
        # wide could not shrink further.
        tol = np.maximum(2e-15, 4.0 * np.spacing(np.abs(top[rows])))
        _, vals[rows] = _itp(g, np.full(len(rows), self.inf_value), top[rows],
                             g_lo[rows], g_hi[rows], tol)
        return float(vals[0]) if single else vals


class HullFunction(QuasiconvexFunction):
    """A function whose alpha-sublevel set is the two-ball hull
    level_hull(alpha) -> (r1, axis_len, r2) about the origin along hull_axis.
    Grown by g it is the hull of its balls grown by g: _grown_project is one
    kernel call, d the signed distance, and level_project its case g = 0."""

    def level_project(self, alphas, points):
        return self._grown_project(alphas, points, 0.0)[0]

    def level_normals(self, alphas, points):
        """The hull's normals (geometry.hull_normals): no corners, and zero at
        the norm's origin."""
        pts = np.asarray(points, dtype=float)
        a, rho, w = _axial_section(pts, 0.0, self.hull_axis)
        na, nrho = hull_normals(a, rho, *self.level_hull(alphas))
        return na[:, None] * self.hull_axis + nrho[:, None] * w, np.zeros(len(pts), dtype=bool)

    def _grown_ray_exits(self, alpha: float, origin, dirs, g):
        """In closed form, both radii grown by g (geometry.hull_ray_exit)."""
        r1, axis_len, r2 = self.level_hull(alpha)
        t = hull_ray_exit(origin, dirs, self.hull_axis, r1 + g, axis_len, r2 + g)
        return _step_inside(lambda p: self.level_signed_distance(alpha, p) - g, origin, dirs, t)


class NormFunction(HullFunction):
    """Euclidean norm; sublevel sets are centered balls."""

    def __init__(self, dim: int = 2):
        self.name = "norm" if dim == 2 else f"norm{dim}"
        self.dim = dim
        self.inf_value = 0.0
        self.level_hi = np.inf
        self.default_window = (0.5, 1.5)
        self.hull_axis = np.eye(dim)[0]

    def level_hull(self, alphas):
        return alphas, 0.0, alphas

    def level_bbox(self, alpha: float):
        return -alpha * np.ones(self.dim), alpha * np.ones(self.dim)

    def _grown_project(self, alphas, points, g):
        pts = np.asarray(points, dtype=float)
        norms = _norms(pts)
        signed = norms - alphas
        scale = np.where(signed > 0, np.add(alphas, g) / np.where(norms > 0, norms, 1.0), 1.0)
        return pts * scale[:, None], signed

    def level_signed_distance(self, alphas, points):
        pts = np.asarray(points, dtype=float)
        return _norms(pts) - np.asarray(alphas, dtype=float)

    def level_at_distance(self, x, r):
        x2, single = _atleast_2d(x)
        v = np.maximum(_norms(x2) - r, 0.0)
        return float(v[0]) if single else v


class TubeFunction(HullFunction):
    """Distance-to-advancing-disk function on a capsule-shaped domain.

    f(x, y) = max(0, x - sqrt(1 - y^2)) on the hull of the unit disk and its
    translate by (3, 0); +inf outside. The alpha-sublevel set is the hull of
    the unit disk and the disk centered at (alpha, 0), i.e. a capsule, so the
    boundary of the domain cuts every sublevel boundary along the left cap.
    """

    def __init__(self):
        self.name = "tube"
        self.dim = 2
        self.inf_value = 0.0
        self.level_hi = 3.0
        self.default_window = (0.3, 1.7)
        self.hull_axis = np.array([1.0, 0.0])

    def level_hull(self, alphas):
        return 1.0, np.minimum(alphas, self.level_hi), 1.0

    def level_bbox(self, alpha: float):
        return np.array([-1.0, -1.0]), np.array([min(alpha, self.level_hi) + 1.0, 1.0])

    def _grown_project(self, alphas, points, g):
        pts = np.asarray(points, dtype=float)
        anchor = np.zeros(pts.shape)
        anchor[:, 0] = np.minimum(np.maximum(pts[:, 0], 0.0), np.minimum(alphas, self.level_hi))
        delta = pts - anchor
        dist = _norms(delta)
        # Adding the anchor turns a -0.0 ordinate into 0.0; rows inside keep theirs.
        grown = anchor + delta / (np.maximum(dist, 1e-300)[:, None] / (1.0 + g))
        return np.where((dist > 1.0)[:, None], grown, pts), dist - 1.0

    def level_signed_distance(self, alphas, points):
        x, y = np.asarray(points, dtype=float).T
        dx = x - np.minimum(np.maximum(x, 0.0), np.minimum(alphas, self.level_hi))
        return np.sqrt(dx * dx + y * y) - 1.0

    def level_at_distance(self, x, r):
        # The r-ball meets the capsule of level a where the distance to the
        # segment [0, a] x {0} is at most 1 + r.
        x2, single = _atleast_2d(x)
        px, py = x2[:, 0], x2[:, 1]
        vals = np.where(self.level_signed_distance(self.level_hi, x2) <= r,
                        np.maximum(px - np.sqrt(np.maximum((1.0 + r)**2 - py**2, 0.0)), 0.0),
                        np.inf)
        return float(vals[0]) if single else vals


class GaugeFunction(HullFunction):
    """Gauge of the moving two-disk family S(s).

    S(s) is the hull of the disk of radius s about the origin and the disk of
    radius max(s - 1, 0) centered at (0, max(2s - 1, 0)): the ball of radius s
    for s <= 1, where the second disk lies inside the first, and a proper
    two-disk hull for s in (1, 2]. Every oracle maps the level to these hull
    parameters per row (level_hull) and calls hull_section's kernel; eval and
    level_at_distance are the generic root-find in s of the signed distance.
    The minimal internal curvature radius of the level boundary is s for
    s <= 1 and s - 1 above.
    """

    def __init__(self):
        self.name = "gauge"
        self.dim = 2
        self.inf_value = 0.0
        self.level_hi = 2.0
        self.default_window = (1.2, 1.8)
        self.hull_axis = np.array([0.0, 1.0])

    def level_hull(self, alphas):
        """Hull parameters (r1, axis_len, r2) of S(s) along the vertical axis."""
        s = np.minimum(alphas, self.level_hi)
        return s, np.maximum(2.0 * s - 1.0, 0.0), np.maximum(s - 1.0, 0.0)

    def _section(self, alphas, pts, g):
        return hull_section(pts[:, 1], np.abs(pts[:, 0]), *self.level_hull(alphas), g)

    def level_bbox(self, alpha: float):
        s = min(alpha, self.level_hi)
        top = max(s, 3.0 * s - 2.0)
        return np.array([-s, -s]), np.array([s, top])

    def _grown_project(self, alphas, points, g):
        pts = np.asarray(points, dtype=float)
        pa, prho, signed = self._section(alphas, pts, g)
        res = np.empty(pts.shape)
        res[:, 0], res[:, 1] = np.copysign(prho, pts[:, 0]), pa
        return res, signed

    def level_signed_distance(self, alphas, points):
        return self._section(alphas, np.asarray(points, dtype=float), 0.0)[2]


class LocalizedFunction(QuasiconvexFunction):
    """Base function plus the indicator of a closed ball B(c, delta). Its level
    search, the base's minimum over the lens B(x, r) cap B(c, delta), is a
    closed form through the base's, assuming no plateau above inf f."""

    def __init__(self, base: QuasiconvexFunction, center, delta: float):
        if not delta >= 0:
            raise ValueError(f"localization radius must be nonnegative, got {delta:g}")
        center = np.asarray(center, dtype=float)
        if not hasattr(base, "level_hull"):
            raise ValueError(f"cannot localize {base.name}: its sublevel sets are not "
                             "given as two-ball hulls (level_hull)")
        if center.shape != (base.dim,):
            raise ValueError(f"localization center {center.tolist()} needs {base.dim} "
                             f"coordinates for {base.name}")
        # The smallest level whose sublevel set contains the ball: the
        # maximum of the base over the ball, +inf where it leaves the domain.
        self.level_hi = float(base.level_at_distance(center, -float(delta)))
        if not np.isfinite(self.level_hi):
            raise DomainError("localization ball must sit inside the base domain")
        self.base = base
        self.center = center
        self.delta = float(delta)
        coords = ",".join(f"{c:g}" for c in center)
        self.name = f"localized:{base.name}:{coords}:{delta:g}"
        self.dim = base.dim
        self.inf_value = float(base.level_at_distance(center, self.delta))
        self.default_window = (
            self.inf_value + 0.25 * (self.level_hi - self.inf_value),
            self.inf_value + 0.75 * (self.level_hi - self.inf_value),
        )

    def eval(self, x):
        x2, single = _atleast_2d(x)
        vals = np.full(len(x2), np.inf)
        # Tolerance keeps points computed to lie on the ball circle feasible.
        inside = _norms(x2 - self.center) - self.delta <= 1e-12
        if np.any(inside):
            vals[inside] = np.asarray(self.base.eval(x2[inside]), dtype=float)
        return float(vals[0]) if single else vals

    def level_interior_point(self, alpha: float) -> np.ndarray:
        """The center's projection onto the base sublevel halfway down to
        inf_value. Near inf_value that point leaves the ball's interior and
        EmptySample is raised; at inf_value the set is a single point."""
        if alpha >= self.level_hi:
            return self.center.copy()
        mid = 0.5 * (alpha + self.inf_value)
        z = self.base.level_project(mid, self.center[None, :])[0]
        if float(_norms(z - self.center) - self.delta) < -1e-9:
            return z
        raise EmptySample(f"no interior point of the level-{alpha:.6g} set of {self.name}")

    def level_bbox(self, alpha: float):
        return self.center - self.delta, self.center + self.delta

    def level_at_distance(self, x, r):
        """Closed form of the generic search: +inf where the level-level_hi
        set lies farther than r from x; else v = max(base.level_at_distance(x,
        r), inf f) where the level-v set lies within r of x (1e-12 slack for
        rounding); else the base's minimum where the spheres |p - x| = r and
        |p - c| = delta cross: at the two crossing points in the plane, for the
        norm in d >= 3 at the crossing circle's point nearest the origin. The
        crossing is geometry._circle_crossing's, as in geometry._lens_corners."""
        x2, single = _atleast_2d(x)
        v = np.maximum(self.base.level_at_distance(x2, r), self.inf_value)
        inside = self.level_signed_distance(self.level_hi, x2) <= r
        vals = np.where(inside, v, np.inf)
        cross = np.flatnonzero(
            inside & (self.level_signed_distance(np.minimum(v, self.level_hi), x2) > r + 1e-12))
        if len(cross):
            rel = self.center - x2[cross]
            dist = _norms(rel)
            e = rel / dist[:, None]
            _, foot, h = _circle_crossing(dist, r, self.delta)
            foot = x2[cross] + foot[:, None] * e
            if self.dim == 2:
                u = h[:, None] * np.stack([-e[:, 1], e[:, 0]], axis=1)
                both = np.reshape(self.base.eval(np.vstack([foot + u, foot - u])), (2, -1))
                vals[cross] = np.min(both, axis=0)
            else:
                along = np.einsum("ij,ij->i", foot, e)
                vals[cross] = np.hypot(along, _norms(foot - along[:, None] * e) - h)
        return float(vals[0]) if single else vals

    def level_signed_distance(self, alphas, points):
        pts = np.asarray(points, dtype=float)
        alphas = np.broadcast_to(np.asarray(alphas, dtype=float), (len(pts),))
        return intersection_signed_distance(
            pts, self.base.level_signed_distance(alphas, pts),
            _norms(pts - self.center) - self.delta,
            lambda rows, p: self.level_project(alphas[rows], p))

    def level_normals(self, alphas, points):
        """Inside the set, the normal of the nearer piece: the base sublevel
        at min(alpha, level_hi) or the ball, (x - c) / |x - c|. Outside,
        (x - Px) / |x - Px|, Px the projection. A row is a corner where both
        pieces' signed distances vanish, within 1e-12."""
        pts = np.asarray(points, dtype=float)
        alphas = np.full(len(pts), np.minimum(alphas, self.level_hi))
        sa = self.base.level_signed_distance(alphas, pts)
        rel = pts - self.center
        gap = _norms(rel)
        sb = gap - self.delta
        normals = np.where((sb > sa)[:, None], rel / np.where(gap > 0, gap, np.inf)[:, None],
                           self.base.level_normals(alphas, pts)[0])
        out = np.flatnonzero(np.maximum(sa, sb) > 0.0)
        delta = pts[out] - self.level_project(alphas[out], pts[out])
        dist = _norms(delta)
        normals[out[dist > 0]] = delta[dist > 0] / dist[dist > 0, None]
        return normals, np.maximum(np.abs(sa), np.abs(sb)) <= 1e-12

    def _grown_ray_exits(self, alpha: float, origin, dirs, g):
        """The nearer of the base sublevel's exit at min(alpha, level_hi) and
        the ball's, both in closed form (geometry.hull_ray_exit), exact from an
        interior point; a lens grown by g > 0 has round corners: the default."""
        if g > 0:
            return super()._grown_ray_exits(alpha, origin, dirs, g)
        axis = self.base.hull_axis
        t = np.minimum(
            hull_ray_exit(origin, dirs, axis, *self.base.level_hull(min(alpha, self.level_hi))),
            hull_ray_exit(origin - self.center, dirs, axis, self.delta, 0.0, self.delta))
        return _step_inside(partial(self.level_signed_distance, alpha), origin, dirs, t)

    def level_project(self, alphas, points):
        """Projection onto per-row base sublevels cut by the indicator ball."""
        pts = np.asarray(points, dtype=float)
        hull = self.base.level_hull(np.minimum(np.asarray(alphas, dtype=float), self.level_hi))
        if self.dim == 2:
            return ball_lens_project(pts, self.center, self.delta, self.base.hull_axis, *hull)
        # In d >= 3 the base is the norm: its balls about the origin make the
        # set symmetric about the line through the center, so each point is
        # projected in its (axial, radial) half-plane. Members stay put.
        gap = float(np.linalg.norm(self.center))
        axis = self.center / gap if gap > 0 else self.base.hull_axis
        a, rho, w = _axial_section(pts, 0.0, axis)
        sec = np.stack([a, rho], axis=1)
        proj = ball_lens_project(sec, (gap, 0.0), self.delta, (1.0, 0.0), *hull)
        return np.where(np.all(proj == sec, axis=1)[:, None], pts,
                        proj[:, :1] * axis + proj[:, 1:] * w)


def slope_values(f: QuasiconvexFunction, points, seed: int = 0):
    """Descent-rate estimates at a batch of points, +inf outside the domain.

    The probe sweep: at each radius of SLOPE_RADII the largest positive
    difference quotient over a seeded direction sweep (64 directions in 2-d,
    32 * dim above), refined by a compass search on the unit sphere (Kolda,
    Lewis & Torczon, SIAM Review 2003) from the best swept direction; the
    estimate is the largest value over the radii. It reads only eval.
    """
    pts, single = _atleast_2d(points)
    m, dim = pts.shape
    n = 64 if dim == 2 else 32 * dim
    fx = np.asarray(f.eval(pts), dtype=float)
    # Every compass round probes both radii in one eval call, since a level
    # search costs nearly as much per call on a few hundred rows as on a few
    # thousand: row k * m + i holds point i at radius SLOPE_RADII[k].
    rho = np.repeat(SLOPE_RADII, m)
    best, v, width = [], [], 0.0
    # Keys 2 and 3 keep the direction streams these radii had after 1e-2 and 1e-3.
    for ri, r in enumerate(SLOPE_RADII, start=2):
        dirs = unit_directions(split_rng(seed, "slope", ri), n, dim)
        quot = _quotients(f, pts, fx, np.full(m, r), dirs)
        best.append(quot.max(axis=1))
        v.append(dirs[quot.argmax(axis=1)])
        cosines = dirs @ dirs.T
        np.fill_diagonal(cosines, -1.0)
        width = max(width, float(np.arccos(np.clip(cosines.max(axis=1).min(), -1.0, 1.0))))
    best, v = np.concatenate(best), np.concatenate(v)
    x, fxr = np.tile(pts, (len(SLOPE_RADII), 1)), np.tile(fx, len(SLOPE_RADII))
    # Start at the sweeps' largest nearest-neighbour angle and halve the
    # width each round down to about 2e-4 rad; 1-d sweeps already hold both
    # directions and take no round. Each round tries cos(w) v +- sin(w) t
    # over the tangent frame at v, columns 1.. of the Householder matrix
    # I - 2 u u^T / |u|^2 with u = v + sign(v_0) e_0, and moves to the best
    # candidate that beats v.
    for _ in range(int(np.ceil(np.log2(max(width, 2e-4) / 2e-4)))):
        u = v.copy()
        u[:, 0] += np.where(v[:, 0] >= 0.0, 1.0, -1.0)
        frame = np.eye(dim)[1:] - 2.0 * u[:, 1:, None] * u[:, None, :] \
            / np.sum(u * u, axis=1)[:, None, None]
        cand = np.cos(width) * v[:, None, :] + np.sin(width) * np.concatenate(
            [frame, -frame], axis=1)
        q = _quotients(f, x, fxr, rho, cand)
        top = q.max(axis=1)
        move = top > best
        v[move] = cand[move, q[move].argmax(axis=1)]
        best = np.maximum(best, top)
        width /= 2.0
    value = best.reshape(len(SLOPE_RADII), m).max(axis=0)
    value = np.where(np.isfinite(fx), value, np.inf)
    return float(value[0]) if single else value


def _quotients(f, pts, fx, rho, dirs):
    """Positive difference quotients (f(x) - f(x + rho v))^+ / rho per row,
    0 where a probe leaves the domain, for directions dirs of shape (k, d)
    shared by every row or (m, k, d) per row."""
    probes = pts[:, None, :] + rho[:, None, None] * dirs
    m, k, dim = probes.shape
    fp = np.asarray(f.eval(probes.reshape(-1, dim))).reshape(m, k)
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(np.maximum(fx[:, None] - fp, 0.0), nan=0.0) / rho[:, None]


def level_slopes(f: QuasiconvexFunction, points):
    """Strong slope (f(x) - min of f over the closed h-ball) / h, batched: one
    level_at_distance call per radius h of SLOPE_RADII, the largest value over
    the radii, +inf where f(x) is not finite; never below slope_values."""
    pts, single = _atleast_2d(points)
    fx = np.asarray(f.eval(pts), dtype=float)
    rows = np.isfinite(fx)
    value = np.where(rows, 0.0, np.inf)
    for h in SLOPE_RADII:
        drop = fx[rows] - f.level_at_distance(pts[rows], h)
        value[rows] = np.maximum(value[rows], drop / h)
    return float(value[0]) if single else value


def limiting_slope(f: QuasiconvexFunction, x, seed: int = 0):
    """Lower envelope of the slope over value-close nearby points: x and the
    LIMITING_SAMPLES seeded points of the LIMITING_RADIUS ball around x whose
    values lie within LIMITING_VALUE_GAP of f(x).

    One point gives a float, an (n, d) batch an array from one level_slopes
    call, equal to the one-point calls row by row.
    """
    x2, single = _atleast_2d(x)
    fx = np.asarray(f.eval(x2), dtype=float)
    out = np.full(len(x2), np.inf)
    rows = np.flatnonzero(np.isfinite(fx))
    rng = split_rng(seed, "limiting", LIMITING_SAMPLES)
    offsets = np.vstack([np.zeros(x2.shape[1]),
                         ball_points(rng, LIMITING_SAMPLES, x2.shape[1], LIMITING_RADIUS)])
    pts = (x2[rows, None, :] + offsets).reshape(-1, x2.shape[1])
    fy = np.asarray(f.eval(pts), dtype=float).reshape(len(rows), len(offsets))
    valid = np.isfinite(fy) & (np.abs(fy - fx[rows, None]) <= LIMITING_VALUE_GAP)
    envelope = np.full(valid.shape, np.inf)
    envelope[valid] = level_slopes(f, pts[valid.ravel()])
    out[rows] = envelope.min(axis=1)
    return float(out[0]) if single else out


GALLERY = {
    "norm": lambda dim=2: NormFunction(dim),
    "tube": lambda dim=2: TubeFunction(),
    "gauge": lambda dim=2: GaugeFunction(),
}


def get_function(name: str, dim: int = 2) -> QuasiconvexFunction:
    """Gallery lookup; supports 'localized:<name>:<cx>,<cy>:<delta>'."""
    if name.startswith("localized:"):
        try:
            _, base_name, center_str, delta_str = name.split(":")
            center = [float(c) for c in center_str.split(",")]
            delta = float(delta_str)
        except ValueError as exc:
            raise ValueError(f"bad localized name {name!r}") from exc
        if not np.all(np.isfinite(center + [delta])):
            raise ValueError(f"function {name!r}: the localization center and radius "
                             "must be finite")
        return LocalizedFunction(get_function(base_name, dim=dim), center, delta)
    if name.startswith("norm") and name[4:].isdigit():
        # The name NormFunction(d) gives itself in d >= 3; d must match dim.
        if int(name[4:]) != dim:
            raise ValueError(f"function {name!r} is {int(name[4:])}-dimensional, not {dim}")
        name = "norm"
    if name not in GALLERY:
        raise ValueError(f"unknown gallery function {name!r}")
    f = GALLERY[name](dim=dim)
    if f.dim != dim:
        raise ValueError(f"function {name!r} is {f.dim}-dimensional, not {dim}")
    return f
