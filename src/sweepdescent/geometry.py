"""Oracle-based convex set primitives.

Every set is exposed through the same oracle surface: metric projection,
signed boundary distance and a Slater (interior) point. Membership and
distance derive from the signed distance, once, in functions.LevelSet, the
set the library builds. Dilations and hulls of two balls are exact in
closed form; the hull math is one per-row kernel, hull_section
(its gradient is hull_normals), which the gallery functions also call with
per-row parameters, and the dilation's push-out is one function,
dilated_projection, which every function's default growth of its sublevel
sets (functions.QuasiconvexFunction._grown_project) also calls.
A hull cut by a ball (IntersectionSet in the plane, whose interior point the
caller gives, and every localized sublevel set) is exact: a row whose hull
projection lies in the ball keeps it, and only the others go through
ball_lens_project, to the ball's projection or a corner in closed form from
the hull parameters. The signed distance of an intersection is exact on
both sides of its boundary. sample_boundary keeps
the exit of every ray it shoots from the interior point, one ray per
resolution of arc length in the plane: a LevelSet's from its function's
level_ray_exits, which takes a two-ball hull's exits in closed form
(hull_ray_exit) and otherwise, as for the sets of this module, runs
doubling plus ITP (_ray_block). outward_normals reads a sublevel set's
normals from level_normals.

All point-valued operations accept a single point of shape (d,) or a batch of
shape (n, d) and return the matching shape.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EmptySample, NonConvergence
from .rng import split_rng, unit_directions

# Rows per cache-sized block of the ray, pair and grid loops; a row-wise step never sees it.
BLOCK_ROWS = 8192


def _atleast_2d(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _restore(x, single):
    return x[0] if single else x


def _norms(x):
    """Row norms of a 1-d or 2-d array, bit for bit np.linalg.norm(x, axis=-1): below eight
    columns numpy adds a row's squares in column order. Adding whole columns instead is
    faster from about 64 rows (2 columns; about 100 for 3) and slower below, per call."""
    sq = x * x
    if sq.ndim == 2 and len(sq) >= 64 and sq.shape[1] < 8:
        return np.sqrt(sum(sq.T))
    return np.sqrt(np.add.reduce(sq, axis=-1))


def _hull_frame(r1, axis_len, r2):
    """The upper tangent's outward normal (sin, cos); (1, 0) for a nested hull."""
    nested = axis_len + r2 <= r1 + 1e-15
    sin = np.where(nested, 1.0, (r1 - r2) / np.where(nested, 1.0, axis_len))
    return sin, np.sqrt(np.maximum(1.0 - sin**2, 0.0))


def _hull_pieces(a, rho, r1, axis_len, r2):
    """_hull_frame's (sin, cos), the masks of the rows whose nearest boundary
    piece is an arc and is disk 2's, and per row u, the axial offset from
    that arc's center, d = hypot(u, rho) and the arc's radius."""
    sin, cos = _hull_frame(r1, axis_len, r2)
    k = cos * a - sin * rho
    on1 = k <= 0.0
    on2 = ~on1 & (k >= cos * axis_len)
    u = np.where(on2, a - axis_len, a)
    return sin, cos, on1 | on2, on2, u, np.hypot(u, rho), np.where(on2, r2, r1)


def _circle_crossing(dist, r, big_r):
    """Where the circles of radii r and big_r, with centers dist > 0 apart,
    cross: (slack, foot, half_chord). They meet where slack >= 0; the chord's
    midpoint lies foot from the center of the r-circle toward the other.
    Half chords are products of factors, h^2 = (r + R - D)(D + r - R)
    (D - r + R)(D + r + R) / 4D^2, so thin lenses keep their corners."""
    f1, f2, f3 = r + big_r - dist, dist + r - big_r, dist - r + big_r
    slack = np.minimum(np.minimum(f1, f2), f3)
    f1, f2, f3 = (np.maximum(f, 0.0) for f in (f1, f2, f3))
    h = np.sqrt(f1 * f2 * f3 * (dist + r + big_r)) / (2.0 * dist)
    return slack, r - f1 * f3 / (2.0 * dist), h


def _axial_section(x2, origin, axis):
    """Axial coordinate, radial distance and radial unit of points about the
    line origin + t * axis. Points on the line get a zero radial unit."""
    rel = x2 - origin
    a = rel @ axis
    radial_vec = rel - a[:, None] * axis
    rho = _norms(radial_vec)
    return a, rho, radial_vec / np.where(rho > 0, rho, 1.0)[:, None]


def hull_section(a, rho, r1, axis_len, r2, g=0.0):
    """Exact oracle of the hull of two disks in section coordinates, per row.

    Disk 1 has center (0, 0) and radius r1, disk 2 center (axis_len, 0) and
    radius r2 <= r1; a query point is (a, rho) with rho >= 0. Every parameter
    may be an array with one hull per row; scalars broadcast. When disk 2 lies
    in disk 1 the hull is disk 1. Otherwise the upper tangent segment has
    outward normal (sin, cos), sin = (r1 - r2) / axis_len, and the coordinate
    k along it splits the plane into the points whose nearest boundary piece
    is the arc of disk 1 (k <= 0), the arc of disk 2 (k >= cos * axis_len) or
    the segment. Returns the projection (pa, prho) and the signed boundary
    distance, negative inside; outside rows go to the hull grown by g >= 0,
    whose pieces are the same k test's.
    """
    sin, cos, arc, on2, u, d, r = _hull_pieces(a, rho, r1, axis_len, r2)
    signed = np.where(arc, d - r, sin * a + cos * rho - r1)
    s = (r + g) / np.maximum(d, 1e-150)
    out, push = signed > 0, signed - g
    # Disk 1's rows take u * s alone, so that a -0.0 keeps its sign.
    pa = np.where(on2, axis_len + u * s, np.where(arc, u * s, a - push * sin))
    prho = np.where(arc, rho * s, rho - push * cos)
    return np.where(out, pa, a), np.where(out, prho, rho), signed


def hull_normals(a, rho, r1, axis_len, r2):
    """Gradient (na, nrho) of hull_section's signed distance, per row: the
    radial unit of disk 1 or disk 2, or the tangent's (sin, cos), on the
    piece hull_section's k test (_hull_pieces) picks; zero at the center of
    the piece's disk."""
    sin, cos, arc, _, u, d, _ = _hull_pieces(a, rho, r1, axis_len, r2)
    d = np.where(d > 0.0, d, np.inf)
    return np.where(arc, u / d, sin), np.where(arc, rho / d, cos)


class TwoBallHullSet:
    """Convex hull of two closed balls.

    Covers balls (one ball inside the other), capsules (equal radii) and the
    general two-disk hull. Works in any dimension by reduction to the plane
    spanned by the center axis and the radial offset of the query point,
    where hull_section answers every query.
    """

    def __init__(self, center1, radius1: float, center2, radius2: float):
        c1 = np.asarray(center1, dtype=float)
        c2 = np.asarray(center2, dtype=float)
        if radius1 < radius2:
            c1, c2 = c2, c1
            radius1, radius2 = radius2, radius1
        self.c1 = c1
        self.r1, self.r2 = float(radius1), float(radius2)
        self.dim = c1.shape[0]
        self.axis_len = float(np.linalg.norm(c2 - c1))
        # Coincident centers make the hull ball 1, where any axis serves.
        self.axis = (c2 - c1) / self.axis_len if self.axis_len > 0 else np.eye(self.dim)[0]
        self.interior_point = self.c1.copy()
        self.hull = (self.c1, self.axis, self.r1, self.axis_len, self.r2)

    def project(self, x):
        x2, single = _atleast_2d(x)
        a, rho, w = _axial_section(x2, self.c1, self.axis)
        pa, prho, signed = hull_section(a, rho, self.r1, self.axis_len, self.r2)
        out = self.c1 + pa[:, None] * self.axis + prho[:, None] * w
        return _restore(np.where((signed > 0)[:, None], out, x2), single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        a, rho, _ = _axial_section(x2, self.c1, self.axis)
        return _restore(hull_section(a, rho, self.r1, self.axis_len, self.r2)[2], single)


class DilatedSet:
    """Minkowski sum base + eps * unit ball; a test reference no library path builds."""

    def __init__(self, base, eps: float):
        if not eps > 0:
            raise ValueError("dilation radius must be positive")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.interior_point = np.asarray(base.interior_point, dtype=float)

    def project(self, x):
        x2, single = _atleast_2d(x)
        pushed, dist = dilated_projection(x2, self.base.project(x2), self.eps)
        return _restore(np.where((dist > self.eps)[:, None], pushed, x2), single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        return _restore(self.base.signed_boundary_distance(x2) - self.eps, single)


def dilated_projection(x2, z, g):
    """The rows x2 pushed out to distance g from their projections z onto a
    set, where those farther than g project onto the set grown by g, and
    |x2 - z|. Rows at z stay there; the floor only keeps them finite."""
    delta = x2 - z
    dist = _norms(delta)
    return z + delta * (g / np.maximum(dist, 1e-300))[:, None], dist


def ball_lens_project(x2, center, radius, axis, signed_distance, r1, axis_len, r2):
    """Projection onto (two-ball hull) intersect B(center, radius) of the rows
    x2 whose projection onto the hull leaves the ball, batched; callers take
    the other rows' projection from the hull's own.

    Row i's hull is (r1, axis_len, r2)[i], scalars broadcast, about the origin
    along the unit vector axis, with signed distance signed_distance(points).
    Such a row projects onto the ball's sphere: to the ball's projection where
    the hull's signed distance there is <= 0, else to a corner of the lens
    (_lens_corners), found in hull_section's frame: the plane turned to the
    axis in 2-d, in d >= 3 the row's axial half-plane, whose axis must pass
    through the center.
    """
    rel = x2 - center
    gap = _norms(rel)
    pb = center + rel * np.where(gap > radius, radius / np.maximum(gap, 1e-300), 1.0)[:, None]
    wedge = (signed_distance(pb) > 0.0).nonzero()[0]
    if len(wedge):
        xw, hull = x2[wedge], [p[wedge] if np.ndim(p) else p for p in (r1, axis_len, r2)]
        if len(axis) == 2:
            turn = complex(*axis).conjugate()
            z = _lens_corners((xw[:, 0] + 1j * xw[:, 1]) * turn, complex(*center) * turn,
                              radius, *hull) * turn.conjugate()
            pb[wedge] = z.view(float).reshape(-1, 2)
        else:
            a, rho, w = _axial_section(xw, 0.0, axis)
            z = _lens_corners(a + 1j * rho, center @ axis, radius, *hull)
            pb[wedge] = z.real[:, None] * axis + z.imag[:, None] * w
    return pb


def _lens_corners(z, c, big_r, r1, axis_len, r2):
    """The nearest crossing of the circle |w - c| = big_r with the hull's
    boundary per row, in complex coordinates of hull_section's frame.

    A crossing with a disk's circle lies in that disk, so in the lens; one
    with a tangent line counts only where hull_section's coordinate k puts it
    on the segment. A row facing a corner wedge projects to a corner, the
    nearest of these lens points. Circles that miss by at most 1e-14 of the
    scale are tangent; a row with no crossing raises EmptySample. Scalar
    hull parameters broadcast over the rows.
    """
    r1, axis_len, r2, _ = np.broadcast_arrays(r1, axis_len, r2, z.real)
    sin, cos = _hull_frame(r1, axis_len, r2)
    tol = 1e-14 * (r1 + axis_len + big_r + np.abs(c))
    cands, valid = [], []
    for p, r in ((0.0, r1), (axis_len, r2)):
        dist = np.abs(c - p)
        apart = np.where(dist > 0, dist, 1.0)
        slack, foot, h = _circle_crossing(apart, r, big_r)
        meets = (slack >= -tol) & (dist > 0)
        e = (c - p) / apart
        foot = p + foot * e
        cands += [foot + 1j * h * e, foot - 1j * h * e]
        valid += [meets, meets]
    for sgn in (1.0, -1.0):  # the upper and the lower tangent line
        n = sin + 1j * sgn * cos  # outward normal
        t = -1j * sgn * n  # along the segment, away from disk 1
        off = (c * n.conjugate()).real - r1
        h = np.sqrt(np.maximum(big_r - off, 0.0) * np.maximum(big_r + off, 0.0))
        for q in (c - off * n + h * t, c - off * n - h * t):
            k = (q * t.conjugate()).real
            cands.append(q)
            valid.append((big_r - np.abs(off) >= -tol) & (k >= 0.0) & (k <= cos * axis_len))
    cands = np.stack(cands, axis=1)
    gap = np.where(np.stack(valid, axis=1), np.abs(cands - z[:, None]), np.inf)
    j = np.argmin(gap, axis=1)
    if not np.all(np.isfinite(gap[np.arange(len(z)), j])):
        raise EmptySample("the ball misses the hull: the lens is empty")
    return cands[np.arange(len(z)), j]


def intersection_signed_distance(x2, sa, sb, project):
    """Signed boundary distance of A intersect B from those of A and B, batched.

    max(sa, sb) is exact inside, where the depth is the smaller of the two
    depths, but outside it only bounds the distance from below near the corner
    wedges. Outside rows therefore take the distance to project(rows, points),
    the projection onto the intersection, and never less than max(sa, sb),
    the distance to the nearer of the two sets.
    """
    signed = np.maximum(np.asarray(sa, dtype=float), np.asarray(sb, dtype=float))
    out = np.flatnonzero(signed > 0)
    if len(out):
        signed[out] = np.maximum(
            signed[out], _norms(x2[out] - project(out, x2[out])))
    return signed


class IntersectionSet:
    """A plane two-ball hull cut by the plane ball B(center, radius), projected
    as a localization is: by the first set's projection where it lies in the
    ball, else by ball_lens_project on the first set's hull = (origin, axis,
    r1, axis_len, r2), which TwoBallHullSet carries."""

    def __init__(self, first, center, radius: float, interior_point):
        center = np.asarray(center, dtype=float)
        if not (hasattr(first, "hull") and first.dim == center.shape[0] == 2 and radius >= 0):
            raise ValueError("an intersection is a plane two-ball hull cut by a plane ball "
                             "of nonnegative radius")
        self.first = first
        self.center = center
        self.radius = float(radius)
        self.dim = first.dim
        self.interior_point = np.asarray(interior_point, dtype=float)

    def project(self, x):
        x2, single = _atleast_2d(x)
        origin, axis, r1, axis_len, r2 = self.first.hull
        proj = self.first.project(x2)
        rest = (_norms(proj - self.center) > self.radius).nonzero()[0]
        if len(rest):
            proj[rest] = origin + ball_lens_project(
                x2[rest] - origin, self.center - origin, self.radius, axis,
                lambda q: self.first.signed_boundary_distance(q + origin), r1, axis_len, r2)
        return _restore(proj, single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        signed = intersection_signed_distance(
            x2, self.first.signed_boundary_distance(x2),
            _norms(x2 - self.center) - self.radius,
            lambda rows, pts: self.project(pts))
        return _restore(signed, single)


@dataclass
class BoundarySample:
    """Points lying on a set boundary at a target spacing."""

    points: np.ndarray
    capped: bool  # max_points cut the ray count: spacing > resolution

    def __len__(self):
        return len(self.points)


def _ray_boundary_points(oracle, dirs: np.ndarray) -> np.ndarray:
    """Batched boundary points along rays from the interior point: a
    LevelSet's through its function's level_ray_exits, a set of this module
    through _ray_block's ITP search. A set whose interior point is not
    strictly inside (an empty interior) raises EmptySample. Runs in blocks
    of BLOCK_ROWS rays.
    """
    origin = np.asarray(oracle.interior_point, dtype=float)
    if float(oracle.signed_boundary_distance(origin)) >= 0:
        raise EmptySample("set has an empty interior: no boundary rays")
    exits = (partial(oracle.f.level_ray_exits, oracle.alpha) if hasattr(oracle, "f")
             else partial(_ray_block, oracle.signed_boundary_distance))
    out = np.empty(np.shape(dirs))
    for start in range(0, len(dirs), BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = exits(origin, dirs[start:start + BLOCK_ROWS])
    return out


def _ray_block(signed_distance, origin, dirs: np.ndarray) -> np.ndarray:
    """Ray exits from an interior point origin: doubling, then ITP on the
    signed distance, which is convex and 1-Lipschitz along a ray from an
    interior point. Each exit is the inner end of its bracket, a point of the
    set within 2e-15 * hi of the boundary, hi >= 1 the doubled ray length:
    about 1e-15 relative on sets of unit size or more, about 1e-15 absolute
    on smaller ones."""
    g0 = signed_distance(origin[None, :])[0]

    def g(rows, t):
        return np.asarray(signed_distance(origin + t[:, None] * dirs[rows]))

    lo, g_lo = np.zeros(len(dirs)), np.full(len(dirs), g0)
    hi = np.ones(len(dirs))
    g_hi = g(slice(None), hi)
    for _ in range(64):
        rows = np.flatnonzero(g_hi < 0)
        if not len(rows):
            break
        lo[rows], g_lo[rows] = hi[rows], g_hi[rows]
        hi[rows] *= 2.0
        g_hi[rows] = g(rows, hi[rows])
    else:
        raise NonConvergence("set appears unbounded along a ray")
    lo, hi = _itp(g, lo, hi, g_lo, g_hi, 1e-15 * hi)
    return origin + lo[:, None] * dirs


def _quadratic_roots(a, b, c):
    """Both roots of a t^2 + 2 b t + c, as q / a and c / q with q = -(b +
    sign(b) sqrt(b^2 - a c)), which cancels nothing; nan where there is no
    real root, and where a = 0 the linear root c / q."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
        return q / a, c / q


def hull_ray_exit(origin, dirs, axis, r1, axis_len, r2):
    """Lengths t of the rays origin + t * dirs[i] out of the hull of two
    balls, from a point origin inside it, in any dimension.

    Ball 1 has center 0 and radius r1, ball 2 center axis_len * axis and
    radius r2 <= r1, as in hull_section. Every root on sphere 1, on sphere 2
    or on the lateral cone cos^2 rho^2 = (r1 - sin a)^2 (axial and radial
    coordinates (a, rho)) between the tangent circles, where hull_section's
    k = (a - r1 sin) / cos is in [0, cos * axis_len], is a point of the
    hull, and the exit is one of them: the largest. A nested hull has no
    cone. A second pass from the first exits, where each constant term is a
    small residual times a sum, restores the roots that rounding moved where
    two roots lie close (a short chord, a ray near the cone's apex).
    """
    sin, cos = _hull_frame(r1, axis_len, r2)
    ua, ou = dirs @ axis, dirs @ origin
    t, p = 0.0, origin
    for _ in range(2):
        gap = _norms(p)
        roots = list(_quadratic_roots(1.0, ou, (gap - r1) * (gap + r1)))
        if np.any(cos > 0):
            a = p @ axis
            radial = p - np.multiply.outer(a, axis)
            rho = _norms(radial)
            off = a - r1 * sin  # cos * k on the cone
            for root in _quadratic_roots(cos * cos - ua * ua, cos * cos * ou - off * ua,
                                         (sin * a + cos * rho - r1) * (cos * rho + r1 - sin * a)):
                with np.errstate(invalid="ignore"):
                    k = off + root * ua
                roots.append(np.where((cos > 0) & (k >= 0.0) & (k <= cos * cos * axis_len),
                                      root, -np.inf))
            rel = p - axis_len * axis
            gap = _norms(rel)
            roots += _quadratic_roots(1.0, ou - axis_len * ua, (gap - r2) * (gap + r2))
        step = np.fmax.reduce(roots)
        t = t + step
        p, ou = origin + t[:, None] * dirs, ou + step
    return t


def _step_inside(signed_distance, origin, dirs, t):
    """The points origin + t[i] * dirs[i], each a point of the set: a row
    whose signed distance is positive steps back along its ray by the larger
    of that distance and a step that starts at one ulp of t and doubles each
    round."""
    t, step = t.copy(), np.spacing(t)
    pts = origin + t[:, None] * dirs
    rows, s = np.arange(len(t)), signed_distance(pts)
    for _ in range(64):
        rows, s = rows[s > 0], s[s > 0]
        if not len(rows):
            return pts
        t[rows] -= np.maximum(s, step[rows])
        step[rows] *= 2.0
        pts[rows] = origin + t[rows, None] * dirs[rows]
        s = signed_distance(pts[rows])
    raise NonConvergence("a ray exit does not step back into the set")


def _itp(g, lo, hi, g_lo, g_hi, tol):
    """Row-wise ITP root bracketing of a nondecreasing map g(rows, t).

    Oliveira & Takahashi (ACM TOMS 2020), k2 = 2, n0 = 1: regula falsi,
    truncated towards the midpoint by at least tol (so it cannot creep in from
    one side) and projected into the minmax interval, whose last quarter of
    slack absorbs rounding: no row takes more than one step beyond bisection.
    Evaluates only open rows, keeps g(lo) < 0 <= g(hi) and returns (lo, hi)
    no wider than 2 * tol per row.
    """
    lo, hi, g_lo, g_hi, tol = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi, tol))
    k1 = 0.2 / (hi - lo)
    n_max = np.ceil(np.log2((hi - lo) / (2.0 * tol))) + 1.0
    rows = np.flatnonzero(hi - lo > 2.0 * tol)
    j = 0
    while len(rows):
        a, b, fa, fb = lo[rows], hi[rows], g_lo[rows], g_hi[rows]
        mid = 0.5 * (a + b)
        r = np.maximum(0.75 * tol[rows] * 2.0 ** (n_max[rows] - j) - 0.5 * (b - a), 0.0)
        delta = np.maximum(k1[rows] * (b - a) ** 2, tol[rows])
        xf = (b * fa - a * fb) / (fa - fb)
        sigma = np.sign(mid - xf)
        xt = np.where(delta <= np.abs(mid - xf), xf + sigma * delta, mid)
        x = np.where(np.abs(xt - mid) <= r, xt, mid - sigma * r)
        gx = g(rows, x)
        up = gx >= 0
        hi[rows], g_hi[rows] = np.where(up, x, b), np.where(up, gx, fb)
        lo[rows], g_lo[rows] = np.where(up, a, x), np.where(up, fa, gx)
        j += 1
        rows = rows[hi[rows] - lo[rows] > 2.0 * tol[rows]]
    return lo, hi


def sample_boundary(oracle, resolution: float, seed: int = 0,
                    max_points: int = 200_000) -> BoundarySample:
    """Boundary sample of ray exits from the interior point.

    The oracle is any set with dim, interior_point and
    signed_boundary_distance: a LevelSet, or a set of this module. Each exit
    is a point of the set where its ray leaves it (_ray_boundary_points):
    exact to rounding where the function's level_ray_exits has a closed
    form (two-ball hulls, their regularizations and plain localizations),
    else found by ITP root-finding to about 1e-15 relative on sets of unit
    size or more and about 1e-15 absolute on smaller ones (_ray_block); a
    set whose interior point is not strictly inside (an empty interior)
    raises EmptySample.

    d = 2 places one ray per resolution of arc length: a 64-ray pass gives a
    closed polygon of perimeter P, and max(ceil(P / resolution), 64) rays go
    at equal arc length along it, their angles interpolated linearly along
    each edge; the exits come in counter-clockwise order about the interior
    point, at strictly increasing angles from 0. d = 3 uses a spherical
    Fibonacci lattice (Swinbank & Purser, QJRMS 2006; Gonzalez, Math.
    Geosci. 2010) and ignores the seed: one ray per 2 * resolution^2 of the
    sphere of radius r_max, the largest exit of a 128-point lattice, or
    ceil(2 pi (r_max / resolution)^2) rays, which cover a round set within
    about resolution. d >= 4 uses seeded sphere directions. The ray count is capped at max_points (capped is then True).
    Every ray gives one sample.
    """
    dim = oracle.dim
    if dim == 2:
        t = np.linspace(0.0, 2 * np.pi, 65)
        coarse = _ray_boundary_points(oracle, np.stack([np.cos(t), np.sin(t)], axis=1)[:-1])
        chords = _norms(np.roll(coarse, -1, axis=0) - coarse)
        arc = np.concatenate([[0.0], np.cumsum(chords)])
        count = max(int(np.ceil(arc[-1] / resolution)), 64)
        capped, count = count > max_points, min(count, max_points)
        angles = np.interp(np.arange(count) * (arc[-1] / count), arc, t)
        pts = _ray_boundary_points(oracle, np.stack([np.cos(angles), np.sin(angles)], axis=1))
    else:
        directions = (_fibonacci_directions if dim == 3 else
                      partial(unit_directions, split_rng(seed, "boundary", dim), dim=dim))
        coarse = _ray_boundary_points(oracle, directions(128))
        r_max = float(np.max(_norms(coarse - oracle.interior_point)))
        # Shave 1e-12 relative before the ceiling, so a count that sits on an
        # integer does not move with the last bit of r_max.
        if dim == 3:
            count = int(np.ceil(2.0 * np.pi * (r_max / resolution) ** 2 * (1.0 - 1e-12)))
        else:
            count = int(np.ceil((4.0 * r_max / resolution) ** (dim - 1) * (1.0 - 1e-12))) + 64
        capped, count = count > max_points, min(count, max_points)
        pts = _ray_boundary_points(oracle, directions(count))

    return BoundarySample(points=pts, capped=capped)


def _fibonacci_directions(n):
    """n unit vectors of the spherical Fibonacci lattice: z_i = 1 - (2i+1)/n,
    longitude i * pi * (3 - sqrt(5)). Built in blocks of BLOCK_ROWS rows,
    each row from its own index alone."""
    out = np.empty((n, 3))
    for start in range(0, n, BLOCK_ROWS):
        i = np.arange(start, min(start + BLOCK_ROWS, n))
        z = 1.0 - (2.0 * i + 1.0) / n
        rho = np.sqrt(1.0 - z * z)
        phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
        block = out[start:start + len(i)]
        block[:, 0], block[:, 1], block[:, 2] = rho * np.cos(phi), rho * np.sin(phi), z
    return out


def outward_normals(oracle, points):
    """Outward normals at boundary points of a LevelSet, batched, as
    (normals, ok): its function's level_normals at its level, with ok False
    at corners."""
    normals, corner = oracle.f.level_normals(oracle.alpha, points)
    return normals, ~corner
