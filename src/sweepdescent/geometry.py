"""Oracle-based convex set primitives.

Every set is exposed through the same oracle surface: metric projection,
signed boundary distance and a Slater (interior) point. Membership and
distance derive from the signed distance, once, in ConvexSetOracle: a point
is a member when its signed distance is at most the tolerance, and its
distance is the positive part. Balls, dilations and hulls of two balls are
exact in closed form; the hull math is one per-row kernel, hull_section,
which the gallery functions also call with per-row parameters. Intersections
with a ball in the plane are exact through ball_lens_project, whose one
feasibility rule is a signed distance <= 0; other intersections use
Dykstra's scheme. The signed distance of an intersection is exact on both
sides of its boundary.

All point-valued operations accept a single point of shape (d,) or a batch of
shape (n, d) and return the matching shape.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateNormal, EmptySample, NonConvergence
from .rng import split_rng, unit_directions

TOL_PROJ = 1e-10
BOUNDARY_TOL = 1e-7
DYKSTRA_MAX_ITER = 10_000
PROBE_STEP = 1e-5
RAY_BLOCK = 8192


def _atleast_2d(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _restore(x, single):
    return x[0] if single else x


class ConvexSetOracle:
    """Closed convex set queried through projection and signed distance."""

    dim: int
    interior_point: np.ndarray

    def project(self, x):
        raise NotImplementedError

    def signed_boundary_distance(self, x):
        """Distance to the boundary, negative inside."""
        raise NotImplementedError

    def membership(self, x, tol: float = 0.0):
        return self.signed_boundary_distance(x) <= tol

    def distance(self, x):
        return np.maximum(self.signed_boundary_distance(x), 0.0)


class FullSpaceSet(ConvexSetOracle):
    """The whole space; domain oracle for finite-valued functions."""

    def __init__(self, dim: int):
        self.dim = dim
        self.interior_point = np.zeros(dim)

    def project(self, x):
        return np.asarray(x, dtype=float)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        return _restore(np.full(len(x2), -np.inf), single)


class BallSet(ConvexSetOracle):
    """Closed ball; radius zero gives a single point."""

    def __init__(self, center, radius: float):
        if radius < 0:
            raise ValueError("ball radius must be nonnegative")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.dim = self.center.shape[0]
        self.interior_point = self.center.copy()

    def project(self, x):
        x2, single = _atleast_2d(x)
        delta = x2 - self.center
        norms = np.linalg.norm(delta, axis=1)
        out = norms > self.radius
        scale = np.ones_like(norms)
        scale[out] = self.radius / norms[out]
        return _restore(self.center + delta * scale[:, None], single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        return _restore(np.linalg.norm(x2 - self.center, axis=1) - self.radius, single)


def hull_section(a, rho, r1, axis_len, r2):
    """Exact oracle of the hull of two disks in section coordinates, per row.

    Disk 1 has center (0, 0) and radius r1, disk 2 center (axis_len, 0) and
    radius r2 <= r1; a query point is (a, rho) with rho >= 0. Every parameter
    may be an array with one hull per row; scalars broadcast. When disk 2 lies
    in disk 1 the hull is disk 1. Otherwise the upper tangent segment has
    outward normal (sin, cos), sin = (r1 - r2) / axis_len, and the coordinate
    k along it splits the plane into the points whose nearest boundary piece
    is the arc of disk 1 (k <= 0), the arc of disk 2 (k >= cos * axis_len) or
    the segment. Returns the projection (pa, prho) and the signed boundary
    distance, negative inside.
    """
    nested = axis_len + r2 <= r1 + 1e-15
    sin = np.where(nested, 1.0, (r1 - r2) / np.where(nested, 1.0, axis_len))
    cos = np.sqrt(np.maximum(1.0 - sin**2, 0.0))
    k = cos * a - sin * rho
    d1 = np.hypot(a, rho)
    d2 = np.hypot(a - axis_len, rho)
    on1 = k <= 0.0
    on2 = ~on1 & (k >= cos * axis_len)
    signed = np.where(on1, d1 - r1, np.where(on2, d2 - r2, sin * a + cos * rho - r1))
    s1 = r1 / np.maximum(d1, 1e-150)
    s2 = r2 / np.maximum(d2, 1e-150)
    out = signed > 0
    pa = np.where(on1, a * s1, np.where(on2, axis_len + (a - axis_len) * s2, a - signed * sin))
    prho = np.where(on1, rho * s1, np.where(on2, rho * s2, rho - signed * cos))
    return np.where(out, pa, a), np.where(out, prho, rho), signed


class TwoBallHullSet(ConvexSetOracle):
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

    def _section(self, x2):
        """Split points into axial coordinate, radial coordinate, radial unit."""
        rel = x2 - self.c1
        a = rel @ self.axis
        radial_vec = rel - a[:, None] * self.axis
        rho = np.linalg.norm(radial_vec, axis=1)
        # Exactly axial points get a zero radial unit; their radial part is 0.
        w = radial_vec / np.where(rho > 0, rho, 1.0)[:, None]
        return a, rho, w

    def project(self, x):
        x2, single = _atleast_2d(x)
        a, rho, w = self._section(x2)
        pa, prho, signed = hull_section(a, rho, self.r1, self.axis_len, self.r2)
        out = self.c1 + pa[:, None] * self.axis + prho[:, None] * w
        return _restore(np.where((signed > 0)[:, None], out, x2), single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        a, rho, _ = self._section(x2)
        return _restore(hull_section(a, rho, self.r1, self.axis_len, self.r2)[2], single)


class DilatedSet(ConvexSetOracle):
    """Minkowski sum base + eps * unit ball, through the base oracle."""

    def __init__(self, base: ConvexSetOracle, eps: float):
        if eps <= 0:
            raise ValueError("dilation radius must be positive")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.interior_point = np.asarray(base.interior_point, dtype=float)

    def project(self, x):
        x2, single = _atleast_2d(x)
        z = self.base.project(x2)
        delta = x2 - z
        dist = np.linalg.norm(delta, axis=1)
        out = dist > self.eps
        res = x2.copy()
        if np.any(out):
            res[out] = z[out] + delta[out] * (self.eps / dist[out])[:, None]
        return _restore(res, single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        return _restore(self.base.signed_boundary_distance(x2) - self.eps, single)


def ball_lens_project(x2: np.ndarray, ball: "BallSet", row_project, row_signed,
                      n_theta: int = 96):
    """Exact 2d projection onto (convex set A) intersect (ball), batched.

    The per-row set A is reached through its projection and signed distance,
    callables taking (row_indices, pts); a point is feasible for A where that
    signed distance is <= 0. The projection is x itself, A's projection of x
    (if inside the ball), the ball's projection (if inside A), or the nearer
    crossing point of the two boundaries, found by bisecting sign changes of
    A-feasibility along the ball circle. A row whose ring scan sees no
    feasible point takes the deepest circle point: a feasible arc shorter
    than the ring spacing has its crossings within one spacing of it, and
    otherwise the circle only touches A there (tangency).
    """
    m = len(x2)
    rows = np.arange(m)
    best = np.full((m, 2), np.nan)

    inside = (np.asarray(row_signed(rows, x2)) <= 0.0) & np.asarray(ball.membership(x2))
    best[inside] = x2[inside]

    # When one set's own projection is feasible for the other it is already
    # the metric projection of the intersection; only the remaining rows
    # (facing a corner wedge) need boundary-crossing candidates.
    pa = np.asarray(row_project(rows, x2))
    va = ~inside & np.asarray(ball.membership(pa))
    best[va] = pa[va]
    pb = np.asarray(ball.project(x2))
    vb = ~inside & ~va & (np.asarray(row_signed(rows, pb)) <= 0.0)
    best[vb] = pb[vb]

    open_rows = np.flatnonzero(~(inside | va | vb))
    if not len(open_rows):
        return best
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    gap = 2.0 * np.pi / n_theta

    def ring(th):
        return ball.center + ball.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    k = len(open_rows)
    ring_pts = np.broadcast_to(ring(theta), (k, n_theta, 2)).reshape(-1, 2)
    signed_ring = np.asarray(
        row_signed(np.repeat(open_rows, n_theta), ring_pts)).reshape(k, n_theta)
    feas = signed_ring <= 0.0
    sub_i, flip_j = np.nonzero(feas != np.roll(feas, -1, axis=1))
    flip_r = open_rows[sub_i]
    th_in = theta[flip_j] + np.where(feas[sub_i, flip_j], 0.0, gap)
    th_out = theta[flip_j] + np.where(feas[sub_i, flip_j], gap, 0.0)

    missing = np.setdiff1d(np.arange(k), sub_i)
    if len(missing):
        # Ternary search for the deepest circle point near the best sample.
        sub = open_rows[missing]
        j = np.argmin(signed_ring[missing], axis=1)
        lo, hi = theta[j] - gap, theta[j] + gap
        for _ in range(60):
            t1 = lo + (hi - lo) / 3.0
            t2 = hi - (hi - lo) / 3.0
            take = np.asarray(row_signed(sub, ring(t1))) < np.asarray(row_signed(sub, ring(t2)))
            hi = np.where(take, t2, hi)
            lo = np.where(take, lo, t1)
        th = 0.5 * (lo + hi)
        depth = np.asarray(row_signed(sub, ring(th)))
        if float(np.max(depth)) > 1e-6:
            raise NonConvergence("lens projection found no feasible point")
        arc = depth < 0.0
        best[sub[~arc]] = ring(th[~arc])
        flip_r = np.concatenate([flip_r, sub[arc], sub[arc]])
        th_in = np.concatenate([th_in, th[arc], th[arc]])
        th_out = np.concatenate([th_out, th[arc] - gap, th[arc] + gap])

    for _ in range(46):
        mid = 0.5 * (th_in + th_out)
        ok = np.asarray(row_signed(flip_r, ring(mid))) <= 0.0
        th_in = np.where(ok, mid, th_in)
        th_out = np.where(ok, th_out, mid)
    corners = ring(th_in)
    # Farthest first, so each row keeps its nearest corner (the last write).
    order = np.argsort(np.linalg.norm(x2[flip_r] - corners, axis=1))[::-1]
    best[flip_r[order]] = corners[order]
    return best


def dykstra(project_a, project_b, x2):
    """Projection onto A intersect B by Dykstra's alternating projections.

    Plain alternating projections only reach a feasible point, which breaks
    the nonexpansiveness and distance contracts, so the correction terms are
    required. Stops once no row moves by TOL_PROJ in one sweep.
    """
    y = x2.copy()
    p = np.zeros_like(x2)
    q = np.zeros_like(x2)
    prev = None
    for _ in range(DYKSTRA_MAX_ITER):
        u = project_a(y + p)
        p = y + p - u
        y = project_b(u + q)
        q = u + q - y
        if prev is not None and float(np.max(np.linalg.norm(y - prev, axis=1))) < TOL_PROJ:
            return y
        prev = y.copy()
    raise NonConvergence("Dykstra projection did not reach tolerance")


def intersection_signed_distance(x2, sa, sb, project):
    """Signed boundary distance of A intersect B from those of A and B, batched.

    max(sa, sb) is exact inside, where the depth is the smaller of the two
    depths, but outside it only bounds the distance from below near the corner
    wedges. Outside rows therefore take the distance to project(rows, points),
    the projection onto the intersection, and never less than max(sa, sb),
    the distance to the nearer of the two sets: an approximate projection
    (Dykstra stops at TOL_PROJ) cannot pull it below that bound.
    """
    signed = np.maximum(np.asarray(sa, dtype=float), np.asarray(sb, dtype=float))
    out = np.flatnonzero(signed > 0)
    if len(out):
        signed[out] = np.maximum(
            signed[out], np.linalg.norm(x2[out] - project(out, x2[out]), axis=1))
    return signed


class IntersectionSet(ConvexSetOracle):
    """Intersection of two convex oracles.

    In the plane, when the second set is a ball, the projection is computed
    exactly from boundary candidates (ball_lens_project); otherwise by
    Dykstra's scheme.
    """

    def __init__(self, first: ConvexSetOracle, second: ConvexSetOracle,
                 interior_point=None):
        self.first = first
        self.second = second
        self.dim = first.dim
        if interior_point is None:
            interior_point = find_interior_point(first, second)
        self.interior_point = np.asarray(interior_point, dtype=float)

    def project(self, x):
        x2, single = _atleast_2d(x)
        if self.dim == 2 and isinstance(self.second, BallSet):
            out = ball_lens_project(
                x2, self.second,
                lambda rows, pts: self.first.project(pts),
                lambda rows, pts: self.first.signed_boundary_distance(pts))
        else:
            out = dykstra(self.first.project, self.second.project, x2)
        return _restore(out, single)

    def signed_boundary_distance(self, x):
        x2, single = _atleast_2d(x)
        signed = intersection_signed_distance(
            x2, self.first.signed_boundary_distance(x2),
            self.second.signed_boundary_distance(x2),
            lambda rows, pts: self.project(pts))
        return _restore(signed, single)


def find_interior_point(first: ConvexSetOracle, second: ConvexSetOracle,
                        seed: int = 0, n_samples: int = 256) -> np.ndarray:
    """Search for a common interior point of two oracles (Slater point)."""
    rng = split_rng(seed, "interior", n_samples)
    anchors = np.stack([first.interior_point, second.interior_point])
    scale = max(1.0, float(np.linalg.norm(anchors[0] - anchors[1])))
    pts = np.concatenate([
        anchors,
        anchors.mean(axis=0)[None, :],
        anchors.mean(axis=0) + scale * rng.normal(size=(n_samples, first.dim)),
    ])
    # Alternating projections drive the cloud into the intersection; the
    # centroid of distinct feasible points then sits strictly inside.
    for _ in range(400):
        pts = second.project(first.project(pts))
        if (np.all(first.membership(pts, tol=BOUNDARY_TOL))
                and np.all(second.membership(pts, tol=BOUNDARY_TOL))):
            break
    candidates = np.concatenate([pts, pts.mean(axis=0)[None, :]])
    depth = -np.maximum(
        np.asarray(first.signed_boundary_distance(candidates)),
        np.asarray(second.signed_boundary_distance(candidates)),
    )
    i = int(np.argmax(depth))
    if depth[i] <= BOUNDARY_TOL:
        raise NonConvergence("no interior point found for intersection")
    return candidates[i]


@dataclass
class BoundarySample:
    """Points lying on a set boundary at a target spacing."""

    points: np.ndarray
    resolution: float
    capped: bool = False  # max_points cut the ray count: spacing > resolution

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)

    def __len__(self):
        return len(self.points)


def _ray_boundary_points(oracle: ConvexSetOracle, dirs: np.ndarray) -> np.ndarray:
    """Batched boundary points along rays from the interior point.

    Runs in row blocks of RAY_BLOCK, which keeps the arrays cache-sized; every
    step is row-wise, so the block size never changes a result.
    """
    out = np.empty(np.shape(dirs))
    for start in range(0, len(dirs), RAY_BLOCK):
        out[start:start + RAY_BLOCK] = _ray_block(oracle, dirs[start:start + RAY_BLOCK])
    return out


def _ray_block(oracle: ConvexSetOracle, dirs: np.ndarray, origin=None) -> np.ndarray:
    """Ray exits from origin (default: the interior point): doubling, then
    ITP on the signed distance, which is convex and 1-Lipschitz along a ray
    from an interior point. Each exit is the inner end of its bracket, a
    point of the set within 2e-15 relative of the boundary."""
    center = oracle.interior_point if origin is None else origin
    g0 = float(oracle.signed_boundary_distance(center))
    if g0 >= 0:
        raise EmptySample("set has an empty interior: no boundary rays")

    def g(rows, t):
        return np.asarray(oracle.signed_boundary_distance(center + t[:, None] * dirs[rows]))

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
    return center + lo[:, None] * dirs


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


def sample_boundary(oracle: ConvexSetOracle, resolution: float, seed: int = 0,
                    max_points: int = 200_000) -> BoundarySample:
    """Boundary sample of ray exits from the interior point.

    Each exit is the root of the signed boundary distance along its ray,
    found by ITP root-finding to about 1e-15 relative; a set whose interior
    point is not strictly inside (an empty interior) raises EmptySample.

    d = 2 uses a deterministic angular sweep sized from a coarse perimeter
    estimate; d >= 3 uses seeded sphere directions. Duplicates closer than
    resolution / 2 are rejected.
    """
    dim = oracle.dim
    if dim == 2:
        t = np.linspace(0.0, 2 * np.pi, 65)[:-1]
        coarse = _ray_boundary_points(oracle, np.stack([np.cos(t), np.sin(t)], axis=1))
        perimeter = float(np.linalg.norm(np.roll(coarse, -1, axis=0) - coarse, axis=1).sum())
        count = max(int(np.ceil(perimeter / resolution)) * 2, 64)
        capped, count = count > max_points, min(count, max_points)
        angles = np.linspace(0.0, 2 * np.pi, count + 1)[:-1]
        pts = _ray_boundary_points(oracle, np.stack([np.cos(angles), np.sin(angles)], axis=1))
    else:
        rng = split_rng(seed, "boundary", dim)
        coarse = _ray_boundary_points(oracle, unit_directions(rng, 128, dim))
        r_max = float(np.max(np.linalg.norm(coarse - oracle.interior_point, axis=1)))
        # Shave 1e-12 relative before the ceiling, so a count that sits on an
        # integer does not move with the last bit of r_max.
        count = int(np.ceil((4.0 * r_max / resolution) ** (dim - 1) * (1.0 - 1e-12))) + 64
        capped, count = count > max_points, min(count, max_points)
        pts = _ray_boundary_points(oracle, unit_directions(rng, count, dim))

    keep = _dedupe(pts, resolution / 2.0)
    return BoundarySample(points=pts[keep], resolution=resolution, capped=capped)


def _dedupe(pts, min_gap):
    tree = cKDTree(pts)
    keep = np.ones(len(pts), dtype=bool)
    for i, j in tree.query_pairs(min_gap):
        if keep[i] and keep[j]:
            keep[max(i, j)] = False
    return keep


def outward_normal(oracle: ConvexSetOracle, point, probe: float = PROBE_STEP,
                   corner_tol: float = 1e-3):
    """Unit outward normal at a boundary point.

    Seeds a direction from finite differences of the distance function, pushes
    an exterior probe and normalizes x - project(x). A second probe along the
    refined direction must agree, otherwise the point is treated as a corner.
    """
    b = np.asarray(point, dtype=float)
    if abs(float(oracle.signed_boundary_distance(b))) > BOUNDARY_TOL * 10:
        raise DegenerateNormal("query point is not on the boundary")
    normals = outward_normals(oracle, b[None, :], probe=probe, corner_tol=corner_tol)
    return normals[0]


def outward_normals(oracle: ConvexSetOracle, points, probe: float = PROBE_STEP,
                    corner_tol: float = 1e-3, strict: bool = True):
    """Vectorized outward normals.

    With strict=True a corner point raises DegenerateNormal; otherwise the
    pair (normals, ok_mask) is returned and corner rows are masked out.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    # Finite-difference seed from the signed boundary distance field.
    grad = np.zeros_like(pts)
    for axis in range(dim):
        off = np.zeros(dim)
        off[axis] = probe
        grad[:, axis] = (
            np.asarray(oracle.signed_boundary_distance(pts + off))
            - np.asarray(oracle.signed_boundary_distance(pts - off))
        ) / (2 * probe)
    norms = np.linalg.norm(grad, axis=1)
    bad_seed = norms < 1e-12
    norms[bad_seed] = 1.0
    seed_dir = grad / norms[:, None]

    def refine(direction):
        outside = pts + probe * direction
        feet = oracle.project(outside)
        delta = outside - feet
        dist = np.linalg.norm(delta, axis=1)
        ok = dist > probe * 1e-6
        out = direction.copy()
        out[ok] = delta[ok] / dist[ok][:, None]
        return out, ok

    n1, ok1 = refine(seed_dir)
    n_ret, ok2 = refine(n1)
    # At a corner the probe-projection is self-consistent for any direction
    # inside the normal cone, so the agreement test must re-probe from a
    # deliberately tilted direction: smooth points converge back, corners
    # keep the tilt.
    tangent = np.zeros_like(n_ret)
    idx = np.argmin(np.abs(n_ret), axis=1)
    tangent[np.arange(n), idx] = 1.0
    tangent -= n_ret * np.einsum("ij,ij->i", tangent, n_ret)[:, None]
    tangent /= np.maximum(np.linalg.norm(tangent, axis=1, keepdims=True), 1e-12)
    tilted = n_ret + 0.1 * tangent
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    n_tst, ok3 = refine(tilted)
    agreement = np.einsum("ij,ij->i", n_ret, n_tst)
    corner = bad_seed | ~ok1 | ~ok2 | ~ok3 | (agreement < 1.0 - corner_tol)
    if np.any(corner) and strict:
        raise DegenerateNormal(
            f"no unique normal at rows {np.flatnonzero(corner).tolist()[:8]}"
        )
    if strict:
        return n_ret
    return n_ret, ~corner
