"""Catching-up time stepping for the sublevel-set sweeping process.

The forward process tracks the shrinking sublevel sets K(t) = [f <= alpha2-t]
by projecting each iterate onto the next set on a uniform partition; an
initial waiting phase holds the start point until the moving level reaches
its value. The reverse process steps onto the growing closed complements of
the dilated sublevel interiors, which is only well posed within the
prox-regular reach and under the step-size guard theta = K * dt / r < 1.

Every run goes through _catching_up, the package's one catching-up loop,
over a batch of starts (n, d). A forward batch starts all rows from one level
or each row from its own, as the steepest-descent probe does, and
invert_flow_check runs all its start pairs as one forward batch. A regularized
function's steps, forward and reverse (complement_projection), are one call of
its base's projection onto the base set grown by eps (_grown_project). A
plain function with a prox radius claim takes the closed-form inward step
x - s(x) grad s / |grad s| to the nearest sublevel boundary point, exact
inside a convex set, with the gradient of the signed distance s read exactly
from level_normals, and raises DegenerateDirection where it vanishes.

trajectory_to_csv writes one run per file, each cell the repr of its float.
format_rows, the package's one float-to-text path, formats each distinct
value of a file once, and a flow map's shared step,t,level cells once for
all its runs, so the files are byte-identical to a per-cell repr writer.
"""

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import (DegenerateDirection, DomainError, LevelUnderflow,
                     MissingConstants, ReverseRefused, SweepDescentError,
                     ThetaGuard)
from .functions import QuasiconvexFunction
from .geometry import _atleast_2d, _norms
from .regularization import RegularizedFunction, complement_projection

BOUNDARY_RIDE_TOL = 1e-6


@dataclass
class SweepingConfig:
    """Level window, partition and constants for one sweeping run."""

    alpha2: float | np.ndarray  # one level, or one per start row of a forward run
    horizon: float
    steps: int
    map_lipschitz: float | None = None
    prox_radius: float | None = None

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.steps < 1:
            raise ValueError("partition needs at least one step")
        for key in ("map_lipschitz", "prox_radius"):
            if getattr(self, key) is not None and not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")

    def theta(self, span: float | None = None) -> float:
        """Reverse step-size guard for a run over the given time span."""
        if self.map_lipschitz is None or self.prox_radius is None:
            raise MissingConstants("theta needs map_lipschitz and prox_radius estimates")
        span = self.horizon if span is None else span
        return self.map_lipschitz * (span / self.steps) / self.prox_radius


@dataclass
class Trajectory:
    """Samples of one catching-up run: times, levels, points and function values.

    A batch of runs on one partition has points of shape (k+1, n, d) and
    values, speeds and residuals of shape (k+1, n); levels are (k+1, n) for
    runs from their own start levels, else (k+1,).
    """

    times: np.ndarray
    levels: np.ndarray
    points: np.ndarray
    values: np.ndarray

    @property
    def speeds(self) -> np.ndarray:
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=-1)
        return np.concatenate([np.zeros_like(self.values[:1]),
                               (steps.T / np.diff(self.times)).T])

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    def trajectory(self, i: int) -> "Trajectory":
        """Run i of a batch."""
        levels = self.levels[:, i] if self.levels.ndim == 2 else self.levels
        return replace(self, levels=levels, points=self.points[:, i, :],
                       values=self.values[:, i])

    def interpolate(self, t) -> np.ndarray:
        """Linear interpolation in time (used to compare unequal partitions),
        at one t for every run or at one t per run of a batch."""
        t = np.clip(t, self.times[0], self.times[-1])
        hi = np.searchsorted(self.times, t)
        lo = np.maximum(hi - 1, 0)
        span = self.times[hi] - self.times[lo]
        w = np.asarray((t - self.times[lo]) / np.where(span > 0, span, 1.0))[..., None]
        runs = np.arange(np.size(t)) if np.ndim(t) else slice(None)
        return (1 - w) * self.points[lo, runs] + w * self.points[hi, runs]

    def boundary_residuals(self, f: QuasiconvexFunction) -> np.ndarray:
        """|distance to the moving sublevel boundary| at every sample."""
        levels = np.broadcast_to(self.levels.T, self.values.T.shape).T.ravel()
        pts = self.points.reshape(len(levels), -1)
        return np.abs(f.level_signed_distance(levels, pts)).reshape(self.values.shape)


def _catching_up(f: QuasiconvexFunction, x0, times, levels, step, hold=None) -> Trajectory:
    """The catching-up loop pts[j] = step(levels[j], pts[j-1]) over (n, d)
    starts x0, with one evaluation of every sample at the end; a row stays at
    its start where hold (k+1, n) is set, tested only up to hold's last step."""
    pts = np.empty((len(times), *x0.shape))
    pts[0] = x0
    held = 0 if hold is None else int(np.flatnonzero(hold.any(axis=1)).max(initial=0))
    for j in range(1, len(times)):
        try:
            pts[j] = step(levels[j], pts[j - 1])
        except SweepDescentError as exc:
            raise type(exc)(f"step {j} (level {np.min(levels[j]):.6g}): {exc}") from exc
        if j <= held:
            pts[j, hold[j]] = x0[hold[j]]
    values = np.asarray(f.eval(pts.reshape(-1, x0.shape[1])), dtype=float)
    return Trajectory(times=times, levels=levels, points=pts,
                      values=values.reshape(len(times), len(x0)))


def forward_catching_up_batch(f: QuasiconvexFunction, starts, cfg: SweepingConfig) -> Trajectory:
    """Forward catching-up runs across the level window from one start (d,),
    a one-run trajectory, or a batch (n, d), with points of shape (k+1, n, d).
    cfg.alpha2 is one start level for every row, or one per row (n,), which
    gives levels of shape (k+1, n)."""
    x0, single = _atleast_2d(starts)
    alpha2 = np.asarray(cfg.alpha2, dtype=float)
    f.check_levels(alpha2)
    if not np.all(f.level_signed_distance(alpha2, x0) <= BOUNDARY_RIDE_TOL):
        raise DomainError("a start point lies outside the initial sublevel set")
    if cfg.horizon > 0 and np.min(alpha2) - cfg.horizon <= f.inf_value:
        raise LevelUnderflow("level window reaches the infimum of the function")
    k = cfg.steps if cfg.horizon > 0 else 0
    times = (np.arange(k + 1) * cfg.horizon) / max(k, 1)
    levels = alpha2 - (times[:, None] if alpha2.ndim else times)
    # A start waits where it is until the moving level reaches its value.
    hold = levels.reshape(k + 1, -1) >= np.asarray(f.eval(x0), dtype=float)
    traj = _catching_up(f, x0, times, levels, f.level_project, hold)
    return traj.trajectory(0) if single else traj


def _inward_step(f: QuasiconvexFunction, level: float, x):
    """Nearest boundary points of [f <= level] from inside, per row of x.

    Inside a convex set the signed distance s is exact, so the nearest
    boundary point is x - s(x) * grad s / |grad s|, with the gradient from
    level_normals. Rows with s >= 0 stay where they are; a vanishing
    gradient (norm below 1e-12) raises DegenerateDirection.
    """
    s = f.level_signed_distance(level, x)
    inside = np.flatnonzero(s < 0.0)
    out = x.copy()
    if len(inside):
        grad, _ = f.level_normals(level, x[inside])
        norms = _norms(grad)
        if np.any(norms < 1e-12):
            raise DegenerateDirection(
                "the signed distance has no gradient: no nearest boundary direction")
        out[inside] -= (s[inside] / norms)[:, None] * grad
    return out


def require_reverse_evidence(f: QuasiconvexFunction, prox_radius) -> None:
    """Refuse a reverse run without prox-regularity evidence: a regularized
    function or a validated prox radius. No computation supplies it, so a
    caller can check before doing any."""
    if not isinstance(f, RegularizedFunction) and prox_radius is None:
        raise ReverseRefused("reverse sweeping needs prox-regularity evidence: pass a "
                             "regularized function or a validated prox_radius")


def reverse_catching_up(freg, ubar, tbar: float, cfg: SweepingConfig) -> Trajectory:
    """Reverse runs on the complement process from level alpha2 - tbar up to alpha2.

    Takes one start (d,) or a batch (n, d), which gives points of shape
    (k+1, n, d). Only offered for regularized functions (whose complements
    are eps prox-regular by construction, stepped by complement_projection)
    or when the config carries a validated prox radius (stepped by the
    closed-form inward boundary step); refuses otherwise, and refuses when
    theta >= 1. A negative tbar raises ValueError.
    """
    if tbar < 0:
        raise ValueError(f"reverse horizon tbar must be nonnegative, got {tbar!r}")
    require_reverse_evidence(freg, cfg.prox_radius)
    if cfg.map_lipschitz is None:
        raise MissingConstants("reverse sweeping needs a map_lipschitz estimate")
    cfg = replace(cfg, prox_radius=freg.eps if cfg.prox_radius is None else cfg.prox_radius)
    theta = cfg.theta(tbar)
    if theta >= 1.0:
        raise ThetaGuard(f"theta = {theta:.4g} >= 1: refine the partition before reversing")
    x0, single = _atleast_2d(ubar)
    start_level = cfg.alpha2 - tbar
    freg.check_levels(start_level)
    if np.any(np.abs(freg.level_signed_distance(start_level, x0)) > 1e-5):
        raise DomainError("reverse start must lie on the starting level boundary")
    k = cfg.steps if tbar > 0 else 0
    times = -tbar + (np.arange(k + 1) * tbar) / max(k, 1)
    step = partial(complement_projection if isinstance(freg, RegularizedFunction)
                   else _inward_step, freg)
    traj = _catching_up(freg, x0, times, cfg.alpha2 + times, step)
    return traj.trajectory(0) if single else traj


def flow_map(f: QuasiconvexFunction, boundary_grid, cfg: SweepingConfig) -> Trajectory:
    """Forward trajectories for every grid point on the starting boundary.

    Grid points must lie on the alpha2-level boundary. All grid points run
    as one batch, so the output is in grid order: run i starts at grid[i].
    """
    f.check_levels(cfg.alpha2)
    if np.any(np.abs(f.level_signed_distance(cfg.alpha2, _atleast_2d(boundary_grid)[0])) > 1e-5):
        raise DomainError("flow map grid points must lie on the level boundary")
    return forward_catching_up_batch(f, boundary_grid, cfg)


def invert_flow_check(f: QuasiconvexFunction, m1, m2, t1, t2,
                      cfg: SweepingConfig, func_lipschitz: float) -> dict:
    """Bi-Lipschitz bound and forward nonexpansiveness for start pairs.

    Compares the flow distance D = |t1 - t2| + ||m1 - m2|| against
    (L + exp(K * T / r)) * ||u(t1, m1) - u(t2, m2)|| * 1.05 (a fixed 5% slack),
    and the pair's gap up to min(t1, t2) against its start gap plus 1e-8.
    One pair (starts (d,)) gives floats and bools; n pairs (starts (n, d),
    times scalar or (n,)) an array per key, whose rows equal the one-pair
    records, as all 2n starts run in one forward batch.
    """
    if cfg.map_lipschitz is None or cfg.prox_radius is None:
        raise MissingConstants("invert_flow_check needs map_lipschitz and prox_radius")
    (m1, single), (m2, _) = _atleast_2d(m1), _atleast_2d(m2)
    n = len(m1)
    t1, t2 = np.broadcast_to(t1, n), np.broadcast_to(t2, n)
    batch = forward_catching_up_batch(f, np.vstack([m1, m2]), cfg)
    u = batch.interpolate(np.concatenate([t1, t2]))
    factor = func_lipschitz + np.exp(cfg.map_lipschitz * cfg.horizon / cfg.prox_radius)
    gaps = _norms(batch.points[:, :n] - batch.points[:, n:])
    span = batch.times[:, None] <= np.minimum(t1, t2) + 1e-12
    rec = {"D_in": np.abs(t1 - t2) + _norms(m1 - m2), "dist_out": _norms(u[:n] - u[n:])}
    rec["bound"] = factor * rec["dist_out"] * 1.05
    rec["bilipschitz_ok"] = rec["D_in"] <= rec["bound"]
    rec["nonexpansive_ok"] = np.all((gaps <= gaps[0] + 1e-8) | ~span, axis=0)
    return {key: value[0].item() for key, value in rec.items()} if single else rec


def format_rows(table, *lead) -> list:
    """The rows of a 2-d float table as comma-separated text, each after its
    cells from the columns of lead (strings). A cell's text is the repr of
    its value, and repr runs once per distinct value: values are told apart
    by their bits, so -0.0 and 0.0 keep their own text, and each row is
    byte for byte the join of its cells' reprs."""
    table = np.ascontiguousarray(table, dtype=float)
    bits, inverse = np.unique(table.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return list(map(",".join, zip(*lead, *texts[inverse.reshape(table.shape)].T.tolist())))


@lru_cache(maxsize=1)
def _partition_cells(times: bytes, levels: bytes) -> tuple:
    """The step,t,level cells of each row of a partition, given as the raw
    bytes of its times and levels: the runs of a flow map share one
    partition, so it is formatted once for all of them."""
    times, levels = np.frombuffer(times), np.frombuffer(levels)
    return tuple(format_rows(np.column_stack([times, levels]), map(str, range(len(times)))))


def trajectory_to_csv(traj: Trajectory, f: QuasiconvexFunction, path,
                      comment: str = "") -> None:
    """Write one trajectory in the column layout shared by all runs, one
    call per file; its cells are formatted by format_rows."""
    dim = traj.points.shape[1]
    cols = ["step", "t", "level"] + [f"x{i}" for i in range(dim)] + [
        "f", "speed", "dist_to_boundary"]
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(cols))
    lines += format_rows(
        np.column_stack([traj.points, traj.values, traj.speeds, traj.boundary_residuals(f)]),
        _partition_cells(traj.times.tobytes(), traj.levels.tobytes()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
