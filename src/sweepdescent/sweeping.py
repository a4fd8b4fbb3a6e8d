"""Catching-up time stepping for the sublevel-set sweeping process.

The forward process tracks the shrinking sublevel sets K(t) = [f <= alpha2-t]
by projecting each iterate onto the next set on a uniform partition; an
initial waiting phase holds the start point until the moving level reaches
its value. The reverse process steps onto the growing closed complements of
the dilated sublevel interiors, which is only well posed within the
prox-regular reach and under the step-size guard theta = K * dt / r < 1.

Forward and reverse runs share one catching-up loop over a batch of starts
(n, d). A regularized function's steps, forward and reverse
(complement_projection), are one call of its base's projection onto the base
set grown by eps (_grown_project). A plain function
with a validated prox radius takes the closed-form inward step
x - s(x) grad s / |grad s| to the nearest sublevel boundary point, exact
inside a convex set, with the gradient of the signed distance s read exactly
from the function's level_normals, and raises DegenerateDirection where that
gradient vanishes.

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

    alpha2: float
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
            raise MissingConstants(
                "theta needs map_lipschitz and prox_radius estimates"
            )
        span = self.horizon if span is None else span
        return self.map_lipschitz * (span / self.steps) / self.prox_radius


@dataclass
class Trajectory:
    """Samples of one catching-up run: times, levels, points and function values.

    A batch of runs on one partition has points of shape (k+1, n, d) and
    values of shape (k+1, n); speeds and residuals then get one column per run.
    """

    times: np.ndarray
    levels: np.ndarray
    points: np.ndarray
    values: np.ndarray
    config: SweepingConfig

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
        return replace(self, points=self.points[:, i, :], values=self.values[:, i])

    def interpolate(self, t: float) -> np.ndarray:
        """Linear interpolation in time (used to compare unequal partitions)."""
        t = float(np.clip(t, self.times[0], self.times[-1]))
        i = int(np.searchsorted(self.times, t))
        if i == 0:
            return self.points[0]
        w = (t - self.times[i - 1]) / (self.times[i] - self.times[i - 1])
        return (1 - w) * self.points[i - 1] + w * self.points[i]

    def boundary_residuals(self, f: QuasiconvexFunction) -> np.ndarray:
        """|distance to the moving sublevel boundary| at every sample."""
        levels = np.repeat(self.levels, self.values[0].size)
        pts = self.points.reshape(len(levels), -1)
        return np.abs(f.level_signed_distance(levels, pts)).reshape(self.values.shape)


def _catching_up(f: QuasiconvexFunction, x0, times, levels, step,
                 cfg: SweepingConfig) -> Trajectory:
    """The catching-up loop pts[j] = step(levels[j], pts[j-1]) over (n, d)
    starts x0, with one evaluation of every sample at the end."""
    pts = np.empty((len(times), *x0.shape))
    pts[0] = x0
    for j in range(1, len(times)):
        try:
            pts[j] = step(levels[j], pts[j - 1])
        except SweepDescentError as exc:
            raise type(exc)(f"step {j} (level {levels[j]:.6g}): {exc}") from exc
    values = np.asarray(f.eval(pts.reshape(-1, x0.shape[1])), dtype=float)
    return Trajectory(times=times, levels=levels, points=pts,
                      values=values.reshape(len(times), len(x0)), config=cfg)


def forward_catching_up_batch(f: QuasiconvexFunction, starts, cfg: SweepingConfig) -> Trajectory:
    """Forward catching-up runs across the level window from one start (d,),
    a one-run trajectory, or a batch (n, d), with points of shape (k+1, n, d)."""
    x0, single = _atleast_2d(starts)
    if not np.all(f.sublevel(cfg.alpha2).membership(x0, tol=BOUNDARY_RIDE_TOL)):
        raise DomainError("a start point lies outside the initial sublevel set")
    if cfg.horizon > 0 and cfg.alpha2 - cfg.horizon <= f.inf_value:
        raise LevelUnderflow("level window reaches the infimum of the function")
    k = cfg.steps if cfg.horizon > 0 else 0
    times = (np.arange(k + 1) * cfg.horizon) / max(k, 1)
    f_x0 = np.asarray(f.eval(x0), dtype=float)
    lowest = f_x0.min(initial=np.inf)

    def step(level, x):
        # A start waits where it is until the moving level reaches its value;
        # levels only fall, so below the lowest start value none waits.
        moved = f.level_project(level, x)
        return moved if level < lowest else np.where((level >= f_x0)[:, None], x0, moved)

    traj = _catching_up(f, x0, times, cfg.alpha2 - times, step, cfg)
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
        raise ReverseRefused(
            "reverse sweeping needs prox-regularity evidence: pass a "
            "regularized function or a validated prox_radius"
        )


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
    r_hat = cfg.prox_radius if cfg.prox_radius is not None else freg.eps
    cfg = replace(cfg, prox_radius=r_hat)
    theta = cfg.theta(tbar)
    if theta >= 1.0:
        raise ThetaGuard(
            f"theta = {theta:.4g} >= 1: refine the partition before reversing"
        )
    x0, single = _atleast_2d(ubar)
    start_level = cfg.alpha2 - tbar
    if np.any(np.abs(freg.sublevel(start_level).signed_boundary_distance(x0)) > 1e-5):
        raise DomainError("reverse start must lie on the starting level boundary")
    k = cfg.steps if tbar > 0 else 0
    times = -tbar + (np.arange(k + 1) * tbar) / max(k, 1)
    step = partial(complement_projection if isinstance(freg, RegularizedFunction)
                   else _inward_step, freg)
    traj = _catching_up(freg, x0, times, cfg.alpha2 + times, step, cfg)
    return traj.trajectory(0) if single else traj


def flow_map(f: QuasiconvexFunction, boundary_grid, cfg: SweepingConfig) -> Trajectory:
    """Forward trajectories for every grid point on the starting boundary.

    Grid points must lie on the alpha2-level boundary. All grid points run
    as one batch, so the output is in grid order: run i starts at grid[i].
    """
    grid = np.asarray(boundary_grid, dtype=float)
    start_set = f.sublevel(cfg.alpha2)
    residual = np.abs(np.asarray(start_set.signed_boundary_distance(grid)))
    if np.any(residual > 1e-5):
        raise DomainError("flow map grid points must lie on the level boundary")
    return forward_catching_up_batch(f, grid, cfg)


def invert_flow_check(f: QuasiconvexFunction, m1, m2, t1: float, t2: float,
                      cfg: SweepingConfig, func_lipschitz: float) -> dict:
    """Bi-Lipschitz bound and forward nonexpansiveness for one start pair.

    Compares the flow distance D = |t1 - t2| + ||m1 - m2|| against
    (L + exp(K * T / r)) * ||u(t1, m1) - u(t2, m2)|| * 1.05 (a fixed 5% slack),
    and the pair's gap up to min(t1, t2) against its start gap plus 1e-8.
    """
    if cfg.map_lipschitz is None or cfg.prox_radius is None:
        raise MissingConstants("invert_flow_check needs map_lipschitz and prox_radius")
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    batch = forward_catching_up_batch(f, np.stack([m1, m2]), cfg)
    u1, u2 = batch.trajectory(0).interpolate(t1), batch.trajectory(1).interpolate(t2)
    d_in = abs(t1 - t2) + float(np.linalg.norm(m1 - m2))
    dist_out = float(np.linalg.norm(u1 - u2))
    factor = func_lipschitz + np.exp(
        cfg.map_lipschitz * cfg.horizon / cfg.prox_radius
    )
    bound = factor * dist_out * 1.05
    gaps = _norms(batch.points[:, 0, :] - batch.points[:, 1, :])
    span = batch.times <= min(t1, t2) + 1e-12
    nonexpansive = bool(np.all(gaps[span] <= gaps[0] + 1e-8))
    return {
        "D_in": d_in,
        "dist_out": dist_out,
        "bound": bound,
        "bilipschitz_ok": d_in <= bound,
        "nonexpansive_ok": nonexpansive,
    }


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
