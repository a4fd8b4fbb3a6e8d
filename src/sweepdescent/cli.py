"""Command line experiment runner.

Subcommands: descend (forward and optional reverse catching-up runs),
verify (full diagnostics suite), foliate (flow-map file set), gallery
(available functions) and regularize (pointwise value table). A config file
and flags describe one experiment; flags override the file, all defaults are
materialized into the echoed config, and every output file starts with a
comment line carrying the tool version, config hash and seed. Exit codes:
0 ok, 1 check failures, 2 config error, 3 numerical failure.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import types
from dataclasses import dataclass
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .errors import (ConfigError, LevelUnderflow, ReverseRefused,
                     SweepDescentError, ThetaGuard)
from .functions import get_function
from .geometry import _ray_boundary_points
from .regularization import regularize
from .sweeping import (SweepingConfig, flow_map, format_rows,
                       forward_catching_up_batch, require_reverse_evidence,
                       reverse_catching_up, trajectory_to_csv)
from .verification import (_strict_json, estimate_slope_floor,
                           run_verification_suite)


@dataclass
class ExperimentConfig:
    """Flat, schema-checked description of one experiment."""

    command: str = "descend"
    function: str = "norm"
    dim: int = 2
    epsilon: float | None = None
    seed: int = 0
    output_dir: str = "out"
    threads: int | None = None  # ignored; old echoed configs carry it
    # descend / foliate
    alpha2: float | None = None
    T: float = 1.0
    k: int = 1000
    x0: list[float] | None = None
    reverse: bool = False
    tbar: float | None = None
    map_lipschitz: float | None = None
    prox_radius: float | None = None
    grid_size: int = 16
    # verify
    window: list[float] | None = None
    n_points: int = 100
    n_levels: int = 4
    resolution: float = 0.01
    probe_starts: int = 20
    # regularize
    points: list[list[float]] | None = None

    def __post_init__(self):
        if not self.resolution > 0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        for key, least in (("dim", 1), ("n_levels", 2), ("n_points", 1), ("grid_size", 2)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        for key, value in vars(self).items():
            if not all(math.isfinite(v) for v in _floats(value)):
                raise ConfigError(f"{key} must be finite, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _fits(value, fields[key]):
                kind = fields[key]
                name = kind.__name__ if isinstance(kind, type) else str(kind)
                raise ConfigError(f"{key} must be {name}, got {value!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        # Placement and parallelism do not change experiment identity.
        skip = {"threads", "output_dir"}
        payload = {k: v for k, v in self.to_dict().items() if k not in skip}
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def stamp(self) -> str:
        return f"sweepdescent {__version__} config={self.hash()} seed={self.seed}"


def _fits(value, kind) -> bool:
    """Whether a config value has its field's annotated type. bool is no
    number, and an int serves where a float is expected."""
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in get_args(kind))
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _floats(value) -> list:
    """The floats in a config value, nested lists included."""
    if isinstance(value, list):
        return [v for item in value for v in _floats(item)]
    return [value] if isinstance(value, float) else []


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = "\n".join(
                line for line in fh.read().splitlines()
                if not line.startswith("#")
            )
        return json.loads(text)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def _parse_point(text: str) -> list:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad point {text!r}, expected e.g. 2,0") from exc


def _parse_window(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bad window {text!r}, expected lo:hi")
    return [float(parts[0]), float(parts[1])]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepdescent",
        description="sublevel-set sweeping flows for quasiconvex functions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--function", help="gallery name, e.g. norm, tube, gauge")
        p.add_argument("--dim", type=int, help="ambient dimension (norm only)")
        p.add_argument("--epsilon", type=float, help="regularization radius")
        p.add_argument("--seed", type=int, help="experiment seed")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--threads", type=int, help="ignored; kept for old command lines")

    p = sub.add_parser("descend", help="forward (and optional reverse) run")
    common(p)
    p.add_argument("--x0", type=_parse_point, help="start point, e.g. 2,0")
    p.add_argument("--alpha2", type=float, help="starting level")
    p.add_argument("--T", type=float, dest="T", help="level-drop horizon")
    p.add_argument("--k", type=int, help="partition steps")
    p.add_argument("--reverse", action="store_true", default=None)
    p.add_argument("--tbar", type=float, help="reverse horizon (default T)")
    p.add_argument("--map-lipschitz", type=float, dest="map_lipschitz")
    p.add_argument("--prox-radius", type=float, dest="prox_radius")

    p = sub.add_parser("verify", help="run the diagnostics suite")
    common(p)
    p.add_argument("--window", type=_parse_window, help="level window lo:hi")
    p.add_argument("--levels", help="a:b:n: the level window a:b (as --window) and the "
                   "n levels of the moving-map Lipschitz checks; H1-H3 always take 5")
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--resolution", type=float)
    p.add_argument("--probe-starts", type=int, dest="probe_starts")

    p = sub.add_parser("foliate", help="flow map from a boundary grid")
    common(p)
    p.add_argument("--alpha2", type=float, help="starting level")
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--k", type=int)
    p.add_argument("--grid-size", type=int, dest="grid_size")

    p = sub.add_parser("gallery", help="list gallery functions")
    common(p)

    p = sub.add_parser("regularize", help="pointwise regularized-value table")
    common(p)
    p.add_argument("--points", help="semicolon-separated points, e.g. 2,0;3,1")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        data.update(_load_config_file(args.config))
    levels = getattr(args, "levels", None)
    if levels is not None:
        parts = levels.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad levels {levels!r}, expected a:b:n")
        data["window"] = [float(parts[0]), float(parts[1])]
        data["n_levels"] = int(parts[2])
    for field in dataclasses.fields(ExperimentConfig):
        val = getattr(args, field.name, None)
        if val is not None and field.name not in ("command", "points"):
            data[field.name] = val
    points = getattr(args, "points", None)
    if points is not None:
        data["points"] = [_parse_point(p) for p in points.split(";")]
    data["command"] = args.command
    return ExperimentConfig.from_dict(data)


def _write(config: ExperimentConfig, name: str, body: str) -> str:
    """Write one output file: the stamp comment line, then body."""
    path = os.path.join(config.output_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {config.stamp()}\n{body}\n")
    return path


def _prepare_out(config: ExperimentConfig) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    _write(config, "config.echo.json", json.dumps(config.to_dict(), sort_keys=True, indent=2))


def _resolve_function(config: ExperimentConfig):
    f = get_function(config.function, dim=config.dim)
    if config.epsilon is not None:
        return regularize(f, config.epsilon)
    return f


def _check_points(f, points, what: str) -> None:
    if any(len(p) != f.dim for p in points):
        raise ConfigError(f"{what} must have {f.dim} coordinates for {f.name}")
    # The library's norms go through squares, finite up to sqrt(float max).
    if any(math.isinf(sum(c * c for c in p)) for p in points):
        raise ConfigError(f"{what} must have a norm below {math.sqrt(sys.float_info.max):.3g}, "
                          "where its square overflows")


def cmd_descend(config: ExperimentConfig) -> int:
    if config.x0 is None:
        raise ConfigError("descend needs --x0")
    f = _resolve_function(config)
    if config.reverse:
        require_reverse_evidence(f, config.prox_radius)
    _check_points(f, [config.x0], "x0")
    x0 = np.asarray(config.x0, dtype=float)
    alpha2 = config.alpha2 if config.alpha2 is not None else float(f.eval(x0))
    if not np.isfinite(alpha2):
        raise ConfigError("start point lies outside the function domain")
    tbar = config.tbar if config.tbar is not None else config.T
    if config.reverse and tbar > config.T:
        raise ConfigError(f"reverse horizon tbar = {tbar!r} exceeds the forward horizon "
                          f"T = {config.T!r}, whose levels the reverse run retraces")
    map_lip = config.map_lipschitz
    if config.reverse and map_lip is None:
        window = (max(alpha2 - config.T, f.inf_value + 1e-6), alpha2)
        if not window[0] < window[1]:
            raise LevelUnderflow(f"no level window below the start level {alpha2!r} for "
                                 f"the reverse run's slope floor: it must lie above "
                                 f"alpha2 - T = {alpha2 - config.T!r} and above inf f "
                                 f"+ 1e-6, inf f = {f.inf_value!r}")
        floor = estimate_slope_floor(f, window, n_points=64, seed=config.seed)
        if floor <= 0:
            raise ConfigError("slope floor estimate is zero; supply --map-lipschitz")
        map_lip = 1.0 / floor
    cfg = SweepingConfig(alpha2=alpha2, horizon=config.T, steps=config.k,
                         map_lipschitz=map_lip, prox_radius=config.prox_radius)
    traj = forward_catching_up_batch(f, x0, cfg)
    if config.reverse:
        # The reverse run climbs from the forward endpoint's level, alpha2 - T
        # + tbar, before any output: a refused reverse run writes nothing.
        rcfg = dataclasses.replace(cfg, alpha2=alpha2 - config.T + tbar)
        rev = reverse_catching_up(f, traj.endpoint, tbar, rcfg)
    _prepare_out(config)
    trajectory_to_csv(traj, f, os.path.join(config.output_dir, "forward.csv"),
                      comment=config.stamp())

    waiting_until = alpha2 - float(f.eval(x0))
    riding = traj.times > waiting_until + 1e-12
    decay = float(np.max(np.abs(traj.values[riding] - traj.levels[riding]))) \
        if np.any(riding) else 0.0
    print(f"endpoint: {traj.endpoint.tolist()}")
    print(f"value-decay residual: {decay:.3e}")
    print(f"max speed: {float(np.max(traj.speeds)):.6g}")

    if config.reverse:
        trajectory_to_csv(rev, f, os.path.join(config.output_dir, "reverse.csv"),
                          comment=config.stamp())
        reference = traj.interpolate(config.T - tbar)
        gap = float(np.linalg.norm(rev.endpoint - reference))
        print(f"reverse endpoint: {rev.endpoint.tolist()}")
        print(f"recovery gap: {gap:.3e}")
    return 0


def cmd_verify(config: ExperimentConfig) -> int:
    f = get_function(config.function, dim=config.dim)
    if config.window is not None and not f.inf_value < config.window[0] < config.window[1]:
        raise ConfigError(f"level window {config.window} must satisfy "
                          f"inf f = {f.inf_value:g} < lo < hi")
    report = run_verification_suite(
        f, eps=config.epsilon, window=config.window, seed=config.seed,
        n_points=config.n_points, n_levels=config.n_levels,
        resolution=config.resolution, probe_starts=config.probe_starts)
    _prepare_out(config)
    path = _write(config, "report.json", report.to_json_text())
    for check in sorted(report.checks, key=lambda c: c.name):
        state = {True: "pass", False: "FAIL", None: "skip"}[check.passed]
        print(f"{state}  {check.name}")
    constants = json.dumps(_strict_json(report.constants), sort_keys=True, allow_nan=False)
    print(f"constants: {constants}")
    print(f"report: {path}")
    return 0 if report.passed_all() else 1


def cmd_foliate(config: ExperimentConfig) -> int:
    if config.epsilon is None:
        raise ConfigError("foliate runs on regularized functions; pass --epsilon")
    if config.alpha2 is None:
        raise ConfigError("foliate needs --alpha2")
    f = _resolve_function(config)
    if f.dim != 2:
        raise ConfigError(f"foliate's boundary grid is two-dimensional, got dim {f.dim}")
    start_set = f.sublevel(config.alpha2)
    angles = np.linspace(0.0, 2.0 * np.pi, config.grid_size, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid = _ray_boundary_points(start_set, dirs)
    cfg = SweepingConfig(alpha2=config.alpha2, horizon=config.T, steps=config.k)
    fm = flow_map(f, grid, cfg)
    _prepare_out(config)
    names = [f"trajectory_{i:03d}.csv" for i in range(len(grid))]
    stamp = config.stamp()
    for i, name in enumerate(names):
        trajectory_to_csv(fm.trajectory(i), f, os.path.join(config.output_dir, name),
                          comment=stamp)
    endpoints = fm.endpoint
    gaps = np.linalg.norm(endpoints[None, :, :] - endpoints[:, None, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    sep = gaps.min(axis=1)
    index_lines = ["file,m0,m1,end0,end1,min_endpoint_gap"]
    index_lines += format_rows(np.column_stack([grid, endpoints, sep]), names)
    # The index is written last so its presence marks a complete file set.
    _write(config, "index.csv", "\n".join(index_lines))
    print(f"wrote {len(names)} trajectories, min endpoint gap "
          f"{float(np.min(sep)):.6g}")
    return 0


def cmd_gallery(config: ExperimentConfig) -> int:
    rows = [
        ("norm", "any d (--dim)", "Euclidean norm; sublevels are balls"),
        ("tube", "2", "advancing-disk distance on a capsule domain"),
        ("gauge", "2", "two-disk gauge; curvature degenerates at level 1"),
        ("localized:<name>:<cx>,<cy>:<delta>", "2",
         "base function plus the indicator of a closed ball"),
    ]
    print("name | dim | description")
    for name, dim, desc in rows:
        print(f"{name} | {dim} | {desc}")
    print("wrap any entry with --epsilon to regularize it")
    return 0


def cmd_regularize(config: ExperimentConfig) -> int:
    if config.epsilon is None:
        raise ConfigError("regularize needs --epsilon")
    if not config.points:
        raise ConfigError("regularize needs --points, e.g. '2,0;3,1'")
    base = get_function(config.function, dim=config.dim)
    freg = regularize(base, config.epsilon)
    _check_points(base, config.points, "points")
    pts = np.asarray(config.points, dtype=float)
    vals_base = np.asarray(base.eval(pts), dtype=float)
    vals = np.asarray(freg.eval(pts), dtype=float)
    # Base points at the tabulated levels, so z and f_eps share one evaluation.
    finite = np.isfinite(vals)
    z = np.full(pts.shape, np.nan)
    z[finite] = freg.base.level_project(vals[finite], pts[finite])
    reach = np.linalg.norm(pts - z, axis=1)
    _prepare_out(config)
    dim = pts.shape[1]
    head = [f"x{i}" for i in range(dim)] + ["f", "f_eps"] + \
        [f"z{i}" for i in range(dim)] + ["reach"]
    rows = format_rows(np.column_stack([pts, vals_base, vals, z, reach]))
    body = "\n".join([",".join(head)] + rows)
    _write(config, "regularize.csv", body)
    print(body)
    return 0


COMMANDS = {
    "descend": cmd_descend,
    "verify": cmd_verify,
    "foliate": cmd_foliate,
    "gallery": cmd_gallery,
    "regularize": cmd_regularize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _merge_config(args)
        return COMMANDS[args.command](config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, ReverseRefused, ThetaGuard, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SweepDescentError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: {exc or 'out of memory'}; the size flags --k, --grid-size, "
              "--n-points and --resolution set the run's memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
