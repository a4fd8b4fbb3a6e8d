"""Workload commands, the reference each one is checked against, and the gate.

Every workload is a fixed list of CLI invocations run in order. The reference
numbers were recorded at the commit that introduced this benchmark, over
seeds 0-39 for `verify gauge` and the localized `regularize`, 0-29 for
`verify tube`, 0-14 for `verify norm --dim 3` and 0-9 for the localized
`descend`. A number is compared either as (reference, absolute tolerance)
or, for estimators whose value depends on the seed, as an interval [lo, hi]
that holds every recorded seed. A verify invocation must exit 1 exactly when
its report has a failed check, and 0 otherwise.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

INF = math.inf


@dataclass
class Op:
    """One CLI invocation and what its outputs must satisfy."""

    name: str
    argv: list
    files: tuple
    numbers: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)
    # (center, radius, rings, sectors) of the seeded points passed as --points.
    disk: tuple | None = None


def disk_points(seed: int, center, radius: float, rings: int, sectors: int) -> str:
    """One seeded point in each of rings x sectors equal-area cells of a disk.

    Stratifying the points keeps the work of a run nearly the same from seed
    to seed, while the seed still moves every point.
    """
    rng = random.Random(seed)
    pts = []
    for i in range(rings):
        for j in range(sectors):
            r = radius * math.sqrt((i + rng.random()) / rings)
            t = 2.0 * math.pi * (j + rng.random()) / sectors
            pts.append(f"{center[0] + r * math.cos(t)!r},{center[1] + r * math.sin(t)!r}")
    return ";".join(pts)


@dataclass
class Workload:
    name: str
    # (gallery name, dim, epsilon) of every function object the commands use.
    functions: tuple
    ops: tuple
    # Targets whose spans together should cover most of the traced run.
    focus: tuple


DESCEND_FILES = ("config.echo.json", "forward.csv", "reverse.csv")
FOLIATE_FILES = ("config.echo.json", "index.csv") + tuple(
    f"trajectory_{i:03d}.csv" for i in range(24))
VERIFY_FILES = ("config.echo.json", "report.json")
REGULARIZE_FILES = ("config.echo.json", "regularize.csv")

REGULARIZED_CHECKS = (
    "base-point-consistency", "constants-consistency",
    "dilation-prox-lower-bound", "distance-level-bound", "eval-consistency",
    "h1-coercive-nonempty-interior", "h2-slope-floor",
    "h3-complement-prox-radius", "lipschitz-transfer", "monotone-in-epsilon",
    "moving-map-lipschitz-complement", "moving-map-lipschitz-sublevel",
    "semigroup-identity", "slope-transfer", "steepest-descent-probe")
PLAIN_CHECKS = (
    "constants-consistency", "distance-level-bound",
    "h1-coercive-nonempty-interior", "h2-slope-floor",
    "h3-complement-prox-radius", "moving-map-lipschitz-complement",
    "moving-map-lipschitz-sublevel")
# Verdict "either": at this commit these checks pass or fail depending on the
# seed, so no single reference verdict exists. The gauge's sampled slope floor
# fails these three on 15 of the seeds 0-39 (window 0.9:1.1 straddles the
# level where its curvature degenerates). They are reported, not gated.
EITHER = "either"

LOCALIZED = "localized:tube:1.5,0:0.4"

WORKLOADS = {
    "sweep": Workload(
        # Forward and reverse catching-up steps and the per-row residual loop
        # of CSV output: the projection and write side of the oracle layer.
        name="sweep",
        functions=(("tube", 2, 0.25),),
        ops=(
            Op("descend-tube",
               "descend --function tube --epsilon 0.25 --x0 3.25,0 --alpha2 2 "
               "--T 1 --k 1000 --reverse --tbar 0.5".split(),
               files=DESCEND_FILES,
               numbers={"endpoint": ([2.25, 0.0], 1e-9),
                        "value-decay residual": (6.499e-11, 1e-9),
                        "reverse endpoint": ([2.75, 0.0], 1e-9),
                        "recovery gap": (0.0, 1e-8)},
               rows={"forward.csv": 1001, "reverse.csv": 1001}),
            Op("foliate-tube",
               "foliate --function tube --epsilon 0.25 --alpha2 1.5 --T 0.8 "
               "--k 400 --grid-size 24".split(),
               files=FOLIATE_FILES,
               numbers={"min endpoint gap": (0.3263154805501286, 1e-9),
                        "mean endpoint radius": (1.4401890123256258, 1e-9)},
               rows={f"trajectory_{i:03d}.csv": 401 for i in range(24)}),
        ),
        focus=("sweeping.Trajectory.boundary_residuals",),
    ),
    "verify": Workload(
        # Regularized evaluation by bisection, slope_values, the gauge's
        # bisection evaluation and 3-d boundary sampling: the distance and
        # read side of the oracle layer, with no lens calls.
        name="verify",
        functions=(("tube", 2, 0.25), ("gauge", 2, None), ("norm", 3, None)),
        ops=(
            Op("verify-tube",
               "verify --function tube --epsilon 0.25 --window 0.3:1.7".split(),
               files=VERIFY_FILES,
               verdicts={name: True for name in REGULARIZED_CHECKS},
               numbers={"prox_radius": (1.2499999990618087, 1e-6),
                        "slope_floor": ([0.999, 1.001], None),
                        "map_lipschitz": ([0.999, 1.001], None),
                        "func_lipschitz": ([0.999, INF], None)}),
            Op("verify-gauge",
               "verify --function gauge --levels 0.9:1.1:5".split(),
               files=VERIFY_FILES,
               verdicts={**{name: True for name in PLAIN_CHECKS},
                         "h3-complement-prox-radius": False,
                         "distance-level-bound": EITHER,
                         "moving-map-lipschitz-sublevel": EITHER,
                         "constants-consistency": EITHER},
               numbers={"prox_radius": (0.04999999999315851, 1e-6),
                        "func_lipschitz": (1.0000000003174137, 1e-6),
                        "slope_floor": ([0.32, 0.40], None),
                        "map_lipschitz": ([2.5, 3.125], None)}),
            Op("verify-norm3",
               "verify --function norm --dim 3".split(),
               files=VERIFY_FILES,
               verdicts={name: True for name in PLAIN_CHECKS},
               numbers={"prox_radius": (0.5, 1e-6),
                        "func_lipschitz": (1.0, 1e-6),
                        "slope_floor": ([0.99, 1.001], None),
                        "map_lipschitz": ([0.999, 1.01], None)}),
        ),
        focus=("regularization.RegularizedFunction.eval",
               "functions.slope_values", "geometry.sample_boundary"),
    ),
    "localized": Workload(
        # Every oracle call on the localized base goes through
        # ball_lens_project. The regularized values at 192 seeded points are
        # nearly all of it; the descend adds catching-up steps on the same
        # function. The descend is given the map Lipschitz constant (1, which
        # its own estimate returns to 1e-4), because the estimate's 64 seeded
        # points change its work by a quarter from seed to seed. The localized
        # verify is left out: one run of it takes about 35 s on a 2-CPU x86_64
        # host, too long to repeat within a run.
        name="localized",
        functions=((LOCALIZED, 2, 0.2),),
        ops=(
            Op("descend-localized",
               f"descend --function {LOCALIZED} --epsilon 0.2 --x0 1.8,0.1 "
               "--T 0.3 --k 400 --reverse --tbar 0.2 --map-lipschitz 1".split(),
               files=DESCEND_FILES,
               numbers={"endpoint": ([1.5016401840892872, 0.07793946464665798], 1e-9),
                        "value-decay residual": (7.903e-11, 1e-9),
                        "reverse endpoint": ([1.7006390361159736, 0.09203933771725274], 1e-9),
                        "recovery gap": (7.964e-06, 1e-8)},
               rows={"forward.csv": 401, "reverse.csv": 401}),
            Op("regularize-localized",
               f"regularize --function {LOCALIZED} --epsilon 0.2".split(),
               files=REGULARIZE_FILES,
               numbers={"mean f_eps": ([0.365, 0.38], None),
                        "min f_eps": (0.1000000000349246, 1e-8),
                        "max f_eps - f": ([-INF, 0.0], None),
                        "max reach": ([0.0, 0.2 + 1e-9], None),
                        # Above the bottom level the base point sits eps away
                        # (within 1e-9 on seeds 0-39). Within 1e-3 of the
                        # bottom the distance to the level set grows like the
                        # square root of the level, so the bisection's 1e-10
                        # in level can move it by 1e-5.
                        "max |reach - eps| above the bottom": (0.0, 1e-7)},
               rows={"regularize.csv": 192},
               disk=((1.5, 0.0), 0.55, 12, 16)),
        ),
        focus=("geometry.ball_lens_project",),
    ),
}


def _read_numbers(op: Op, out_dir: str, stdout: str) -> dict:
    """The op's key numbers, from its stdout and (for verify) its report."""
    found = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in op.numbers:
            found[key] = json.loads(value) if value.startswith("[") else float(value)
    if "min endpoint gap" in op.numbers:
        with open(os.path.join(out_dir, "index.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[2:]]
        found["min endpoint gap"] = min(float(r[-1]) for r in rows)
        found["mean endpoint radius"] = math.fsum(
            math.hypot(float(r[3]), float(r[4])) for r in rows) / len(rows)
    if "mean f_eps" in op.numbers:
        with open(os.path.join(out_dir, "regularize.csv"), encoding="utf-8") as fh:
            table = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        f = [float(r["f"]) for r in table]
        f_eps = [float(r["f_eps"]) for r in table]
        found["mean f_eps"] = math.fsum(f_eps) / len(f_eps)
        found["min f_eps"] = min(f_eps)
        found["max f_eps - f"] = max(e - v for e, v in zip(f_eps, f))
        reach = [float(r["reach"]) for r in table]
        found["max reach"] = max(reach)
        eps = float(op.argv[op.argv.index("--epsilon") + 1])
        found["max |reach - eps| above the bottom"] = max(
            abs(d - eps) for d, e in zip(reach, f_eps) if e > min(f_eps) + 1e-3)
    return found


def _read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.loads(fh.read().split("\n", 1)[1])


def _number_problem(key, got, want, tol):
    if got is None:
        return f"{key}: missing"
    if tol is None:
        lo, hi = want
        return None if lo <= got <= hi else f"{key}: {got!r} outside [{lo}, {hi}]"
    pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
    if isinstance(want, list) and len(got) != len(want):
        return f"{key}: {got!r} has the wrong length"
    if all(abs(g - w) <= tol for g, w in pairs):
        return None
    return f"{key}: {got!r} differs from {want!r} by more than {tol}"


def check(op: Op, out_dir: str, exit_code: int, stdout: str) -> tuple:
    """Problems found in one invocation's outputs, plus the flexible verdicts seen."""
    problems, seen = [], {}
    present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    missing = sorted(set(op.files) - present)
    extra = sorted(present - set(op.files))
    if missing or extra:
        problems.append(f"exit code {exit_code}, files missing {missing[:4]}, "
                        f"unexpected {extra[:4]}")
        return problems, seen
    for name, want in op.rows.items():
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            got = sum(1 for line in fh if not line.startswith("#")) - 1
        if got != want:
            problems.append(f"{name}: {got} rows, expected {want}")
    if "index.csv" in op.files:
        times = {n: os.stat(os.path.join(out_dir, n)).st_mtime_ns for n in op.files
                 if n.startswith("trajectory_")}
        if os.stat(os.path.join(out_dir, "index.csv")).st_mtime_ns < max(times.values()):
            problems.append("index.csv was not written last")
    numbers = _read_numbers(op, out_dir, stdout)
    expected_exit = 0
    if op.verdicts:
        report = _read_report(out_dir)
        numbers.update(report["constants"])
        verdicts = {c["name"]: c["passed"] for c in report["checks"]}
        expected_exit = 1 if False in verdicts.values() else 0
        if set(verdicts) != set(op.verdicts):
            problems.append(f"checks {sorted(set(verdicts) ^ set(op.verdicts))} "
                            "differ from the reference set")
        for name, want in op.verdicts.items():
            got = verdicts.get(name)
            if want == EITHER:
                seen[name] = got
            elif name in verdicts and got is not want:
                problems.append(f"check {name}: {got}, expected {want}")
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    for key, (want, tol) in op.numbers.items():
        problem = _number_problem(key, numbers.get(key), want, tol)
        if problem:
            problems.append(problem)
    return problems, seen


def digests(out_dir: str) -> dict:
    """sha256 of every output file, to compare repeat runs byte for byte."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
