"""Benchmark of the sweepdescent command line, driven in-process.

    python3 perfbench/run.py --workload {sweep,verify,localized,all} \
        --seed N --seconds S --trace {0,1}

One process and one thread run a workload's CLI invocations through
`sweepdescent.cli.main` in a closed loop: each invocation starts after the
previous one returned, and whole passes over the workload repeat until
`--seconds` have elapsed (at least one pass). Every invocation gets
`--seed N` and its own output directory under `.perfbench_runs/`, and its
outputs go through the correctness gate in `workloads.py`; repeat passes in
one run must write byte-identical files.

With `--trace 0` the run reports the end-to-end metrics:
  wall_s       median seconds of one pass over the workload's invocations
  setup_s      median seconds to import sweepdescent (numpy and scipy are
               loaded beforehand) and build the workload's function objects
  peak_rss_mb  peak resident memory of this process through set-up and the
               first pass
and prints error_rate, the share of invocations that failed the gate, which
the result also carries as `failed` / `attempted`.

With `--trace 1` traced and untraced passes alternate; the run reports the
per-layer metrics of `tracer.py` from the traced passes, and
`trace.overhead` = traced wall_s / untraced wall_s - 1. Calls, rows and
bytes come from the first traced pass and must repeat in every later one.

`--workload all` runs the three workloads one after another, each in its own
child process, and prints their metrics side by side.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Machine facts and per-invocation details go to
`.perfbench_runs/<workload>-seed<N>-trace<T>.json`, and the spans of a traced
run to the matching `-spans.csv`.
"""

import os

# numpy reads these when it is first imported; the load is one thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SWEEPDESCENT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPS = 25

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "sweepdescent_threads": os.environ.get("SWEEPDESCENT_THREADS"),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _purge_package() -> None:
    for name in [n for n in sys.modules
                 if n == "sweepdescent" or n.startswith("sweepdescent.")]:
        del sys.modules[name]


def setup(workload) -> tuple:
    """Median seconds to import the package and build the workload's functions.

    Each repetition drops the package from sys.modules first, so it runs the
    package's import code again; the last import is the one the run uses.
    """
    import numpy  # noqa: F401
    import scipy.spatial  # noqa: F401
    times = []
    for _ in range(SETUP_REPS):
        _purge_package()
        t0 = time.perf_counter()
        package = importlib.import_module("sweepdescent")
        cli = importlib.import_module("sweepdescent.cli")
        for name, dim, eps in workload.functions:
            f = package.get_function(name, dim=dim)
            if eps is not None:
                package.regularize(f, eps)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cli


def run_pass(cli, workload, seed, run_dir, tr=None) -> dict:
    """One pass over the workload's invocations; returns timings and outcomes."""
    wall = 0.0
    ops = []
    for i, op in enumerate(workload.ops):
        out_dir = run_dir / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = op.argv + ["--seed", str(seed), "--out", str(out_dir)]
        if op.disk:
            argv += ["--points", workloads.disk_points(seed, *op.disk)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tr is not None:
            tr.op = i
        code, crash = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            crash = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        wall += elapsed
        problems, seen, files = [], {}, {}
        if crash:
            problems.append("raised: " + crash.strip().splitlines()[-1])
        else:
            try:
                problems, seen = workloads.check(op, str(out_dir), code, stdout.getvalue())
                files = workloads.digests(str(out_dir))
            except Exception:  # unreadable outputs fail the gate
                problems.append("gate: " + traceback.format_exc().strip().splitlines()[-1])
        ops.append({"op": op.name, "exit_code": code, "seconds": elapsed,
                    "problems": problems, "either_verdicts": seen,
                    "digests": files, "stderr": stderr.getvalue()[-2000:],
                    "traceback": crash,
                    "bytes": sum(os.path.getsize(out_dir / n) for n in files)})
    return {"wall": wall, "ops": ops}


def compare_repeat(first: dict, later: dict) -> None:
    """Marks an invocation failed when a repeat pass wrote different bytes."""
    for a, b in zip(first["ops"], later["ops"]):
        if a["digests"] and b["digests"] and a["digests"] != b["digests"]:
            changed = sorted(n for n in set(a["digests"]) | set(b["digests"])
                             if a["digests"].get(n) != b["digests"].get(n))
            b["problems"].append(f"outputs differ from the first pass: {changed[:4]}")


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if not (SRC / "sweepdescent" / "__init__.py").is_file():
        _fail(f"no sweepdescent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = RUNS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_s, cli = setup(workload)
    tr = tracer.Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, workload, args.seed, run_dir))
        if len(plain) == 1:
            # Later passes may raise the peak a little; how many run depends
            # on the machine's speed, so the first pass sets the figure.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr is not None:
            tr.reset()
            tr.install()
            try:
                result = run_pass(cli, workload, args.seed, run_dir, tr)
            finally:
                tr.uninstall()
            result["summary"] = tr.summary()
            if not traced:
                first_spans = tr.spans
                shares = tr.inclusive_shares(result["wall"])
                focus = tr.group_share(workload.focus, result["wall"])
            traced.append(result)
        if time.perf_counter() - start >= args.seconds:
            break

    passes = plain + traced
    for later in passes[1:]:
        compare_repeat(passes[0], later)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for o in p["ops"] if o["problems"])
    for p in passes:
        for o in p["ops"]:
            for problem in o["problems"]:
                print(f"FAIL {o['op']}: {problem}", file=sys.stderr)

    wall = statistics.median(p["wall"] for p in plain)
    drift = []
    if tr is None:
        metrics = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": rss_mb}
        units = END_TO_END_UNITS
    else:
        metrics = tr.metrics(traced[0]["summary"])
        for later in traced[1:]:
            again = tr.metrics(later["summary"])
            drift += [k for k, v in metrics.items()
                      if not k.endswith(".self_s") and v != again[k]]
        if drift:
            print(f"FAIL counts differ between traced passes: {sorted(set(drift))[:4]}",
                  file=sys.stderr)
        for name in metrics:
            if name.endswith(".self_s") and metrics[name] is not None:
                metrics[name] = statistics.median(
                    t["summary"]["agg"][name[:-len(".self_s")]][2] for t in traced)
        metrics["cli.bytes_written"] = sum(o["bytes"] for o in traced[0]["ops"])
        metrics["trace.overhead"] = statistics.median(t["wall"] for t in traced) / wall - 1.0
        units = tracer.metric_units()

    facts = machine_facts()
    facts["threads_alive"] = threading.active_count()
    either = {}
    for p in passes:
        for o in p["ops"]:
            for name, verdict in o["either_verdicts"].items():
                either.setdefault(f"{o['op']}:{name}", set()).add(verdict)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics,
        "passes": [{"wall": p["wall"],
                    "ops": [{k: v for k, v in o.items() if k != "digests"}
                            for o in p["ops"]]} for p in passes],
        "attempted": attempted, "failed": failed,
    }
    if tr is not None:
        record["inclusive_shares"] = shares
        record["focus_share"] = focus
        tracer.write_spans(first_spans, RUNS / f"{tag}-spans.csv")
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {workload.name}: seed {args.seed}, closed loop, 1 client, "
          f"{len(plain)} untraced and {len(traced)} traced passes of "
          f"{len(workload.ops)} invocations")
    for key in sorted(either):
        print(f"seed-dependent verdict {key}: {sorted(either[key], key=str)}")
    if tr is not None:
        print(f"focus {'+'.join(workload.focus)}: {focus:.1%} of traced wall_s")
        for name, share in shares[:12]:
            print(f"  inclusive {name}: {share:.1%}")
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    print(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and not drift, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, so each reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
