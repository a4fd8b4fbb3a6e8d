"""One timed run of the ROADMAP's six-command baseline table.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Times the tier-1 suite (in a child process, as the ROADMAP gives it) and five
CLI commands run in-process through `sweepdescent.cli.main`, once each, with
seed 0, one BLAS thread and no tracing, and writes them with the machine
facts. The full localized verify alone takes minutes.
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

COMMANDS = (
    "descend --function tube --epsilon 0.25 --x0 3.25,0 --alpha2 2 --T 1 "
    "--k 1000 --reverse --tbar 0.5",
    "verify --function tube --epsilon 0.25 --window 0.3:1.7",
    "foliate --function tube --epsilon 0.25 --alpha2 1.5 --T 0.8 --k 400 "
    "--grid-size 24",
    "verify --function gauge --levels 0.9:1.1:5",
    "verify --function localized:tube:1.5,0:0.4 --epsilon 0.2",
)


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=run.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", tail)
    return {"command": "pytest -q --continue-on-collection-errors",
            "seconds": seconds, "exit_code": done.returncode,
            "passed": int(passed.group(1)) if passed else None, "summary": tail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args(argv)
    rows = [tier1()]
    sys.path.insert(0, str(run.SRC))
    from sweepdescent import cli
    work = run.RUNS / "baseline"
    for i, command in enumerate(COMMANDS):
        out_dir = work / str(i)
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(command.split() + ["--seed", "0", "--out", str(out_dir)])
        rows.append({"command": command, "seconds": time.perf_counter() - t0,
                     "exit_code": code})
        print(f"{rows[-1]['seconds']:9.3f} s  exit {code}  {command}", flush=True)
    print(f"{rows[0]['seconds']:9.3f} s  exit {rows[0]['exit_code']}  "
          f"tier-1: {rows[0]['summary']}")
    record = {"machine": run.machine_facts(), "seed": 0,
              "note": "one wall-clock run per row, no profiler", "rows": rows}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
