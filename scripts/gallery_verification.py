#!/usr/bin/env python3
"""Run the diagnostics suite over the gallery and write one report per entry.

Covers the raw entries, their 0.25-regularizations, and the ball-localized
tube with a 0.2-regularization. Exits nonzero when any non-skipped check
fails, mirroring the CLI verify command.
"""

import argparse
import os
import sys

from sweepdescent.functions import LocalizedFunction, get_function
from sweepdescent.verification import run_verification_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="verification_out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    jobs = [
        ("norm", get_function("norm"), None, (0.5, 1.5)),
        ("tube", get_function("tube"), None, (0.3, 1.7)),
        ("gauge", get_function("gauge"), None, (1.2, 1.8)),
        ("norm_eps25", get_function("norm"), 0.25, (0.5, 1.5)),
        ("tube_eps25", get_function("tube"), 0.25, (0.3, 1.7)),
        ("gauge_eps25", get_function("gauge"), 0.25, (1.2, 1.8)),
        ("tube_localized_eps20",
         LocalizedFunction(get_function("tube"), [1.5, 0.0], 0.4), 0.2, None),
    ]
    any_failed = False
    for tag, f, eps, window in jobs:
        report = run_verification_suite(f, eps=eps, window=window,
                                        seed=args.seed, probe_starts=10)
        path = os.path.join(args.out, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json_text() + "\n")
        failed = report.failed_names()
        any_failed |= bool(failed)
        status = "ok" if not failed else f"FAILED {failed}"
        print(f"{tag:24s} {status}  (report: {path})")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
