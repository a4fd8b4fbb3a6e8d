#!/usr/bin/env python3
"""Foliation data for the regularized tube: forward flow from a boundary grid.

Writes one trajectory CSV per grid point plus an index, then reverses a few
trajectories to demonstrate flow inversion. Output is plain CSV, suitable for
external plotting.
"""

import argparse
import os

import numpy as np

from sweepdescent.functions import get_function
from sweepdescent.regularization import regularize
from sweepdescent.sweeping import (SweepingConfig, flow_map,
                                   reverse_catching_up, trajectory_to_csv)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--alpha2", type=float, default=1.5)
    parser.add_argument("--horizon", type=float, default=0.8)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--grid-size", type=int, default=24)
    parser.add_argument("--out", default="foliation_out")
    args = parser.parse_args()

    freg = regularize(get_function("tube"), args.epsilon)
    cap_radius = 1.0 + args.epsilon
    angles = np.linspace(-np.pi / 2 * 0.9, np.pi / 2 * 0.9, args.grid_size)
    grid = np.stack([args.alpha2 + cap_radius * np.cos(angles),
                     cap_radius * np.sin(angles)], axis=1)

    cfg = SweepingConfig(alpha2=args.alpha2, horizon=args.horizon,
                         steps=args.steps, map_lipschitz=1.0)
    fm = flow_map(freg, grid, cfg)

    os.makedirs(args.out, exist_ok=True)
    for i in range(len(grid)):
        trajectory_to_csv(fm.trajectory(i), freg,
                          os.path.join(args.out, f"leaf_{i:03d}.csv"),
                          comment=f"foliation leaf {i}")
    print(f"wrote {len(grid)} leaves to {args.out}/")

    # reverse a few leaves back to the starting boundary, in one batch
    sampled = slice(0, len(grid), max(len(grid) // 4, 1))
    rev = reverse_catching_up(freg, fm.endpoint[sampled], args.horizon, cfg)
    worst = float(np.max(np.linalg.norm(rev.endpoint - grid[sampled], axis=1)))
    print(f"reverse recovery gap over sampled leaves: {worst:.2e}")


if __name__ == "__main__":
    main()
