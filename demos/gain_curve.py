"""Desk-scale gain curve: weighted flow against an unweighted twin.

A 22-flow dumbbell where flow 0 carries weight N and flow 1 is an
identical unweighted reference.  With SACK-style repair the measured
gain tracks N; the coarser variants plateau once several losses land in
one window.  Three seeds per point keep the runtime near a minute;
the full ten-seed version lives in the sweep subcommand:

    multcp sweep gain --variant sack --n-grid 1,2,4,8 --seeds 10

Run:  python demos/gain_curve.py [variant ...]
"""

import sys

from multcp.harness import run_gain_experiment, summarize_gain

N_GRID = [1.0, 2.0, 4.0]
SEEDS = [0, 1, 2]


def main(variants):
    for variant in variants:
        samples = run_gain_experiment(variant, N_GRID, SEEDS)
        print(f"{variant}: measured gain vs weight "
              f"({len(SEEDS)} seeds, 60 s measured)")
        for s in summarize_gain(samples):
            bar = "#" * round(4 * s.mean)
            print(f"  N={s.n_weight:3g}  gain {s.mean:5.2f} "
                  f"(std {s.std:4.2f})  {bar}")
        print()


if __name__ == "__main__":
    main(sys.argv[1:] or ["sack", "reno"])
