#!/usr/bin/env python3
"""Walk a random Pachner-move sequence and watch the state sum stay constant.

Usage: python scripts/pachner_demo.py [--n 3] [--k 1] [--moves 12] [--seed 7]
                                      [--max-new-vertices 3]
"""

import argparse

import numpy as np

from tvo import boundary_4_simplex, pointed_sixj, random_pachner_walk, tv_evaluate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--moves", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-new-vertices", type=int, default=3)
    args = ap.parse_args()

    sixj = pointed_sixj(args.n, args.k)
    tri = boundary_4_simplex()
    rng = np.random.default_rng(args.seed)
    added = 0

    z = tv_evaluate(sixj, tri).value
    print(f"{'move':<12} {'tets':>5} {'verts':>6} {'edges':>6} {'value':>24}")
    print(f"{'(start)':<12} {tri.num_tets:>5} {tri.num_vertices:>6} {tri.num_edges:>6} "
          f"{z.real:>16.12f}{z.imag:>+.1e}j")

    for _ in range(args.moves):
        # one move per call; the cap on 1-4 moves covers the whole walk
        tri, [(kind, where)] = random_pachner_walk(
            tri, 1, rng, max_new_vertices=args.max_new_vertices - added)
        if kind == "1-4":
            added += 1
            name = f"1-4 @tet{where}"
        else:
            name = f"2-3 @({where[0]},{where[1]})"
        z = tv_evaluate(sixj, tri).value
        print(f"{name:<12} {tri.num_tets:>5} {tri.num_vertices:>6} {tri.num_edges:>6} "
              f"{z.real:>16.12f}{z.imag:>+.1e}j")


if __name__ == "__main__":
    main()
