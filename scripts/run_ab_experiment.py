#!/usr/bin/env python3
"""A/B experiment: greedy lifting against the all-(1, x^0) baseline.

Builds two codes from the same weight-2 base matrix, sweeps Es/N0 under
BPSK and prints both frame-error curves side by side.  Defaults match the
desk-scale setup used in the acceptance suite (GF(16), 4x16 base, s=12).
"""

import argparse

from nbqc import ConstructionConfig, GF, Lifting, greedy_lift
from nbqc.base_graph import ace_text, weight2_base
from nbqc.channel import SimConfig, build_code, run_monte_carlo


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=4)
    ap.add_argument("--cols", type=int, default=16)
    ap.add_argument("--s", type=int, default=12)
    ap.add_argument("--q", type=int, default=16)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--snr", type=float, nargs="+", default=[4.0, 4.6, 5.2, 5.8])
    ap.add_argument("--frames", type=int, default=5000)
    ap.add_argument("--max-errors", type=int, default=500)
    ap.add_argument("--iters", type=int, default=30)
    ap.add_argument("--construct-seed", type=int, default=11)
    ap.add_argument("--sim-seed", type=int, default=5)
    return ap.parse_args()


def main():
    args = parse_args()
    base = weight2_base(args.rows, args.cols)
    field = GF(args.q.bit_length() - 1)

    cfg = ConstructionConfig(
        s=args.s,
        q=args.q,
        depth=args.depth,
        trials_per_edge=100,
        rng_seed=args.construct_seed,
    )
    greedy, rep = greedy_lift(base, cfg)
    trivial = Lifting.trivial(base, args.s, field)
    print(f"base {args.rows}x{args.cols}, s={args.s}, GF({args.q})")
    print(f"greedy ace vector {ace_text(rep.ace)}, expanded girth {rep.expanded_girth}")

    sim = SimConfig(
        modulation="bpsk",
        snr_db=tuple(args.snr),
        max_frames=args.frames,
        max_errors=args.max_errors,
        decoder_max_iterations=args.iters,
        rng_seed=args.sim_seed,
    )
    results = {}
    for name, lifting in (("trivial", trivial), ("greedy", greedy)):
        code = build_code(lifting)
        print(f"{name}: N={code.n} K={code.k} rate={code.rate:.4f}")
        results[name] = run_monte_carlo(code, sim)

    print(f"\n{'snr_db':>7} {'trivial BLER':>14} {'greedy BLER':>14} {'ratio':>8}")
    for pt, pg in zip(results["trivial"].points, results["greedy"].points):
        ratio = pt.bler / pg.bler if pg.bler else float("inf")
        print(f"{pt.snr_db:>7.2f} {pt.bler:>14.4e} {pg.bler:>14.4e} {ratio:>8.1f}")


if __name__ == "__main__":
    main()
