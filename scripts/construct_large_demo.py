#!/usr/bin/env python3
"""Construct the two large GF(64) codes with N = 4620 symbols.

Builds a 4x33 base lifted with s=140 and an 8x66 base with s=70 (both
column weight 2, same rate bound 29/33), writes the compact nbalist files
plus reports, and prints the distance ceilings that explain why the
shallow base has an error floor while the tall one does not.
"""

import argparse
import json
import time

from nbqc import ConstructionConfig, distance_upper_bound, greedy_lift, rate_lower_bound
from nbqc.alist_io import serialize_qc
from nbqc.base_graph import ace_text, weight2_base


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=4, help="use 8 for a deeper, slower run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()

    for m, n, s in ((4, 33, 140), (8, 66, 70)):
        base = weight2_base(m, n)
        cfg = ConstructionConfig(
            s=s, q=64, depth=args.depth, trials_per_edge=100, rng_seed=args.seed
        )
        t0 = time.time()
        lifting, report = greedy_lift(base, cfg)
        elapsed = time.time() - t0
        out = f"{args.outdir}/gf64_{m}x{n}_s{s}.alist"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize_qc(lifting))
        with open(out + ".report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{m}x{n} base, s={s}: N={n * s}, K>={n * s - m * s}  ({elapsed:.1f}s)")
        print(f"  rate bound {rate_lower_bound(base)}")
        print(f"  distance ceiling {distance_upper_bound(2, m)}")
        print(f"  ace vector {ace_text(report.ace)}, expanded girth {report.expanded_girth}")
        print(f"  wrote {out}")


if __name__ == "__main__":
    main()
