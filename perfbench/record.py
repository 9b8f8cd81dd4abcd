#!/usr/bin/env python3
"""Record the current code's outputs per seed into perfbench/reference.json.

Run on the commit whose outputs later commits must reproduce:

    python3 perfbench/record.py --seeds 0-19

For construct_paper_d8 it records the sha256 of each .alist and
.report.json; for the simulate workloads the frames, errors and summed
decoder iterations.  Seeds already in the file are overwritten, others
are kept.  run.py checks every run whose seed is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="a seed or a range such as 0-19")
    ap.add_argument("--workload", default="all")
    args = ap.parse_args(argv)
    run.pin_threads()
    run.import_nbqc()
    from workloads import REFERENCE, WORKLOADS, sha256_text

    try:
        data = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        data = {"workloads": {}}
    data["recorded_on"] = run.src_fingerprint() | {"git_sha": run.git_sha()}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name in names:
            workload = WORKLOADS[name]()
            state = workload.setup()
            table = data["workloads"].setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                out = workload.job(state, seed, Path(tmp))
                if name == "construct_paper_d8":
                    table[str(seed)] = {
                        o.key: {
                            "alist_sha256": sha256_text(o.alist),
                            "report_sha256": sha256_text(o.report),
                        }
                        for o in out
                    }
                else:
                    frames, iterations = workload.job_counts(out)
                    errors = out.points[0].errors
                    table[str(seed)] = {"frames": frames, "errors": errors, "iterations": iterations}
                print(name, seed, json.dumps(table[str(seed)]), flush=True)
            REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
