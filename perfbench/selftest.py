#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks and tracing (about a minute).

    python3 perfbench/selftest.py

1. For every workload, a traced and an untraced job of one seed produce
   identical outputs, the traced job passes its traced checks, and every
   traced entry point is restored afterwards.
2. A construct_paper_d8 output whose .alist has one shift changed is
   reported as a failed operation, both for a seed with recorded outputs
   and for a seed without.

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import run

SEED = 0


def change_one_shift(alist: str) -> str:
    """Add one (mod s) to the shift of the first edge record."""
    lines = alist.splitlines(keepends=True)
    s = int(lines[2].split()[2])
    i, j, z, beta = lines[3].split()
    lines[3] = f"{i} {j} {(int(z) + 1) % s} {beta}\n"
    return "".join(lines)


def main() -> int:
    run.pin_threads()
    run.import_nbqc()
    from tracing import Tracer
    from workloads import WORKLOADS

    results = []

    def expect(ok: bool, what: str) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    construct_outputs = None
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name, make in WORKLOADS.items():
            workload = make()
            state = workload.setup()
            plain = workload.job(state, SEED, Path(tmp))
            record: dict = {}
            targets = workload.job_targets(record)
            before = [vars(owner)[attr] for owner, attr, *_ in targets]
            tracer = Tracer()
            with tracer.patched(targets):
                traced = workload.job(state, SEED, Path(tmp))
            after = [vars(owner)[attr] for owner, attr, *_ in targets]
            expect(
                workload.digests(plain) == workload.digests(traced),
                f"{name}: traced and untraced outputs are identical",
            )
            expect(not workload.traced_check(state, record), f"{name}: traced checks pass")
            expect(
                len(tracer.spans) > 0 and before == after,
                f"{name}: spans recorded and entry points restored",
            )
            if name == "construct_paper_d8":
                construct_workload, bases, construct_outputs = workload, state, plain

    sweep = defaultdict(lambda: [0, 0.0])
    wl = construct_workload
    expect(
        not any(wl.check(bases, SEED, construct_outputs, sweep)),
        "construct_paper_d8: unchanged outputs pass",
    )
    mutated = [replace(construct_outputs[0], alist=change_one_shift(construct_outputs[0].alist))]
    mutated += construct_outputs[1:]
    recorded = wl.reference
    for label, reference in (("recorded", recorded), ("unrecorded", {})):
        wl.reference = reference
        ops = wl.check(bases, SEED, mutated, sweep)
        caught = any("recorded" in e for e in ops[0]) if label == "recorded" else bool(ops[0])
        expect(
            caught and not any(ops[1:]),
            f"construct_paper_d8: one changed shift fails one operation ({label} seed): {ops[0]}",
        )
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
