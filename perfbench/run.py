#!/usr/bin/env python3
"""nbqc benchmark: the paper's construct and simulate jobs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload construct_paper_d8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run sets up its workload several times (set-up time is the median),
then repeats the workload's job on the same inputs until `--seconds`
have passed and reports medians over the jobs.  With `--trace 1` every
second job runs with span recorders around nbqc's public entry points,
and the run reports per-layer metrics instead of end-to-end ones.
Outputs are checked after the timed jobs (see workloads.py).

Every metric is printed as "<name> = <value> <unit>"; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (samples, failures, environment)
goes to perfbench/out/<workload>-seed<n>-trace<t>.json, and a traced
run's spans to the same name with "-spans" appended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1  # never above nproc; one thread keeps runs steady on a shared machine
HARD_LIMIT_S = 150.0  # no job is started that would end later than this
# Set-up runs in batches: SETUP_REPS times before the first job (warm-up,
# and the state the jobs use), then after every job for about SETUP_SHARE
# of that job's time (at least SETUP_REPS, at most SETUP_MAX_REPS times).
# setup_s is the median over the post-job batches of the mean set-up time
# in a batch: on a shared machine a millisecond set-up alternates between
# a fast and a slow mode, and a per-set-up median flips between them.
SETUP_REPS, SETUP_SHARE, SETUP_MAX_REPS = 5, 0.1, 200
SWEEP_SECONDS = 0.05  # minimum time per cycle length in a traced elimination sweep
LAYERS = ("base_graph", "lifter", "ring", "linalg", "alist_io", "channel", "bench")


def pin_threads() -> None:
    """Fix the BLAS/OpenMP pool size; numpy reads it once, when imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_nbqc() -> None:
    """Import nbqc from this checkout's src/ and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import nbqc

    if Path(nbqc.__file__).resolve().parent != src / "nbqc":
        raise ImportError(f"nbqc was imported from {nbqc.__file__}, not from {src}")


def load_spec() -> dict:
    """Metric name -> unit for "end_to_end" and "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def src_fingerprint() -> dict:
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        **src_fingerprint(),
    }


@dataclass
class Job:
    seconds: float
    outputs: object
    tracer: object = None
    record: dict | None = None


def measure(workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    from tracing import Tracer

    setup_batches: list[list[float]] = []

    def set_up_batch(budget: float, max_reps: int):
        times, state, ts = [], None, time.perf_counter()
        while len(times) < max_reps and (len(times) < SETUP_REPS or time.perf_counter() - ts < budget):
            state = None  # free the previous code object before building the next
            t0 = time.perf_counter()
            state = workload.setup()
            times.append(time.perf_counter() - t0)
        setup_batches.append(times)
        return state

    state = set_up_batch(0.0, SETUP_REPS)
    setup_tracer = Tracer()
    if trace:
        with setup_tracer.patched(workload.setup_targets()), setup_tracer.span("bench.setup"):
            workload.setup()

    outdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    outdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    t_jobs = time.perf_counter()
    while True:
        if trace and len(jobs) % 2 == 1:
            tracer, record = Tracer(), {}
            with tracer.patched(workload.job_targets(record)), tracer.span("bench.job"):
                out = workload.job(state, seed, outdir)
            jobs.append(Job(tracer.total(), out, tracer, record))
        else:
            ts = time.perf_counter()
            out = workload.job(state, seed, outdir)
            jobs.append(Job(time.perf_counter() - ts, out))
        set_up_batch(SETUP_SHARE * jobs[-1].seconds, SETUP_MAX_REPS)
        now = time.perf_counter()
        if now + jobs[-1].seconds > deadline:
            break
        if now - t_jobs >= seconds and (not trace or len(jobs) >= 2):
            break
    plain = [j for j in jobs if j.tracer is None]
    traced = [j for j in jobs if j.tracer is not None]
    if trace and not traced:
        raise RuntimeError("the time limit left no room for a traced job")

    # Output checks.  The first job is checked in full; every later job,
    # traced or not, must reproduce its outputs exactly.
    sweep: dict = defaultdict(lambda: [0, 0.0])
    ops = workload.check(state, seed, jobs[0].outputs, sweep, SWEEP_SECONDS if trace else 0.0)
    first = workload.digests(jobs[0].outputs)
    for k, job in enumerate(jobs[1:], start=1):
        kind = "traced" if job.tracer else "untraced"
        ops += [
            [] if a == b else [f"{kind} job {k} output differs from job 0"]
            for a, b in zip(first, workload.digests(job.outputs))
        ]
        if job.tracer:
            ops[-1] += workload.traced_check(state, job.record)
    failures = [msg for op in ops for msg in op]

    if trace:
        per_job = []
        for job in traced:
            m = workload.per_layer(state, job, setup_tracer, sweep)
            own = defaultdict(float)
            for t in (setup_tracer, job.tracer):
                for layer, s in t.layer_self_times().items():
                    own[layer] += s
            m.update({f"{layer}.self_s": own[layer] for layer in LAYERS})
            m["trace.total_s"] = setup_tracer.total() + job.tracer.total()
            per_job.append(m)
        metrics = {name: median(m[name] for m in per_job) for name in per_job[0]}
        metrics["trace_overhead_frac"] = (
            median(j.seconds for j in traced) / median(j.seconds for j in plain) - 1.0
        )
    else:
        counts = [workload.job_counts(j.outputs) for j in plain]
        metrics = {
            "setup_s": median(sum(b) / len(b) for b in setup_batches[1:]),
            "construct_s": median(j.seconds for j in plain),
            "frames_per_s": median(f / j.seconds for (f, _), j in zip(counts, plain)),
            "frame_iters_per_s": median(i / j.seconds for (_, i), j in zip(counts, plain)),
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = []
    if trace:
        spans = setup_tracer.export(0)
        for k, job in enumerate(traced, start=1):
            spans += job.tracer.export(k)
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op),
        "failures": failures,
        "samples": {
            "setup_s": setup_batches,
            "jobs": [{"seconds": j.seconds, "traced": j.tracer is not None} for j in jobs],
        },
        "spans": spans,
    }


def with_units(metrics: dict, units: dict) -> dict:
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # a layer the workload never calls reports zero
    return {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time spent on timed jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    try:
        pin_threads()
        import_nbqc()
        from workloads import WORKLOADS

        spec = load_spec()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: cannot start the benchmark: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; one of {list(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    units = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = measure(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), t_start + HARD_LIMIT_S)
            metrics = with_units(res.pop("metrics"), units)
        except (RuntimeError, KeyError) as exc:  # InputError is a RuntimeError
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans")
        if spans:
            (OUT / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "environment": env, "metrics": metrics, **res}
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

        for msg in res["failures"]:
            print(f"FAILED {name}: {msg}")
        print(f"{name}: {res['attempted']} operations, {res['failed']} failed, "
              f"{len(res['samples']['jobs'])} jobs, {sum(map(len, res['samples']['setup_s']))} set-ups")
        for metric, mv in metrics.items():
            print(f"{name} {metric} = {mv['value']:.6g} {mv['unit']}")
        summary["correct"] = summary["correct"] and res["failed"] == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
