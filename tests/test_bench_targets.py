"""The benchmark drives nbqc through its library API.

perfbench/tracing.py replaces each `(owner, attr)` that a workload lists
through `vars(owner)[attr]`, so a renamed function or a dropped import
breaks the traced benchmark without failing any other test.  Likewise
the workloads build SimConfig and ConstructionConfig themselves, so a
stricter config check could reject them unnoticed.
"""

import importlib.util
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from nbqc.channel import _chunk_size, run_monte_carlo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # job_targets patches the module itself
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("perfbench_workloads", "workloads.py").WORKLOADS
Tracer = _load("perfbench_tracing", "tracing.py").Tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_patch_targets_are_own_attributes(name):
    workload = WORKLOADS[name]()
    targets = workload.setup_targets() + workload.job_targets({})
    assert targets
    for owner, attr, *_ in targets:
        assert attr in vars(owner), f"{name}: {owner!r} has no attribute {attr!r} of its own"


@pytest.mark.parametrize("name", [n for n in sorted(WORKLOADS) if n.startswith("simulate")])
def test_simulate_workload_config_builds(name):
    cfg = WORKLOADS[name]().config(0)
    assert cfg.rng_seed == 0 and cfg.max_errors == cfg.max_frames


def test_construct_workload_job_matches_recorded_seed(tmp_path):
    workload = WORKLOADS["construct_paper_d8"]()
    outputs = workload.job(workload.setup(), 0, tmp_path)
    recorded = workload.reference["0"]
    for key, alist_sha, report_sha in workload.digests(outputs):
        assert (alist_sha, report_sha) == (
            recorded[key]["alist_sha256"],
            recorded[key]["report_sha256"],
        )


def test_traced_construct_job_reads_its_cycles(tmp_path):
    # only a traced run reads the cycles' rows, cols and lengths
    workload = WORKLOADS["construct_paper_d8"]()
    bases = workload.setup()
    tracer, record = Tracer(), {}
    with tracer.patched(workload.job_targets(record)), tracer.span("bench.job"):
        outputs = workload.job(bases, 0, tmp_path)
    sweep = defaultdict(lambda: [0, 0.0])
    failures = workload.check(bases, 0, outputs, sweep)
    assert failures == [[], []]
    job = SimpleNamespace(tracer=tracer, record=record, outputs=outputs)
    metrics = workload.per_layer(bases, job, Tracer(), sweep)
    assert metrics["base_graph.cycles"] == 10794
    assert [metrics[f"base_graph.cycles.len{n}"] for n in (4, 6, 8)] == [123, 1416, 9255]


def test_n4620_batches_split_by_bytes_and_n192_batches_by_cpus():
    # the two simulate workloads sit on either side of the decoder's chunk-size min:
    # N=4620 gets one-frame chunks (the byte fit binds), N=192 per-CPU chunks
    cli_batch = inspect.signature(run_monte_carlo).parameters["batch_size"].default
    big = WORKLOADS["simulate_n4620_64qam"]()
    big_fit, big_batch = big.setup().code.decoder().chunk_frames, min(cli_batch, big.frames)
    small = WORKLOADS["simulate_n192_bpsk"]()
    small_fit, small_batch = small.setup().code.decoder().chunk_frames, min(cli_batch, small.frames)
    assert big_fit == 1 < big_batch and small_batch == 64 < small_fit
    for cpus in (1, 2, 3):
        assert _chunk_size(big_batch, big_fit, cpus) == 1
        assert _chunk_size(small_batch, small_fit, cpus) == -(-small_batch // cpus)
