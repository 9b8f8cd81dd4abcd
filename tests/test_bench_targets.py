"""The benchmark drives nbqc through its library API.

perfbench/tracing.py replaces each `(owner, attr)` that a workload lists
through `vars(owner)[attr]`, so a renamed function or a dropped import
breaks the traced benchmark without failing any other test.  Likewise
the workloads build SimConfig and ConstructionConfig themselves, so a
stricter config check could reject them unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # job_targets patches the module itself
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


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
