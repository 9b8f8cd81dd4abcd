"""The benchmark's traced runs patch nbqc entry points by attribute name.

perfbench/tracing.py replaces each `(owner, attr)` that a workload lists
through `vars(owner)[attr]`, so a renamed function or a dropped import
breaks the traced benchmark without failing any other test.
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
