"""One pass of every benchmark workload, with the benchmark's own checks.

``perfbench/workloads.py`` is loaded read-only from the checkout; every op of
every workload runs once (seed 1) and its ``Op.check`` must find no error, so
a change that breaks the recorded counts or the CLI oracles fails here
before any benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_pass_checks_clean(name):
    workload = workloads.build(name, 1, workloads.load_lppkit(name))
    assert workload.ops
    errors = []
    items = 0
    for op in workload.ops:
        result = op.check(op.run())
        items += result.items
        if result.error is not None:
            errors.append((op.label, result.error))
    assert errors == []
    assert items > 0
