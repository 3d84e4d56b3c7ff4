"""The benchmark's output check, replayed once per case.

``bench/run.py`` compares every op's outcome with ``bench/pins.json``: a
digest of the artifacts a training op writes, the verdict rows of a
verifier op, or the exception a run is pinned to raise.  Running each case
of the four workloads once here catches a moved digest or exception before
a benchmark run does.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import BENCH_DIR, load_bench_workloads

WORKLOADS = load_bench_workloads().WORKLOADS
with open(os.path.join(BENCH_DIR, "pins.json"), encoding="ascii") as _fh:
    PINS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_case_reproduces_its_pinned_outcome(name, tmp_path):
    workload = WORKLOADS[name]
    assert sorted(PINS[name]) == sorted(case.key for case in workload.cases)
    for case in workload.cases:
        op = workload.op(case, str(tmp_path))
        assert op.outcome == PINS[name][case.key], case.key
        # a failure is allowed only where the pin names it
        if op.failure is not None:
            assert op.outcome == f"raises:{op.failure}", case.key
