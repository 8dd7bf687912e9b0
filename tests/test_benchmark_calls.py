"""The benchmark's ``deep`` operations run and pass their own checks.

Each operation of ``perfbench.workloads.build_deep(1)`` calls drokit the way
the benchmark does (``static_rectangular(..., rng=...)``, ``.members``,
``.policy.actions`` and the rest), so a change of one of those names or
signatures fails here rather than only in a benchmark run.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
pytest.importorskip("scipy")  # the benchmark's reference checks use it

import checks  # noqa: E402
import workloads  # noqa: E402

OPS = workloads.build_deep(1)


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_deep_op_passes_its_check(op):
    assert op.check(checks, op.run()) == []
