"""The benchmark harness still runs against the library.

``perfbench/workloads.py`` calls ``rep_eval_complex``, ``rep_from_quadrature``,
``support_pencil``, ``schur_pencil`` and the cert testers directly, so a
change to their contracts could break the benchmark without breaking any
other test.  Each workload sets up and runs the first op of its cycle once, and
continuation also its first right half-space op.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_runs_and_checks(name):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(NullTracer())
    kind = wl.cycle(state)[0]
    inputs = wl.inputs(state, kind, np.random.default_rng(0))
    outcome = wl.check(state, kind, inputs, wl.run(NullTracer(), state, kind, inputs))
    assert outcome.wrong is None


def test_continuation_runs_its_first_right_halfspace_op():
    # the cycle opens with upper half-space ops; the right half-space ones
    # take the evaluation at theta = 0
    wl = workloads.WORKLOADS["continuation"]
    state = wl.setup(NullTracer())
    kind = next(kind for kind in wl.cycle(state) if kind[0] == "right")
    inputs = wl.inputs(state, kind, np.random.default_rng(0))
    outcome = wl.check(state, kind, inputs, wl.run(NullTracer(), state, kind, inputs))
    assert outcome.wrong is None and outcome.failed is None
