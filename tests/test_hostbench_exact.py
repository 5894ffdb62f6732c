"""The hostbench exact metrics, pinned in tier-1 at zero tolerance.

``hostbench/`` gates ``events_per_msg`` and ``sim_us_per_msg`` at 1e-9,
but only the benchmark driver runs it.  This test imports
``hostbench/cells.py`` read-only and pins, per cell, the event count and
``repr`` of the simulated time of every ``stream_copy`` cell and of the
``--quick`` cells of the other four workloads, with every delivered
payload checked by the cells' own oracle.  A host-time change moves
nothing here; a change that removes events (ROADMAP item 2) regenerates
the file, and the diff is its claim:

    PYTHONPATH=src python -m tests.test_hostbench_exact \
        > tests/golden/hostbench_exact.json
"""

import importlib.util
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from tests.conservation import assert_conserved

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "hostbench_exact.json"

#: workload -> the ``quick`` flag its cells are built with
WORKLOADS = {
    "pingpong_latency": True,
    "stream_copy": False,
    "stream_zerocopy": True,
    "alltoall_struct": True,
    "trace_replay": True,
}

pytestmark = pytest.mark.faultfree


class _NoSpans:
    cell, pass_no = "", -1

    def span(self, name):
        return nullcontext()


def _cells_module():
    spec = importlib.util.spec_from_file_location(
        "hostbench_cells", ROOT / "hostbench" / "cells.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def compute(workloads=WORKLOADS) -> dict:
    cells = _cells_module()
    out = {}
    for workload, quick in workloads.items():
        for cell in cells.build(workload, seed=1, quick=quick):
            outcome = cell.execute(_NoSpans())
            assert outcome.failed == 0, f"{workload}/{cell.name}: payload differs"
            assert_conserved(outcome.cluster)
            out[f"{workload}/{cell.name}"] = [outcome.events, repr(outcome.sim_us)]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_events_and_sim_time_are_pinned(workload):
    golden = json.loads(GOLDEN.read_text())
    want = {k: v for k, v in golden.items() if k.startswith(workload + "/")}
    assert want, f"no golden cells for {workload}"
    assert compute({workload: WORKLOADS[workload]}) == want


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1, sort_keys=True))
