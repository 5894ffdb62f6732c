"""The committed ``benchmarks/baseline.json`` is a fixed point of the tree.

The CI gate compares against it at 10%; the numbers are deterministic,
so tier-1 can ask for equality on a slice of it: the ``cols=64`` cells
of every gated scheme, and one cell's critical-path attribution (what
the regression explainer diffs against).
"""

import json
import pathlib

import pytest

from repro.bench import gate
from repro.bench.parallel import Cell, evaluate_cell
from repro.obs.regress import cell_attribution

BASELINE = pathlib.Path(__file__).parents[2] / gate.DEFAULT_BASELINE
STALE = (
    "benchmarks/baseline.json no longer matches the tree: if the cost model "
    "or a protocol changed on purpose, refresh it with "
    "`python -m repro.bench.gate --write-baseline` and commit the result"
)


@pytest.mark.faultfree
def test_committed_baseline_matches_the_tree():
    committed = json.loads(BASELINE.read_text())["metrics"]
    assert len(committed) == 2 * len(gate.SCHEMES) * len(gate.COLUMNS)
    measured = {
        f"{fig}/{scheme}/cols=64": evaluate_cell(Cell(fig, scheme, 64))
        for fig in ("fig08", "fig09")
        for scheme in gate.SCHEMES
    }
    assert measured == {key: committed[key]["value"] for key in measured}, STALE
    key = "fig08/bc-spup/cols=64"
    assert cell_attribution("fig08", "bc-spup", 64) == committed[key][
        "attribution"
    ], STALE
