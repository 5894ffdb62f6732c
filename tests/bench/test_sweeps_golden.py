"""The sweep table against its pin.

``golden/sweeps.json`` holds, for every row of
:data:`repro.bench.sweeps.SWEEPS` x every series, the value at the row's
smallest grid point, as ``repr(float)`` (``network``: all three presets;
``skampi``: the ``struct-mixed`` pattern; ``segment-size``: 128 KB, the
8 KB bandwidth cell alone costs 5 s of host time).  It was measured through
the hand-written ``figNN`` / ablation / ``skampi_sweep`` functions the
table replaced and committed before the table existed, so equality here
proves no row was mis-transcribed.  The three rows that arrived later
(``eager-rdma``, ``io-strategies``, ``rma``) were private sweep drivers
under ``benchmarks/``; their pin is the CSV those drivers wrote.  So is
the pin of the two preset rows (``presets``, ``contig``), which carry
the cells the guidelines harness measured.  Figures 8 and 9 are pinned
twice: their first point in ``golden/sweeps.json`` and their ``cols=64``
line, all four schemes, in ``results/fig08.csv`` / ``fig09.csv``.
Regenerate only for an intended cost-model or protocol change::

    PYTHONPATH=src python -m tests.bench.test_sweeps_golden \\
        > tests/bench/golden/sweeps.json
"""

import json
from pathlib import Path

import pytest

from repro.bench.parallel import Cell, evaluate_cell
from repro.bench.sweeps import SWEEPS
from repro.bench.runner import (
    measure_alltoall,
    measure_bandwidth,
    measure_io,
    measure_pingpong,
    measure_put,
    measure_send_stream,
)
from repro.schemes import SCHEME_NAMES

GOLDEN = Path(__file__).parent / "golden" / "sweeps.json"
REPO = Path(__file__).parents[2]

#: rows pinned at other points than their first
_POINTS = {
    "network": SWEEPS["network"].xs,
    "skampi": ("struct-mixed",),
    "segment-size": (131072,),
}

#: rows pinned by one line of their checked-in CSV instead of
#: ``golden/sweeps.json``, and that line's x (io: the cheap end of the grid)
_CSV_PINNED = {
    "eager-rdma": 8, "io-strategies": 65536, "rma": 64, "presets": 8, "contig": 2048,
}

#: every checked-in CSV line the tier-1 suite measures again
_CSV_LINES = (*_CSV_PINNED.items(), ("fig08", 64), ("fig09", 64))


def golden_cells():
    return [
        Cell(name, series, x, row.extra)
        for name, row in SWEEPS.items()
        if name not in _CSV_PINNED
        for x in _POINTS.get(name, row.xs[:1])
        for series in row.series
    ]


def _entry(cell: Cell, value: float) -> dict:
    return {
        "figure": cell.figure, "series": cell.series, "x": cell.x,
        "extra": [list(p) for p in cell.extra], "value": repr(value),
    }


@pytest.mark.faultfree
def test_every_pinned_cell_reproduces_exactly():
    pinned = json.loads(GOLDEN.read_text())
    cells = [
        Cell(e["figure"], e["series"], e["x"], tuple(map(tuple, e["extra"])))
        for e in pinned
    ]
    assert cells == golden_cells(), "the pin and the table name different cells"
    for cell, entry in zip(cells, pinned):
        assert repr(evaluate_cell(cell)) == entry["value"], cell


@pytest.mark.faultfree
@pytest.mark.parametrize("name, x", _CSV_LINES)
def test_csv_line_reproduces_exactly(name, x):
    row = SWEEPS[name]
    line = (REPO / row.csv).read_text().splitlines()[1 + row.xs.index(x)]
    measured = [repr(evaluate_cell(Cell(name, s, x))) for s in row.series]
    assert [str(x), *measured] == line.split(",")


class TestTableSelfCheck:
    """Costs no simulation."""

    def test_csv_paths_unique(self):
        paths = [row.csv for row in SWEEPS.values() if row.csv]
        assert len(paths) == len(set(paths)) == 22

    def test_every_series_key_resolves(self):
        probes = (
            measure_pingpong, measure_bandwidth, measure_alltoall,
            measure_put, measure_send_stream, measure_io,
        )
        for name, row in SWEEPS.items():
            assert row.baseline in (None, *row.series.values()), name
            for x in (row.xs[0], row.xs[-1]):
                assert row.layout(x).datatype.size > 0, (name, x)
                for series in row.series:
                    probe, scheme, options, cluster, kwargs = row.config(
                        series, x, dict(row.extra)
                    )
                    assert probe in probes, (name, series)
                    assert scheme in SCHEME_NAMES or probe is measure_io, (
                        name, series,
                    )

    def test_checked_in_csv_headers_match_the_table(self):
        for name, row in SWEEPS.items():
            if not row.csv:
                continue
            header = (REPO / row.csv).read_text().splitlines()[0]
            assert header.split(",") == [row.axis, *row.series.values()], name


if __name__ == "__main__":
    entries = [_entry(c, evaluate_cell(c)) for c in golden_cells()]
    print("[\n" + ",\n".join(" " + json.dumps(e) for e in entries) + "\n]")
