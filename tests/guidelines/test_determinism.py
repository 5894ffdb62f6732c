"""The JSON report must be byte-identical however the sweep ran.

The classifier walks the catalogue in a canonical order over a
``{cell: value}`` dict that the runner completes whatever the worker
count, so serial and parallel sweeps must produce the same document.
The cache is disabled so both runs measure for real rather than the
second trivially replaying the first.
"""

import json

import pytest

from repro.guidelines import harness, report

PRESETS = ("mellanox_2003",)
SCHEMES = ("generic", "bc-spup")
LAT_COLS = (8, 64)
BW_COLS = (64,)


def _doc(jobs):
    results = harness.run_check(
        presets=PRESETS,
        schemes=SCHEMES,
        lat_cols=LAT_COLS,
        bw_cols=BW_COLS,
        jobs=jobs,
        use_cache=False,
    )
    return report.to_json_doc(results, PRESETS)


def test_serial_and_parallel_reports_identical():
    serial = _doc(jobs=1)
    parallel = _doc(jobs=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


@pytest.mark.faultfree  # asserts a classification of simulated timings
def test_report_shape():
    doc = _doc(jobs=1)
    assert doc["schema"] == report.SCHEMA_VERSION
    assert doc["presets"] == list(PRESETS)
    s = doc["summary"]
    assert s["checks"] == len(doc["checks"])
    assert s["passes"] + s["violations"] + s["crossover_shifts"] == s["checks"]
    # the paper's own Figure 2 result: Generic loses to pack-then-send
    # on the paper's testbed at 64 columns
    generic = [
        c
        for c in doc["checks"]
        if c["guideline"] == "datatype-vs-manual"
        and c["scheme"] == "generic"
        and c["x"] == 64
    ]
    assert generic and generic[0]["status"] == "violation"
