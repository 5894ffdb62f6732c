"""Wall-clock selftest: per-row sweep timing and a cache check.

``python -m repro.bench selftest`` runs every row of the sweep table at
its smallest grid point twice against a private result cache: the cold
pass measures measurement throughput (cells per wall-clock second), the
warm pass the cache-hit speedup, and it **fails** unless every cell was
served from cache — a cell whose key is not a pure function of its spec
would silently re-measure on every sweep.

How fast the engine itself runs (ns per dispatched event, host µs per
MPI message, per layer) is ``hostbench/``'s question, not this
module's; see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time
from typing import Optional
from unittest import mock

from repro.bench import parallel
from repro.bench.sweeps import SWEEPS, run_sweep

__all__ = ["SELFTEST_GRIDS", "format_selftest", "run_selftest"]

#: the smallest grid point of every row that owns a CSV — every series,
#: probe and option of the table once, small enough for CI
SELFTEST_GRIDS = {
    name: row.xs[:1] for name, row in SWEEPS.items() if row.csv
}


def run_selftest(jobs: Optional[int] = None) -> dict:
    """Run the selftest; returns the report dict.

    Figure sweeps run against a private temporary cache and results
    directory — the selftest never touches ``.repro-cache/`` or the
    checked-in ``results/`` CSVs.  Raises :class:`AssertionError` when a
    warm pass re-measured a cell the cold pass had just stored.
    """
    report: dict = {"jobs": parallel.resolve_jobs(jobs), "figures": {}}

    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp, \
            mock.patch.dict(os.environ, {
                "REPRO_CACHE_DIR": os.path.join(tmp, "cache"),
                "REPRO_RESULTS_DIR": os.path.join(tmp, "results"),
            }):
        try:
            for figure, grid in SELFTEST_GRIDS.items():
                parallel.STATS.reset()
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    run_sweep(figure, grid)
                    cold = time.perf_counter() - t0
                    cells = parallel.STATS.cells
                    executed = parallel.STATS.executed
                    t0 = time.perf_counter()
                    run_sweep(figure, grid)
                    warm = time.perf_counter() - t0
                hits = parallel.STATS.cache_hits
                if hits != cells:
                    raise AssertionError(
                        f"selftest {figure}: warm pass served {hits} of "
                        f"{cells} cells from the cache it had just filled — "
                        "a cell key is not a pure function of the cell "
                        "(see repro.bench.parallel.cell_key)"
                    )
                report["figures"][figure] = {
                    "cells": cells,
                    "executed": executed,
                    "cold_wall_s": cold,
                    "warm_wall_s": warm,
                    "warm_cache_hits": hits,
                    "cells_per_sec": cells / cold if cold > 0 else 0.0,
                }
        finally:
            parallel.STATS.reset()
    return report


def format_selftest(report: dict) -> str:
    """Render the selftest report as an aligned text table."""
    lines = [f"bench selftest (jobs={report['jobs']})", ""]
    header = (
        f"  {'row':<15} {'cells':>5} {'cold_ms':>9} {'warm_ms':>9} "
        f"{'hits':>5} {'cells/s':>8}"
    )
    lines.append("sweep rows (smallest grid point, private cold/warm cell cache):")
    lines.append(header)
    for figure, m in report["figures"].items():
        lines.append(
            f"  {figure:<15} {m['cells']:>5d} {m['cold_wall_s'] * 1e3:>9.1f} "
            f"{m['warm_wall_s'] * 1e3:>9.1f} {m['warm_cache_hits']:>5d} "
            f"{m['cells_per_sec']:>8.2f}"
        )
    return "\n".join(lines)
