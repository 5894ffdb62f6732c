"""Shared benchmark configuration: one sweep under pytest-benchmark.

Cells are cached on disk (``.repro-cache/``), so asking for the same
sweep twice re-reads them, prints the table and rewrites the (identical)
CSV.
"""

import pytest

from repro.bench.sweeps import run_sweep


@pytest.fixture(autouse=True)
def _no_fault_injection(monkeypatch):
    """Benchmarks measure the fault-free cost model; a leaked
    REPRO_FAULT_PROFILE would poison every cached sweep."""
    monkeypatch.delenv("REPRO_FAULT_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)


@pytest.fixture
def run_figure(benchmark):
    """Run one row of the sweep table (simulated time inside, wall time
    measured by pytest-benchmark); returns its (x_values, series)."""
    return lambda name: benchmark.pedantic(
        run_sweep, args=(name,), rounds=1, iterations=1
    )
