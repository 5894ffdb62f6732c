"""Scenario suite: pool-runner dispatch, weighted aggregates, caching."""

import pytest

from repro.bench.parallel import Cell, cell_key, evaluate_cell, run_cells
from repro.workloads.library import (
    library_names,
    load_workload,
    workload_spec,
)
from repro.workloads.replay import replay
from repro.workloads.suite import (
    SUITE_WEIGHTS,
    run_suite,
    suite_cells,
)

pytestmark = pytest.mark.faultfree


@pytest.fixture
def sandbox(monkeypatch, tmp_path):
    """Redirect results/cache so suite runs never dirty the tree."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_weights_cover_the_library_and_sum_to_one():
    assert set(SUITE_WEIGHTS) == set(library_names())
    assert abs(sum(SUITE_WEIGHTS.values()) - 1.0) < 1e-9


def test_workload_cell_dispatch_matches_direct_replay(sandbox):
    cell = Cell("workload:halo_exchange_2d", "bc-spup", 0,
                (("preset", "mellanox_2003"),))
    direct = replay(load_workload("halo_exchange_2d"), scheme="bc-spup")
    assert evaluate_cell(cell) == direct.time_us


def test_workload_cells_key_on_trace_content(sandbox):
    spec = workload_spec("halo_exchange_2d")
    assert spec.startswith("halo_exchange_2d@")
    a = cell_key(Cell("workload:halo_exchange_2d", "bc-spup", 0))
    b = cell_key(Cell("workload:halo_exchange_2d", "generic", 0))
    assert a != b


def test_suite_cells_cover_full_grid():
    cells = suite_cells(
        workloads=["halo_exchange_2d"], schemes=["bc-spup", "generic"],
        presets=["mellanox_2003"],
    )
    assert len(cells) == 2
    assert {c.series for c in cells} == {"bc-spup", "generic"}
    assert all(c.figure == "workload:halo_exchange_2d" for c in cells)


def test_run_suite_weights_the_aggregate(sandbox):
    metrics = run_suite(
        workloads=["particle_exchange"],
        schemes=["bc-spup", "generic"],
        presets=["mellanox_2003"],
        jobs=1,
    )
    assert (
        "scenario/particle_exchange/bc-spup/mellanox_2003" in metrics
    )
    weighted = metrics["scenario/weighted/bc-spup/mellanox_2003"]
    per_cell = metrics["scenario/particle_exchange/bc-spup/mellanox_2003"]
    assert weighted == round(
        SUITE_WEIGHTS["particle_exchange"] * per_cell, 3
    )


def test_suite_results_are_cached_across_runs(sandbox):
    kwargs = dict(
        workloads=["matrix_transpose_alltoall"],
        schemes=["bc-spup"], presets=["mellanox_2003"],
        jobs=1,
    )
    first = run_suite(**kwargs)
    second = run_suite(**kwargs)
    assert first == second
    cached = list((sandbox / "cache").rglob("*.json"))
    assert cached, "suite cells should land in the sweep cache"
