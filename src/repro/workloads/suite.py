"""Usage-weighted scenario suite over the checked-in workload library.

Sweeps every library workload across datatype schemes and cost-model
presets through the cached pool runner (``repro.bench.parallel``) and
returns per-workload and usage-weighted aggregate simulated times.

The weights approximate how often each communication shape occurs in
real MPI applications, following the large-scale static-usage surveys
of open-source HPC codes (Laguna et al., "A large-scale study of MPI
usage in open-source HPC applications", SC'19): nearest-neighbour
point-to-point halo exchange dominates, irregular point-to-point (here:
particle migration with fresh datatypes) is next, dense collectives
(alltoall transpose) follow, and one-sided RMA trails well behind.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.parallel import Cell, run_cells
from repro.ib.costmodel import get_preset
from repro.schemes import SCHEME_NAMES
from repro.workloads.library import library_names, load_workload
from repro.workloads.replay import replay

__all__ = [
    "DEFAULT_PRESETS",
    "SUITE_WEIGHTS",
    "evaluate_workload_cell",
    "run_suite",
    "suite_cells",
]

#: usage weight per library workload (see module docstring for the
#: provenance); unknown/new library entries default to 0.05
SUITE_WEIGHTS = {
    "halo_exchange_2d": 0.40,
    "particle_exchange": 0.25,
    "matrix_transpose_alltoall": 0.20,
    "one_sided_halo": 0.15,
}
_DEFAULT_WEIGHT = 0.05

#: cost-model presets the suite sweeps by default: the paper's platform
#: plus one modern fabric
DEFAULT_PRESETS = ("mellanox_2003", "hdr_ib_2020")


def evaluate_workload_cell(figure: str, series: str, extra: dict) -> float:
    """Replay one ``workload:<name>`` cell; returns simulated us.

    ``figure`` is ``workload:<library name>``, ``series`` is the scheme
    (a workload is a single point, so there is no x axis), and ``extra``
    may carry a cost-model ``preset`` name, resolved here.
    """
    name = figure.split(":", 1)[1]
    preset = extra.get("preset")
    cost_model = get_preset(preset) if preset else None
    return replay(load_workload(name), scheme=series,
                  cost_model=cost_model).time_us


def suite_cells(
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    presets: Optional[Sequence[str]] = None,
) -> list:
    """The full cell grid of one suite run, in canonical order."""
    names = list(workloads) if workloads is not None else list(library_names())
    schemes = list(schemes) if schemes is not None else list(SCHEME_NAMES)
    presets = list(presets) if presets is not None else list(DEFAULT_PRESETS)
    return [
        Cell(f"workload:{name}", scheme, 0, (("preset", preset),))
        for name in names
        for preset in presets
        for scheme in schemes
    ]


def run_suite(
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    presets: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> dict:
    """Run the scenario suite; returns ``{metric key: simulated us}``.

    Metric keys are ``scenario/<workload>/<scheme>/<preset>`` per cell
    plus ``scenario/weighted/<scheme>/<preset>`` usage-weighted
    aggregates.
    """
    cells = suite_cells(workloads, schemes, presets)
    results = run_cells(cells, jobs=jobs)

    metrics: dict[str, float] = {}
    weighted: dict[tuple, float] = {}
    for cell in cells:
        name = cell.figure.split(":", 1)[1]
        preset = dict(cell.extra)["preset"]
        value = results[cell]
        metrics[f"scenario/{name}/{cell.series}/{preset}"] = value
        key = (cell.series, preset)
        weight = SUITE_WEIGHTS.get(name, _DEFAULT_WEIGHT)
        weighted[key] = weighted.get(key, 0.0) + weight * value
    for (scheme, preset), value in sorted(weighted.items()):
        metrics[f"scenario/weighted/{scheme}/{preset}"] = round(value, 3)
    return metrics
