"""One sweep function per data figure of the paper.

Each function runs the figure's full parameter sweep, prints the table,
writes ``results/figNN.csv``, and returns ``(x_values, {name: Series})``
so benchmark assertions can check the reproduced shape.  Figures 1, 3-7
and 10 in the paper are diagrams and have no data to regenerate.

Every sweep is a grid of independent cells evaluated through
:mod:`repro.bench.parallel`: the per-cell measurement functions below
(``CELL_EVALUATORS``) are module-level and picklable, so the executor
can fan them out over worker processes, and results are merged back in
canonical (series x column) order — output is byte-identical whether the
sweep ran serially, on N workers, or straight from the result cache.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.bench.parallel import Cell, run_cells
from repro.bench.report import Series, print_table, write_csv
from repro.bench.runner import (
    measure_alltoall,
    measure_bandwidth,
    measure_contig_pingpong,
    measure_manual_pingpong,
    measure_multiple_pingpong,
    measure_pingpong,
)
from repro.bench.workloads import Workload, figure_workload

__all__ = ["fig02", "fig08", "fig09", "fig11", "fig12", "fig13", "fig14"]

#: the paper's column sweep (Figures 2, 8, 9: 1 to 2048 columns)
COLUMNS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
#: Figure 11's last-block sweep (2048 to 131072 integers)
LAST_BLOCKS = [2048, 4096, 8192, 16384, 32768, 65536, 131072]

#: the worst-case configuration of Figure 14 and Section 8.6
WORST_CASE = {"reg_cache_bytes": 0, "staging_pools": False}


def _cached(fn):
    return functools.lru_cache(maxsize=None)(fn)


_SCHEMES = ("generic", "bc-spup", "rwg-up", "multi-w")
_LABEL = {
    "generic": "Generic",
    "bc-spup": "BC-SPUP",
    "rwg-up": "RWG-UP",
    "multi-w": "Multi-W",
}


# ----------------------------------------------------------------------
# per-cell measurement functions (module-level: picklable for workers)
# ----------------------------------------------------------------------

def _preset_kwargs(extra: dict, base: Optional[dict] = None) -> Optional[dict]:
    """Cluster kwargs for a cell, honouring an optional cost-model preset.

    Cells carry the preset *by name* in ``extra`` (``("preset", name)``)
    so they stay picklable; the worker resolves the name against the
    preset registry at evaluation time.  Without a preset the base
    kwargs pass through untouched (None stays None — byte-identical to
    the pre-preset call paths).
    """
    name = extra.get("preset")
    if not name:
        return dict(base) if base else base
    from repro.ib.costmodel import get_preset

    kwargs = dict(base or {})
    kwargs["cost_model"] = get_preset(name)
    return kwargs


def _eval_fig02(series: str, w: Workload, extra: dict) -> float:
    ck = _preset_kwargs(extra)
    if series == "Contig":
        return measure_contig_pingpong(w.nbytes, scheme="generic",
                                       cluster_kwargs=ck)
    if series == "Datatype":
        return measure_pingpong("generic", w.datatype, cluster_kwargs=ck)
    if series == "DT+reg":
        return measure_pingpong(
            "generic", w.datatype, cluster_kwargs=ck,
            scheme_options={"fresh_buffers": True},
        )
    if series == "Manual":
        return measure_manual_pingpong(w.datatype, cluster_kwargs=ck)
    if series == "Multiple":
        return measure_multiple_pingpong(w.datatype, cluster_kwargs=ck)
    raise KeyError(f"fig02: unknown series {series!r}")


def _eval_pingpong(series: str, w: Workload, extra: dict) -> float:
    return measure_pingpong(series, w.datatype,
                            cluster_kwargs=_preset_kwargs(extra))


def _eval_fig09(series: str, w: Workload, extra: dict) -> float:
    return measure_bandwidth(series, w.datatype,
                             cluster_kwargs=_preset_kwargs(extra))


def _eval_fig11(series: str, w: Workload, extra: dict) -> float:
    return measure_alltoall(
        series, w.datatype, nranks=extra.get("nranks", 8),
        cluster_kwargs=_preset_kwargs(extra),
    )


def _eval_fig12(series: str, w: Workload, extra: dict) -> float:
    return measure_bandwidth(
        "rwg-up",
        w.datatype,
        cluster_kwargs=_preset_kwargs(extra),
        scheme_options={"segment_unpack": series == "seg-unpack"},
    )


def _eval_fig13(series: str, w: Workload, extra: dict) -> float:
    return measure_bandwidth(
        "multi-w",
        w.datatype,
        cluster_kwargs=_preset_kwargs(extra),
        scheme_options={"list_post": series == "list"},
    )


def _eval_fig14(series: str, w: Workload, extra: dict) -> float:
    opts = {"fresh_buffers": True} if series == "generic" else None
    return measure_pingpong(
        series,
        w.datatype,
        cluster_kwargs=_preset_kwargs(extra, WORST_CASE),
        scheme_options=opts,
    )


#: figure name -> cell measurement function, the worker-side dispatch
#: table of :func:`repro.bench.parallel.evaluate_cell`, which hands each
#: one ``figure_workload(figure, x)`` — the evaluators never decide what
#: a figure's ``x`` means.  ``contig`` (``x`` contiguous bytes, the series
#: names the scheme) is the guidelines harness's probe of a preset's
#: eager/rendezvous crossover, where the interesting sizes depend on the
#: preset's own ``eager_threshold`` rather than the paper's column grid.
CELL_EVALUATORS = {
    "fig02": _eval_fig02,
    "fig08": _eval_pingpong,
    "fig09": _eval_fig09,
    "fig11": _eval_fig11,
    "fig12": _eval_fig12,
    "fig13": _eval_fig13,
    "fig14": _eval_fig14,
    "contig": _eval_pingpong,
}


def cell_workload_spec(figure: str, x: int) -> str:
    """Human-readable workload identity of a cell — part of its cache key."""
    if figure.startswith("workload:"):
        from repro.workloads.library import workload_spec

        return workload_spec(figure.split(":", 1)[1])
    return figure_workload(figure, x).name


def _sweep(figure: str, series_keys, xs, extra: tuple = ()) -> dict:
    """Evaluate the full grid; returns ``{series: [y per x]}`` in order."""
    cells = [Cell(figure, s, x, extra) for x in xs for s in series_keys]
    results = run_cells(cells)
    return {
        s: [results[Cell(figure, s, x, extra)] for x in xs] for s in series_keys
    }


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

@_cached
def fig02(columns: Optional[tuple] = None):
    """Figure 2: the motivating example — Datatype vs Manual vs Multiple
    vs DT+reg vs Contig ping-pong latency."""
    cols = list(columns or COLUMNS)
    names = ("Contig", "Datatype", "DT+reg", "Manual", "Multiple")
    ys = _sweep("fig02", names, cols)
    out = {n: Series(n, ys[n]) for n in names}
    series = list(out.values())
    print_table(
        "Figure 2: vector datatype transfer latency (us), 128x[cols] of a "
        "128x4096 int array",
        "cols", cols, series, unit="us", baseline="Contig",
    )
    write_csv("results/fig02.csv", "cols", cols, series)
    return cols, out


@_cached
def fig08(columns: Optional[tuple] = None):
    """Figure 8: ping-pong latency of the four schemes."""
    cols = list(columns or COLUMNS)
    ys = _sweep("fig08", _SCHEMES, cols)
    out = {s: Series(_LABEL[s], ys[s]) for s in _SCHEMES}
    series = [out[s] for s in _SCHEMES]
    print_table(
        "Figure 8: datatype ping-pong latency (us)",
        "cols", cols, series, unit="us", baseline="Generic",
    )
    write_csv("results/fig08.csv", "cols", cols, series)
    return cols, out


@_cached
def fig09(columns: Optional[tuple] = None):
    """Figure 9: streaming bandwidth (100-message window) in MB/s."""
    cols = list(columns or COLUMNS)
    ys = _sweep("fig09", _SCHEMES, cols)
    out = {s: Series(_LABEL[s], ys[s]) for s in _SCHEMES}
    series = [out[s] for s in _SCHEMES]
    print_table(
        "Figure 9: datatype streaming bandwidth (MB/s)",
        "cols", cols, series, unit="MB/s", baseline="Generic",
    )
    write_csv("results/fig09.csv", "cols", cols, series)
    return cols, out


@_cached
def fig11(last_blocks: Optional[tuple] = None, nranks: int = 8):
    """Figure 11: MPI_Alltoall with the Figure 10 struct datatype on 8
    processes."""
    xs = list(last_blocks or LAST_BLOCKS)
    ys = _sweep("fig11", _SCHEMES, xs, extra=(("nranks", nranks),))
    out = {s: Series(_LABEL[s], ys[s]) for s in _SCHEMES}
    series = [out[s] for s in _SCHEMES]
    print_table(
        f"Figure 11: MPI_Alltoall time (us), {nranks} processes, struct "
        "datatype of Figure 10",
        "last block (ints)", xs, series, unit="us", baseline="Generic",
    )
    write_csv("results/fig11.csv", "last_block_ints", xs, series)
    return xs, out


@_cached
def fig12(columns: Optional[tuple] = None):
    """Figure 12: effect of segment unpack on RWG-UP bandwidth."""
    cols = list(columns or tuple(c for c in COLUMNS if c >= 16))
    labels = {
        "seg-unpack": "RWG-UP w/ segment unpack",
        "whole-unpack": "RWG-UP w/o segment unpack",
    }
    ys = _sweep("fig12", tuple(labels), cols)
    out = {k: Series(labels[k], ys[k]) for k in labels}
    series = list(out.values())
    print_table(
        "Figure 12: RWG-UP bandwidth (MB/s), segment unpack vs whole-message "
        "unpack",
        "cols", cols, series, unit="MB/s", baseline="RWG-UP w/o segment unpack",
    )
    write_csv("results/fig12.csv", "cols", cols, series)
    return cols, out


@_cached
def fig13(columns: Optional[tuple] = None):
    """Figure 13: effect of list descriptor post on Multi-W bandwidth."""
    cols = list(columns or tuple(c for c in COLUMNS if c >= 4))
    labels = {
        "list": "Multi-W list post",
        "single": "Multi-W single post",
    }
    ys = _sweep("fig13", tuple(labels), cols)
    out = {k: Series(labels[k], ys[k]) for k in labels}
    series = list(out.values())
    print_table(
        "Figure 13: Multi-W bandwidth (MB/s), list descriptor post vs "
        "single post",
        "cols", cols, series, unit="MB/s", baseline="Multi-W single post",
    )
    write_csv("results/fig13.csv", "cols", cols, series)
    return cols, out


@_cached
def fig14(columns: Optional[tuple] = None):
    """Figure 14: worst-case buffer usage — every operation allocates,
    registers and deregisters on the fly (no pin-down cache, no
    pre-registered pools)."""
    cols = list(columns or COLUMNS)
    ys = _sweep("fig14", _SCHEMES, cols)
    out = {s: Series(_LABEL[s], ys[s]) for s in _SCHEMES}
    series = [out[s] for s in _SCHEMES]
    print_table(
        "Figure 14: ping-pong latency (us) in the worst case of buffer usage "
        "(on-the-fly registration everywhere)",
        "cols", cols, series, unit="us", baseline="Generic",
    )
    write_csv("results/fig14.csv", "cols", cols, series)
    return cols, out
