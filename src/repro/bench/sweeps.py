"""The sweep table: every figure, ablation and pattern sweep is one row.

The paper's evaluation is three experiments — a ping-pong, a 100-message
window stream and an ``MPI_Alltoall`` (the three probes of
:mod:`repro.bench.runner`) — run over a grid of (layout, scheme,
option).  :data:`SWEEPS` writes that grid down as data: a row names its
title, x axis and default grid, its series and their labels, the unit,
the CSV it owns, the layout at ``x``, and one small ``config`` function
saying what a series means at ``x``.  Adding a figure is adding a row.
Figures 1, 3-7 and 10 of the paper are diagrams and have no row; the
rows after ``fig14`` quantify design choices the paper only discusses.

:func:`run_sweep` is the one driver: it builds the row's cells, runs
them through :func:`repro.bench.parallel.run_cells` (workers, result
cache), prints the table(s) and writes the CSV.  The worker side,
:func:`repro.bench.parallel.evaluate_cell`, resolves a cell through the
same row, so output is byte-identical whether a sweep ran serially, on
N workers, or straight from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.bench.parallel import Cell, run_cells
from repro.bench.report import Series, print_table, write_csv
from repro.bench.runner import (
    contig_leg,
    manual_leg,
    measure_alltoall,
    measure_bandwidth,
    measure_io,
    measure_pingpong,
    measure_put,
    measure_send_stream,
    multiple_leg,
)
from repro.bench.skampi import PATTERNS, make_pattern
from repro.bench.workloads import Workload, bimodal, column_vector, fig10_struct
from repro.datatypes import BYTE, INT, contiguous, vector
from repro.ib.costmodel import CostModel, get_preset
from repro.schemes import PAPER_SCHEMES, SCHEME_NAMES

__all__ = ["SWEEPS", "Sweep", "run_sweep"]

#: the paper's column sweep (Figures 2, 8, 9: 1 to 2048 columns)
COLUMNS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)

_LABEL = dict(zip(PAPER_SCHEMES, ("Generic", "BC-SPUP", "RWG-UP", "Multi-W")))


@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`.  The defaults are the paper's own
    experiment: latency over columns of the 128 x 4096 int array."""

    title: str
    #: series key -> label, in column order
    series: dict
    #: ``(series, x, extra) -> (probe, scheme, scheme_options,
    #: cluster_kwargs, probe_kwargs)``
    config: Callable
    #: the default grid, and the axis's name (the CSV's x header)
    xs: tuple = COLUMNS
    axis: str = "cols"
    #: printed x header where it differs from ``axis``, and how an x prints
    x_label: Optional[str] = None
    x_text: Callable = str
    #: ``x -> Workload``
    layout: Callable = column_vector
    #: ``"us"`` / ``"MB/s"``, or ``{series key: unit}`` when they differ
    #: (one table is printed per unit)
    unit: Union[str, dict] = "us"
    #: label of the series the improvement columns are relative to
    baseline: Optional[str] = None
    #: the CSV this row owns
    csv: Optional[str] = None
    #: ``(name, value)`` pairs every cell of the row carries
    extra: tuple = ()


def _cfg(probe, scheme, options=None, cluster=None, **probe_kwargs):
    return probe, scheme, options, cluster, probe_kwargs


def _scheme(probe, **probe_kwargs):
    """The series names the scheme; nothing else varies."""
    return lambda s, x, e: _cfg(probe, s, **probe_kwargs)


def _names(*keys) -> dict:
    return {k: k for k in keys}


#: what each Figure 2 strategy changes about the Generic ping-pong
_FIG02 = {
    "Contig": {"leg": contig_leg},
    "Datatype": {},
    "DT+reg": {"options": {"fresh_buffers": True}},
    "Manual": {"leg": manual_leg},
    "Multiple": {"leg": multiple_leg, "iters": 3},
}

#: the ``network`` row's x values -> cost-model preset names
_NETWORK = {
    "testbed": "mellanox_2003",
    "fast-wire": "fast_network",
    "slow-wire": "slow_network",
}


#: the cost-model presets of the ``presets`` and ``contig`` rows, one a
#: hardware era (docs/COSTMODEL.md); the first is the paper's testbed
ERAS = (
    "mellanox_2003", "hdr_ib_2020", "ndr_ib_2023", "shared_memory_node",
    "gpu_kernel_pack",
)

#: the ``presets`` row's series: ``<preset>:Manual`` (Figure 2's
#: pack-then-send), ``<preset>:<scheme>`` (Figure 8's ping-pong) and
#: ``<preset>:<scheme>:bw`` (Figure 9's stream)
_ERA_SERIES = [
    f"{p}:{s}" for p in ERAS
    for s in ("Manual", *SCHEME_NAMES, *(f"{s}:bw" for s in SCHEME_NAMES))
]


def _on_preset(series: str, x, extra):
    preset, scheme, *bw = series.split(":")
    cluster = {"cost_model": get_preset(preset)}
    if scheme == "Manual":
        return _cfg(measure_pingpong, "generic", None, cluster, **_FIG02["Manual"])
    return _cfg(measure_bandwidth if bw else measure_pingpong, scheme, None, cluster)


def _contig(nbytes: int) -> Workload:
    return Workload.of(f"contig:{nbytes}B", contiguous(nbytes, BYTE))


def _io_layout(block_bytes: int) -> Workload:
    """1 MB of client memory in blocks with as many bytes of gap after each."""
    ints = block_bytes // 4
    dt = vector((1 << 18) // ints, ints, 2 * ints, INT)
    return Workload.of(f"io:{block_bytes}B", dt)


def _skampi_shape(name: str) -> str:
    flat = make_pattern(name).flatten(1)
    return f"{name} ({flat.nblocks} blk, ~{int(flat.mean_block)} B)"


SWEEPS = {
    "fig02": Sweep(
        title="Figure 2: vector datatype transfer latency (us), 128x[cols] "
        "of a 128x4096 int array",
        series=_names(*_FIG02), baseline="Contig", csv="results/fig02.csv",
        config=lambda s, x, e: _cfg(measure_pingpong, "generic", **_FIG02[s]),
    ),
    "fig08": Sweep(
        title="Figure 8: datatype ping-pong latency (us)",
        series=_LABEL, baseline="Generic", csv="results/fig08.csv",
        config=_scheme(measure_pingpong),
    ),
    "fig09": Sweep(
        title="Figure 9: datatype streaming bandwidth (MB/s)",
        series=_LABEL, unit="MB/s", baseline="Generic",
        csv="results/fig09.csv", config=_scheme(measure_bandwidth),
    ),
    "fig11": Sweep(
        title="Figure 11: MPI_Alltoall time (us), 8 processes, struct "
        "datatype of Figure 10",
        xs=(2048, 4096, 8192, 16384, 32768, 65536, 131072),
        axis="last_block_ints", x_label="last block (ints)",
        layout=fig10_struct, series=_LABEL, baseline="Generic",
        csv="results/fig11.csv", extra=(("nranks", 8),),
        config=lambda s, x, e: _cfg(measure_alltoall, s, nranks=e.get("nranks", 8)),
    ),
    "fig12": Sweep(
        title="Figure 12: RWG-UP bandwidth (MB/s), segment unpack vs "
        "whole-message unpack",
        xs=COLUMNS[4:], unit="MB/s",
        series={"seg-unpack": "RWG-UP w/ segment unpack",
                "whole-unpack": "RWG-UP w/o segment unpack"},
        baseline="RWG-UP w/o segment unpack", csv="results/fig12.csv",
        config=lambda s, x, e: _cfg(
            measure_bandwidth, "rwg-up", {"segment_unpack": s == "seg-unpack"}
        ),
    ),
    "fig13": Sweep(
        title="Figure 13: Multi-W bandwidth (MB/s), list descriptor post vs "
        "single post",
        xs=COLUMNS[2:], unit="MB/s",
        series={"list": "Multi-W list post", "single": "Multi-W single post"},
        baseline="Multi-W single post", csv="results/fig13.csv",
        config=lambda s, x, e: _cfg(
            measure_bandwidth, "multi-w", {"list_post": s == "list"}
        ),
    ),
    "fig14": Sweep(
        title="Figure 14: ping-pong latency (us) in the worst case of buffer "
        "usage (on-the-fly registration everywhere)",
        series=_LABEL, baseline="Generic", csv="results/fig14.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, s,
            {"fresh_buffers": True} if s == "generic" else None,
            {"reg_cache_bytes": 0, "staging_pools": False},
        ),
    ),
    "adaptive": Sweep(
        title="Ablation: adaptive scheme selection vs fixed schemes "
        "(Section 6)",
        xs=(16, 64, 256, 1024, 2048),
        series=_names(*PAPER_SCHEMES, "adaptive"), baseline="generic",
        csv="results/ablation_adaptive.csv", config=_scheme(measure_pingpong),
    ),
    # uncached, the receiver re-ships the full flattened layout (16 B
    # per block) in every rendezvous reply
    "dtcache": Sweep(
        title="Ablation: Multi-W receiver-datatype cache (Section 5.4.2)",
        xs=(128, 512, 2048),
        series={"cached": "with datatype cache",
                "uncached": "without datatype cache"},
        baseline="without datatype cache", csv="results/ablation_dtcache.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, "multi-w",
            None if s == "cached" else {"use_dtype_cache": False},
        ),
    ),
    # eager buys one staging copy per side but no handshake; rendezvous
    # pays the handshake but pipelines.  The series key is the threshold.
    "eager-threshold": Sweep(
        title="Ablation: eager/rendezvous threshold (vector ping-pong, us)",
        xs=(2, 8, 16, 32, 64, 128),
        series={str(t): f"thr={t >> 10}KB" for t in (2048, 8192, 32768)},
        csv="results/ablation_eager_threshold.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, "bc-spup", None,
            {"cost_model": CostModel.mellanox_2003().with_overrides(
                eager_threshold=int(s))},
        ),
    ),
    # Section 10's future work, measured: per-piece scheme selection
    "hybrid": Sweep(
        title="Extension: per-piece hybrid on bimodal datatypes (6 x 128 KB "
        "blocks + N x 64 B blocks)",
        xs=(128, 512, 2048), axis="tiny_blocks", x_label="tiny blocks",
        layout=bimodal, series=_names(*PAPER_SCHEMES, "hybrid"),
        baseline="generic", csv="results/ablation_hybrid.csv",
        config=_scheme(measure_pingpong, iters=3),
    ),
    # the Section 1 premise: how the ranking shifts when the wire is much
    # faster or much slower than memcpy
    "network": Sweep(
        title="Ablation: network presets (512 KB vector message)",
        xs=tuple(_NETWORK), axis="preset", layout=lambda x: column_vector(1024),
        series=_names(*PAPER_SCHEMES), baseline="generic",
        csv="results/ablation_network.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, s, None, {"cost_model": get_preset(_NETWORK[x])}
        ),
    ),
    # the comparison Section 5.2 argues but never measures
    "prrs": Sweep(
        title="Ablation: Pack + RDMA Read Scatter vs RDMA Write Gather + "
        "Unpack (Section 5.2)",
        xs=(64, 256, 1024, 2048), series={"rwg-up": "RWG-UP", "p-rrs": "P-RRS"},
        baseline="RWG-UP", csv="results/ablation_prrs.csv",
        config=_scheme(measure_pingpong),
    ),
    "registration": Sweep(
        title="Ablation: user-buffer registration strategy (RWG-UP, no "
        "pin-down cache; Section 5.4.1)",
        xs=(64, 256, 1024, 2048), series=_names("ogr", "per-block", "whole"),
        baseline="per-block", csv="results/ablation_registration.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, "rwg-up", {"registration_mode": s},
            {"reg_cache_bytes": 0},
        ),
    ),
    # Section 7.2's tuning at one message size; the static rule picks 128 KB
    "segment-size": Sweep(
        title="Ablation: BC-SPUP segment size (512 KB message)",
        xs=(8192, 16384, 32768, 65536, 131072),
        axis="segment_bytes", x_label="segment (B)",
        layout=lambda x: column_vector(1024),
        series=_names("latency", "bandwidth"),
        unit={"latency": "us", "bandwidth": "MB/s"},
        csv="results/ablation_segment_size.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong if s == "latency" else measure_bandwidth,
            "bc-spup", {"segment_size": x},
        ),
    ),
    # the paper fixes a 100-message window; shallower ones show where the
    # pre-registered pools start falling back to dynamic buffers
    "window": Sweep(
        title="Ablation: bandwidth vs window depth (256 KB messages)",
        xs=(1, 2, 4, 8, 16, 32, 100), axis="window",
        layout=lambda x: column_vector(512),
        series=_names("bc-spup", "multi-w"), unit="MB/s",
        csv="results/ablation_window.csv",
        config=lambda s, x, e: _cfg(
            measure_bandwidth, s, window=x, warmup_windows=1
        ),
    ),
    # datatype *shapes* at a fixed payload (ref [25])
    "skampi": Sweep(
        title="SKaMPI-style pattern sweep, 256 KB payload (us)",
        xs=PATTERNS, axis="pattern", x_text=_skampi_shape,
        layout=lambda x: Workload.of(f"skampi:{x}", make_pattern(x)),
        series=_names(*PAPER_SCHEMES, "adaptive"), baseline="generic",
        csv="results/skampi.csv", config=_scheme(measure_pingpong, iters=3),
    ),
    # the companion MVAPICH design (Liu et al. [19])
    "eager-rdma": Sweep(
        title="Eager path: channel semantics vs polled RDMA ring (one-way latency)",
        xs=(8, 64, 256, 1024, 4096, 8192, 65536), axis="bytes", layout=_contig,
        series={"channel": "send/recv channel", "ring": "RDMA ring"},
        baseline="send/recv channel", csv="results/eager_rdma.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, "bc-spup", None, {"eager_rdma": s == "ring"}, iters=3
        ),
    ),
    # the abstract's "other domains" claim (PVFS, ref [33]): list-I/O
    # packing vs RDMA gather/scatter; the series key is "<op>-<strategy>"
    "io-strategies": Sweep(
        title="I/O strategies: 1 MB noncontiguous file access (us)",
        xs=(64, 256, 1024, 4096, 16384, 65536), axis="block_bytes",
        x_label="block (B)", layout=_io_layout,
        series={f"{op}-{st}": f"{op} {st}" for op in ("write", "read")
                for st in ("pack", "rdma")},
        baseline="write pack", csv="results/io_strategies.csv",
        config=lambda s, x, e: _cfg(
            measure_io, None, op=s.split("-")[0], strategy=s.split("-")[1]
        ),
    ),
    # the setting the datatype cache was invented in ([14], Section 5.4.2)
    "rma": Sweep(
        title="One-sided put vs two-sided Multi-W send, per strided update (us)",
        xs=(64, 256, 1024, 2048), series={"put": "RMA put", "send": "Multi-W send"},
        baseline="Multi-W send", csv="results/rma_vs_send.csv",
        config=lambda s, x, e: _cfg(
            measure_put if s == "put" else measure_send_stream,
            "bc-spup" if s == "put" else "multi-w",
        ),
    ),
    # does a claim survive other hardware?  Figures 2, 8 and 9 at three
    # column counts on every era
    "presets": Sweep(
        title="Figures 2, 8 and 9 on every cost-model preset",
        xs=(8, 64, 512), series=_names(*_ERA_SERIES),
        unit={s: "MB/s" if s.endswith(":bw") else "us" for s in _ERA_SERIES},
        csv="results/presets.csv", config=_on_preset,
    ),
    # each preset's eager/rendezvous switch: its threshold, half and twice it
    "contig": Sweep(
        title="Contiguous BC-SPUP ping-pong latency (us) around each preset's "
        "eager threshold",
        xs=(2048, 4096, 8192, 16384, 32768), axis="bytes", layout=_contig,
        series=_names(*ERAS), csv="results/contig.csv",
        config=lambda s, x, e: _cfg(
            measure_pingpong, "bc-spup", None, {"cost_model": get_preset(s)}
        ),
    ),
}


def run_sweep(name: str, xs: Optional[tuple] = None):
    """Run row ``name`` over ``xs`` (default: its own grid), print its
    table(s) and write its CSV; returns ``(xs, {series key: Series})``."""
    row = SWEEPS[name]
    xs = list(xs or row.xs)
    values = run_cells(
        [Cell(name, s, x, row.extra) for x in xs for s in row.series]
    )
    out = {
        s: Series(label, [values[Cell(name, s, x, row.extra)] for x in xs])
        for s, label in row.series.items()
    }
    units = (
        row.unit if isinstance(row.unit, dict)
        else dict.fromkeys(row.series, row.unit)
    )
    shown = [row.x_text(x) for x in xs]
    for n, unit in enumerate(dict.fromkeys(units.values())):
        print_table(
            row.title if n == 0 else f"  ... and in {unit}",
            row.x_label or row.axis, shown, [out[s] for s in out if units[s] == unit],
            unit=unit, baseline=row.baseline,
        )
    if row.csv:
        write_csv(row.csv, row.axis, xs, list(out.values()))
    return xs, out
