"""The paper's benchmark workloads.

* :func:`column_vector` — the Section 3.2 motivating example: ``x``
  columns of a 128 x 4096 integer array,
  ``MPI_Type_vector(128, x, 4096, MPI_INT)``.
* :func:`fig10_struct` — the Figure 10 struct datatype used in the
  MPI_Alltoall test (Section 8.3): block sizes grow exponentially from
  one integer up to ``last_block_ints`` integers, and "the gap between
  two blocks equals the size of the first [of the two] block[s]".

:func:`workload_for` reads which of them a sweep row transfers for the
probes that are given a message size instead of a coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes import INT, Datatype, hindexed, struct, vector

__all__ = [
    "PROBE_FIGURES",
    "Workload",
    "bimodal",
    "column_vector",
    "fig10_struct",
    "workload_for",
]

#: the paper's array shape (Section 3.2)
ROWS = 128
ROW_LEN = 4096

#: figures whose datatype the single-transfer probes (``obs report`` /
#: ``profile`` / ``hostprof``) can be pointed at
PROBE_FIGURES = ("fig02", "fig08", "fig09", "fig11")


@dataclass(frozen=True)
class Workload:
    """A datatype plus the descriptive numbers the reports print."""

    name: str
    datatype: Datatype
    #: bytes of real data per element
    nbytes: int
    #: number of contiguous blocks per element
    nblocks: int
    #: size of a typical block in bytes
    block_bytes: float

    @classmethod
    def of(cls, name: str, dt: Datatype) -> "Workload":
        flat = dt.flatten(1)
        return cls(name, dt, dt.size, flat.nblocks, flat.mean_block)


def column_vector(cols: int, rows: int = ROWS, row_len: int = ROW_LEN) -> Workload:
    """``cols`` columns of a ``rows x row_len`` int array."""
    if not 1 <= cols <= row_len:
        raise ValueError(f"cols must be in [1, {row_len}]")
    return Workload.of(
        f"vector[{rows}x{cols} of {row_len}]", vector(rows, cols, row_len, INT)
    )


def fig10_struct(last_block_ints: int) -> Workload:
    """The Figure 10 struct: blocks of 1, 2, 4, ..., ``last_block_ints``
    integers, each followed by a gap of its own size."""
    if last_block_ints < 1 or last_block_ints & (last_block_ints - 1):
        raise ValueError("last_block_ints must be a power of two")
    lengths, disps, pos = [], [], 0
    n = 1
    while n <= last_block_ints:
        lengths.append(n)
        disps.append(pos * 4)
        pos += 2 * n  # block plus an equal-sized gap
        n *= 2
    return Workload.of(
        f"struct[1..{last_block_ints} ints]",
        struct(lengths, disps, [INT] * len(lengths)),
    )


def bimodal(tiny: int, huge: int = 6) -> Workload:
    """``tiny`` 64-byte blocks plus ``huge`` 128 KB blocks — the layout
    where per-piece scheme selection pays (the ``hybrid`` row)."""
    # 16-int blocks 16 B apart, then from the next page 32768-int blocks
    # 4 KB apart
    base = (tiny * 80 + 4095) // 4096 * 4096
    disps = [i * 80 for i in range(tiny)]
    disps += [base + j * (32768 * 4 + 4096) for j in range(huge)]
    return Workload.of(
        f"bimodal[{tiny}x64B + {huge}x128KB]",
        hindexed([16] * tiny + [32768] * huge, disps, INT),
    )


def workload_for(figure: str, nbytes: int) -> Workload:
    """Map a figure name + target message size to a Workload.

    ``fig02``/``fig08``/``fig09`` use the column-vector datatype (the
    message is ``512 * cols`` bytes); ``fig11`` uses the Figure 10 struct
    (smallest power-of-two last block reaching ``nbytes``).  The layout
    is the row's ``layout`` column of :data:`repro.bench.sweeps.SWEEPS`
    at that coordinate.
    """
    from repro.bench.sweeps import SWEEPS

    if figure not in PROBE_FIGURES:
        raise ValueError(
            f"unknown workload {figure!r}; choose fig02, fig08, fig09 or fig11"
        )
    if figure == "fig11":
        x = 1
        while fig10_struct(x).nbytes < nbytes and x < 1 << 20:
            x *= 2
    else:
        x = max(1, nbytes // (ROWS * INT.size))
    return SWEEPS[figure].layout(x)
