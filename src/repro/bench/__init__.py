"""Benchmark harness: workloads, measurement probes, the sweep table.

Every data figure of the paper, every ablation and the SKaMPI pattern
sweep is one row of :data:`repro.bench.sweeps.SWEEPS`, run by
:func:`~repro.bench.sweeps.run_sweep` over the three probes of
:mod:`repro.bench.runner`; what each must show is a row of
:data:`repro.bench.claims.CLAIMS`, asserted on ``results/*.csv`` in
tier-1 and on fresh sweeps by ``benchmarks/``.
"""

from repro.bench.workloads import column_vector, fig10_struct
from repro.bench.runner import (
    measure_alltoall,
    measure_bandwidth,
    measure_pingpong,
)
from repro.bench.sweeps import SWEEPS, run_sweep

__all__ = [
    "SWEEPS",
    "column_vector",
    "fig10_struct",
    "measure_alltoall",
    "measure_bandwidth",
    "measure_pingpong",
    "run_sweep",
]
