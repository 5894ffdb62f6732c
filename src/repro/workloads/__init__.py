"""Workload IR: communication programs as data.

The package turns the repo's benchmark patterns into *data*: a small
typed IR for n-rank communication programs (:mod:`repro.workloads.ir`),
a validator with rank/op-indexed errors
(:mod:`repro.workloads.validate`), an interpreter that lowers IR onto
``repro.mpi`` and returns digests + simulated timings
(:mod:`repro.workloads.replay`), a recorder that captures traces from
live API use (:mod:`repro.workloads.record`), and a Hypothesis grammar
over the IR (:mod:`repro.workloads.fuzz`).

Quick tour::

    from repro.workloads import parse, replay, to_json
    from repro.workloads.patterns import record_pattern

    rec = record_pattern("halo_exchange_2d")     # live run -> trace
    text = to_json(rec.workload)                 # byte-stable JSON
    res = replay(parse(text), scheme="multi-w")  # same trace, new scheme

CLI: ``python -m repro.workloads {list,validate,replay,record,fuzz}``.
"""

from repro.workloads.ir import (
    Workload,
    WorkloadError,
    parse,
    to_json,
)
from repro.workloads.replay import ReplayResult, replay
from repro.workloads.validate import validate

__all__ = [
    "ReplayResult",
    "Workload",
    "WorkloadError",
    "parse",
    "replay",
    "to_json",
    "validate",
]
