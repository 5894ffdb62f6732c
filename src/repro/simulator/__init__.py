"""Discrete-event simulation kernel.

This subpackage is the substrate everything else runs on.  It provides a
small, deterministic, generator-coroutine event engine in the style of
SimPy: simulated processes are Python generators that ``yield`` events
(timeouts, resource grants, signals, other processes) and are resumed by
the :class:`~repro.simulator.engine.Simulator` when those events trigger.

Time is a floating-point number of **microseconds**; all cost models in
:mod:`repro.ib.costmodel` are expressed in the same unit.

The engine is deterministic: events scheduled for the same timestamp fire
in scheduling order (a monotonically increasing sequence number breaks
ties), so every simulation run is exactly reproducible.
"""

from repro.simulator.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulator.metrics import MetricsRegistry
from repro.simulator.resources import Resource, Signal, Store
from repro.simulator.trace import Span, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "MetricsRegistry",
    "Process",
    "Resource",
    "Signal",
    "SimulationError",
    "Simulator",
    "Span",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
