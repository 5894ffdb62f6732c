"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

One track (``pid``) per simulated node; within a node, one lane (``tid``)
per trace category, so the pack / wire / unpack / registration pipeline of
a transfer reads directly as the paper's Figure 3 Gantt chart.  Timestamps
are simulated microseconds, which is exactly the unit the trace-event
format expects.

Traced runs additionally carry *counter* tracks (``"ph": "C"``):
resource occupancy and queue-depth time series sampled by the
:class:`~repro.simulator.trace.Tracer` render as per-node area charts under
the span lanes, so a send-queue backlog lines up visually with the wire
spans it delays.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

__all__ = [
    "chrome_trace_events",
    "counter_track_events",
    "export_chrome_trace",
    "export_scheme_trace",
]


def counter_track_events(series: dict) -> list[dict]:
    """Convert sampled time series to Chrome counter events.

    ``series`` maps ``(name, node)`` to a list of ``(t_us, value)``
    samples (see :attr:`repro.simulator.trace.Tracer.series`).  Counters on
    ``node=None`` render under a synthetic cluster-wide pid.
    """
    events: list[dict] = []
    for (name, node), points in sorted(
        series.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
    ):
        pid = -1 if node is None else node
        for t, value in points:
            events.append(
                {
                    "name": name, "ph": "C", "ts": t, "pid": pid,
                    "args": {"value": value},
                }
            )
    return events


def chrome_trace_events(tracer) -> list[dict]:
    """Convert a tracer's records to a JSON-serializable trace-event list.

    Emits ``M`` (metadata) events naming each node's process and each
    category's lane, then one complete (``"ph": "X"``) event per record.
    """
    events: list[dict] = []
    nodes = sorted({r.node for r in tracer.records})
    # lane assignment: categories sorted per node for a stable layout
    lanes: dict = {}
    for node in nodes:
        cats = sorted({r.category for r in tracer.records if r.node == node})
        events.append(
            {
                "name": "process_name", "ph": "M", "pid": node, "tid": 0,
                "args": {"name": f"node{node}"},
            }
        )
        for tid, cat in enumerate(cats, start=1):
            lanes[(node, cat)] = tid
            events.append(
                {
                    "name": "thread_name", "ph": "M", "pid": node, "tid": tid,
                    "args": {"name": cat},
                }
            )
    for rec in tracer.records:
        args = {"span_id": rec.span_id, "parent_id": rec.parent_id}
        if rec.meta is not None:
            args["meta"] = str(rec.meta)
        events.append(
            {
                "name": rec.detail or rec.category,
                "cat": rec.category,
                "ph": "X",
                "ts": rec.start,
                "dur": rec.duration,
                "pid": rec.node,
                "tid": lanes[(rec.node, rec.category)],
                "args": args,
            }
        )
    return events


def export_chrome_trace(
    tracer, path: Optional[str] = None, counters: Optional[Sequence[dict]] = None
) -> str:
    """Serialize the tracer as Chrome trace JSON; optionally write it.

    ``counters`` appends pre-built counter events (see
    :func:`counter_track_events`) after the span events.  Returns the
    JSON text (guaranteed to round-trip through ``json.loads``)."""
    events = chrome_trace_events(tracer)
    if counters:
        events.extend(counters)
    text = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    if path is not None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return text


def export_scheme_trace(
    tracer, prefix: str, scheme: str, nbytes: int, series: Optional[dict] = None
) -> str:
    """Write one scheme's trace where the per-scheme CLIs put it,
    ``<prefix>.<scheme>.<size>.json`` (a ``.json`` already on ``prefix``
    is not doubled), with ``series`` as counter tracks; returns the path."""
    if prefix.endswith(".json"):
        prefix = prefix[:-5]
    path = f"{prefix}.{scheme}.{nbytes}.json"
    export_chrome_trace(tracer, path, counter_track_events(series or {}))
    return path
