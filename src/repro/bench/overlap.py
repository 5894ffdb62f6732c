"""Overlap analysis: quantify how much copy time a scheme hides.

Figure 3 of the paper argues BC-SPUP's win comes from overlapping
packing, network communication and unpacking.  :func:`overlap_report`
reads a traced transfer (:func:`repro.bench.runner.traced_oneway`) and
reports, per side, how much of the pack/unpack CPU time coincided with
wire activity — turning the figure's qualitative picture into a measured
number.  ``obs report`` reads its copy / wire / overlap columns here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.world import RunResult

__all__ = ["OverlapReport", "overlap_report"]


@dataclass(frozen=True)
class OverlapReport:
    """Overlap statistics for one transfer."""

    scheme: str
    total_us: float
    #: sender-side pack CPU time and how much of it coincided with wire
    pack_us: float
    pack_overlapped_us: float
    #: receiver-side unpack CPU time and its wire-coincident share
    unpack_us: float
    unpack_overlapped_us: float
    #: total wire (injection) time on the sender
    wire_us: float

    @property
    def pack_hidden_fraction(self) -> float:
        return self.pack_overlapped_us / self.pack_us if self.pack_us else 0.0

    @property
    def unpack_hidden_fraction(self) -> float:
        return self.unpack_overlapped_us / self.unpack_us if self.unpack_us else 0.0

    def describe(self) -> str:
        return (
            f"{self.scheme}: total={self.total_us:.0f}us wire={self.wire_us:.0f}us "
            f"pack={self.pack_us:.0f}us ({self.pack_hidden_fraction:.0%} hidden) "
            f"unpack={self.unpack_us:.0f}us ({self.unpack_hidden_fraction:.0%} hidden)"
        )


def overlap_report(result: RunResult) -> OverlapReport:
    """Overlap statistics of one traced one-way transfer."""
    tracer = result.cluster.tracer
    # wire intervals are recorded on the sender (node 0); the receiver's
    # inbound DMA mirrors them one switch latency later, which is
    # negligible at the granularity of this analysis
    return OverlapReport(
        scheme=result.cluster.scheme_name,
        total_us=result.time_us,
        pack_us=tracer.total_time("pack", node=0)
        + tracer.total_time("user-pack", node=0),
        pack_overlapped_us=tracer.overlap_time(("pack", 0), ("wire", 0)),
        unpack_us=tracer.total_time("unpack", node=1),
        unpack_overlapped_us=tracer.overlap_time(("unpack", 1), ("wire", 0)),
        wire_us=tracer.total_time("wire", node=0),
    )
