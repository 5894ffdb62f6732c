"""Timing parameters of the simulated machine.

All times are **microseconds**, all sizes **bytes**, all bandwidths
**bytes per microsecond** (1 MB/s = 1.048576 B/us; we quote MB/s in the
constructors for readability).

The default preset, :meth:`CostModel.mellanox_2003`, is calibrated to the
paper's testbed (Section 8.1): dual 2.4 GHz Xeons with a 400 MHz FSB,
Mellanox InfiniHost MT23108 4x HCAs on 133 MHz PCI-X, an InfiniScale
switch, thca-x86-0.2.0 SDK.  Calibration targets:

* large-message contiguous MPI bandwidth ~= 840-870 MB/s,
* small-message contiguous MPI latency ~= 6-7 us,
* host memcpy bandwidth ~= 1.2 GB/s ("comparable to the wire", the
  premise of the paper's Section 1),
* registration ~= tens of us base plus a per-page pinning cost,
* dynamic allocation of MB-scale buffers pays first-touch page faults
  (Ezolt [7], cited in Section 4.2),
* descriptor posting is expensive (~3 us); the Mellanox extended
  "list post" interface amortizes it (Section 7.4, Figure 13),
* at most 64 scatter/gather entries per descriptor (Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict

__all__ = ["CostModel", "MB", "PRESETS", "get_preset"]

#: bytes in the paper's megabyte (2**20, Section 8 footnote)
MB = 1024 * 1024


def _mbps(x: float) -> float:
    """Convert MB/s (2**20 bytes) to bytes/us."""
    return x * MB / 1e6


@dataclass(frozen=True)
class CostModel:
    """Every tunable of the simulated platform.

    Instances are immutable; derive variants with :meth:`with_overrides`.
    """

    # -- wire / HCA ------------------------------------------------------
    #: sustained wire bandwidth out of one HCA port (bytes/us)
    wire_bandwidth: float = _mbps(870.0)
    #: one-way propagation + switch latency (us)
    wire_latency: float = 1.3
    #: HCA work-request processing overhead per descriptor (us); paid on
    #: the send engine before injection
    hca_startup: float = 1.6
    #: extra HCA cost per scatter/gather entry beyond the first (us)
    hca_per_sge: float = 0.15
    #: one-way extra latency of an RDMA read (request traversal + responder
    #: scheduling); reads are slower than writes (Section 5.2, [31])
    rdma_read_extra: float = 6.0
    #: sustained RDMA read bandwidth (bytes/us).  On the InfiniHost
    #: MT23108, read throughput trailed write throughput badly (limited
    #: outstanding reads, responder scheduling) — the second reason the
    #: paper gives for preferring RWG-UP over P-RRS (Section 5.2).
    rdma_read_bandwidth: float = _mbps(500.0)
    #: delay between last byte delivered and CQE visibility (us)
    cqe_delay: float = 0.4
    #: extra responder-side delay of channel semantics: the receiving HCA
    #: must fetch and consume a receive WQE for a SEND, which one-sided
    #: RDMA avoids — the latency gap exploited by the RDMA-based eager
    #: channel of Liu et al. [19]
    channel_recv_overhead: float = 1.2
    #: detection delay of a polled RDMA-eager arrival (the receiver's
    #: progress engine polls the slot's tail flag)
    eager_rdma_poll: float = 0.4

    # -- CPU -------------------------------------------------------------
    #: host memory copy bandwidth with an idle memory bus (bytes/us).
    #: Effective memcpy on the dual-Xeon/PC2100 testbed, not STREAM peak.
    copy_bandwidth: float = _mbps(700.0)
    #: memory-bus contention: while ``n`` HCA DMA streams touch a node's
    #: memory, CPU copies on that node slow by a factor
    #: ``1 + membus_contention * n``.  This is why segment pipelining
    #: cannot fully hide copies (BC-SPUP/RWG-UP land at 1.5-1.8x, Figures
    #: 8-9) while zero-copy Multi-W rides the full wire rate.
    membus_contention: float = 0.85
    #: per-byte slowdown of a *deferred* whole-message unpack relative to
    #: per-segment unpack (Figure 12).  Physical origin on the testbed:
    #: segment unpack cycles a small set of 128 KB staging buffers whose
    #: working set fits the Xeon's 512 KB L2, while whole-message unpack
    #: streams the entire multi-megabyte staging + user extent through the
    #: cache with no reuse.  Calibrated to the paper's measured ~1.3x
    #: bandwidth effect; this is the one number in the model injected from
    #: the paper's measurement rather than emerging from simulation
    #: structure (documented in EXPERIMENTS.md).
    deferred_unpack_penalty: float = 1.3
    #: fixed overhead per copy call (us)
    copy_startup: float = 0.25
    #: datatype-engine cost per contiguous block visited (us)
    dt_per_block: float = 0.06
    #: fixed cost of one datatype pack/unpack invocation (us)
    dt_startup: float = 0.3
    #: CPU cost to post one descriptor with the standard interface (us)
    post_descriptor: float = 3.0
    #: CPU cost of the first descriptor in a list post (us)
    post_list_first: float = 3.0
    #: CPU cost per additional descriptor in a list post (us)
    post_list_extra: float = 0.45
    #: CPU cost to reap one completion from a CQ (us)
    poll_cq: float = 0.5
    #: CPU cost to build/parse one protocol control message (us)
    control_overhead: float = 0.6

    # -- memory management -------------------------------------------------
    page_size: int = 4096
    #: malloc/free fixed costs (us)
    malloc_base: float = 6.0
    free_base: float = 4.0
    #: first-touch page-fault cost per page of a *fresh* allocation (us);
    #: paid when a dynamically allocated pack/unpack buffer is first used
    page_fault: float = 1.0
    #: registration: base + per-page pin cost (us)
    reg_base: float = 22.0
    reg_per_page: float = 0.55
    #: deregistration: base + per-page unpin cost (us)
    dereg_base: float = 15.0
    dereg_per_page: float = 0.25

    # -- reliability / recovery ------------------------------------------
    #: transport retry budget for a send descriptor that completes in
    #: error (IB ``retry_cnt``); exhaustion drops the QP to SQE
    retry_cnt: int = 7
    #: retry budget for receiver-not-ready NAKs (IB ``rnr_retry_cnt``)
    rnr_retry_cnt: int = 7
    #: responder-requested delay before an RNR retry (IB ``rnr_timer``)
    rnr_timer_us: float = 12.0
    #: base delay of the exponential backoff between transport retries
    retry_backoff_us: float = 8.0
    #: cap on the exponential transport-retry backoff
    retry_backoff_max_us: float = 256.0
    #: time to cycle a QP out of SQE/ERR back to RTS (modify-QP sequence,
    #: drain + re-arm)
    qp_recovery_us: float = 400.0
    #: QP recoveries tolerated per descriptor before the simulation gives
    #: up (guards against unlucky infinite loops at extreme fault rates)
    qp_max_recoveries: int = 8
    #: rendezvous handshake timeout before the sender retransmits the
    #: start (or the receiver-side reply is re-requested)
    rndv_timeout_us: float = 4000.0
    #: retransmission budget of the rendezvous handshake
    rndv_retry_limit: int = 8
    #: attempts tolerated for one memory registration before giving up
    reg_retry_limit: int = 64
    #: hard QP failures against one peer before the scheme selector falls
    #: back to the copy-based Generic path for that peer
    fallback_hard_failures: int = 2
    #: how long the fallback to Generic persists after the last hard
    #: failure (us)
    fallback_cooldown_us: float = 50_000.0

    # -- limits / protocol knobs -----------------------------------------
    #: max scatter/gather entries per descriptor (Mellanox SDK limit)
    max_sge: int = 64
    #: eager/rendezvous switchover for contiguous payload size (bytes)
    eager_threshold: int = 8 * 1024
    #: segment size used by the segmenting schemes (bytes, Section 7.2)
    segment_size: int = 128 * 1024
    #: message size above which a message is split into >= 2 segments
    min_segmented: int = 16 * 1024
    #: pre-registered pack/unpack pool per process (bytes, Section 7.2)
    pool_size: int = 20 * MB

    # -- factory presets ---------------------------------------------------

    @classmethod
    def mellanox_2003(cls) -> "CostModel":
        """The paper's testbed (defaults)."""
        return cls()

    @classmethod
    def fast_network(cls) -> "CostModel":
        """A what-if preset: wire much faster than memcpy (copies dominate
        even more).  Used by ablation benchmarks."""
        return cls(wire_bandwidth=_mbps(3000.0), wire_latency=0.8)

    @classmethod
    def slow_network(cls) -> "CostModel":
        """A what-if preset: wire much slower than memcpy (copies nearly
        free relative to the wire; pack/unpack schemes look better)."""
        return cls(wire_bandwidth=_mbps(120.0), wire_latency=8.0)

    @classmethod
    def hdr_ib_2020(cls) -> "CostModel":
        """HDR InfiniBand, circa 2020 (ConnectX-6 on PCIe 4.0 x16).

        Provenance: 200 Gb/s HDR sustains ~24 GB/s of payload after
        encoding/headers; end-to-end MPI latency ~1 us with ~0.6 us of
        that in switch+prop; one CPU core streams ~11 GB/s out of
        six-channel DDR4 — so the wire is now ~2x *faster* than a single
        packing core, inverting the paper's "memcpy comparable to wire"
        premise.  Doorbell-based descriptor posting is sub-microsecond;
        mlx5 caps gather lists at 30 SGEs; MVAPICH2/UCX-era rendezvous
        thresholds sit at 16 KB.  Registration still costs microseconds
        (MTT update) plus a per-page pin term — the pin-down-cache story
        survives the hardware generation.
        """
        return cls(
            wire_bandwidth=_mbps(23500.0),
            wire_latency=0.6,
            hca_startup=0.35,
            hca_per_sge=0.05,
            rdma_read_extra=1.2,
            rdma_read_bandwidth=_mbps(22000.0),
            cqe_delay=0.15,
            channel_recv_overhead=0.35,
            eager_rdma_poll=0.15,
            copy_bandwidth=_mbps(11000.0),
            membus_contention=0.18,
            deferred_unpack_penalty=1.12,
            copy_startup=0.08,
            dt_per_block=0.02,
            dt_startup=0.12,
            post_descriptor=0.25,
            post_list_first=0.25,
            post_list_extra=0.08,
            poll_cq=0.12,
            control_overhead=0.2,
            malloc_base=1.5,
            free_base=1.0,
            page_fault=0.4,
            reg_base=3.5,
            reg_per_page=0.22,
            dereg_base=2.5,
            dereg_per_page=0.1,
            max_sge=30,
            eager_threshold=16 * 1024,
            segment_size=512 * 1024,
            min_segmented=64 * 1024,
            pool_size=64 * MB,
        )

    @classmethod
    def ndr_ib_2023(cls) -> "CostModel":
        """NDR InfiniBand, circa 2023 (ConnectX-7 on PCIe 5.0 x16).

        Provenance: 400 Gb/s NDR delivers ~46 GB/s payload; switch hops
        are ~0.13 us (Quantum-2) for ~0.5 us one-way; DDR5 lifts a
        single core's streaming copy to ~13 GB/s, widening the
        wire-vs-memcpy gap to ~3.5x — copy-based schemes fall further
        behind zero-copy than on any earlier substrate.  Descriptor and
        completion costs shrink again.  The eager threshold stays at
        16 KB: an earlier 32 KB draft of this preset broke the
        eager/rendezvous guideline (rendezvous beat eager at 64 KB — a
        latency inversion across the protocol switch), mirroring how
        production UCX tunings pushed thresholds *down* as wire rates
        outgrew memcpy rates.
        """
        return cls(
            wire_bandwidth=_mbps(46000.0),
            wire_latency=0.5,
            hca_startup=0.3,
            hca_per_sge=0.04,
            rdma_read_extra=1.0,
            rdma_read_bandwidth=_mbps(44000.0),
            cqe_delay=0.12,
            channel_recv_overhead=0.3,
            eager_rdma_poll=0.12,
            copy_bandwidth=_mbps(13000.0),
            membus_contention=0.12,
            deferred_unpack_penalty=1.1,
            copy_startup=0.07,
            dt_per_block=0.018,
            dt_startup=0.1,
            post_descriptor=0.2,
            post_list_first=0.2,
            post_list_extra=0.06,
            poll_cq=0.1,
            control_overhead=0.18,
            malloc_base=1.2,
            free_base=0.8,
            page_fault=0.35,
            reg_base=3.0,
            reg_per_page=0.2,
            dereg_base=2.0,
            dereg_per_page=0.09,
            max_sge=30,
            eager_threshold=16 * 1024,
            segment_size=512 * 1024,
            min_segmented=64 * 1024,
            pool_size=128 * MB,
        )

    @classmethod
    def shared_memory_node(cls) -> "CostModel":
        """Intra-node transport over shared memory (CMA/XPMEM style).

        Provenance: Adefemi Adeyemo's 2024 study re-asks the paper's
        question inside one node, where the "wire" *is* a memory copy:
        a single-copy cross-process transfer (process_vm_readv / XPMEM
        attach) moves ~8.5 GB/s with ~0.15 us handoff latency, reads
        and writes are symmetric, and "registration" is a cheap page
        mapping, not an HCA pin.  What survives is memory-bus
        contention: sender copy, receiver copy and the transfer itself
        all share one socket's bandwidth, so pipelined copy schemes
        stall on the same resource they try to hide.
        """
        return cls(
            wire_bandwidth=_mbps(8500.0),
            wire_latency=0.15,
            hca_startup=0.08,
            hca_per_sge=0.01,
            rdma_read_extra=0.1,
            rdma_read_bandwidth=_mbps(8500.0),
            cqe_delay=0.02,
            channel_recv_overhead=0.1,
            eager_rdma_poll=0.05,
            copy_bandwidth=_mbps(9500.0),
            membus_contention=0.6,
            deferred_unpack_penalty=1.2,
            copy_startup=0.05,
            dt_per_block=0.015,
            dt_startup=0.08,
            post_descriptor=0.12,
            post_list_first=0.12,
            post_list_extra=0.04,
            poll_cq=0.05,
            control_overhead=0.08,
            malloc_base=1.0,
            free_base=0.7,
            page_fault=0.3,
            reg_base=0.9,
            reg_per_page=0.04,
            dereg_base=0.6,
            dereg_per_page=0.02,
            eager_threshold=4 * 1024,
            segment_size=64 * 1024,
            min_segmented=16 * 1024,
            pool_size=32 * MB,
        )

    @classmethod
    def gpu_kernel_pack(cls) -> "CostModel":
        """GPU-resident datatypes packed by device kernels (TEMPI style).

        Provenance: TEMPI (Pearson et al., ICPP'21) canonicalizes MPI
        derived datatypes and packs them with CUDA kernels before
        GPUDirect transfers.  The regime is inverted twice: HBM pack
        throughput (~500 GB/s) makes per-byte copy costs nearly free
        and bus contention negligible, but every pack *invocation*
        pays a ~10 us kernel-launch + argument-marshalling latency.
        The launch cost lives in ``dt_startup`` (charged once per
        pack/unpack call, however many blocks it covers — TEMPI's
        one-kernel-packs-all design), NOT in the per-block
        ``copy_startup``, which models the near-free per-block work of
        a device thread block.  Small or fragmented messages are
        therefore launch-bound, not byte-bound.  Registration means
        pinning GPU BAR space for the NIC (nv_peer_mem) — the most
        expensive registration of any preset — and the wire is HDR
        with a GPUDirect PCIe detour.
        """
        return cls(
            wire_bandwidth=_mbps(23500.0),
            wire_latency=0.9,
            hca_startup=0.4,
            hca_per_sge=0.05,
            rdma_read_extra=1.5,
            rdma_read_bandwidth=_mbps(20000.0),
            cqe_delay=0.2,
            channel_recv_overhead=0.5,
            eager_rdma_poll=0.2,
            copy_bandwidth=_mbps(500000.0),
            membus_contention=0.05,
            deferred_unpack_penalty=1.02,
            copy_startup=0.05,
            dt_per_block=0.0008,
            dt_startup=10.0,
            post_descriptor=0.3,
            post_list_first=0.3,
            post_list_extra=0.1,
            poll_cq=0.15,
            control_overhead=0.3,
            malloc_base=25.0,
            free_base=15.0,
            page_fault=0.2,
            reg_base=90.0,
            reg_per_page=0.3,
            dereg_base=40.0,
            dereg_per_page=0.15,
            max_sge=30,
            eager_threshold=8 * 1024,
            segment_size=MB,
            min_segmented=128 * 1024,
            pool_size=128 * MB,
        )

    def with_overrides(self, **kwargs: Any) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- derived helpers ---------------------------------------------------

    def pages(self, nbytes: int, addr: int = 0) -> int:
        """Number of pages spanned by [addr, addr+nbytes)."""
        if nbytes <= 0:
            return 0
        first = addr // self.page_size
        last = (addr + nbytes - 1) // self.page_size
        return last - first + 1

    def copy_time(self, nbytes: int) -> float:
        """CPU time to memcpy ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.copy_startup + nbytes / self.copy_bandwidth

    def pack_time(self, nbytes: int, nblocks: int) -> float:
        """CPU time to pack/unpack ``nbytes`` spread over ``nblocks``
        contiguous blocks (datatype engine + copies)."""
        if nbytes <= 0 and nblocks <= 0:
            return 0.0
        return (
            self.dt_startup
            + nblocks * (self.dt_per_block + self.copy_startup)
            + nbytes / self.copy_bandwidth
        )

    def wire_time(self, nbytes: int) -> float:
        """HCA injection time for the payload of one descriptor."""
        return nbytes / self.wire_bandwidth

    def descriptor_time(self, nbytes: int, nsge: int = 1) -> float:
        """HCA send-engine occupancy for one descriptor."""
        return (
            self.hca_startup
            + max(0, nsge - 1) * self.hca_per_sge
            + self.wire_time(nbytes)
        )

    def post_time(self, ndesc: int, list_post: bool = False) -> float:
        """CPU time to post ``ndesc`` descriptors."""
        if ndesc <= 0:
            return 0.0
        if list_post:
            return self.post_list_first + (ndesc - 1) * self.post_list_extra
        return ndesc * self.post_descriptor

    def malloc_time(self, nbytes: int) -> float:
        """Dynamic allocation including first-touch page faults."""
        return self.malloc_base + self.pages(nbytes) * self.page_fault

    def free_time(self, nbytes: int) -> float:
        return self.free_base

    def reg_time(self, nbytes: int, addr: int = 0) -> float:
        """Memory registration (pinning) time for one region."""
        return self.reg_base + self.pages(nbytes, addr) * self.reg_per_page

    def dereg_time(self, nbytes: int, addr: int = 0) -> float:
        return self.dereg_base + self.pages(nbytes, addr) * self.dereg_per_page

    def retry_backoff(self, attempt: int) -> float:
        """Exponential-backoff delay before transport retry ``attempt``
        (0-based), capped at :attr:`retry_backoff_max_us`."""
        return min(self.retry_backoff_us * (2.0**attempt), self.retry_backoff_max_us)

    def segment_size_for(self, message_size: int) -> int:
        """The paper's static segment-size rule (Section 7.2).

        >= 1 MB messages use the maximum 128 KB segment; messages of at
        least ``min_segmented`` are split into at least two segments;
        smaller messages go as one segment.
        """
        if message_size >= MB:
            return self.segment_size
        if message_size >= self.min_segmented:
            # at least two segments, rounded up to a whole number of
            # segments, capped at the maximum supported segment size
            nseg = max(2, math.ceil(message_size / self.segment_size))
            return math.ceil(message_size / nseg)
        return message_size


# ----------------------------------------------------------------------
# preset registry
# ----------------------------------------------------------------------

#: name -> zero-argument factory; sweep cells carry a preset by name
#: (``repro.bench.sweeps``'s ``presets`` and ``contig`` rows), and worker
#: processes resolve the same names independently, so entries must be
#: buildable from the bare module
PRESETS: Dict[str, Callable[[], "CostModel"]] = {
    "mellanox_2003": CostModel.mellanox_2003,
    "fast_network": CostModel.fast_network,
    "slow_network": CostModel.slow_network,
    "hdr_ib_2020": CostModel.hdr_ib_2020,
    "ndr_ib_2023": CostModel.ndr_ib_2023,
    "shared_memory_node": CostModel.shared_memory_node,
    "gpu_kernel_pack": CostModel.gpu_kernel_pack,
}


def get_preset(name: str) -> "CostModel":
    """Instantiate a preset by name.

    Raises :class:`KeyError` naming the available presets, so CLI users
    get an actionable message instead of a bare miss.
    """
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown cost-model preset {name!r}; "
            f"choose from {', '.join(PRESETS)}"
        ) from None
    return factory()
