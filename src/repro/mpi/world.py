"""Cluster construction and rank-program execution.

:class:`Cluster` assembles the whole simulated machine — fabric, nodes,
per-rank :class:`~repro.mpi.context.RankContext` with connected queue
pairs and pre-posted buffers (the "MPI_Init" work, not charged to
simulated time) — and runs rank programs to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Optional, Sequence

from repro.ib.costmodel import MB, CostModel
from repro.ib.fabric import Fabric
from repro.mpi.context import RankContext
from repro.simulator import MetricsRegistry, SimulationError, Simulator, Tracer

__all__ = ["Cluster", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one :meth:`Cluster.run`."""

    #: per-rank return values of the rank programs
    values: list
    #: simulated end time (us) — clock starts at 0 per run
    time_us: float
    #: the cluster, for stats inspection
    cluster: "Cluster" = None

    def value(self, rank: int = 0):
        return self.values[rank]


class Cluster:
    """An n-rank MPI job on a simulated InfiniBand cluster.

    Parameters
    ----------
    nranks:
        number of MPI processes (one per node, as in the paper's runs).
    cost_model:
        platform timing; defaults to the paper's testbed.
    scheme:
        datatype communication scheme for noncontiguous rendezvous
        messages: ``"generic"``, ``"bc-spup"``, ``"rwg-up"``, ``"p-rrs"``,
        ``"multi-w"`` or ``"adaptive"`` (Section 6).
    scheme_options:
        per-scheme knobs, e.g. ``{"segment_unpack": False}`` for RWG-UP
        (Figure 12), ``{"list_post": False}`` for Multi-W (Figure 13),
        ``{"fresh_buffers": True}`` for Generic (the "DT+reg" case of
        Figure 2).
    reg_cache_bytes:
        pin-down cache budget for *user* buffers; ``0`` disables caching,
        forcing on-the-fly registration/deregistration per operation
        (Figure 14's worst case).
    staging_pools:
        when False, the pre-registered pack/unpack segment pools are
        disabled and the segmenting schemes fall back to dynamic
        allocation + registration per segment (also Figure 14).
    memory_per_rank:
        simulated address-space bytes per node.
    trace:
        hang a :class:`~repro.simulator.trace.Tracer` on the simulator,
        the one simulated-time recorder: interval records (CPU / wire /
        registration spans, for overlap analysis), causal provenance on
        every event and resource / queue-depth samples — the input of
        the critical-path profiler.  Off by default; a traced run's
        simulated timings are identical to an untraced one (recording,
        not behaviour).
    host_profile:
        attach a :class:`repro.obs.hostprof.HostProfiler` to the
        simulator, attributing *wall-clock* nanoseconds per dispatched
        event to the host-category taxonomy (heap ops, dispatch,
        callback bodies by tag category, pack/unpack, observability
        overhead) — see docs/PROFILING.md.  Off by default; host
        profiling measures the host, never the simulation: simulated
        results, traces, and metrics are byte-identical with it on or
        off.
    eager_rdma:
        route eager messages through the polled RDMA ring channel of Liu
        et al. [19] instead of channel-semantics send/receive — lower
        small-message latency (no receive-WQE processing at the
        responder).
    fault_plan:
        a :class:`repro.faults.FaultPlan` describing seeded fault
        injection; defaults to :meth:`FaultPlan.from_env` (the
        ``REPRO_FAULT_PROFILE`` / ``REPRO_FAULT_SEED`` environment
        variables, inert when unset).  An inert plan installs no injector
        and is byte-identical to a fault-free build.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: Optional[CostModel] = None,
        scheme: str = "bc-spup",
        scheme_options: Optional[dict] = None,
        reg_cache_bytes: int = 256 * MB,
        staging_pools: bool = True,
        memory_per_rank: int = 256 * MB,
        trace: bool = False,
        eager_rdma: bool = False,
        fault_plan: Optional[Any] = None,
        host_profile: bool = False,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        from repro.schemes import SCHEME_NAMES

        if scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}")
        self.nranks = nranks
        self.cm = cost_model or CostModel.mellanox_2003()
        self.scheme_name = scheme
        self.scheme_options = dict(scheme_options or {})
        self.reg_cache_bytes = reg_cache_bytes
        self.staging_pools = staging_pools
        self.eager_rdma = eager_rdma
        self.sim = Simulator()
        self.metrics = MetricsRegistry()
        if trace:
            self.sim.tracer = Tracer(metrics=self.metrics)
        #: None unless host profiling was requested — with it off the
        #: simulator's dispatch hook, the tracer, the metrics registry
        #: and the pack/unpack probe slot are all untouched
        self.host_profiler = None
        if host_profile:
            from repro.obs.hostprof import HostProfiler

            # the ns clock is injected here: repro.obs, the simulator
            # and the datatype engine never read the host clock
            self.host_profiler = HostProfiler(clock=perf_counter_ns)
            self.host_profiler.attach(self.sim, self.metrics)
        self.fabric = Fabric(self.sim, self.cm, metrics=self.metrics)
        from repro.faults import FaultInjector, FaultPlan

        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        #: None unless the plan is active — an inert plan installs nothing,
        #: keeping fault-free runs byte-identical to builds without faults
        self.fault_injector = (
            FaultInjector(self.sim, self.fault_plan, self.metrics)
            if self.fault_plan.active
            else None
        )
        self.contexts: list[RankContext] = []
        for r in range(nranks):
            node = self.fabric.add_node(memory_per_rank)
            node.fault_injector = self.fault_injector
            self.contexts.append(RankContext(self, r, node))
        for ctx in self.contexts:
            ctx._setup_network(self.contexts)
        for i in range(nranks):
            for j in range(i + 1, nranks):
                self.contexts[i]._connect(self.contexts[j], self.fabric)
        for ctx in self.contexts:
            ctx._setup_buffers()
        if eager_rdma:
            for ctx in self.contexts:
                ctx._exchange_rings(self.contexts)

    @property
    def tracer(self) -> Optional[Tracer]:
        """The simulator's tracer; None unless built with ``trace=True``."""
        return self.sim.tracer

    # -- scheme selection --------------------------------------------------

    def choose_scheme(self, ctx: RankContext, req) -> Any:
        """The scheme instance handling ``req`` on ``ctx``'s rank.

        For fixed configurations this is the configured scheme; the
        ``adaptive`` scheme decides per message (Section 6).  Contiguous
        rendezvous messages always take the zero-copy path (register user
        buffers, one RDMA write) — the behaviour MVAPICH already has for
        contiguous data regardless of the datatype scheme, and what the
        figures' "Contig" baseline measures.
        """
        if (
            req.nbytes > self.cm.eager_threshold
            and req.cursor.flat.is_contiguous
        ):
            scheme = ctx.get_scheme("multi-w")
        else:
            scheme = ctx.get_scheme(self.scheme_name)
            pick = getattr(scheme, "pick", None)
            if pick is not None:
                scheme = pick(ctx, req)
        if self.fault_injector is not None:
            from repro.schemes.selector import apply_fault_fallback

            scheme = apply_fault_fallback(ctx, req, scheme)
        return scheme

    # -- running ----------------------------------------------------------

    def run(
        self,
        programs: Sequence[Callable] | Callable,
        until: Optional[float] = None,
    ) -> RunResult:
        """Run one program per rank (or the same program on every rank).

        Each program is called as ``program(ctx)`` and must return a
        generator.  Returns after every rank program finishes.
        """
        if callable(programs):
            programs = [programs] * self.nranks
        if len(programs) != self.nranks:
            raise ValueError(
                f"got {len(programs)} programs for {self.nranks} ranks"
            )
        procs = [
            self.sim.process(prog(ctx), name=f"rank{ctx.rank}")
            for prog, ctx in zip(programs, self.contexts)
        ]
        self.sim.run(until=until)
        unfinished = [i for i, p in enumerate(procs) if not p.triggered]
        if unfinished:
            raise SimulationError(
                f"rank programs {unfinished} did not finish "
                "(deadlock: all events drained or `until` reached)"
            )
        return RunResult(
            values=[p.value for p in procs], time_us=self.sim.now, cluster=self
        )

    # -- stats -----------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate counters for reporting."""
        return {
            "time_us": self.sim.now,
            "bytes_injected": [c.node.hca.bytes_injected for c in self.contexts],
            "bytes_delivered": [c.node.hca.bytes_delivered for c in self.contexts],
            "descriptors": [c.node.hca.descriptors_processed for c in self.contexts],
            "reg_cache_hits": [c.reg_cache.hits for c in self.contexts],
            "reg_cache_misses": [c.reg_cache.misses for c in self.contexts],
            "reg_cache_evictions": [c.reg_cache.evictions for c in self.contexts],
            "dt_cache_hits": [c.dt_cache.hits for c in self.contexts],
            "dt_cache_misses": [c.dt_cache.misses for c in self.contexts],
            "dt_cache_evictions": [c.dt_cache.evictions for c in self.contexts],
            "cpu_busy_us": [c.node.cpu.busy_time for c in self.contexts],
        }
