"""Host profiling measures the host, never the simulation.

With ``host_profile=False`` (the default) a cluster must carry none of
the profiler plumbing — unwrapped tracer and metrics registry, the
simulator's own ``run`` and an empty ``dispatch_hook`` — and a profiled
run must produce byte-identical simulated results, metrics, and traces
to an unprofiled one.
"""

from dataclasses import asdict

import pytest

from repro.ib.costmodel import MB
from repro.mpi.world import Cluster


def column_dt(cols=64):
    from repro.bench.workloads import column_vector

    return column_vector(cols).datatype


def transfer(host_profile, trace=False):
    dt = column_dt()
    cluster = Cluster(
        2, scheme="bc-spup", memory_per_rank=512 * MB, trace=trace,
        host_profile=host_profile,
    )
    span = dt.flatten(1).span + abs(dt.lb) + 64

    def rank0(mpi):
        buf = mpi.alloc(span)
        for i in range(3):
            yield from mpi.send(buf, dt, 1, dest=1, tag=i)
        return mpi.now

    def rank1(mpi):
        buf = mpi.alloc(span)
        for i in range(3):
            yield from mpi.recv(buf, dt, 1, source=0, tag=i)
        return mpi.now

    result = cluster.run([rank0, rank1])
    return cluster, result


def trace_records(cluster):
    return [asdict(r) for r in cluster.tracer.records]


class TestOffMeansOff:
    def test_no_profiler_plumbing_by_default(self):
        cluster = Cluster(2, memory_per_rank=64 * MB, trace=True)
        assert cluster.host_profiler is None
        assert cluster.sim.dispatch_hook is None
        # nothing shadows the classes' own methods
        assert "run" not in vars(cluster.sim)
        assert not {"counter", "gauge", "histogram"} & set(vars(cluster.metrics))
        assert not {"begin", "_finish_span", "record"} & set(vars(cluster.tracer))

    def test_untraced_cluster_holds_no_instrument(self):
        # off is the absence of a tracer, not a disabled one: the
        # simulator holds None and nothing below it holds a tracer at all
        cluster = Cluster(2, memory_per_rank=64 * MB)
        assert cluster.sim.tracer is None and cluster.tracer is None
        holders = [cluster.fabric]
        for ctx in cluster.contexts:
            holders += [ctx, ctx.node, ctx.node.hca]
        for holder in holders:
            assert not hasattr(holder, "tracer"), type(holder).__name__

    def test_active_global_cleared_after_run(self):
        # the process-wide pieces of the seam — the pack probe slot and
        # the simulator's dispatch hook — are live only inside run()
        from repro.datatypes import pack

        cluster, _result = transfer(host_profile=True)
        assert pack.probe is None
        assert cluster.sim.dispatch_hook is None


class TestByteIdentity:
    def test_simulated_results_identical(self):
        # timing every dispatch changes no simulated time and no event
        c_off, r_off = transfer(host_profile=False)
        c_on, r_on = transfer(host_profile=True)
        assert r_on.time_us == r_off.time_us
        assert r_on.values == r_off.values
        assert c_on.sim.events_processed == c_off.sim.events_processed
        assert c_on.host_profiler.events == c_on.sim.events_processed

    def test_metrics_identical(self):
        c_off, _ = transfer(host_profile=False)
        c_on, _ = transfer(host_profile=True)
        assert c_on.metrics.snapshot() == c_off.metrics.snapshot()

    def test_traces_identical(self):
        c_off, _ = transfer(host_profile=False, trace=True)
        c_on, _ = transfer(host_profile=True, trace=True)
        assert trace_records(c_on) == trace_records(c_off)

    def test_stats_identical(self):
        c_off, _ = transfer(host_profile=False)
        c_on, _ = transfer(host_profile=True)
        assert c_on.stats() == c_off.stats()

    def test_identical_when_run_stops_mid_transfer(self):
        # run(until=...) cut short inside a rendezvous, then resumed:
        # the until-branch of the one run loop, hook on vs off
        def staged(host_profile):
            dt = column_dt()
            cluster = Cluster(
                2, scheme="bc-spup", memory_per_rank=512 * MB, trace=True,
                host_profile=host_profile,
            )
            span = dt.flatten(1).span + abs(dt.lb) + 64

            def rank0(mpi):
                yield from mpi.send(mpi.alloc(span), dt, 1, dest=1, tag=0)

            def rank1(mpi):
                yield from mpi.recv(mpi.alloc(span), dt, 1, source=0, tag=0)

            for prog, ctx in zip((rank0, rank1), cluster.contexts):
                cluster.sim.process(prog(ctx))
            sim = cluster.sim
            marks = [(sim.run(until=20.0), sim.events_processed, len(sim._heap))]
            marks.append((sim.run(), sim.events_processed, len(sim._heap)))
            return cluster, marks

        c_off, marks_off = staged(False)
        c_on, marks_on = staged(True)
        assert marks_off[0][0] == 20.0 and marks_off[0][2] > 0  # mid-transfer
        assert marks_off[1][0] > 20.0 and marks_off[1][2] == 0
        assert marks_on == marks_off
        assert c_on.metrics.snapshot() == c_off.metrics.snapshot()
        assert trace_records(c_on) == trace_records(c_off)
        hp = c_on.host_profiler
        assert hp.runs == 2
        assert hp.events == c_on.sim.events_processed
        assert hp.closure() >= 0.95

    def test_exact_duty_also_identical(self):
        # the CLI's path, timing every dispatch, must not change
        # simulation either
        _c_off, r_off = transfer(host_profile=False)
        dt = column_dt()
        from repro.obs.hostprof import hostprof_transfer

        cluster = hostprof_transfer("bc-spup", dt, iters=3).cluster
        hp = cluster.host_profiler
        # same program shape as transfer(): 3 sends of the same datatype
        assert cluster.sim.now == r_off.time_us
        assert hp.events == cluster.sim.events_processed


class TestObserversCountNoEvents:
    """Since PR 22 the HCA decides, per descriptor, whether an event is
    scheduled at all (the send engine's backlog, a folded RDMA write) —
    a decision no observer may take part in.  A Multi-W list-post cell and
    the ``one_sided_halo`` RMA puts dispatch the same events, record the
    same trace and show the same send-queue depth whatever else watches.
    Since PR 23 a run of descriptors is one event whose members retire
    when somebody looks — the ``single_post`` cell posts one descriptor at
    a time behind a busy engine, so enqueues land in the middle of runs.
    """

    OBSERVERS = ("trace", "host_profile")

    @staticmethod
    def multi_w(cols=64, scheme_options=None, **observers):
        dt = column_dt(cols)
        cluster = Cluster(
            2, scheme="multi-w", scheme_options=scheme_options,
            memory_per_rank=512 * MB, **observers,
        )
        span = dt.flatten(1).span + abs(dt.lb) + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            for i in range(2):
                yield from mpi.send(buf, dt, 1, dest=1, tag=i)

        def rank1(mpi):
            buf = mpi.alloc(span)
            for i in range(2):
                yield from mpi.recv(buf, dt, 1, source=0, tag=i)

        cluster.run([rank0, rank1])
        return cluster

    @classmethod
    def single_post(cls, **observers):
        # hostbench's ``multi-w+single_post/cols512`` shape
        return cls.multi_w(512, {"list_post": False}, **observers)

    @staticmethod
    def halo_puts(**observers):
        from repro.workloads import patterns

        cluster = Cluster(
            patterns.OS_PX * patterns.OS_PY, scheme="multi-w",
            memory_per_rank=64 * MB, **observers,
        )
        cluster.run(patterns.one_sided_halo)
        return cluster

    @pytest.fixture(params=["multi_w", "single_post", "halo_puts"])
    def cell(self, request, monkeypatch):
        from repro.workloads import patterns

        # the pattern at a 48 x 48 tile: same puts, fences and target
        # datatypes, a twentieth of the descriptors
        monkeypatch.setattr(patterns, "OS_LOCAL", 48)
        return getattr(self, request.param)

    def test_events_processed(self, cell):
        plain = cell().sim.events_processed
        for name in self.OBSERVERS:
            assert cell(**{name: True}).sim.events_processed == plain, name
        everything = dict.fromkeys(self.OBSERVERS, True)
        assert cell(**everything).sim.events_processed == plain

    def test_trace_records(self, cell):
        alone = trace_records(cell(trace=True))
        assert alone
        assert trace_records(cell(trace=True, host_profile=True)) == alone

    @pytest.mark.faultfree  # an enabled fault plan keeps every run one long
    def test_single_posts_arrive_while_runs_are_in_flight(self, monkeypatch):
        # the cell is what it is here for: enqueues find unretired members
        from repro.ib.hca import HCA

        unretired = []
        enqueue = HCA.enqueue_send

        def spy(hca, qp, wr):
            unretired.append(len(hca._run))
            enqueue(hca, qp, wr)

        monkeypatch.setattr(HCA, "enqueue_send", spy)
        self.single_post()
        assert max(unretired) > 1

    def test_send_queue_depth_series(self, cell):
        def depth(**observers):
            series = cell(trace=True, **observers).tracer.series
            return series[("hca0.sq.depth", 0)]

        alone = depth()
        assert len(alone) > 2 and max(v for _t, v in alone) > 1
        assert depth(host_profile=True) == alone
