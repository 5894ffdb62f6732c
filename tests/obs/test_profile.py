"""Critical-path profiler: walker mechanics, attribution ground truth,
inertness, the bottleneck table and the ``obs profile`` CLI.

The attribution ground-truth tests pin the paper's qualitative claims:
BC-SPUP's critical path is copy-dominated (its defining trade-off —
Section 4), Multi-W's is wire-dominated at large sizes (zero copy pays
off — Section 5.3), and for *every* scheme the per-category attribution
sums to the measured end-to-end latency within 0.1% (exact tiling by
construction; the tolerance absorbs float rounding only).
"""

import pytest

from repro.bench.runner import traced_oneway
from repro.obs.profile import (
    categorize,
    critical_path,
    format_bottlenecks,
    transfer_path,
)
from repro.simulator.metrics import MetricsRegistry
from repro.simulator import Resource, Simulator, Store, Tracer

ALL_SCHEMES = ("generic", "bc-spup", "rwg-up", "p-rrs", "multi-w", "hybrid",
               "adaptive")


def column_workload(cols):
    from repro.bench.workloads import column_vector

    return column_vector(cols)


class TestCategorize:
    def test_known_tags(self):
        assert categorize("pack") == "copy"
        assert categorize("unpack") == "copy"
        assert categorize("wire") == "wire"
        assert categorize("post_send") == "descriptor"
        assert categorize("dtproc") == "descriptor"
        assert categorize("register") == "registration"
        assert categorize("malloc") == "registration"
        assert categorize("ctrl") == "protocol-wait"
        assert categorize("cqe") == "protocol-wait"

    def test_unknown_and_none_fall_to_protocol_wait(self):
        assert categorize(None) == "protocol-wait"
        assert categorize("frobnicate") == "protocol-wait"

    def test_app_copy_heuristics(self):
        assert categorize("fio-pack") == "copy"
        assert categorize("rma-local") == "copy"
        assert categorize("reduce-sum") == "copy"


class TestWalker:
    """Walk hand-built event chains through a bare simulator."""

    def _sim(self):
        sim = Simulator()
        sim.tracer = Tracer()
        return sim

    def test_simple_chain_tiles_interval(self):
        sim = self._sim()

        def prog(sim):
            yield sim.timeout(10.0, tag="pack")
            yield sim.timeout(5.0, tag="wire")
            yield sim.timeout(2.0, tag="cqe")

        proc = sim.process(prog(sim))
        sim.run()
        attr = critical_path(proc)
        assert attr.total_us == pytest.approx(17.0)
        assert attr.categories["copy"] == pytest.approx(10.0)
        assert attr.categories["wire"] == pytest.approx(5.0)
        assert attr.categories["protocol-wait"] == pytest.approx(2.0)
        assert attr.unattributed_us == pytest.approx(0.0)
        assert attr.closure_error() < 1e-9

    def test_resource_wait_relabels(self):
        sim = self._sim()
        res = Resource(sim, capacity=1, name="cpu", node=0)

        def holder(sim, res):
            grant = yield res.acquire()
            yield sim.timeout(8.0, tag="pack")
            res.release(grant)

        def waiter(sim, res):
            grant = yield res.acquire()
            yield sim.timeout(1.0, tag="wire")
            res.release(grant)

        sim.process(holder(sim, res))
        proc = sim.process(waiter(sim, res))
        sim.run()
        attr = critical_path(proc)
        # the waiter queued from t=0 to t=8: contention, not the holder's
        # pack work, is what delayed it
        assert attr.categories["resource-wait"] == pytest.approx(8.0)
        assert attr.categories["wire"] == pytest.approx(1.0)
        assert attr.total_us == pytest.approx(9.0)

    def test_store_wait_follows_producer(self):
        sim = self._sim()
        store = Store(sim, name="mailbox", node=0)

        def producer(sim, store):
            yield sim.timeout(6.0, tag="pack")
            store.put("item")

        def consumer(sim, store):
            item = yield store.get()
            assert item == "item"
            yield sim.timeout(1.0, tag="unpack")

        sim.process(producer(sim, store))
        proc = sim.process(consumer(sim, store))
        sim.run()
        attr = critical_path(proc)
        # the consumer's wait is a communication dependency: the time
        # belongs to the producer's pack, not to a wait bucket
        assert attr.categories["copy"] == pytest.approx(7.0)
        assert attr.total_us == pytest.approx(7.0)

    def test_split_tag_partitions_one_timeout(self):
        sim = self._sim()

        def prog(sim):
            yield sim.timeout(
                10.0, tag=("split", (("descriptor", 1.5), ("wire", None)))
            )

        proc = sim.process(prog(sim))
        sim.run()
        attr = critical_path(proc)
        assert attr.categories["descriptor"] == pytest.approx(1.5)
        assert attr.categories["wire"] == pytest.approx(8.5)

    def test_requires_provenance(self):
        sim = Simulator()  # untraced

        def prog(sim):
            yield sim.timeout(1.0)

        proc = sim.process(prog(sim))
        sim.run()
        with pytest.raises(ValueError, match="trace=True"):
            critical_path(proc)


class TestProfilerSampling:
    def test_resource_samples_and_wait_histogram(self):
        metrics = MetricsRegistry()
        sim = Simulator()
        sim.tracer = prof = Tracer(metrics=metrics)
        res = Resource(sim, capacity=1, name="cpu0", node=0)

        def holder(sim, res):
            grant = yield res.acquire()
            yield sim.timeout(4.0)
            res.release(grant)

        def waiter(sim, res):
            grant = yield res.acquire()
            res.release(grant)

        sim.process(holder(sim, res))
        sim.process(waiter(sim, res))
        sim.run()
        assert ("cpu0.in_use", 0) in prof.series
        assert ("cpu0.queue", 0) in prof.series
        hist = metrics.histogram("profile.resource.wait_us", 0)
        assert hist.count == 1
        assert hist.total == pytest.approx(4.0)
        assert metrics.gauge("profile.queue.cpu0", 0).max_value == 1.0

    def test_store_depth_series(self):
        metrics = MetricsRegistry()
        sim = Simulator()
        sim.tracer = prof = Tracer(metrics=metrics)
        store = Store(sim, name="sq", node=1)
        store.put("a")
        store.put("b")
        assert prof.series[("sq.depth", 1)][-1] == (0.0, 2.0)
        assert metrics.gauge("profile.depth.sq", 1).max_value == 2.0

    def test_same_time_samples_collapse(self):
        prof = Tracer()
        prof.sample("x", 0, 1.0, 1.0)
        prof.sample("x", 0, 1.0, 3.0)
        prof.sample("x", 0, 2.0, 2.0)
        assert prof.series[("x", 0)] == [(1.0, 3.0), (2.0, 2.0)]


class TestAttributionGroundTruth:
    """The paper's qualitative claims, asserted on the causal DAG."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("cols", [32, 128])
    def test_attribution_sums_to_latency(self, scheme, cols):
        wl = column_workload(cols)
        result = traced_oneway(scheme, wl.datatype)
        attr, cluster = transfer_path(result), result.cluster
        assert attr.unattributed_us <= 1e-6
        total = attr.attributed_us + attr.unattributed_us
        assert total == pytest.approx(attr.total_us, rel=1e-3)
        # the completion time is a real cluster timestamp
        assert 0 < attr.total_us <= cluster.sim.now

    def test_bcspup_copy_dominated(self):
        # fig08-style workload: BC-SPUP pays pack+unpack on every byte
        attr = transfer_path(traced_oneway("bc-spup", column_workload(128).datatype))
        assert attr.dominant() == "copy"
        assert attr.share("copy") > 0.5

    def test_multiw_wire_dominated_at_large_sizes(self):
        # at 1 MB the zero-copy scheme's critical path is the wire itself
        attr = transfer_path(traced_oneway("multi-w", column_workload(2048).datatype))
        assert attr.dominant() == "wire"
        assert attr.categories["copy"] == 0.0

    def test_generic_pays_copies_and_serialization(self):
        attr = transfer_path(traced_oneway("generic", column_workload(128).datatype))
        bc = transfer_path(traced_oneway("bc-spup", column_workload(128).datatype))
        # same bytes, but generic cannot hide its copies behind the wire
        assert attr.categories["copy"] >= bc.categories["copy"]
        assert attr.total_us > bc.total_us

    def test_steps_are_contiguous_and_ordered(self):
        attr = transfer_path(traced_oneway("bc-spup", column_workload(64).datatype))
        assert attr.steps, "critical path cannot be empty"
        for a, b in zip(attr.steps, attr.steps[1:]):
            assert a.end <= b.start + 1e-9
        assert attr.steps[-1].end == pytest.approx(attr.end_us)


class TestInertProfile:
    """trace=False must be byte-identical to a traced build in everything
    but the recording (the repro.faults inertness pattern)."""

    def _run(self, trace):
        from repro.ib.costmodel import MB
        from repro.mpi.world import Cluster

        wl = column_workload(64)
        dt = wl.datatype
        cluster = Cluster(
            2, scheme="bc-spup", memory_per_rank=512 * MB, trace=trace,
        )
        span = dt.flatten(1).span + abs(dt.lb) + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)
            return mpi.now

        def rank1(mpi):
            buf = mpi.alloc(span)
            yield from mpi.recv(buf, dt, 1, source=0, tag=0)
            return mpi.now

        result = cluster.run([rank0, rank1])
        return result, cluster

    @staticmethod
    def _unprofiled_metrics(cluster):
        return [
            row for row in cluster.metrics.snapshot()
            if not row["name"].startswith("profile.")
        ]

    def test_profiled_run_identical_to_unprofiled(self):
        off, cluster_off = self._run(False)
        on, cluster_on = self._run(True)
        assert off.time_us == on.time_us == cluster_on.sim.now
        assert off.values == on.values
        sim_off, sim_on = cluster_off.sim, cluster_on.sim
        assert sim_off.events_processed == sim_on.events_processed
        assert sim_off.now == sim_on.now
        assert cluster_off.stats() == cluster_on.stats()
        assert self._unprofiled_metrics(cluster_off) == self._unprofiled_metrics(
            cluster_on
        )

    def test_no_profile_instruments_when_off(self):
        _res, cluster = self._run(False)
        assert cluster.tracer is None
        assert cluster.sim.tracer is None
        profiled = [n for n in cluster.metrics.names() if n.startswith("profile.")]
        assert profiled == []

    def test_no_provenance_recorded_when_off(self):
        res, cluster = self._run(False)
        # spot-check: no event in a fresh sim records provenance
        ev = cluster.sim.event()
        ev.succeed(delay=1.0, tag="pack")
        assert ev._cause is None and ev._sched_at == -1.0

    def test_profile_instruments_exist_when_on(self):
        _res, cluster = self._run(True)
        profiled = [n for n in cluster.metrics.names() if n.startswith("profile.")]
        assert profiled


class TestBottleneckTable:
    def test_ranked_and_totalled(self):
        attr = transfer_path(traced_oneway("bc-spup", column_workload(64).datatype))
        text = format_bottlenecks(attr, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[-1].startswith("total")
        # first data row is the dominant category
        assert lines[3].split()[0] == attr.dominant()


class TestProfileCLI:
    def test_profile_subcommand(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        prefix = tmp_path / "trace"
        rc = main(
            ["profile", "fig09", "bc-spup", "--size", "16384",
             "--chrome-trace", str(prefix)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path: bc-spup" in out
        trace_file = tmp_path / "trace.bc-spup.16384.json"
        assert trace_file.exists()
        import json

        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(e["ph"] == "C" for e in events)
        assert any(e["ph"] == "X" for e in events)


class TestBackToBackTransfers:
    """Independent transfers must not chain through a stale dispatch cursor.

    Regression: ``Simulator._current_event`` used to survive past the end
    of a dispatch, so the root events of a transfer started from driver
    code *after* a previous ``run()`` inherited the previous transfer's
    last event as their ``_cause`` — and ``critical_path()`` walked one
    transfer's attribution into the other.
    """

    def _run_transfer(self, cluster, dt):
        holder = {}
        span = dt.flatten(1).span + abs(dt.lb) + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)

        def rank1(mpi):
            buf = mpi.alloc(span)
            req = yield from mpi.recv(buf, dt, 1, source=0, tag=0)
            holder["req"] = req

        cluster.run([rank0, rank1])
        return holder["req"]

    def test_second_transfer_path_stays_in_second_transfer(self):
        from repro.bench.workloads import column_vector
        from repro.ib.costmodel import MB
        from repro.mpi.world import Cluster

        dt = column_vector(64).datatype
        cluster = Cluster(2, scheme="bc-spup", memory_per_rank=512 * MB,
                          trace=True)
        self._run_transfer(cluster, dt)
        t_mid = cluster.sim.now
        req2 = self._run_transfer(cluster, dt)

        attr = critical_path(req2.done, t0=0.0)
        # with the stale cause, steps of transfer 2's path reached back
        # into transfer 1's events (start < t_mid); everything before
        # t_mid must instead be unattributed idle time
        assert attr.steps, "expected a non-empty critical path"
        assert all(step.start >= t_mid - 1e-9 for step in attr.steps)
        assert attr.unattributed_us >= t_mid - 1e-9

    def test_second_transfer_attribution_closes(self):
        from repro.bench.workloads import column_vector
        from repro.ib.costmodel import MB
        from repro.mpi.world import Cluster

        dt = column_vector(64).datatype
        cluster = Cluster(2, scheme="rwg-up", memory_per_rank=512 * MB,
                          trace=True)
        self._run_transfer(cluster, dt)
        t_mid = cluster.sim.now
        req2 = self._run_transfer(cluster, dt)
        attr = critical_path(req2.done, t0=t_mid)
        assert attr.closure_error() <= 1e-6 * max(attr.total_us, 1.0)
