"""Host-time profiler: taxonomy, closure, clock-read budget, and exports.

Includes the acceptance tests: closure >= 95% of run-loop wall time on
all seven schemes (exact tiling by construction — the tolerance only
absorbs the few ns of loop entry/exit), and the CLI smoke run that CI's
tier-1 job exercises.
"""

import json

import pytest

from repro.obs.hostprof import (
    CALLBACK_CATEGORIES,
    HOST_CATEGORIES,
    SAMPLE_EVERY,
    HostProfiler,
    format_hotspots,
    host_category,
    hostprof_markdown,
    hostprof_transfer,
    run_hostprof,
    top_categories,
)

ALL_SCHEMES = ("generic", "bc-spup", "rwg-up", "p-rrs", "multi-w", "hybrid",
               "adaptive")


def column_dt(cols=64):
    from repro.bench.workloads import column_vector

    return column_vector(cols).datatype


def profiled(*args, **kwargs):
    """:func:`hostprof_transfer`'s host profiler and cluster."""
    cluster = hostprof_transfer(*args, **kwargs).cluster
    return cluster.host_profiler, cluster


class TestHostCategory:
    def test_string_tags_reuse_simulated_categories(self):
        assert host_category("pack") == "copy"
        assert host_category("wire") == "wire"
        assert host_category("register") == "registration"
        assert host_category(None) == "protocol-wait"

    def test_resource_wait_tuple(self):
        assert host_category(("resource-wait", "cpu")) == "resource-wait"

    def test_store_and_signal_wait_tuples(self):
        assert host_category(("store-wait", 7)) == "protocol-wait"
        assert host_category(("signal-wait", 7)) == "protocol-wait"

    def test_split_tuple_bills_absorbing_part(self):
        tag = ("split", (("copy", 3.0), ("wire", None)))
        assert host_category(tag) == "wire"
        tag = ("split", (("copy", 3.0), ("descriptor", 1.0)))
        assert host_category(tag) == "copy"

    def test_unknown_tuple_falls_to_protocol_wait(self):
        assert host_category(("mystery",)) == "protocol-wait"


class TestProfilerAccounting:
    """Pure-aggregation behaviour with a fake injected clock."""

    def test_categories_cover_taxonomy(self):
        hp = HostProfiler(clock=lambda: 0)
        assert set(hp.totals()) == set(HOST_CATEGORIES)

    def attached(self):
        """A profiler on a bare simulator, fake clock ticking 100 ns
        per read."""
        import itertools

        from repro.simulator import Simulator

        ticks = itertools.count(step=100)
        hp = HostProfiler(clock=lambda: next(ticks))
        sim = Simulator()
        hp.attach(sim)
        return hp, sim

    def test_nested_excluded_outside_run(self):
        hp, sim = self.attached()
        hp.add_nested("pack-unpack", 999)
        assert hp.nested == {}
        ev = sim.timeout(1.0, tag="pack")
        ev.callbacks.append(lambda _ev: hp.add_nested("pack-unpack", 999))
        sim.run()
        assert hp.nested == {("pack-unpack", "copy"): 999}
        hp.add_nested("pack-unpack", 999)  # run over: dropped again
        assert hp.nested == {("pack-unpack", "copy"): 999}

    def test_snapshot_round_trips_through_json(self):
        hp, sim = self.attached()
        sim.timeout(1.0, tag="pack")
        sim.run()
        snap = json.loads(json.dumps(hp.snapshot()))
        assert snap["events"] == 1
        assert snap["callback_events"]["copy"] == 1
        assert snap["closure"] == pytest.approx(1.0)

    def test_hook_and_probe_only_live_inside_run(self):
        from repro.datatypes import pack

        hp, sim = self.attached()
        seen = []
        ev = sim.timeout(1.0)
        ev.callbacks.append(
            lambda _ev: seen.append((sim.dispatch_hook, pack.probe))
        )
        assert sim.dispatch_hook is None and pack.probe is None
        sim.run()
        assert seen == [(hp._on_dispatch, hp)]
        assert sim.dispatch_hook is None and pack.probe is None

    def test_timed_bills_only_while_armed(self):
        hp, sim = self.attached()
        calls = []
        fn = hp.timed("observability", lambda x: calls.append(x) or x)
        assert fn(1) == 1  # outside run: plain call, nothing billed
        assert hp.nested == {}
        sim.timeout(1.0).callbacks.append(lambda _ev: fn(2))
        sim.run()
        assert calls == [1, 2]
        # one tick between the wrapper's two clock reads
        assert hp.nested == {("observability", "protocol-wait"): 100}


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_closure_at_least_95_percent_every_scheme(scheme):
    hp, _cluster = profiled(scheme, column_dt(), iters=2)
    assert hp.events > 0
    assert hp.closure() >= 0.95, (
        f"{scheme}: closure {hp.closure():.3f} — "
        f"{hp.attributed_ns} of {hp.run_wall_ns} ns attributed"
    )


class TestDutyCycle:
    """The duty cycle is one dispatch on, none off: every dispatch of a
    profiled run is timed, fault profile or not."""

    def test_exact_mode_instruments_every_dispatch(self):
        hp, cluster = profiled("bc-spup", column_dt(), iters=2)
        assert hp.events == cluster.sim.events_processed
        assert hp.closure() >= 0.95
        # every pack/unpack call is probed, fault profile or not
        assert hp.nested_calls > 0
        assert hp.totals()["pack-unpack"] > 0

    def test_event_counts_match_simulator(self):
        hp, cluster = profiled("bc-spup", column_dt(), iters=2)
        assert hp.events == cluster.sim.events_processed

    def test_profiled_run_goes_through_step(self, monkeypatch):
        # the profiler must measure the loop users run: every dispatch
        # of a host-profiled run is one Simulator.step() call
        from repro.simulator import Simulator

        real_step = Simulator.step
        calls = []

        def counting_step(sim):
            before = sim.events_processed
            real_step(sim)
            calls.append(sim.events_processed - before)

        monkeypatch.setattr(Simulator, "step", counting_step)
        hp, cluster = profiled("bc-spup", column_dt(), iters=2)
        assert sum(calls) == cluster.sim.events_processed == hp.events
        # one step() per popped heap entry: dispatches, plus cancelled
        # entries (which step() skips without dispatching)
        assert set(calls) <= {0, 1}

    def test_pack_unpack_attributed(self):
        # every pack_bytes / unpack_bytes call is probed, fault profile or
        # not, so every scheme that copies on the host shows it: bc-spup
        # and rwg-up pipeline the copy, generic packs everything, p-rrs
        # and adaptive pack at the fig09 64 KB cell, and Hybrid's small
        # pieces (the 4 B .. 2 KB blocks of a 256 KB Figure 10 struct) go
        # through the same two functions
        from repro.bench.workloads import workload_for

        fig09 = workload_for("fig09", 65536).datatype
        for scheme, dt in (
            ("bc-spup", column_dt()),
            ("hybrid", workload_for("fig11", 262144).datatype),
            *((name, fig09) for name in ("generic", "rwg-up", "p-rrs", "adaptive")),
        ):
            hp, _ = profiled(scheme, dt, iters=4)
            assert hp.totals()["pack-unpack"] > 0, scheme


class CountingClock:
    """Injected ns clock: every read is counted and costs 100 ns."""

    def __init__(self):
        self.now = self.reads = 0

    def __call__(self):
        self.reads += 1
        self.now += 100
        return self.now


@pytest.fixture
def clock(monkeypatch):
    clock = CountingClock()
    monkeypatch.setattr("repro.mpi.world.perf_counter_ns", clock)
    return clock


class TestCountedOverhead:
    """What the profiler costs and what it blames, without a wall clock.

    The cost of profiling is clock reads (hundreds of ns each on a
    virtualized host, against ~9 us per dispatched event), so the budget
    is an exact count of reads, deterministic under any fault profile.
    The real ns/event of a plain run is hostbench's
    ``simulator.run_ns_per_event``.
    """

    def test_clock_reads_per_dispatch(self, clock):
        # three reads per dispatch, two per nested probe call (pack /
        # unpack, metrics), one per counter-series sample taken inside
        # the hook and two per bracketed run: nothing else.  The
        # fault-free bc-spup cell below reads 801 times; a change that
        # adds one read per dispatch reads hp.events more and fails
        before = clock.reads
        hp, _ = profiled("bc-spup", column_dt(), iters=4)
        assert clock.reads - before == (
            3 * hp.events
            + 2 * hp.nested_calls
            + hp.events // SAMPLE_EVERY
            + 2 * hp.runs
        )

    def test_engineered_pack_slowdown_is_named(self, clock, monkeypatch):
        """Slow the real pack/unpack byte movement — 500 us added to the
        injected clock in the one block-copy entry point every pack and
        unpack goes through — and ``pack-unpack`` is the host category
        whose ns/event rose most."""
        from repro.ib.memory import NodeMemory

        def profile():
            hp, _ = profiled("bc-spup", column_dt(), iters=3)
            return hp.ns_per_event()

        before = profile()
        real_copy = NodeMemory.copy_blocks

        def slow_copy(self, *args, **kwargs):
            clock.now += 500_000
            return real_copy(self, *args, **kwargs)

        monkeypatch.setattr(NodeMemory, "copy_blocks", slow_copy)
        after = profile()
        rose = {cat: after[cat] - before[cat] for cat in HOST_CATEGORIES}
        assert max(rose, key=rose.get) == "pack-unpack", rose
        assert rose["pack-unpack"] > 0


class TestExports:
    def test_collapsed_stack_format(self):
        hp, _ = profiled("bc-spup", column_dt(), iters=2)
        text = hp.collapsed()
        lines = [ln for ln in text.splitlines() if ln]
        assert lines
        for ln in lines:
            frames, _, value = ln.rpartition(" ")
            assert frames.startswith("engine")
            assert int(value) > 0
        assert any(ln.startswith("engine;callback;") for ln in lines)

    def test_counter_series_feed_chrome_tracks(self):
        from repro.obs.chrome import counter_track_events

        hp, _ = profiled("bc-spup", column_dt(), iters=2)
        events = counter_track_events(hp.series)
        names = {e["name"] for e in events}
        assert any(name.startswith("host.") for name in names)
        # cumulative series: per-track values never decrease
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        for name, evs in by_name.items():
            if not name.startswith("host."):
                continue
            vals = [next(iter(e["args"].values())) for e in evs]
            assert vals == sorted(vals), name

    def test_hotspot_table_and_top_categories(self):
        hp, _ = profiled("bc-spup", column_dt(), iters=2)
        snap = hp.snapshot()
        text = format_hotspots(snap, title="t")
        assert "host category" in text
        assert "closure:" in text
        tops = top_categories(snap, 3)
        assert len(tops) == 3
        assert all(cat in HOST_CATEGORIES for cat, _ns in tops)
        # ranked by total ns, descending
        totals = snap["totals_ns"]
        ranked = sorted(totals.values(), reverse=True)
        assert [totals[cat] for cat, _ in tops] == ranked[:3]

    def test_markdown_summary_has_all_schemes(self):
        hp, _ = profiled("bc-spup", column_dt(), iters=1)
        results = {"bc-spup": hp.snapshot()}
        md = hostprof_markdown(results, "fig09", 4096)
        assert "| bc-spup |" in md
        assert "closure" in md


class TestCliAndArtifacts:
    def test_run_hostprof_prints_tables(self):
        lines = []
        results = run_hostprof(
            workload="fig09", nbytes=8192, schemes=["bc-spup"], iters=1,
            print_fn=lambda *p: lines.append(" ".join(str(x) for x in p)),
        )
        assert "bc-spup" in results
        assert any("host category" in ln for ln in lines)

    def test_cli_smoke(self, capsys):
        from repro.obs.__main__ import main

        rc = main(["hostprof", "fig09", "bc-spup", "--size", "8192",
                   "--iters", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "host time: bc-spup" in out
        assert "closure:" in out

    def test_artifact_bundle(self, tmp_path):
        outdir = tmp_path / "hp"
        results = run_hostprof(
            workload="fig09", nbytes=8192, schemes=["bc-spup"], iters=1,
            outdir=outdir, print_fn=lambda *p: None,
        )
        assert "bc-spup" in results
        for name in ("hotspots.txt", "summary.md", "stacks.bc-spup.collapsed",
                     "trace.bc-spup.8192.json"):
            assert (outdir / name).stat().st_size > 0, name
        assert "host time: bc-spup" in (outdir / "hotspots.txt").read_text()
        doc = json.loads((outdir / "hostprof.json").read_text())
        assert doc["bc-spup"]["closure"] >= 0.95

    def test_chrome_trace_leaves_the_profiled_run_untraced(
        self, tmp_path, monkeypatch
    ):
        """The published host numbers never bill a tracer: with a Chrome
        trace asked for, every host-profiled cluster is built untraced and
        the trace comes from a second, traced run of the same transfer."""
        from repro.mpi.world import Cluster

        built = []
        init = Cluster.__init__

        def spy(self, *args, **kwargs):
            built.append(
                (kwargs.get("host_profile", False), kwargs.get("trace", False))
            )
            init(self, *args, **kwargs)

        monkeypatch.setattr(Cluster, "__init__", spy)
        run_hostprof(
            workload="fig09", nbytes=8192, schemes=["bc-spup"], iters=1,
            chrome_out=str(tmp_path / "trace"), print_fn=lambda *p: None,
        )
        assert (True, False) in built
        assert [traced for host, traced in built if host] == [False]
        doc = json.loads((tmp_path / "trace.bc-spup.8192.json").read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" and e["name"].startswith("host.") for e in events)
