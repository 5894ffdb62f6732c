"""Host-time profiler: explain every nanosecond of engine wall-clock.

The critical-path profiler (:mod:`repro.obs.profile`) explains where
*simulated* microseconds go; this module explains where *host*
nanoseconds go while the engine produces them — the number hostbench
reports as one ``simulator.run_ns_per_event`` figure.  The engine is not
forked to do it: :meth:`HostProfiler.attach` brackets the simulator's
own ``run()`` and rides :attr:`Simulator.dispatch_hook
<repro.simulator.engine.Simulator.dispatch_hook>`, so what is measured
is the loop every user runs.  The hook chains ns-clock timestamps
through instrumented dispatches, attributing wall-clock to a fixed
host-category taxonomy (:data:`HOST_CATEGORIES`):

``heap``
    from the end of the previous dispatch to entry into the hook: the
    run-loop top, the heap pop (cancelled entries included) and the
    ``step()`` prologue.  Pushes ride inside the callback that makes
    them (timing each push would cost more than the push).
``dispatch``
    the hook's own pre-callback work: the tag -> category lookup.
``callback.<cat>``
    the event-callback body — scheme generators, protocol handlers,
    HCA/fabric machinery — split by the dispatched event's attribution
    tag using the *same* copy / wire / descriptor / registration /
    resource-wait / protocol-wait categories the critical-path profiler
    uses for simulated time, minus any nested time accounted below.
``pack-unpack``
    byte movement through the datatype engine
    (:func:`repro.datatypes.pack.pack_bytes` /
    :func:`~repro.datatypes.pack.unpack_bytes`), reported through that
    module's ``probe`` slot.
``observability``
    metrics-registry lookups and tracer record/span bookkeeping, via
    :meth:`HostProfiler.timed` wrappers installed at attach time.
``profiler-self``
    the profiler's own accounting: counter-series sampling and the
    entry/exit edges of each bracketed ``run()``.

Because consecutive timestamps share their boundary, the categories tile
the run-loop wall time; :meth:`HostProfiler.closure` is the measured
fraction actually attributed (tests assert >= 95% on all seven schemes).
Every dispatch inside a bracketed ``run()`` is timed — three clock reads
per dispatch, two per nested probe call, one per counter-series sample
and two per run (``tests/obs/test_hostprof.py`` pins that count) — so
no dispatch goes unseen, whatever its place in the event stream.
Everything here is pure aggregation over an *injected* ns clock — this
package never reads the host clock itself (``tests/obs/test_no_wallclock
.py``), and neither do the simulator or the datatype engine; the clock
call lives in ``repro.mpi.world`` and the bench layer.

Outputs: a ranked ns/event hotspot table (:func:`format_hotspots`),
collapsed-stack text for flamegraph.pl / speedscope
(:meth:`HostProfiler.collapsed`), cumulative host-time counter tracks
for the Chrome trace (:attr:`HostProfiler.series`), and an optional
cProfile deep mode.  :func:`run_hostprof` — the ``python -m repro.obs
hostprof`` CLI — prints the tables and writes the files into one
``--artifacts`` directory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional, Sequence

from repro.datatypes import pack as _pack
from repro.obs.profile import CATEGORIES as CALLBACK_CATEGORIES, categorize

__all__ = [
    "HOST_CATEGORIES",
    "CALLBACK_CATEGORIES",
    "HostProfiler",
    "format_hotspots",
    "host_category",
    "hostprof_markdown",
    "hostprof_transfer",
    "run_hostprof",
]

#: the host-time taxonomy, in report order; a callback body is tagged
#: with one of the simulated-time categories (``CALLBACK_CATEGORIES`` is
#: :data:`repro.obs.profile.CATEGORIES` itself)
HOST_CATEGORIES = (
    "heap",
    "dispatch",
    *(f"callback.{c}" for c in CALLBACK_CATEGORIES),
    "pack-unpack",
    "observability",
    "profiler-self",
)

#: dispatches between counter-series samples
SAMPLE_EVERY = 32


def host_category(tag: Any) -> str:
    """Map an event's attribution tag to a callback category.

    String tags reuse :func:`repro.obs.profile.categorize`; the tuple
    tags the synchronization primitives schedule with (resource grants,
    store/signal waits, split timeouts) are resolved to the category
    their host-side callback work belongs to.
    """
    if isinstance(tag, tuple) and tag:
        kind = tag[0]
        if kind == "resource-wait":
            return "resource-wait"
        if kind in ("store-wait", "signal-wait"):
            return "protocol-wait"
        if kind == "run":  # a run of descriptors' injection ends
            return "wire"
        if kind == "split":
            # one timeout covering several simulated phases: host-wise
            # the callback is one body; bill it to the absorbing part
            parts = tag[1]
            for cat, dur in parts:
                if dur is None and cat in CALLBACK_CATEGORIES:
                    return cat
            if parts and parts[0][0] in CALLBACK_CATEGORIES:
                return parts[0][0]
        return "protocol-wait"
    return categorize(tag)


class HostProfiler:
    """Accumulates host-nanosecond attribution for one simulator.

    Constructed and attached by :class:`repro.mpi.world.Cluster` when
    built with ``host_profile=True``.  ``clock`` is an injected
    nanosecond-resolution callable (``Cluster`` passes the stdlib's
    ns-precision performance clock).  How a host nanosecond is
    attributed to a dispatch is decided here and nowhere else: the
    engine offers a generic hook, ``repro.datatypes.pack`` a generic
    probe slot, and tracer/metrics are wrapped from outside.
    """

    def __init__(self, clock: Callable[[], int]):
        self.clock = clock
        #: ns per top-level segment of a dispatch
        self.heap_ns = 0
        self.dispatch_ns = 0
        self.self_ns = 0
        #: callback-body exclusive ns and event counts per category
        self.callback_ns: dict[str, int] = {c: 0 for c in CALLBACK_CATEGORIES}
        self.callback_events: dict[str, int] = {
            c: 0 for c in CALLBACK_CATEGORIES
        }
        #: nested probe ns keyed (probe name, enclosing callback category),
        #: and the number of probe calls billed
        self.nested: dict[tuple, int] = {}
        self.nested_calls = 0
        #: events dispatched inside bracketed runs; matches
        #: ``Simulator.events_processed`` deltas
        self.events = 0
        #: wall ns spent inside bracketed ``run()`` calls, and their count
        self.run_wall_ns = 0
        self.runs = 0
        #: cumulative host-time counter series for the Chrome trace:
        #: ``(f"host.{category}.us", None) -> [(sim_t_us, host_us)]``
        self.series: dict[tuple, list] = {}
        # per-category point lists, precomputed so sample() never
        # formats keys on the (amortized) hot path
        self._series_pts: dict[str, list] = {
            cat: self.series.setdefault((f"host.{cat}.us", None), [])
            for cat in HOST_CATEGORIES
        }
        # True only inside a bracketed run — the one flag every nested
        # probe consults
        self._armed = False
        self._sim: Any = None
        self._t_last = 0  # last chained timestamp (a segment boundary)
        self._nested_ns = 0
        self._current_cat: Optional[str] = None
        #: tag -> callback category memo (unhashable tags bypass it)
        self._cat_cache: dict = {}

    # -- the seam: run bracket, dispatch hook, nested probes -------------

    def attach(self, sim, metrics=None) -> None:
        """Start observing ``sim``: bracket its ``run()`` (the closure
        denominator) so that every dispatch inside it goes through the
        hook, and wrap the entry points of the simulator's tracer (when
        traced) and of ``metrics`` so their host cost is billed to
        ``observability``.

        The hook, the ``pack.probe`` slot and the armed flag are set for
        the duration of a ``run()`` only — a bare ``sim.step()`` called
        outside it is outside the measured wall time and stays
        unobserved.
        """
        self._sim = sim
        inner_run = sim.run

        def run(until: Optional[float] = None) -> float:
            t_start = self._t_last = self.clock()
            self.runs += 1
            self._armed = True
            _pack.probe = self
            sim.dispatch_hook = self._on_dispatch
            try:
                return inner_run(until)
            finally:
                end = self.clock()
                self.self_ns += end - self._t_last
                self.run_wall_ns += end - t_start
                self._armed = False
                _pack.probe = None
                sim.dispatch_hook = None
                self.sample(sim.now)

        sim.run = run
        if sim.tracer is not None:
            self._observe(sim.tracer, "begin", "_finish_span", "record")
        if metrics is not None:
            self._observe(metrics, "counter", "gauge", "histogram")

    def _observe(self, obj, *names: str) -> None:
        """Shadow ``obj``'s bound methods ``names`` with :meth:`timed`
        wrappers billing to ``observability``."""
        for name in names:
            setattr(obj, name, self.timed("observability", getattr(obj, name)))

    def timed(self, category: str, fn: Callable) -> Callable:
        """``fn`` wrapped to bill its wall time to nested ``category``
        (and out of the enclosing callback body) inside ``run()``; a
        plain call — no clock reads — outside it."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not self._armed:
                return fn(*args, **kwargs)
            t0 = clock()
            out = fn(*args, **kwargs)
            self.add_nested(category, clock() - t0)
            return out

        return wrapper

    def _on_dispatch(self, event) -> None:
        """Dispatch hook: three chained clock reads split the time since
        the previous boundary into ``heap`` (pop + ``step()`` prologue),
        ``dispatch`` (category lookup) and the callback body, billed to
        its tag's category minus whatever the nested probes claimed."""
        clock = self.clock
        t1 = clock()
        self.heap_ns += t1 - self._t_last
        tag = event._ptag
        try:
            cat = self._cat_cache[tag]
        except KeyError:
            cat = self._cat_cache[tag] = host_category(tag)
        except TypeError:  # unhashable tag (e.g. split parts hold lists)
            cat = host_category(tag)
        self._nested_ns = 0
        self._current_cat = cat
        t2 = clock()
        self.dispatch_ns += t2 - t1
        event._process()
        t3 = self._t_last = clock()
        body = t3 - t2 - self._nested_ns
        self.callback_events[cat] += 1
        if body > 0:
            self.callback_ns[cat] += body
        self.events += 1
        if self.events % SAMPLE_EVERY == 0:
            self.sample(self._sim.now)
            self._t_last = clock()
            self.self_ns += self._t_last - t3

    def add_nested(self, name: str, ns: int) -> None:
        """Attribute ``ns`` to a nested probe (pack/unpack, observability)
        and exclude it from the enclosing callback body."""
        if not self._armed:
            return
        self._nested_ns += ns
        self.nested_calls += 1
        key = (name, self._current_cat)
        nested = self.nested
        if key in nested:
            nested[key] += ns
        else:
            nested[key] = ns

    def sample(self, sim_now: float) -> None:
        """Append one cumulative host-us point per category at ``sim_now``
        (simulated us) — the Chrome host-time counter track."""
        pts_of = self._series_pts
        for cat, ns in self.totals().items():
            pts = pts_of[cat]
            value = ns / 1e3
            if pts and pts[-1][0] == sim_now:
                pts[-1] = (sim_now, value)
            else:
                pts.append((sim_now, value))

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Attributed ns per entry of :data:`HOST_CATEGORIES`; sums to
        :attr:`attributed_ns`."""
        out = dict.fromkeys(HOST_CATEGORIES, 0)
        out["heap"] = self.heap_ns
        out["dispatch"] = self.dispatch_ns
        out["profiler-self"] = self.self_ns
        for cat in CALLBACK_CATEGORIES:
            out[f"callback.{cat}"] = self.callback_ns[cat]
        for (name, _cat), ns in self.nested.items():
            out[name] += ns  # probe names are taxonomy entries
        return out

    @property
    def attributed_ns(self) -> int:
        return sum(self.totals().values())

    def closure(self) -> float:
        """Attributed fraction of the bracketed ``run()`` wall time."""
        if self.run_wall_ns <= 0:
            return 0.0
        return self.attributed_ns / self.run_wall_ns

    def ns_per_event(self) -> dict[str, float]:
        """Per-category ns/event plus ``total``."""
        n = max(1, self.events)
        out = {cat: ns / n for cat, ns in self.totals().items()}
        out["total"] = self.run_wall_ns / n
        return out

    def snapshot(self) -> dict:
        """Everything, JSON-serializable (the ``hostprof.json`` document)."""
        return {
            "events": self.events,
            "runs": self.runs,
            "run_wall_ns": self.run_wall_ns,
            "closure": self.closure(),
            "totals_ns": self.totals(),
            "ns_per_event": self.ns_per_event(),
            "callback_events": dict(self.callback_events),
            "nested_ns": {
                f"{name}@{cat or 'root'}": ns
                for (name, cat), ns in sorted(self.nested.items())
            },
        }

    # -- exports ---------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame value`` lines, value in
        ns) for flamegraph.pl / speedscope."""
        lines = []
        nested_by_cat: dict[Optional[str], dict[str, int]] = {}
        for (name, cat), ns in self.nested.items():
            nested_by_cat.setdefault(cat, {})[name] = ns
        for top, ns in (
            ("heap", self.heap_ns),
            ("dispatch", self.dispatch_ns),
            ("profiler-self", self.self_ns),
        ):
            if ns:
                lines.append(f"engine;{top} {ns}")
        for cat in CALLBACK_CATEGORIES:
            ns = self.callback_ns[cat]
            if ns:
                lines.append(f"engine;callback;{cat} {ns}")
            for name, nns in sorted(nested_by_cat.get(cat, {}).items()):
                if nns:
                    lines.append(f"engine;callback;{cat};{name} {nns}")
        for name, nns in sorted(nested_by_cat.get(None, {}).items()):
            if nns:
                lines.append(f"engine;{name} {nns}")
        return "\n".join(lines) + "\n"


# -- report rendering ------------------------------------------------------


def format_hotspots(snapshot: dict, title: str = "") -> str:
    """Render one profiler snapshot as a ranked ns/event hotspot table."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'host category':<26} {'ns/event':>10} {'total_ms':>9} {'share':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    totals = snapshot["totals_ns"]
    per_event = snapshot["ns_per_event"]
    wall = max(1, snapshot["run_wall_ns"])
    for cat, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{cat:<26} {per_event[cat]:>10.0f} {ns / 1e6:>9.2f} "
            f"{100.0 * ns / wall:>6.1f}%"
        )
    lines.append(
        f"{'total (run-loop wall)':<26} {per_event['total']:>10.0f} "
        f"{wall / 1e6:>9.2f} {100.0:>6.1f}%"
    )
    lines.append(
        f"closure: {100.0 * snapshot['closure']:.1f}% of wall attributed "
        f"({snapshot['events']} events, {snapshot['runs']} run(s))"
    )
    return "\n".join(lines)


def top_categories(snapshot: dict, n: int = 3) -> list[tuple[str, float]]:
    """The ``n`` largest host categories as ``(category, ns_per_event)``."""
    totals = snapshot["totals_ns"]
    per_event = snapshot["ns_per_event"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return [(cat, per_event[cat]) for cat, _ns in ranked[:n]]


def hostprof_markdown(results: dict, workload: str, nbytes: int) -> str:
    """Markdown summary (top-3 host categories per scheme) for the CI
    job step summary."""
    lines = [
        f"## host-time profile — {workload}, {nbytes} bytes",
        "",
        "| scheme | ns/event | top host categories (ns/event) | closure |",
        "|---|---|---|---|",
    ]
    for scheme, snap in results.items():
        tops = ", ".join(
            f"{cat} ({ns:.0f})" for cat, ns in top_categories(snap, 3)
        )
        lines.append(
            f"| {scheme} | {snap['ns_per_event']['total']:.0f} | {tops} "
            f"| {100.0 * snap['closure']:.1f}% |"
        )
    return "\n".join(lines) + "\n"


# -- profiled transfers ----------------------------------------------------


def hostprof_transfer(
    scheme: str,
    dt,
    *,
    count: int = 1,
    iters: int = 4,
    scheme_options: Optional[dict] = None,
):
    """Run ``iters`` host-profiled, untraced 2-rank transfers of
    ``(dt, count)`` under ``scheme``; returns the
    :class:`~repro.mpi.world.RunResult` (``result.cluster.host_profiler``
    holds the attribution).

    Mirrors :func:`repro.bench.runner.traced_oneway` but measures host
    nanoseconds instead of simulated microseconds; several iterations
    amortize the first transfer's cold caches (layout memoization,
    registration) into a representative ns/event figure.
    """
    from repro.bench.runner import make_cluster, run_oneway

    cluster = make_cluster(scheme, {"host_profile": True}, scheme_options)
    return run_oneway(cluster, dt, count=count, iters=iters)


def _deep_profile(scheme: str, dt, *, iters: int) -> str:
    """cProfile/pstats deep mode: the same transfer, function-level."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        hostprof_transfer(scheme, dt, iters=iters)
    finally:
        prof.disable()
    sink = io.StringIO()
    stats = pstats.Stats(prof, stream=sink)
    stats.sort_stats("tottime").print_stats(25)
    return sink.getvalue()


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def run_hostprof(
    workload: str = "fig09",
    nbytes: int = 65536,
    schemes: Optional[Sequence[str]] = None,
    iters: int = 4,
    chrome_out: Optional[str] = None,
    outdir: Optional[str] = None,
    deep: bool = False,
    print_fn=print,
) -> dict:
    """CLI driver: host-profile every scheme on one workload.

    Prints a ranked ns/event hotspot table per scheme (and a cProfile
    deep-mode listing with ``deep``).  ``chrome_out`` writes Chrome
    traces with host-time counter tracks (``<prefix>.<scheme>.<size>
    .json``, from a second, traced run: the profiled one stays
    untraced).  ``outdir`` writes the whole bundle there instead:
    ``hotspots.txt`` (what was printed), ``stacks.<scheme>.collapsed``,
    ``trace.<scheme>.<size>.json``, ``hostprof.json`` (every snapshot)
    and ``summary.md`` (the top-3 table).  Returns ``{scheme: snapshot}``.
    """
    from repro.obs.report import probe_cells
    from repro.schemes import SCHEME_NAMES

    if outdir:
        outdir = str(outdir)
        chrome_out = os.path.join(outdir, "trace")
    printed: list[str] = []

    def emit(text: str) -> None:
        printed.append(text)
        print_fn(text)

    results: dict = {}
    for wl, scheme, result, trace_path in probe_cells(
        workload, [nbytes], schemes or SCHEME_NAMES, chrome_out,
        iters=iters, host_profile=True,
    ):
        hp = result.cluster.host_profiler
        results[scheme] = hp.snapshot()
        emit(
            format_hotspots(
                results[scheme],
                title=(
                    f"host time: {scheme} / {workload} "
                    f"({wl.datatype.size} bytes x {iters} iters)"
                ),
            )
        )
        emit("")
        if trace_path:
            emit(f"wrote annotated trace {trace_path}")
        if outdir:
            _write_text(
                os.path.join(outdir, f"stacks.{scheme}.collapsed"),
                hp.collapsed(),
            )
        if deep:
            emit(_deep_profile(scheme, wl.datatype, iters=iters).rstrip())
            emit("")
    if outdir:
        _write_text(
            os.path.join(outdir, "hostprof.json"),
            json.dumps(results, indent=2, sort_keys=True) + "\n",
        )
        _write_text(
            os.path.join(outdir, "summary.md"),
            hostprof_markdown(results, workload, nbytes),
        )
        _write_text(os.path.join(outdir, "hotspots.txt"), "\n".join(printed) + "\n")
        print_fn(f"wrote host-profile artifacts under {outdir}")
    return results
