"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every layer of the stack (verbs, HCA, registration, schemes, MPI
protocol) records what it *did* into a shared :class:`MetricsRegistry`
owned by the :class:`~repro.mpi.world.Cluster`.  Instruments are keyed by
``(name, node)``; ``node=None`` is a cluster-wide instrument.

All values are either event counts, byte counts, or **simulated**
microseconds passed in by the caller — this module never consults the
wall clock (enforced by ``tests/obs/test_no_wallclock.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_US_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]

#: fixed histogram buckets for simulated-microsecond durations
DEFAULT_US_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
                      10000.0, 50000.0)
#: fixed histogram buckets for byte sizes (powers of four up to 16 MB)
DEFAULT_BYTE_BUCKETS = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
                        262144.0, 1048576.0, 4194304.0, 16777216.0)


@dataclass
class Counter:
    """Monotonically increasing event/byte count."""

    name: str
    node: Optional[int] = None
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Instantaneous level (queue depth, pinned bytes); tracks its peak."""

    name: str
    node: Optional[int] = None
    value: float = 0.0
    max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass
class Histogram:
    """Fixed-bucket histogram of simulated durations or sizes.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflow observations.
    """

    name: str
    buckets: Sequence[float]
    node: Optional[int] = None
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        self.buckets = tuple(sorted(self.buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name}: needs at least one bucket")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) from the buckets.

        Linear interpolation within the bucket containing the rank, with
        the bucket's lower bound at its cumulative start.  Observations in
        the overflow slot report the last finite bound (the histogram
        cannot see beyond it).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p!r} out of range [0, 100]")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            if self.counts[i]:
                if cumulative + self.counts[i] >= rank:
                    frac = max(0.0, rank - cumulative) / self.counts[i]
                    return lower + frac * (bound - lower)
                cumulative += self.counts[i]
            lower = bound
        return self.buckets[-1]  # overflow observations clamp here


class MetricsRegistry:
    """Factory and store for all instruments, keyed by (name, node)."""

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- instrument factories (get-or-create) ---------------------------

    def counter(self, name: str, node: Optional[int] = None) -> Counter:
        key = (name, node)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, node)
        return inst

    def gauge(self, name: str, node: Optional[int] = None) -> Gauge:
        key = (name, node)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, node)
        return inst

    def histogram(
        self,
        name: str,
        node: Optional[int] = None,
        buckets: Sequence[float] = DEFAULT_US_BUCKETS,
    ) -> Histogram:
        key = (name, node)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, buckets, node)
        return inst

    # -- aggregation -----------------------------------------------------

    def value(self, name: str) -> float:
        """Sum of a counter across all nodes (0.0 if never touched)."""
        return sum(c.value for (n, _node), c in self._counters.items() if n == name)

    def counter_values(self, name: str) -> dict:
        """Per-node counter values: {node: value}."""
        return {
            node: c.value
            for (n, node), c in self._counters.items()
            if n == name
        }

    def names(self) -> list[str]:
        keys = (
            set(n for n, _ in self._counters)
            | set(n for n, _ in self._gauges)
            | set(n for n, _ in self._histograms)
        )
        return sorted(keys)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every instrument as one flat row (stable ordering)."""
        rows = []
        for (name, node), c in sorted(
            self._counters.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        ):
            rows.append(
                {"type": "counter", "name": name, "node": node, "value": c.value}
            )
        for (name, node), g in sorted(
            self._gauges.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        ):
            rows.append(
                {
                    "type": "gauge", "name": name, "node": node,
                    "value": g.value, "max": g.max_value,
                }
            )
        for (name, node), h in sorted(
            self._histograms.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        ):
            rows.append(
                {
                    "type": "histogram", "name": name, "node": node,
                    "value": h.total, "count": h.count, "mean": h.mean,
                    "p50": h.percentile(50), "p95": h.percentile(95),
                    "p99": h.percentile(99),
                    "buckets": list(zip(list(h.buckets) + ["+inf"], h.counts)),
                }
            )
        return rows

    def to_csv(self, path: str) -> None:
        """Write the snapshot as CSV: type,name,node,value,extra."""
        import csv
        import os

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["type", "name", "node", "value", "extra"])
            for row in self.snapshot():
                if row["type"] == "gauge":
                    extra = f"max={row['max']:g}"
                elif row["type"] == "histogram":
                    extra = (
                        f"count={row['count']} p50={row['p50']:g} "
                        f"p95={row['p95']:g} p99={row['p99']:g}"
                    )
                else:
                    extra = ""
                writer.writerow(
                    [
                        row["type"], row["name"],
                        "" if row["node"] is None else row["node"],
                        row["value"], extra,
                    ]
                )
