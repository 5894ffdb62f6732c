"""Unit tests for the metrics registry instruments."""

import pytest

from repro.simulator.metrics import (
    DEFAULT_US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_tracks_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 7

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(5)
        g.dec(2)
        assert g.value == 3
        assert g.max_value == 5


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.total == 555.5
        assert h.mean == pytest.approx(138.875)

    def test_boundary_goes_to_lower_bucket(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(1.0)
        h.observe(10.0)
        assert h.counts == [1, 1, 0]

    def test_requires_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())

    def test_mean_empty(self):
        h = Histogram("lat", buckets=DEFAULT_US_BUCKETS)
        assert h.mean == 0.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a", 0) is reg.counter("a", 0)
        assert reg.counter("a", 0) is not reg.counter("a", 1)
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", 0) is reg.histogram("h", 0)

    def test_value_sums_across_nodes(self):
        reg = MetricsRegistry()
        reg.counter("bytes", 0).inc(10)
        reg.counter("bytes", 1).inc(5)
        assert reg.value("bytes") == 15
        assert reg.counter_values("bytes") == {0: 10, 1: 5}
        assert reg.value("missing") == 0.0

    def test_names(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.gauge("g")
        reg.histogram("h")
        assert reg.names() == ["c", "g", "h"]

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("c", 0).inc(2)
        reg.gauge("g", 1).set(3)
        reg.histogram("h").observe(4.0)
        rows = reg.snapshot()
        assert [r["type"] for r in rows] == ["counter", "gauge", "histogram"]
        assert (rows[0]["node"], rows[0]["value"]) == (0, 2)
        assert (rows[1]["node"], rows[1]["value"], rows[1]["max"]) == (1, 3, 3)
        assert (rows[2]["node"], rows[2]["count"]) == (None, 1)

    def test_to_csv(self, tmp_path):
        import csv

        reg = MetricsRegistry()
        reg.counter("c", 0).inc(2)
        reg.gauge("g").set(1)
        path = str(tmp_path / "m" / "metrics.csv")
        reg.to_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["type", "name", "node", "value", "extra"]
        assert rows[1] == ["counter", "c", "0", "2.0", ""]
        assert rows[2] == ["gauge", "g", "", "1", "max=1"]


class TestPercentiles:
    def test_interpolates_within_bucket(self):
        h = Histogram("lat", buckets=(10.0, 20.0))
        for _ in range(10):
            h.observe(5.0)  # all in the first bucket [0, 10]
        # rank p/100*10 observations, linearly spread over [0, 10]
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(100) == pytest.approx(10.0)

    def test_crosses_buckets(self):
        h = Histogram("lat", buckets=(10.0, 20.0, 40.0))
        for _ in range(5):
            h.observe(5.0)
        for _ in range(5):
            h.observe(15.0)
        assert h.percentile(50) == pytest.approx(10.0)
        assert h.percentile(75) == pytest.approx(15.0)
        assert h.percentile(25) == pytest.approx(5.0)

    def test_overflow_clamps_to_last_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.percentile(99) == 2.0

    def test_empty_and_bounds(self):
        h = Histogram("lat", buckets=(1.0,))
        assert h.percentile(99) == 0.0
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_monotone_in_p(self):
        h = Histogram("lat", buckets=DEFAULT_US_BUCKETS)
        for v in (0.5, 3.0, 8.0, 40.0, 900.0, 12000.0):
            h.observe(v)
        ps = [h.percentile(p) for p in (0, 25, 50, 75, 95, 99, 100)]
        assert ps == sorted(ps)

    def test_snapshot_and_render_carry_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for _ in range(100):
            h.observe(4.0)
        row = [r for r in reg.snapshot() if r["type"] == "histogram"][0]
        assert row["p50"] == pytest.approx(h.percentile(50))
        assert row["p95"] == pytest.approx(h.percentile(95))
        assert row["p99"] == pytest.approx(h.percentile(99))

    def test_csv_extra_carries_percentiles(self, tmp_path):
        import csv

        reg = MetricsRegistry()
        reg.histogram("h").observe(4.0)
        path = str(tmp_path / "metrics.csv")
        reg.to_csv(path)
        rows = list(csv.reader(open(path)))
        extra = rows[1][4]
        assert "count=1" in extra
        assert "p50=" in extra and "p95=" in extra and "p99=" in extra
