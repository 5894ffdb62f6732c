"""Chrome trace-event exporter tests."""

import json

from repro.obs.chrome import chrome_trace_events, export_chrome_trace
from repro.simulator import Tracer


def make_tracer():
    tr = Tracer()
    tr.record(0.0, 5.0, 0, "pack")
    tr.record(2.0, 9.0, 0, "wire")
    tr.record(6.0, 8.0, 1, "unpack", "seg0", meta={"seg": 0})
    return tr


class TestChromeExport:
    def test_roundtrips_through_json(self):
        text = export_chrome_trace(make_tracer())
        doc = json.loads(text)
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"

    def test_one_pid_per_node(self):
        events = chrome_trace_events(make_tracer())
        x_events = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in x_events} == {0, 1}
        proc_meta = [
            e for e in events if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert {e["pid"] for e in proc_meta} == {0, 1}
        assert {e["args"]["name"] for e in proc_meta} == {"node0", "node1"}

    def test_one_lane_per_category(self):
        events = chrome_trace_events(make_tracer())
        lanes = {
            (e["pid"], e["args"]["name"]): e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # node 0 has pack + wire on distinct lanes, node 1 has unpack
        assert lanes[(0, "pack")] != lanes[(0, "wire")]
        assert (1, "unpack") in lanes
        for e in events:
            if e["ph"] == "X":
                assert e["tid"] == lanes[(e["pid"], e["cat"])]

    def test_complete_events_carry_span_ids(self):
        events = chrome_trace_events(make_tracer())
        x_events = [e for e in events if e["ph"] == "X"]
        for e in x_events:
            assert "span_id" in e["args"]
            assert "parent_id" in e["args"]
        unpack = next(e for e in x_events if e["cat"] == "unpack")
        assert unpack["ts"] == 6.0
        assert unpack["dur"] == 2.0
        assert unpack["name"] == "seg0"
        assert unpack["args"]["meta"] == str({"seg": 0})

    def test_writes_file(self, tmp_path):
        path = str(tmp_path / "out" / "trace.json")
        text = export_chrome_trace(make_tracer(), path)
        assert json.loads(open(path).read()) == json.loads(text)

    def test_empty_tracer(self):
        doc = json.loads(export_chrome_trace(Tracer()))
        assert doc["traceEvents"] == []


class TestCounterTracks:
    def _series(self):
        return {
            ("sq.depth", 0): [(0.0, 1.0), (2.5, 3.0), (4.0, 0.0)],
            ("cpu.queue", None): [(1.0, 2.0)],
        }

    def test_counter_events_shape(self):
        from repro.obs.chrome import counter_track_events

        events = counter_track_events(self._series())
        assert all(e["ph"] == "C" for e in events)
        depth = [e for e in events if e["name"] == "sq.depth"]
        assert [(e["ts"], e["args"]["value"]) for e in depth] == [
            (0.0, 1.0), (2.5, 3.0), (4.0, 0.0),
        ]
        assert all(e["pid"] == 0 for e in depth)
        # cluster-wide series render under the synthetic pid -1
        assert [e["pid"] for e in events if e["name"] == "cpu.queue"] == [-1]

    def test_export_appends_counters(self):
        from repro.obs.chrome import counter_track_events

        counters = counter_track_events(self._series())
        text = export_chrome_trace(make_tracer(), counters=counters)
        events = json.loads(text)["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "C") == len(counters)
        assert any(e["ph"] == "X" for e in events)

    def test_export_without_counters_unchanged(self):
        assert export_chrome_trace(make_tracer()) == export_chrome_trace(
            make_tracer(), counters=None
        )
