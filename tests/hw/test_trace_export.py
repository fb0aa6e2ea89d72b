"""Chrome trace-event export."""

import json

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.hw.trace_export import (
    StreamTrace,
    export_stream_traces,
    resource_tids,
    timeline_to_events,
)

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def export_run(timelines, path, fault_log=None) -> int:
    """A single run's trace, as ``repro run --trace`` writes it."""
    run = StreamTrace.back_to_back(timelines, "run", fault_log=fault_log)
    return export_stream_traces([run], path)


@pytest.fixture(scope="module")
def timelines():
    fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
    fw.run_model(4)
    return [r.timeline for r in fw.reports]


class TestTraceExport:
    def test_events_structure(self, timelines):
        events = timeline_to_events(timelines[0])
        durations = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert durations and metas
        for e in durations:
            assert e["ts"] >= 0 and e["dur"] > 0
            assert e["cat"] in ("kernel", "transfer_in", "transfer_out")

    def test_resources_become_threads(self, timelines):
        events = timeline_to_events(timelines[0])
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "GPU_K.compute" in names
        assert "CPU_H.compute" in names

    def test_file_export_valid_json(self, timelines, tmp_path):
        path = tmp_path / "trace.json"
        n = export_run(timelines, path)
        assert n > 0
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == n

    def test_frames_laid_out_sequentially(self, timelines, tmp_path):
        path = tmp_path / "trace.json"
        export_run(timelines, path)
        payload = json.loads(path.read_text())
        by_frame: dict[int, list[float]] = {}
        for e in payload["traceEvents"]:
            if e["ph"] == "X":
                by_frame.setdefault(e["args"]["frame"], []).append(e["ts"])
        frames = sorted(by_frame)
        for a, b in zip(frames, frames[1:], strict=False):
            assert min(by_frame[b]) >= max(by_frame[a]) - 1e-6
        starts = [start for _tl, start in StreamTrace.back_to_back(timelines, "r").frames]
        assert starts[0] == 0.0
        for k in range(1, len(timelines)):
            assert starts[k] == pytest.approx(starts[k - 1] + timelines[k - 1].tau_tot)

    def test_zero_duration_barriers_skipped(self, timelines, tmp_path):
        events = timeline_to_events(timelines[0])
        assert not any(
            e["ph"] == "X" and e["name"] in ("tau1", "tau2") for e in events
        )


class TestStreamNamespacing:
    def test_resource_tids_stable_over_union(self, faulted_fw):
        # the post-fault frames miss GPU_F2's engines; the union mapping
        # must still give every resource one stable tid across all frames
        tls = [r.timeline for r in faulted_fw.reports]
        tids = resource_tids(tls)
        assert any(res.startswith("GPU_F2") for res in tids)
        assert sorted(tids.values()) == list(range(1, len(tids) + 1))
        per_frame = [resource_tids([tl]) for tl in tls]
        # without the union, the per-frame mappings disagree after eviction
        assert any(m != tids for m in per_frame)

    def test_custom_pid_propagates(self, timelines):
        events = timeline_to_events(timelines[0], pid=7)
        assert {e["pid"] for e in events} == {7}

    def test_stream_arg_tagged(self, timelines):
        tids = resource_tids(timelines)
        events = timeline_to_events(timelines[0], tids=tids, stream="cam0")
        assert events  # no metadata when tids provided
        assert all(e["ph"] == "X" for e in events)
        assert all(e["args"]["stream"] == "cam0" for e in events)

    def test_export_stream_traces_one_pid_per_stream(self, timelines, tmp_path):
        path = tmp_path / "multi.json"
        streams = [
            StreamTrace(
                pid=i + 1,
                name=f"stream-{i}",
                frames=[(tl, 0.05 * i + 0.1 * j) for j, tl in enumerate(timelines)],
            )
            for i in range(3)
        ]
        n = export_stream_traces(streams, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == n
        assert {e["pid"] for e in xs} == {1, 2, 3}
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert names == {1: "stream-0", 2: "stream-1", 3: "stream-2"}
        sorts = [e for e in events if e.get("name") == "process_sort_index"]
        assert {e["args"]["sort_index"] for e in sorts} == {1, 2, 3}
        # thread metadata is emitted per pid
        thread_meta = [e for e in events if e.get("name") == "thread_name"]
        assert {e["pid"] for e in thread_meta} == {1, 2, 3}

    def test_stream_frames_land_at_absolute_times(self, timelines, tmp_path):
        path = tmp_path / "multi.json"
        start = 1.25
        export_stream_traces(
            [StreamTrace(pid=1, name="s", frames=[(timelines[0], start)])],
            path,
        )
        xs = [
            e
            for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert min(e["ts"] for e in xs) >= start * 1e6

    def test_per_stream_fault_instants_are_process_scoped(
        self, faulted_fw, tmp_path
    ):
        path = tmp_path / "multi.json"
        frames = [(r.timeline, 0.1 * i) for i, r in enumerate(faulted_fw.reports)]
        export_stream_traces(
            [
                StreamTrace(
                    pid=4, name="s", frames=frames,
                    fault_log=faulted_fw.fault_log,
                )
            ],
            path,
        )
        instants = [
            e
            for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["pid"] == 4
        assert instants[0]["s"] == "p"  # scoped to the stream's process


@pytest.fixture(scope="module")
def faulted_fw():
    from repro.hw.noise import FaultEvent, FaultSchedule

    fw = FevesFramework(
        get_platform("SysNFF"),
        CFG,
        FrameworkConfig(
            faults=FaultSchedule(
                [FaultEvent(frame=3, device="GPU_F2", kind="dropout")]
            )
        ),
    )
    fw.run_model(5)
    return fw


class TestFaultExport:
    def test_fault_category_in_trace(self, faulted_fw):
        # the detection stall surfaces as a "fault"-category slice
        tl = faulted_fw.reports[2].timeline
        events = timeline_to_events(tl)
        faults = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "fault"
        ]
        assert len(faults) == 1
        assert faults[0]["name"] == "FAULT[GPU_F2]"

    def test_fault_log_to_events(self, faulted_fw):
        from repro.hw.trace_export import fault_log_to_events

        offsets = {f: 0.1 * (f - 1) for f in range(1, 6)}
        events = fault_log_to_events(faulted_fw.fault_log, offsets)
        # only eventful frames produce instant events
        assert events
        assert all(e["ph"] == "i" for e in events)
        assert any("GPU_F2" in e["name"] for e in events)

    def test_chrome_trace_includes_fault_instants(self, faulted_fw, tmp_path):
        path = tmp_path / "trace.json"
        export_run(
            [r.timeline for r in faulted_fw.reports],
            path,
            fault_log=faulted_fw.fault_log,
        )
        payload = json.loads(path.read_text())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1  # one eviction event

    def test_export_fault_log_roundtrip(self, faulted_fw, tmp_path):
        from repro.hw.trace_export import export_fault_log

        path = tmp_path / "faults.json"
        n = export_fault_log(faulted_fw.fault_log, path)
        assert n == len(faulted_fw.fault_log)
        payload = json.loads(path.read_text())
        assert [e["frame"] for e in payload] == list(range(1, 6))
        ev = payload[2]
        assert ev["evicted"] == ["GPU_F2"]
        assert ev["time_lost_s"] > 0
        assert "dropout at frame 3" in ev["reasons"]["GPU_F2"]
