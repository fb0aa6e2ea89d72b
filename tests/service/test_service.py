"""End-to-end encoding service: sharing, parity, faults, exports."""

import json

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.service import (
    EncodingService,
    ServiceConfig,
    StreamSpec,
    build_workload,
)


def serve(workload, **cfg_kw):
    svc = EncodingService(ServiceConfig(**cfg_kw))
    metrics = svc.run(workload)
    return svc, metrics


class TestSingleStreamParity:
    def test_bit_identical_to_standalone_run(self):
        """ISSUE acceptance: one stream through the service == repro run."""
        n = 8
        spec = StreamSpec("solo", n_frames=n)
        fw = FevesFramework(
            get_platform("SysHK"), spec.codec_config(), FrameworkConfig()
        )
        fw.run_model(n)

        svc, metrics = serve([spec])
        sess = svc.sessions[0]
        assert metrics.stream("solo").frames == n
        for ref, got in zip(fw.reports, sess.framework.reports, strict=True):
            assert got.decision == ref.decision      # bit-identical rows
            assert got.tau_tot == ref.tau_tot        # exact, no tolerance
            assert got.rstar_device == ref.rstar_device

    def test_single_stream_runs_at_full_share(self):
        svc, _ = serve([StreamSpec("solo", n_frames=3)])
        assert all(r.share == 1.0 for r in svc.sessions[0].records)


class TestSharing:
    def test_two_streams_halve_throughput(self):
        svc, _ = serve([StreamSpec("solo", n_frames=2)])
        tau_solo = svc.sessions[0].records[0].tau_s
        svc2, _ = serve(
            [StreamSpec("a", n_frames=2), StreamSpec("b", n_frames=2)]
        )
        tau_shared = svc2.sessions[0].records[0].tau_s
        assert tau_shared == pytest.approx(2 * tau_solo, rel=0.01)

    def test_rounds_advance_by_slowest_session(self):
        svc, metrics = serve(
            [StreamSpec("a", n_frames=3), StreamSpec("b", n_frames=3)]
        )
        rec_a = svc.sessions[0].records
        rec_b = svc.sessions[1].records
        for ra, rb in zip(rec_a, rec_b, strict=True):
            assert ra.start_s == rb.start_s  # co-scheduled rounds
        assert metrics.rounds == 3

    def test_utilization_bounded_by_one(self):
        _, metrics = serve(build_workload(4, n_frames=3))
        assert metrics.device_utilization
        for util in metrics.device_utilization.values():
            assert 0 < util <= 1.0 + 1e-9

    def test_staggered_arrival_waits_for_clock(self):
        svc, _ = serve(
            [
                StreamSpec("now", n_frames=4),
                StreamSpec("later", n_frames=2, arrival_s=0.08),
            ]
        )
        later = svc.sessions[1]
        assert later.admitted_s >= 0.08
        assert later.records[0].start_s >= 0.08


class TestBackpressure:
    def test_overload_queues_and_rejects(self):
        # 60 fps HD streams: SysHK sustains ~1; the rest queue then spill
        wl = [
            StreamSpec(f"s{i:02d}", fps_target=60.0, n_frames=2)
            for i in range(8)
        ]
        svc, metrics = serve(wl, max_queue=2)
        assert metrics.admission["rejected"] == 8 - 1 - 2
        rejected = [s for s in svc.sessions if s.state == "rejected"]
        assert len(rejected) == metrics.admission["rejected"]
        assert all(not s.records for s in rejected)

    def test_queued_stream_admitted_after_drain(self):
        wl = [
            StreamSpec("big", fps_target=40.0, n_frames=2),
            StreamSpec("waiter", fps_target=40.0, n_frames=2),
        ]
        svc, metrics = serve(wl, headroom=0.9, max_queue=4)
        waiter = metrics.stream("waiter")
        assert waiter.state == "done"
        assert waiter.wait_s > 0
        assert metrics.admission["completed"] == 2

    def test_headroom_validation(self):
        with pytest.raises(ValueError, match="headroom"):
            ServiceConfig(headroom=0.0)


class TestFaults:
    FAULTS = FaultSchedule([FaultEvent(frame=2, device="GPU_K", kind="dropout")])

    def test_dropout_rebalances_every_stream(self):
        """ISSUE acceptance: device dropout during a multi-stream run."""
        svc, metrics = serve(
            build_workload(3, n_frames=4), faults=self.FAULTS
        )
        assert metrics.fault_events == 3  # every stream saw it
        for sess in svc.sessions:
            log = [e for e in sess.framework.fault_log if e.eventful]
            assert log and log[0].evicted == ("GPU_K",)
            # ... in the service round the schedule names, not a round late
            rounds = {rec.index: rec.round for rec in sess.records}
            assert rounds[log[0].frame_index] == 2
            # post-fault decisions exclude the dead device
            idx = [d.name for d in sess.framework.platform.devices].index(
                "GPU_K"
            )
            assert sess.framework.reports[-1].decision.m.rows[idx] == 0
        for m in metrics.streams:
            assert m.fault_events == 1
            assert m.frames == 4  # survivors finished every frame

    def test_fault_visible_in_trace(self, tmp_path):
        svc, _ = serve(build_workload(2, n_frames=3), faults=self.FAULTS)
        out = tmp_path / "trace.json"
        svc.export_trace(out)
        events = json.loads(out.read_text())["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["pid"] for e in instants} == {1, 2}  # per-stream events

    def test_dropout_throttles_admission(self):
        always_down = FaultSchedule(
            [FaultEvent(frame=1, device="GPU_K", kind="dropout")]
        )
        wl = [
            StreamSpec(f"s{i}", fps_target=20.0, n_frames=1) for i in range(4)
        ]
        _, healthy = serve(wl, max_queue=0)
        _, degraded = serve(wl, max_queue=0, faults=always_down)
        assert degraded.admission["admitted"] < healthy.admission["admitted"]

    def test_unknown_fault_device_rejected_early(self):
        with pytest.raises(KeyError):
            EncodingService(
                ServiceConfig(
                    faults=FaultSchedule(
                        [FaultEvent(frame=1, device="nope", kind="dropout")]
                    )
                )
            )


class TestMetricsAndExport:
    def test_percentiles_and_miss_rate_reported(self):
        _, metrics = serve(build_workload(2, n_frames=4))
        assert metrics.p50_ms > 0
        assert metrics.p50_ms <= metrics.p95_ms <= metrics.p99_ms
        assert 0 <= metrics.deadline_miss_rate <= 1
        for m in metrics.streams:
            assert m.p50_ms > 0 and m.achieved_fps > 0

    def test_background_never_misses(self):
        _, metrics = serve(
            [
                StreamSpec(
                    "bg",
                    n_frames=3,
                    fps_target=200.0,  # hopeless target
                    deadline_class="background",
                )
            ]
        )
        assert metrics.stream("bg").deadline_miss_rate == 0.0

    def test_json_export_roundtrips(self, tmp_path):
        svc, metrics = serve(build_workload(2, n_frames=2))
        out = tmp_path / "metrics.json"
        svc.export_metrics(out)
        payload = json.loads(out.read_text())
        assert payload == metrics.to_dict()
        assert len(payload["streams"]) == 2

    def test_trace_export_namespaces_streams(self, tmp_path):
        svc, _ = serve(build_workload(2, n_frames=2))
        out = tmp_path / "trace.json"
        n = svc.export_trace(out)
        assert n > 0
        events = json.loads(out.read_text())["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert names == {
            1: "s00 (standard, 25 fps)",
            2: "s01 (standard, 25 fps)",
        }
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {1, 2}
        assert all(e["args"]["stream"].startswith("s0") for e in xs)

    def test_metrics_before_run_raises(self):
        with pytest.raises(RuntimeError, match="nothing served"):
            EncodingService().metrics
