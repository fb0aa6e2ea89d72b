"""Stream specs, deadline classes, and per-stream encoding sessions."""

import math

import pytest

from repro.hw.noise import FaultEvent, FaultSchedule
from repro.service.session import (
    DEADLINE_CLASSES,
    DONE,
    QUEUED,
    RUNNING,
    EncodingSession,
    SessionFaultView,
    StreamSpec,
)


class TestStreamSpec:
    def test_defaults(self):
        spec = StreamSpec("a")
        assert spec.fps_target == 25.0
        assert spec.period_s == pytest.approx(0.04)
        assert spec.deadline_class == "standard"
        assert spec.klass is DEADLINE_CLASSES["standard"]

    def test_validation(self):
        with pytest.raises(ValueError, match="fps_target"):
            StreamSpec("a", fps_target=0)
        with pytest.raises(ValueError, match="n_frames"):
            StreamSpec("a", n_frames=0)
        with pytest.raises(ValueError, match="deadline_class"):
            StreamSpec("a", deadline_class="platinum")
        with pytest.raises(ValueError, match="arrival_s"):
            StreamSpec("a", arrival_s=-1.0)

    def test_codec_config_carries_shape(self):
        spec = StreamSpec("a", width=640, height=368, search_range=8)
        cfg = spec.codec_config()
        assert (cfg.width, cfg.height, cfg.search_range) == (640, 368, 8)

    def test_background_has_no_deadline(self):
        assert math.isinf(DEADLINE_CLASSES["background"].budget_factor)


class TestSessionFaultView:
    def test_queries_answer_for_current_round(self):
        sched = FaultSchedule(
            [FaultEvent(frame=5, device="GPU_K", kind="dropout")]
        )
        view = SessionFaultView(sched)
        view.round = 4
        assert view.down(1, "GPU_K") is None  # frame arg ignored
        view.round = 5
        assert view.down(99, "GPU_K") is not None
        assert view.devices() == {"GPU_K"}
        assert not view.empty

    def test_degrade_factor_follows_round(self):
        sched = FaultSchedule(
            [FaultEvent(frame=3, device="GPU_K", kind="degrade", factor=2.5)]
        )
        view = SessionFaultView(sched)
        view.round = 2
        assert view.compute_factor(1, "GPU_K") == 1.0
        view.round = 3
        assert view.compute_factor(1, "GPU_K") == 2.5


class TestEncodingSession:
    def test_lifecycle_and_capture_clock(self):
        sess = EncodingSession(StreamSpec("a", fps_target=10, n_frames=2), "SysHK")
        assert sess.state == QUEUED
        assert not sess.has_pending(0.0)  # not admitted yet
        sess.admit(1.0)
        assert sess.state == RUNNING
        assert sess.capture_s(1) == 1.0
        assert sess.capture_s(2) == pytest.approx(1.1)
        assert sess.has_pending(1.0)
        rec = sess.step(1.0, 1.0, round_idx=1)
        assert rec.index == 1 and rec.share == 1.0
        assert rec.end_s == pytest.approx(1.0 + rec.tau_s)
        # frame 2 captures at 1.1; not pending before then
        assert not sess.has_pending(1.05)
        assert sess.has_pending(1.2)
        sess.step(1.2, 1.0, round_idx=2)
        assert sess.done and sess.state == DONE
        with pytest.raises(RuntimeError):
            sess.step(2.0, 1.0, round_idx=3)

    def test_half_share_doubles_frame_time(self):
        full = EncodingSession(StreamSpec("a", n_frames=1), "SysHK")
        full.admit(0.0)
        t_full = full.step(0.0, 1.0, 1).tau_s
        half = EncodingSession(StreamSpec("b", n_frames=1), "SysHK")
        half.admit(0.0)
        t_half = half.step(0.0, 0.5, 1).tau_s
        assert t_half == pytest.approx(2 * t_full, rel=1e-9)

    def test_busy_device_seconds_scale_with_share(self):
        sess = EncodingSession(StreamSpec("a", n_frames=1), "SysHK")
        sess.admit(0.0)
        rec = sess.step(0.0, 0.5, 1)
        # busy seconds are share-weighted: can never exceed the true
        # device-seconds available in the round
        assert sess.busy_device_s
        for res, t in sess.busy_device_s.items():
            assert 0 <= t <= rec.tau_s * 0.5 + 1e-9

    def test_busy_device_seconds_total_the_frames(self):
        """The session keeps a running total, not one dict per frame."""
        sess = EncodingSession(StreamSpec("a", n_frames=3), "SysHK")
        sess.admit(0.0)
        expected: dict[str, float] = {}
        for k, share in enumerate((1.0, 0.5, 0.25), start=1):
            sess.step(0.0, share, k)
            for res, b in sess.framework.reports[-1].timeline.busy_by_resource().items():
                expected[res] = expected.get(res, 0.0) + b * share
        assert sess.busy_device_s == expected
        assert not hasattr(sess.records[0], "busy_device_s")

    def test_est_frame_s_is_share_normalized(self):
        a = EncodingSession(StreamSpec("a", n_frames=1), "SysHK")
        a.admit(0.0)
        a.step(0.0, 1.0, 1)
        b = EncodingSession(StreamSpec("b", n_frames=1), "SysHK")
        b.admit(0.0)
        b.step(0.0, 0.25, 1)
        assert b.est_frame_s == pytest.approx(a.est_frame_s, rel=1e-9)

    def test_deadline_for_class(self):
        rt = EncodingSession(
            StreamSpec("a", fps_target=10, deadline_class="realtime"), "SysHK"
        )
        assert rt.deadline_for(2.0) == pytest.approx(2.1)
        bg = EncodingSession(
            StreamSpec("b", fps_target=10, deadline_class="background"), "SysHK"
        )
        assert math.isinf(bg.deadline_for(2.0))

    def test_wait_time(self):
        sess = EncodingSession(StreamSpec("a", arrival_s=1.0), "SysHK")
        assert sess.wait_s == 0.0
        sess.admit(3.5)
        assert sess.wait_s == pytest.approx(2.5)
