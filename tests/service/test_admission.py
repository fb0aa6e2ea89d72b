"""Capacity model and admission control."""

import pytest

from repro.hw.presets import get_platform
from repro.service.admission import (
    ADMITTED,
    QUEUED,
    REJECTED,
    AdmissionController,
    CapacityModel,
)
from repro.service.session import EncodingSession, StreamSpec


def make_session(sid="s", **kw):
    return EncodingSession(StreamSpec(sid, **kw), "SysHK")


@pytest.fixture
def capacity():
    return CapacityModel(get_platform("SysHK"))


class TestCapacityModel:
    def test_platform_beats_single_device(self, capacity):
        cfg = StreamSpec("a").codec_config()
        combined = capacity.platform_frame_s(cfg, 1)
        for spec in capacity.specs:
            assert combined < capacity.device_frame_s(spec, cfg, 1)

    def test_live_subset_shrinks_capacity(self, capacity):
        cfg = StreamSpec("a").codec_config()
        full = capacity.fps_capacity(cfg, 1)
        cpu_only = capacity.fps_capacity(cfg, 1, live={"CPU_H"})
        assert cpu_only < full

    def test_no_live_devices_raises(self, capacity):
        with pytest.raises(ValueError, match="no live devices"):
            capacity.platform_frame_s(StreamSpec("a").codec_config(), 1, live=set())

    def test_demand_fraction_scales_with_fps(self, capacity):
        lo = capacity.demand_fraction(StreamSpec("a", fps_target=10))
        hi = capacity.demand_fraction(StreamSpec("b", fps_target=30))
        assert hi == pytest.approx(3 * lo)


class TestAdmissionController:
    def test_admit_until_capacity_then_queue_then_reject(self, capacity):
        ctrl = AdmissionController(capacity, headroom=1.0, max_queue=1)
        outcomes = [
            ctrl.offer(make_session(f"s{i}", fps_target=30.0), 0.0)
            for i in range(12)
        ]
        assert outcomes[0] == ADMITTED
        assert QUEUED in outcomes and REJECTED in outcomes
        # order is admit* queue* reject*
        assert outcomes == sorted(
            outcomes, key=[ADMITTED, QUEUED, REJECTED].index
        )
        assert outcomes.count(QUEUED) == 1
        assert ctrl.counts[ADMITTED] == outcomes.count(ADMITTED)
        assert ctrl.counts[REJECTED] == outcomes.count(REJECTED)

    def test_release_frees_capacity_for_drain(self, capacity):
        ctrl = AdmissionController(capacity, headroom=0.5, max_queue=4)
        a = make_session("a", fps_target=25.0)
        b = make_session("b", fps_target=25.0)
        assert ctrl.offer(a, 0.0) == ADMITTED
        assert ctrl.offer(b, 0.0) == QUEUED
        assert ctrl.drain(1.0) == []  # still full
        ctrl.release(a)
        assert ctrl.drain(2.0) == [b]
        assert b.admitted_s == 2.0
        assert ctrl.counts["completed"] == 1

    def test_liveness_backstop_admits_oversized_head(self, capacity):
        # a stream too big for even an idle platform must not wait forever
        ctrl = AdmissionController(capacity, headroom=0.1, max_queue=4)
        big = make_session("big", fps_target=60.0)
        assert ctrl.offer(big, 0.0) == QUEUED
        assert ctrl.drain(0.0) == [big]

    def test_fifo_head_blocks_queue(self, capacity):
        ctrl = AdmissionController(capacity, headroom=1.0, max_queue=4)
        filler = make_session("fill", fps_target=25.0)
        assert ctrl.offer(filler, 0.0) == ADMITTED
        big = make_session("big", fps_target=60.0)
        small = make_session("small", fps_target=1.0)
        ctrl.offer(big, 0.0)
        ctrl.offer(small, 0.0)
        # big doesn't fit next to filler; small would, but FIFO holds it back
        assert ctrl.drain(1.0) == []
        assert list(ctrl.queue) == [big, small]

    def test_measured_demand_replaces_model(self, capacity):
        ctrl = AdmissionController(capacity)
        sess = make_session("a", fps_target=25.0)
        model = ctrl.session_fraction(sess, None)
        sess.admit(0.0)
        sess.step(0.0, 1.0, 1)
        measured = ctrl.session_fraction(sess, None)
        assert measured != model
        assert measured == pytest.approx(25.0 * sess.est_frame_s)

    def test_dropout_shrinks_admission_capacity(self, capacity):
        ctrl = AdmissionController(capacity, headroom=1.0, max_queue=8)
        live_all = {"CPU_H", "GPU_K"}
        n_full = 0
        while ctrl.offer(
            make_session(f"f{n_full}", fps_target=25.0), 0.0, live_all
        ) == ADMITTED:
            n_full += 1
        ctrl2 = AdmissionController(capacity, headroom=1.0, max_queue=8)
        n_degraded = 0
        while ctrl2.offer(
            make_session(f"d{n_degraded}", fps_target=25.0), 0.0, {"CPU_H"}
        ) == ADMITTED:
            n_degraded += 1
        assert n_degraded < n_full

    def test_has_room_predicts_offer(self, capacity):
        # has_room takes the spec (a router asks before any session
        # exists) and must agree with what offer() then does.
        ctrl = AdmissionController(capacity, headroom=1.0, max_queue=1)
        outcomes = []
        for i in range(12):
            spec = StreamSpec(f"s{i}", fps_target=30.0)
            room = ctrl.has_room(spec, None)
            outcomes.append(ctrl.offer(EncodingSession(spec, "SysHK"), 0.0))
            assert room == (outcomes[-1] != REJECTED)
        assert {ADMITTED, QUEUED, REJECTED} == set(outcomes)

    def test_count_schema_does_not_depend_on_history(self, capacity):
        ctrl = AdmissionController(capacity)
        fresh = dict(ctrl.counts)
        assert fresh["evicted"] == 0
        ctrl.offer(make_session("a"), 0.0)
        ctrl.evict_all()
        assert set(ctrl.counts) == set(fresh) and ctrl.counts["evicted"] == 1

    def test_parameter_validation(self, capacity):
        with pytest.raises(ValueError, match="headroom"):
            AdmissionController(capacity, headroom=0)
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(capacity, max_queue=-1)
