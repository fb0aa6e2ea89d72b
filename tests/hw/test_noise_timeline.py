"""Noise injection and timeline utilities."""

import dataclasses

import pytest

from repro.codec.config import CodecConfig
from repro.core.framework import FevesFramework
from repro.hw.des import OpRecord, Schedule
from repro.hw.noise import (
    FaultEvent,
    FaultSchedule,
    GaussianJitter,
    NoiseModel,
    PerturbationEvent,
    PerturbationSchedule,
)
from repro.hw.presets import get_platform
from repro.hw.timeline import FrameTimeline


class TestPerturbationSchedule:
    def test_factor_applies_during_window(self):
        sched = PerturbationSchedule(
            [PerturbationEvent(frame=10, device="CPU", factor=2.0, duration=2)]
        )
        assert sched.factor(9, "CPU") == 1.0
        assert sched.factor(10, "CPU") == 2.0
        assert sched.factor(11, "CPU") == 2.0
        assert sched.factor(12, "CPU") == 1.0

    def test_device_scoped(self):
        sched = PerturbationSchedule(
            [PerturbationEvent(frame=5, device="GPU", factor=3.0)]
        )
        assert sched.factor(5, "CPU") == 1.0

    def test_events_compose(self):
        sched = PerturbationSchedule(
            [
                PerturbationEvent(frame=5, device="D", factor=2.0),
                PerturbationEvent(frame=5, device="D", factor=1.5),
            ]
        )
        assert sched.factor(5, "D") == 3.0

    def test_paper_fig7b_events(self):
        s1 = PerturbationSchedule.paper_fig7b("CPU_H", 1)
        assert s1.factor(76, "CPU_H") == 2.0
        assert s1.factor(81, "CPU_H") == 2.0
        assert s1.factor(31, "CPU_H") == 1.0
        s2 = PerturbationSchedule.paper_fig7b("CPU_H", 2)
        assert {e.frame for e in s2.events} == {31, 71, 92}
        s5 = PerturbationSchedule.paper_fig7b("CPU_H", 5)
        assert s5.events == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationEvent(frame=1, device="D", factor=0.0)
        with pytest.raises(ValueError):
            PerturbationEvent(frame=1, device="D", factor=1.0, duration=0)

    def test_speedup_factor_allowed(self):
        # factors in (0, 1) model a device speeding up (e.g. background
        # load ending); only non-positive factors are invalid.
        sched = PerturbationSchedule(
            [PerturbationEvent(frame=3, device="D", factor=0.5)]
        )
        assert sched.factor(3, "D") == 0.5
        with pytest.raises(ValueError):
            PerturbationEvent(frame=1, device="D", factor=-0.5)

    def test_composition_is_order_independent(self):
        events = [
            PerturbationEvent(frame=4, device="D", factor=2.0, duration=3),
            PerturbationEvent(frame=5, device="D", factor=0.5, duration=3),
            PerturbationEvent(frame=5, device="D", factor=3.0),
        ]
        fwd = PerturbationSchedule(events)
        rev = PerturbationSchedule(list(reversed(events)))
        for frame in range(3, 9):
            assert fwd.factor(frame, "D") == rev.factor(frame, "D")
        assert fwd.factor(5, "D") == pytest.approx(3.0)  # 2.0 * 0.5 * 3.0


class TestFaultSchedule:
    def test_dropout_is_permanent(self):
        sched = FaultSchedule(
            [FaultEvent(frame=5, device="G", kind="dropout")]
        )
        assert sched.down(4, "G") is None
        for frame in (5, 6, 100):
            ev = sched.down(frame, "G")
            assert ev is not None and ev.kind == "dropout"
        assert sched.down(5, "other") is None

    def test_hang_window_closes(self):
        sched = FaultSchedule(
            [FaultEvent(frame=5, device="G", kind="hang", duration=2)]
        )
        assert sched.down(4, "G") is None
        assert sched.down(5, "G") is not None
        assert sched.down(6, "G") is not None
        assert sched.down(7, "G") is None

    def test_degrade_scales_compute_only(self):
        sched = FaultSchedule(
            [FaultEvent(frame=3, device="G", kind="degrade", factor=2.5)]
        )
        assert sched.compute_factor(2, "G") == 1.0
        assert sched.compute_factor(3, "G") == 2.5
        assert sched.compute_factor(50, "G") == 2.5  # permanent
        assert sched.copy_factor(3, "G") == 1.0
        assert sched.down(3, "G") is None  # degraded, not down

    def test_copy_fail_scales_transfers_only(self):
        sched = FaultSchedule(
            [FaultEvent(frame=3, device="G", kind="copy_fail", factor=4.0)]
        )
        assert sched.copy_factor(3, "G") == 4.0
        assert sched.compute_factor(3, "G") == 1.0

    def test_degradations_compose(self):
        sched = FaultSchedule([
            FaultEvent(frame=3, device="G", kind="degrade", factor=2.0),
            FaultEvent(frame=5, device="G", kind="degrade", factor=3.0),
        ])
        assert sched.compute_factor(4, "G") == 2.0
        assert sched.compute_factor(5, "G") == 6.0

    def test_devices_listed(self):
        sched = FaultSchedule([
            FaultEvent(frame=3, device="A", kind="dropout"),
            FaultEvent(frame=4, device="B", kind="degrade", factor=2.0),
        ])
        assert sched.devices() == {"A", "B"}
        assert not sched.empty
        assert FaultSchedule().empty

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(frame=0, device="G", kind="dropout")
        with pytest.raises(ValueError):
            FaultEvent(frame=1, device="G", kind="explode")
        with pytest.raises(ValueError):
            FaultEvent(frame=1, device="G", kind="degrade", factor=0.5)
        with pytest.raises(ValueError):
            FaultEvent(frame=1, device="G", kind="hang")  # needs duration
        with pytest.raises(ValueError):
            FaultEvent(frame=1, device="G", kind="dropout", duration=3)


class TestJitter:
    def test_zero_sigma_identity(self):
        j = GaussianJitter(sigma=0.0)
        assert j.sample() == 1.0

    def test_seed_reproducible(self):
        a = GaussianJitter(sigma=0.1, seed=5)
        b = GaussianJitter(sigma=0.1, seed=5)
        assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]

    def test_never_nonpositive(self):
        j = GaussianJitter(sigma=2.0, seed=1)
        assert all(j.sample() > 0 for _ in range(200))

    def test_noise_model_combines(self):
        nm = NoiseModel(
            schedule=PerturbationSchedule(
                [PerturbationEvent(frame=3, device="D", factor=2.0)]
            ),
            jitter=GaussianJitter(sigma=0.0),
        )
        assert nm.scale(3, "D") == 2.0
        assert nm.scale(2, "D") == 1.0


class TestTimeline:
    def _timeline(self):
        recs = [
            OpRecord("ME", "gpu.compute", "compute", 0.0, 2.0),
            OpRecord("CF", "gpu.copy", "h2d", 0.0, 0.5),
            OpRecord("MV", "gpu.copy", "d2h", 2.0, 2.2),
        ]
        return FrameTimeline(
            frame_index=1, records=Schedule.of(recs), tau1=2.2, tau2=3.0, tau_tot=4.0
        )

    def test_busy_time(self):
        tl = self._timeline()
        busy = tl.busy_by_resource()
        assert busy["gpu.compute"] == pytest.approx(2.0)
        assert busy["gpu.copy"] == pytest.approx(0.7)

    def test_utilization(self):
        tl = self._timeline()
        assert tl.utilization("gpu.compute") == pytest.approx(0.5)

    def test_gantt_text_renders(self):
        text = self._timeline().gantt_text(width=40)
        assert "gpu.compute" in text and "#" in text and ">" in text

    def test_empty_timeline_text(self):
        tl = FrameTimeline(frame_index=0, records=Schedule.of([]))
        assert "empty" in tl.gantt_text()


class TestTrace:
    """A run's frame times and steady-state fps fold its reports' τtot."""

    @staticmethod
    def framework(times_s: list[float]) -> FevesFramework:
        fw = FevesFramework(
            get_platform("SysHK"), CodecConfig(width=64, height=48, search_range=4)
        )
        if times_s:
            fw.run_model(len(times_s))
        fw.reports[:] = [
            dataclasses.replace(r, tau_tot=t)
            for r, t in zip(fw.reports, times_s, strict=True)
        ]
        return fw

    def test_fps_accounting(self):
        fw = self.framework([0.1, 0.05, 0.05, 0.05])
        assert fw.frame_times_ms() == pytest.approx([100.0, 50.0, 50.0, 50.0])
        assert fw.steady_state_fps(warmup=0) == pytest.approx(4 / 0.25)
        assert fw.steady_state_fps(warmup=1) == pytest.approx(20.0)
        # A warm-up longer than the run still counts its last frame.
        assert fw.steady_state_fps(warmup=9) == pytest.approx(20.0)

    def test_empty_trace(self):
        fw = self.framework([])
        assert fw.frame_times_ms() == []
        assert fw.steady_state_fps() == 0.0
