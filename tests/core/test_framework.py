"""Framework Control: adaptation dynamics in model mode."""

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import NoiseModel, PerturbationEvent, PerturbationSchedule
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def run(platform="SysHK", n=10, cfg=CFG, fw_cfg=None):
    fw = FevesFramework(get_platform(platform), cfg, fw_cfg or FrameworkConfig())
    outcomes = fw.run_model(n)
    return fw, outcomes


class TestAdaptation:
    def test_frame2_beats_equidistant_init(self):
        """Paper Fig. 7: 'significant reduction ... starting already with
        frame 2'."""
        for platform in ("SysNF", "SysNFF", "SysHK"):
            fw, out = run(platform, 4)
            assert out[1].time_s < out[0].time_s * 0.95

    def test_steady_state_is_stable(self):
        fw, out = run("SysHK", 20)
        times = [o.time_s for o in out[3:]]
        assert max(times) - min(times) < 0.02 * max(times)

    def test_single_device_platforms_trivially_stable(self):
        fw, out = run("GPU_K", 5)
        assert all(abs(o.time_s - out[1].time_s) < 1e-9 for o in out[1:])

    def test_perturbation_recovery_within_one_frame(self):
        """Paper §IV: 'a very fast recovery ... required a single
        inter-frame to converge'."""
        noise = NoiseModel(
            schedule=PerturbationSchedule(
                [PerturbationEvent(frame=10, device="CPU_H", factor=2.0)]
            )
        )
        fw, out = run("SysHK", 16, fw_cfg=FrameworkConfig(noise=noise))
        steady = out[8].time_s
        spike = out[9].time_s       # frame 10 (1-based) is perturbed
        recovered = out[11].time_s  # one frame after the event clears
        assert spike > steady * 1.2
        assert recovered == pytest.approx(steady, rel=0.05)

    def test_persistent_slowdown_rebalances(self):
        """A lasting CPU slowdown shifts rows to the GPU and settles at a
        new (higher) steady time instead of thrashing."""
        noise = NoiseModel(
            schedule=PerturbationSchedule(
                [PerturbationEvent(frame=8, device="CPU_H", factor=3.0,
                                   duration=100)]
            )
        )
        fw, out = run("SysHK", 20, fw_cfg=FrameworkConfig(noise=noise))
        before = out[5].time_s
        after = [o.time_s for o in out[12:]]
        # settles...
        assert max(after) - min(after) < 0.05 * max(after)
        # ...at a worse-but-bounded level (GPU picks up the slack).
        assert before < after[0] < before * 1.6
        # rows actually moved away from the CPU.
        cpu_idx = 1
        m_before = out[5].report.decision.m.rows[cpu_idx]
        m_after = out[15].report.decision.m.rows[cpu_idx]
        assert m_after < m_before


class TestRefRampUp:
    def test_fig7b_warmup_ramp(self):
        """With R references configured, frames 2..R see growing ME load."""
        cfg = CodecConfig(width=1920, height=1088, search_range=16,
                          num_ref_frames=5)
        fw, out = run("SysHK", 12, cfg=cfg)
        times = [o.time_s for o in out]
        # Ramp: each of frames 2..5 sees one more active reference than the
        # last, so encoding time climbs (list index = frame - 1).
        assert times[1] < times[2] < times[3] < times[4]
        # Then near-constant once all 5 references are in play.
        tail = times[5:]
        assert max(tail) - min(tail) < 0.03 * max(tail)


class TestRStarSelection:
    def test_auto_picks_fastest(self):
        fw, _ = run("SysHK", 3)
        assert fw.rstar_device == "GPU_K"

    def test_forced_cpu_centric(self):
        fw, out = run("SysHK", 6, fw_cfg=FrameworkConfig(centric="cpu"))
        assert fw.rstar_device == "CPU_H"
        assert out[-1].fps > 25  # still functional

    def test_forced_gpu_centric(self):
        fw, _ = run("SysHK", 3, fw_cfg=FrameworkConfig(centric="gpu"))
        assert fw.rstar_device == "GPU_K"


class TestReporting:
    def test_outcome_accessors(self):
        fw, out = run("SysHK", 3)
        assert out[0].fps == pytest.approx(1 / out[0].time_s)
        assert len(fw.frame_times_ms()) == 3
        assert fw.steady_state_fps() > 0

    def test_scheduling_overhead_under_2ms(self):
        """The paper's overhead claim, measured on our LB implementation."""
        fw, _ = run("SysNFF", 30)
        assert fw.scheduling_overhead_ms < 2.0

    def test_run_model_validates_input(self):
        fw = FevesFramework(get_platform("SysHK"), CFG)
        with pytest.raises(ValueError):
            fw.run_model(0)

    def test_encode_requires_real_mode(self):
        fw = FevesFramework(get_platform("SysHK"), CFG)
        with pytest.raises(RuntimeError, match="real"):
            fw.encode([])

    def test_summary(self):
        fw, _ = run("SysHK", 10)
        s = fw.summary()
        assert s["platform"] == "SysHK"
        assert s["frames"] == 10
        assert s["realtime"] is True
        assert s["rstar_device"] == "GPU_K"
        assert sum(s["distribution"]["me"]) == 68
        assert 0 < s["compute_utilization"]["GPU_K"] <= 1.0

    def test_summary_requires_frames(self):
        fw = FevesFramework(get_platform("SysHK"), CFG)
        with pytest.raises(RuntimeError, match="nothing encoded"):
            fw.summary()


class TestOptionSurface:
    def test_config_fields_and_des_signature_are_pinned(self):
        """Every independently settable option is listed here, so a knob
        cannot be added (or a removed one return) without this changing."""
        import dataclasses
        import inspect

        from repro.hw.des import Simulator

        assert {f.name for f in dataclasses.fields(FrameworkConfig)} == {
            "compute", "centric", "gop_size", "ewma_alpha",
            "lp_delta_iterations", "sf_halo_rows", "noise",
            "min_rows_per_device", "lb_cache_rtol", "enable_parking",
            "rstar_parallel", "faults", "fault_detection_timeout_s",
            "warmup_rows", "backend", "exec_workers", "calibrate",
        }
        assert str(inspect.signature(Simulator.run)) == (
            "(self, execute_thunks: 'bool' = True) -> 'list[OpRecord]'"
        )
        with pytest.raises(TypeError):
            FrameworkConfig(lp_warm_start=False)
