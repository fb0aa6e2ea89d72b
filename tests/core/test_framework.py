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
        """The paper's overhead claim, measured on our LB implementation.

        A wall-clock mean reads a host-load spike as overhead, so the claim
        is held by the best of three independent 30-frame runs: an LB that
        is really slower still fails all three.
        """
        best = min(run("SysNFF", 30)[0].scheduling_overhead_ms for _ in range(3))
        assert best < 2.0

    def test_run_model_validates_input(self):
        fw = FevesFramework(get_platform("SysHK"), CFG)
        with pytest.raises(ValueError):
            fw.run_model(0)

    def test_summary(self):
        fw, _ = run("SysHK", 10)
        s = fw.summary()
        assert s["platform"] == "SysHK"
        assert s["frames"] == 10
        assert s["realtime"] is True
        assert s["rstar_device"] == "GPU_K"
        assert sum(s["distribution"]["me"]) == 68
        assert 0 < s["compute_utilization"]["GPU_K"] <= 1.0

    def test_accuracy_report_counts_the_lp_frames_on_sim(self):
        """The sim backend's reports are scored like the pool's: every
        frame the LP scheduled, no other (frame 1 is equidistant)."""
        fw = FevesFramework(get_platform("SysHK"), CFG)
        fw.run_model(6)
        acc = fw.accuracy_report().summary()
        lp_frames = sum(1 for r in fw.reports if r.decision.used_lp)
        assert acc["frames"] == lp_frames == 5
        assert 0.0 <= acc["makespan_error_mean"] <= acc["makespan_error_max"]
        assert set(acc["phase_error_mean"]) == {"tau1", "tau2", "tau_tot"}

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

        from repro.hw.des import Op, Simulator

        assert {f.name for f in dataclasses.fields(FrameworkConfig)} == {
            "centric", "gop_size", "ewma_alpha", "noise", "lb_cache_rtol",
            "enable_parking", "rstar_parallel", "faults", "backend",
            "exec_workers",
        }
        assert str(inspect.signature(Simulator.run)) == "(self) -> 'Schedule'"
        assert {f.name for f in dataclasses.fields(Op)} == {
            "label", "resource", "duration", "deps", "category", "start", "end",
        }
        for removed in (
            {"lp_warm_start": False}, {"compute": "real"}, {"calibrate": False},
        ):
            with pytest.raises(TypeError):
                FrameworkConfig(**removed)
        # Phase time is journaled as spans, not handed a profiler.
        with pytest.raises(TypeError):
            FevesFramework(get_platform("SysHK"), CFG, profiler=None)

    def test_codec_config_fields_are_pinned(self):
        """The codec's twelve, each with a CLI flag, benchmark or example
        that sets it (DESIGN.md "Option surface")."""
        import dataclasses

        assert {f.name for f in dataclasses.fields(CodecConfig)} == {
            "width", "height", "search_range", "num_ref_frames", "qp_i",
            "qp_p", "enabled_partitions", "subpel", "subpel_metric",
            "entropy_coder", "num_slices", "deblock_across_slices",
        }
        with pytest.raises(TypeError):
            CodecConfig(lambda_mode=3.5)

    def test_plain_config_runs_both_modes(self):
        """The mode is the method called: one default config serves
        ``run_model()`` and a reference-exact ``encode()``, I frames at
        ``gop_size`` boundaries included."""
        import numpy as np

        from repro.codec.encoder import ReferenceEncoder
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=64, height=48, search_range=4, num_ref_frames=2)
        frames = SyntheticSequence(width=64, height=48, seed=5).frames(5)
        for gop in (0, 3):
            fw_cfg = FrameworkConfig(gop_size=gop)
            assert FevesFramework(
                get_platform("SysHK"), cfg, fw_cfg
            ).run_model(2)[-1].time_s > 0
            out = FevesFramework(get_platform("SysHK"), cfg, fw_cfg).encode(frames)
            ref = ReferenceEncoder(cfg, gop_size=gop).encode_sequence(frames)
            for r, o in zip(ref, out, strict=True):
                assert (r.is_intra, r.bits) == (o.encoded.is_intra, o.encoded.bits)
                for plane in ("y", "u", "v"):
                    np.testing.assert_array_equal(
                        getattr(r.recon, plane), getattr(o.encoded.recon, plane)
                    )

    def test_process_backend_has_no_model_mode(self):
        from pathlib import Path

        from repro.video.generator import SyntheticSequence

        fw = FevesFramework(
            get_platform("SysHK"),
            CodecConfig(width=64, height=48, search_range=4),
            FrameworkConfig(backend="process", exec_workers=1),
        )
        with fw:
            # Start pool and shared memory for real, then misuse the API.
            fw.encode(SyntheticSequence(width=64, height=48, seed=5).frames(2))
            assert fw.manager._pool is not None
            names = [seg.name for seg in fw.manager._store._segments.values()]
            with pytest.raises(ValueError, match="no model mode"):
                fw.run_model(1)
        assert fw.manager._pool is None and fw.manager._store is None
        assert names
        assert not [n for n in names if Path("/dev/shm", n).exists()]

    def test_inter_frame_before_any_intra_fails_by_name(self):
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=64, height=48, search_range=4)
        fw = FevesFramework(get_platform("SysHK"), cfg)
        cur = SyntheticSequence(width=64, height=48, seed=5).frame(3)
        with pytest.raises(RuntimeError, match=r"index=3.*no I frame"):
            fw.encode_frame_at(cur, 3)
        assert not fw.reports  # nothing was scheduled for the bad call


class TestRstarParallelDecidedOnce:
    """``dam.rf_holder`` is cleared only when the manager reports that
    slice-parallel R* really ran (the what-if needs model mode and more
    than one device); anywhere else the flag must change nothing."""

    SLICED = dict(num_slices=2, deblock_across_slices=False)

    @staticmethod
    def _assert_flag_is_inert(on: FevesFramework, off: FevesFramework):
        assert len(on.reports) == len(off.reports) > 2
        for a, b in zip(on.reports, off.reports, strict=True):
            assert not a.rf_on_host
            assert (a.tau1, a.tau2, a.tau_tot) == (b.tau1, b.tau2, b.tau_tot)
            assert a.transfer_plan.total_bytes("h2d") == (
                b.transfer_plan.total_bytes("h2d")
            )
            assert not any(
                r.label.startswith("R*slice") for r in a.timeline.records
            )
        assert on.dam.rf_holder == off.dam.rf_holder is not None

    def test_real_mode_never_slices_rstar(self):
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=64, height=64, search_range=4, **self.SLICED)
        frames = SyntheticSequence(width=64, height=64, seed=5).frames(6)
        fws = []
        for flag in (True, False):
            fw = FevesFramework(
                get_platform("SysHK"), cfg,
                FrameworkConfig(rstar_parallel=flag, centric="gpu"),
            )
            fw.encode(frames)
            fws.append(fw)
        self._assert_flag_is_inert(*fws)

    def test_single_device_model_mode_never_slices_rstar(self):
        cfg = CodecConfig(
            width=1920, height=1088, search_range=16, **self.SLICED
        )
        fws = []
        for flag in (True, False):
            fw = FevesFramework(
                get_platform("GPU_K"), cfg, FrameworkConfig(rstar_parallel=flag)
            )
            fw.run_model(5)
            fws.append(fw)
        self._assert_flag_is_inert(*fws)

    def test_multi_device_model_mode_reports_rf_on_host(self):
        cfg = CodecConfig(
            width=1920, height=1088, search_range=16, **self.SLICED
        )
        fw = FevesFramework(
            get_platform("SysNFF"), cfg, FrameworkConfig(rstar_parallel=True)
        )
        fw.run_model(3)
        assert all(rep.rf_on_host for rep in fw.reports)
        assert fw.dam.rf_holder is None
