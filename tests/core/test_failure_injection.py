"""Failure injection and extreme operating points."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.device import DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.noise import NoiseModel, PerturbationEvent, PerturbationSchedule
from repro.hw.presets import CPU_N, GPU_K, get_platform
from repro.hw.rates import ModuleRates
from repro.hw.topology import Platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


class TestExtremeAsymmetry:
    def test_thousandfold_slower_cpu_is_sidelined(self):
        """A uselessly slow device must not drag the system below the fast
        device's solo throughput (the LP may assign it ~nothing)."""
        glacial = DeviceSpec(
            name="glacialCPU",
            kind="cpu",
            rates=ModuleRates(
                me_mb_us=CPU_N.rates.me_mb_us * 1000,
                int_row_us=CPU_N.rates.int_row_us * 1000,
                sme_row_us=CPU_N.rates.sme_row_us * 1000,
                rstar_row_us=CPU_N.rates.rstar_row_us * 1000,
            ),
        )
        platform = Platform(name="lopsided", specs=[GPU_K, glacial])
        fw = FevesFramework(platform, CFG, FrameworkConfig())
        fw.run_model(10)
        solo = FevesFramework(get_platform("GPU_K"), CFG, FrameworkConfig())
        solo.run_model(10)
        assert fw.steady_state_fps() >= 0.95 * solo.steady_state_fps()
        final = fw.reports[-1].decision
        cpu_rows = final.m.rows[1] + final.l.rows[1] + final.s.rows[1]
        assert cpu_rows <= 3  # essentially idle

    def test_crippled_link_pushes_work_off_gpu(self):
        """A near-dead PCIe link makes the GPU not worth feeding."""
        dead_link_gpu = DeviceSpec(
            name="farGPU",
            kind="gpu",
            rates=GPU_K.rates,
            link=LinkSpec(h2d_gbps=0.05, d2h_gbps=0.05, latency_s=1e-3),
        )
        platform = Platform(name="deadlink", specs=[dead_link_gpu, CPU_N])
        fw = FevesFramework(platform, CFG, FrameworkConfig(centric="cpu"))
        fw.run_model(10)
        solo_cpu = FevesFramework(get_platform("CPU_N"), CFG, FrameworkConfig())
        solo_cpu.run_model(10)
        # The system must not collapse far below CPU-only throughput.
        assert fw.steady_state_fps() >= 0.8 * solo_cpu.steady_state_fps()


class TestLpFallbacks:
    def test_heuristic_fallback_on_lp_failure(self, monkeypatch):
        """If linprog dies, the speed-proportional heuristic takes over."""
        import repro.core.load_balancing as lb

        def broken_linprog(*args, **kwargs):
            class R:
                success = False
                x = None
            return R()

        monkeypatch.setattr(lb, "linprog", broken_linprog)
        fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
        out = fw.run_model(6)
        for dist in (fw.reports[-1].decision.m, fw.reports[-1].decision.s):
            assert sum(dist.rows) == 68
        assert not fw.reports[-1].decision.used_lp
        # Heuristic still beats the equidistant init frame.
        assert out[-1].time_s < out[0].time_s


class TestPathologicalNoise:
    def test_wild_jitter_never_breaks_the_loop(self):
        from repro.hw.noise import GaussianJitter

        fw = FevesFramework(
            get_platform("SysNFF"),
            CFG,
            FrameworkConfig(
                noise=NoiseModel(jitter=GaussianJitter(sigma=0.5, seed=7))
            ),
        )
        out = fw.run_model(30)
        assert all(o.time_s > 0 for o in out)
        for rep in fw.reports:
            assert sum(rep.decision.m.rows) == 68

    def test_simultaneous_multi_device_spikes(self):
        noise = NoiseModel(
            schedule=PerturbationSchedule(
                [
                    PerturbationEvent(frame=5, device="GPU_F", factor=3.0),
                    PerturbationEvent(frame=5, device="CPU_N", factor=3.0),
                ]
            )
        )
        fw = FevesFramework(
            get_platform("SysNF"), CFG, FrameworkConfig(noise=noise)
        )
        out = fw.run_model(10)
        assert out[4].time_s > 1.5 * out[3].time_s   # everything slowed
        assert out[7].time_s == pytest.approx(out[3].time_s, rel=0.05)


class TestTinyGeometry:
    def test_single_mb_row_frame(self):
        """N=1: the LP degenerates gracefully (one device gets the row)."""
        cfg = CodecConfig(width=1920, height=16, search_range=16)
        fw = FevesFramework(get_platform("SysHK"), cfg, FrameworkConfig())
        out = fw.run_model(5)
        for rep in fw.reports:
            assert sum(rep.decision.m.rows) == 1
        assert all(o.time_s > 0 for o in out)

    def test_minimal_frame_real_mode(self):
        """A single 16x16 MB, end to end, collaborative vs reference."""
        from repro.codec.encoder import ReferenceEncoder
        from repro.video.generator import SyntheticSequence

        cfg = CodecConfig(width=32, height=32, search_range=4)
        clip = SyntheticSequence(width=32, height=32, seed=1).frames(3)
        ref = ReferenceEncoder(cfg).encode_sequence(clip)
        fw = FevesFramework(
            get_platform("SysHK"), cfg, FrameworkConfig()
        )
        out = fw.encode(clip)
        for r, o in zip(ref, out, strict=True):
            assert o.encoded is not None and r.bits == o.encoded.bits
            np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)
