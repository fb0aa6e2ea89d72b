"""Baselines: single-device, equidistant, ME-offload, oracle."""

import pytest

from repro.baselines import (
    run_equidistant,
    run_offload_me,
    run_oracle_static,
    run_single_device,
)
from repro.baselines.equidistant import equidistant_decision
from repro.baselines.offload_me import offload_me_decision
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


class TestSingleDevice:
    def test_rates_ordering(self):
        fps = {
            n: run_single_device(n, CFG, 5).steady_state_fps()
            for n in ("CPU_N", "CPU_H", "GPU_F", "GPU_K")
        }
        assert fps["CPU_N"] < fps["CPU_H"] < fps["GPU_F"] < fps["GPU_K"]

    def test_rejects_multi_device_platform(self):
        with pytest.raises(ValueError):
            run_single_device("SysHK", CFG, 2)


class TestEquidistant:
    def test_gpu_only_excludes_cpu(self):
        p = get_platform("SysNFF")
        d = equidistant_decision(p, CFG, include_cpu=False)
        cpu_idx = [i for i, dev in enumerate(p.devices) if not dev.is_accelerator][0]
        assert d.m.rows[cpu_idx] == 0
        assert sum(d.m.rows) == 68

    def test_include_cpu_splits_evenly(self):
        p = get_platform("SysNFF")
        d = equidistant_decision(p, CFG, include_cpu=True)
        assert max(d.m.rows) - min(d.m.rows) <= 1

    def test_two_equal_gpus_beat_one(self):
        one = run_single_device("GPU_F", CFG, 5).steady_state_fps()
        two = run_equidistant(get_platform("SysNFF"), CFG, 5).steady_state_fps()
        assert two > 1.5 * one

    def test_feves_beats_equidistant_with_cpu(self):
        """The headline ablation: adaptive LP vs static equal split."""
        eq = run_equidistant(get_platform("SysNFF"), CFG, 8, include_cpu=True)
        fw = FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig())
        fw.run_model(8)
        assert fw.steady_state_fps() > 1.2 * eq.steady_state_fps()


class TestOffloadMe:
    def test_limited_by_cpu_modules(self):
        r = run_offload_me(get_platform("SysNF"), CFG, 6)
        feves = FevesFramework(get_platform("SysNF"), CFG, FrameworkConfig())
        feves.run_model(6)
        assert feves.steady_state_fps() > 1.3 * r.steady_state_fps()

    def test_requires_gpu_and_cpu(self):
        with pytest.raises(ValueError):
            offload_me_decision(get_platform("GPU_K"), CFG)

    def test_decision_shape(self):
        p = get_platform("SysNF")
        d = offload_me_decision(p, CFG)
        assert d.m.rows == (68, 0)
        assert d.l.rows == (0, 68)
        assert d.s.rows == (0, 68)


class TestOracle:
    def test_feves_converges_to_oracle(self):
        """On a stationary platform, adaptive FEVES ≈ oracle static."""
        oracle = run_oracle_static(get_platform("SysHK"), CFG, 8)
        fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
        fw.run_model(8)
        assert fw.steady_state_fps() == pytest.approx(
            oracle.steady_state_fps(), rel=0.08
        )

    def test_oracle_beats_equidistant(self):
        oracle = run_oracle_static(get_platform("SysNFF"), CFG, 6)
        eq = run_equidistant(
            get_platform("SysNFF"), CFG, 6, include_cpu=True
        )
        assert oracle.steady_state_fps() > eq.steady_state_fps()
