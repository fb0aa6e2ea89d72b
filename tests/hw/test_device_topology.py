"""Device model, copy-engine aliasing and platform topology."""

import pytest

from repro.hw.device import Device, DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.presets import CPU_N, GPU_F, GPU_K, get_platform, list_platforms
from repro.hw.rates import ModuleRates
from repro.hw.topology import Platform

RATES = ModuleRates(me_mb_us=1, int_row_us=1, sme_row_us=1, rstar_row_us=1)


class TestDeviceSpec:
    def test_gpu_requires_link(self):
        with pytest.raises(ValueError, match="requires a link"):
            DeviceSpec(name="g", kind="gpu", rates=RATES)

    def test_cpu_must_not_have_link(self):
        with pytest.raises(ValueError, match="must not"):
            DeviceSpec(
                name="c", kind="cpu", rates=RATES,
                link=LinkSpec(h2d_gbps=1, d2h_gbps=1),
            )

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="x", kind="tpu", rates=RATES)


class TestCopyEngines:
    def test_single_engine_aliases_directions(self):
        spec = DeviceSpec(
            name="g", kind="gpu", rates=RATES,
            link=LinkSpec(h2d_gbps=1, d2h_gbps=1, copy_engines=1),
        )
        dev = Device(spec=spec)
        assert dev.copy_h2d is dev.copy_d2h
        assert len(dev.resources()) == 2  # compute + shared copy

    def test_dual_engines_distinct(self):
        spec = DeviceSpec(
            name="g", kind="gpu", rates=RATES,
            link=LinkSpec(h2d_gbps=1, d2h_gbps=1, copy_engines=2),
        )
        dev = Device(spec=spec)
        assert dev.copy_h2d is not dev.copy_d2h
        assert len(dev.resources()) == 3

    def test_cpu_has_no_copy_engines(self):
        dev = Device(spec=DeviceSpec(name="c", kind="cpu", rates=RATES))
        assert dev.copy_h2d is None
        assert dev.transfer_s(10**9, "h2d") == 0.0
        assert len(dev.resources()) == 1


class TestPlatform:
    def test_presets_exist(self):
        assert set(list_platforms()) == {
            "CPU_H", "CPU_N", "GPU_F", "GPU_K", "SysHK", "SysNF", "SysNFF"
        }

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_platform("SysXYZ")

    def test_sysnff_layout(self):
        p = get_platform("SysNFF")
        assert [d.name for d in p.devices] == ["GPU_F", "GPU_F2", "CPU_N"]
        assert p.n_workers == 2
        assert p.cpu is not None and p.cpu.name == "CPU_N"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Platform(name="bad", specs=[CPU_N, CPU_N])

    def test_two_cpus_rejected(self):
        from repro.hw.presets import CPU_H

        with pytest.raises(ValueError, match="one aggregate CPU"):
            Platform(name="bad", specs=[CPU_N, CPU_H])

    def test_device_lookup(self):
        p = get_platform("SysHK")
        assert p.device("GPU_K").is_accelerator
        with pytest.raises(KeyError):
            p.device("GPU_F")

    def test_fresh_creates_new_resources(self):
        """Every ``get_platform`` call builds its own DES resources."""
        p, q = get_platform("SysHK"), get_platform("SysHK")
        assert p.devices[0].compute is not q.devices[0].compute


class TestMultiGpuBuilder:
    def test_counts_and_names(self):
        from repro.hw.presets import multi_gpu_platform

        p = multi_gpu_platform(3)
        assert p.n_workers == 3
        assert [d.name for d in p.devices] == [
            "GPU_F", "GPU_F2", "GPU_F3", "CPU_N"
        ]

    def test_without_cpu(self):
        from repro.hw.presets import multi_gpu_platform

        p = multi_gpu_platform(2, cpu=None)
        assert p.cpu is None
        assert p.n_workers == 2

    def test_matches_named_presets(self):
        from repro.hw.presets import multi_gpu_platform

        one = multi_gpu_platform(1)
        assert [s.name for s in one.specs] == [
            s.name for s in get_platform("SysNF").specs
        ]
        two = multi_gpu_platform(2)
        assert [s.name for s in two.specs] == [
            s.name for s in get_platform("SysNFF").specs
        ]

    def test_zero_gpus_rejected(self):
        from repro.hw.presets import multi_gpu_platform

        with pytest.raises(ValueError):
            multi_gpu_platform(0)


class TestCalibration:
    """Paper §IV ratio anchors, evaluated analytically from the rate models."""

    CFG = None

    @classmethod
    def setup_class(cls):
        from repro.codec.config import CodecConfig

        cls.CFG = CodecConfig(width=1920, height=1088, search_range=16)

    def _frame_time(self, spec, refs=1):
        cfg = self.CFG
        r = spec.rates
        return (
            r.me_row_s(cfg, refs) * 68
            + r.int_row_s(cfg) * 68
            + r.sme_row_s(cfg) * 68
            + r.rstar_frame_s(cfg)
        )

    def test_haswell_vs_nehalem(self):
        from repro.hw.presets import CPU_H

        ratio = self._frame_time(CPU_N) / self._frame_time(CPU_H)
        assert 1.5 <= ratio <= 1.9  # paper: "about 1.7 times faster"

    def test_kepler_vs_fermi(self):
        ratio = self._frame_time(GPU_F) / self._frame_time(GPU_K)
        assert 1.7 <= ratio <= 2.3  # paper: "almost 2 times"

    def test_gpus_realtime_at_32sa_1rf(self):
        # ≥ 25 fps for both GPUs at 32×32 SA and 1 RF (paper §IV).
        assert 1.0 / self._frame_time(GPU_F) >= 25.0
        assert 1.0 / self._frame_time(GPU_K) >= 25.0

    def test_cpus_not_realtime(self):
        from repro.hw.presets import CPU_H

        assert 1.0 / self._frame_time(CPU_N) < 25.0
        assert 1.0 / self._frame_time(CPU_H) < 25.0

    def test_fermi_single_copy_kepler_dual(self):
        assert GPU_F.link is not None and GPU_F.link.copy_engines == 1
        assert GPU_K.link is not None and GPU_K.link.copy_engines == 2
