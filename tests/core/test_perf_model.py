"""Performance Characterization: observations, EWMA, derived transfer Ks."""

import pytest

import repro.core.perf_model as perf_model
from repro.baselines.oracle import ground_truth_perf
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.load_balancing import LoadBalancer
from repro.core.perf_model import PerformanceCharacterization, buffer_row_bytes
from repro.hw.interconnect import BufferSizes
from repro.hw.presets import get_platform

SIZES = BufferSizes(width=1920, height=1088)


class TestComputeObservation:
    def test_k_is_time_per_row(self):
        p = PerformanceCharacterization()
        p.observe_compute("dev", "me", rows=10, seconds=0.05)
        assert p.k_compute("dev", "me") == pytest.approx(0.005)

    def test_unmeasured_is_none(self):
        p = PerformanceCharacterization()
        assert p.k_compute("dev", "me") is None
        assert p.rstar_frame_s("dev") is None

    def test_alpha_one_takes_latest(self):
        p = PerformanceCharacterization(alpha=1.0)
        p.observe_compute("d", "sme", 10, 1.0)
        p.observe_compute("d", "sme", 10, 2.0)
        assert p.k_compute("d", "sme") == pytest.approx(0.2)

    def test_ewma_blends(self):
        p = PerformanceCharacterization(alpha=0.5)
        p.observe_compute("d", "int", 10, 1.0)   # k = 0.1
        p.observe_compute("d", "int", 10, 2.0)   # new = 0.2
        assert p.k_compute("d", "int") == pytest.approx(0.15)

    def test_zero_rows_ignored(self):
        p = PerformanceCharacterization()
        p.observe_compute("d", "me", 0, 1.0)
        assert p.k_compute("d", "me") is None

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            PerformanceCharacterization().observe_compute("d", "dct", 1, 1.0)

    def test_rstar_observation(self):
        p = PerformanceCharacterization()
        p.observe_rstar("d", 0.004)
        assert p.rstar_frame_s("d") == pytest.approx(0.004)


class TestTransferObservation:
    def test_bandwidth_estimate(self):
        p = PerformanceCharacterization()
        p.observe_transfer("g", "h2d", nbytes=1e9, seconds=0.2)
        assert p.bandwidth("g", "h2d") == pytest.approx(5e9)
        assert p.bandwidth("g", "d2h") is None

    def test_k_transfer_derived_from_bandwidth(self):
        p = PerformanceCharacterization()
        p.observe_transfer("g", "h2d", nbytes=1e9, seconds=0.1)  # 10 GB/s
        k = p.k_transfer("g", "sf", "h2d", SIZES)
        assert k == pytest.approx(SIZES.sf_row / 1e10)

    def test_one_observation_covers_all_buffers(self):
        p = PerformanceCharacterization()
        p.observe_transfer("g", "d2h", nbytes=1e6, seconds=1e-4)
        for buf in ("cf", "cf_full", "rf", "sf", "mv"):
            assert p.k_transfer("g", buf, "d2h", SIZES) is not None

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            PerformanceCharacterization().observe_transfer("g", "up", 1.0, 1.0)

    def test_buffer_row_bytes_unknown(self):
        with pytest.raises(ValueError):
            buffer_row_bytes("dct", SIZES)


class TestReadiness:
    def test_ready_requires_all_modules_and_links(self):
        """The balancer plans with the LP only once every K it needs has a
        measurement: all three modules on every device, both directions
        of every accelerator's link."""
        from repro.codec.config import CodecConfig
        from repro.core.config import FrameworkConfig
        from repro.core.load_balancing import LoadBalancer
        from repro.hw.presets import get_platform

        cfg = CodecConfig(width=1920, height=1088)
        balancer = LoadBalancer(get_platform("SysHK"), cfg, FrameworkConfig())
        p = PerformanceCharacterization()

        def used_lp():
            return balancer.solve(p, "GPU_K", {"GPU_K": False}, {"GPU_K": 0}).used_lp

        assert not used_lp()
        for dev in ("CPU_H", "GPU_K"):
            for mod in ("me", "int", "sme"):
                p.observe_compute(dev, mod, 1, 0.01)
        assert not used_lp()  # link missing
        p.observe_transfer("GPU_K", "h2d", 1e6, 1e-3)
        p.observe_transfer("GPU_K", "d2h", 1e6, 1e-3)
        assert used_lp()

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            PerformanceCharacterization(alpha=0.0)


class TestPriorSeeding:
    """First real observation must replace a prior outright, not blend."""

    def test_first_observation_absorbs_in_one_frame(self):
        p = PerformanceCharacterization(alpha=0.2)
        p.observe_compute("dev", "me", rows=1, seconds=1.0, prior=True)
        assert p.is_prior("dev", "me")
        # With alpha=0.2 a blend would land at 0.2*0.01 + 0.8*1.0 = 0.802;
        # seeding outright lands exactly on the measurement.
        p.observe_compute("dev", "me", rows=10, seconds=0.1)
        assert p.k_compute("dev", "me") == pytest.approx(0.01)
        assert not p.is_prior("dev", "me")

    def test_subsequent_observations_blend(self):
        p = PerformanceCharacterization(alpha=0.5)
        p.observe_compute("dev", "me", rows=1, seconds=0.01)
        p.observe_compute("dev", "me", rows=1, seconds=0.03)
        assert p.k_compute("dev", "me") == pytest.approx(0.02)

    def test_prior_never_overwrites_measurement(self):
        p = PerformanceCharacterization()
        p.observe_compute("dev", "me", rows=1, seconds=0.01)
        p.observe_compute("dev", "me", rows=1, seconds=9.9, prior=True)
        assert p.k_compute("dev", "me") == pytest.approx(0.01)
        assert not p.is_prior("dev", "me")

    def test_rstar_and_transfer_priors(self):
        p = PerformanceCharacterization(alpha=0.25)
        p.observe_rstar("dev", 1.0, prior=True)
        p.observe_transfer("dev", "h2d", 1e6, 1.0, prior=True)
        p.observe_rstar("dev", 0.004)
        p.observe_transfer("dev", "h2d", 1e6, 1e-3)
        assert p.rstar_frame_s("dev") == pytest.approx(0.004)
        assert p.bandwidth("dev", "h2d") == pytest.approx(1e9)


class TestInvalidate:
    def _measured(self) -> PerformanceCharacterization:
        p = PerformanceCharacterization()
        for mod in ("me", "int", "sme"):
            p.observe_compute("dev", mod, 1, 0.01)
        p.observe_transfer("dev", "h2d", 1e6, 1e-3)
        p.observe_transfer("dev", "d2h", 1e6, 1e-3)
        return p

    def test_keep_prior_demotes(self):
        p = self._measured()
        p.invalidate("dev", keep_prior=True)
        # estimates survive as priors...
        assert p.k_compute("dev", "me") == pytest.approx(0.01)
        assert p.is_prior("dev", "me")
        # ...and the next measurement replaces them in one frame
        p.observe_compute("dev", "me", 1, 0.04)
        assert p.k_compute("dev", "me") == pytest.approx(0.04)

    def test_forget_everything(self):
        p = self._measured()
        p.invalidate("dev", keep_prior=False)
        assert p.k_compute("dev", "me") is None
        assert p.bandwidth("dev", "h2d") is None

    def test_invalidate_unknown_device_is_noop(self):
        p = PerformanceCharacterization()
        p.invalidate("ghost", keep_prior=True)
        p.invalidate("ghost", keep_prior=False)
        assert p.k_compute("ghost", "me") is None


class TestQueriesDoNotMutate:
    """A read must leave what ``version`` describes as it was."""

    def test_unknown_device_gets_no_record(self):
        p = PerformanceCharacterization()
        p.observe_compute("dev", "me", 1, 0.01)
        before = (p.version, set(p._devices))
        assert p.k_compute("dve", "me") is None  # a misspelt name
        assert p.rstar_frame_s("dve") is None
        assert p.bandwidth("dve", "h2d") is None
        assert p.k_transfer("dve", "sf", "h2d", SIZES) is None
        assert not p.is_prior("dve", "me")
        assert (p.version, set(p._devices)) == before

    def test_dropped_device_stays_absent_after_a_solve(self):
        platform = get_platform("SysNFF")
        cfg = CodecConfig(width=704, height=576)
        perf = ground_truth_perf(platform, cfg)
        perf.invalidate("GPU_F2", keep_prior=False)  # "forget the device entirely"
        version = perf.version
        decision = LoadBalancer(platform, cfg, FrameworkConfig()).solve(
            perf, "GPU_F", {"GPU_F": False, "GPU_F2": True}, {"GPU_F": 0, "GPU_F2": 0}
        )
        assert decision.used_lp  # the probe of GPU_F2 ran; it is warming
        assert "GPU_F2" not in perf._devices
        assert perf.version == version


class TestObservationsReuseTheRecord:
    """An observation of a device already on record builds no new record
    (``dict.setdefault`` would construct one per call and throw it away)."""

    @pytest.mark.parametrize("observe", [
        lambda p: p.observe_compute("dev", "me", 4, 0.02),
        lambda p: p.observe_transfer("dev", "h2d", 1e6, 1e-3),
        lambda p: p.observe_rstar("dev", 0.03),
    ], ids=["compute", "transfer", "rstar"])
    def test_known_device_constructs_no_state(self, monkeypatch, observe):
        built = []

        class Counted(perf_model._DeviceState):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(perf_model, "_DeviceState", Counted)
        p = PerformanceCharacterization()
        p.observe_compute("dev", "int", 1, 0.01)  # the first one creates it
        assert len(built) == 1
        observe(p)
        observe(p)
        assert len(built) == 1
