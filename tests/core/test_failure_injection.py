"""Failure injection and extreme operating points."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.load_balancing as lb
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.device import DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.noise import NoiseModel, PerturbationEvent, PerturbationSchedule
from repro.hw.presets import CPU_N, GPU_K, get_platform, multi_gpu_platform
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


def tiny_lp() -> lb.ColumnLP:
    # minimize x  s.t.  -x <= -0.5,  x + y = 1;  optimum (0.5, 0.5)
    return lb.ColumnLP(
        c=np.array([1.0, 0.0]),
        col_lower=np.array([0.0, 0.0]), col_upper=np.array([np.inf, np.inf]),
        row_lower=np.array([-np.inf, 1.0]), row_upper=np.array([-0.5, 1.0]),
        start=np.array([0, 2, 3], dtype=np.int32),
        index=np.array([0, 1, 1], dtype=np.int32),
        value=np.array([-1.0, 1.0, 1.0]),
    )


class FailsOnce:
    """A HiGHS instance whose next ``method`` call returns ``kError``."""

    def __init__(self, highs, method):
        self._highs, self._method, self.failed = highs, method, False

    def __getattr__(self, name):
        if name == self._method and not self.failed:
            self.failed = True
            return lambda *args: lb._hs.HighsStatus.kError
        return getattr(self._highs, name)


class TestLpFallbacks:
    """What ``linprog`` used to decide around HiGHS, now ``_cold_solve``'s."""

    def run_syshk(self, frames=6):
        fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
        return fw, fw.run_model(frames)

    def assert_heuristic_took_over(self, fw, out):
        for dist in (fw.reports[-1].decision.m, fw.reports[-1].decision.s):
            assert sum(dist.rows) == 68
        assert not fw.reports[-1].decision.used_lp
        # Heuristic still beats the equidistant init frame.
        assert out[-1].time_s < out[0].time_s

    def test_heuristic_fallback_on_lp_failure(self, monkeypatch):
        """If the solver dies, the speed-proportional heuristic takes over."""
        monkeypatch.setattr(lb.LPSolveCache, "_cold_solve", lambda self, lp: None)
        self.assert_heuristic_took_over(*self.run_syshk())

    def test_heuristic_rows_cover_the_frame_on_four_devices(self):
        """Speed-proportional shares rounded one by one need not sum to the
        frame (three GPUs and a CPU: 20 + 20 + 20 + 9 = 69 of 68 rows);
        the heuristic's largest-remainder split does."""
        fw = FevesFramework(multi_gpu_platform(3), CFG, FrameworkConfig())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lb.LPSolveCache, "_cold_solve", lambda self, lp: None)
            fw.run_model(6)
        decision = fw.reports[-1].decision
        assert not decision.used_lp
        for dist in (decision.m, decision.l, decision.s):
            assert sum(dist.rows) == 68

    @pytest.mark.parametrize("breakage", ["infeasible", "unbounded"])
    def test_an_lp_without_optimum_falls_back(self, monkeypatch, breakage):
        """HiGHS itself says no: Σm = −n with m ≥ 0, or τtot maximised."""
        build = lb.LoadBalancer._build_lp
        solve = lb.LPSolveCache.solve
        returned = []

        def recorded(self, lp):
            returned.append(solve(self, lp))
            return returned[-1]

        def broken(self, *args):
            subset = build(self, *args)
            if breakage == "infeasible":
                return subset._replace(lp=make_infeasible(subset.lp))
            return subset._replace(lp=subset.lp._replace(c=-subset.lp.c))

        monkeypatch.setattr(lb.LoadBalancer, "_build_lp", broken)
        monkeypatch.setattr(lb.LPSolveCache, "solve", recorded)
        fw, out = self.run_syshk()
        self.assert_heuristic_took_over(fw, out)
        cache = fw.balancer.lp_cache
        assert (cache.hits, cache.misses) == (0, len(returned))
        assert returned and all(x is None for x in returned)

    @pytest.mark.parametrize("method", ["passModel", "run"])
    def test_a_highs_error_is_none_and_the_instance_recovers(self, method):
        cache = lb.LPSolveCache()
        cache._highs = FailsOnce(cache._highs, method)
        lp = tiny_lp()
        assert cache.solve(lp) is None
        assert cache._highs.failed
        assert cache.solve(lp) is None and cache.hits == 1  # cached like any None
        x = cache.solve(lp._replace(row_upper=np.array([-0.25, 1.0])))
        np.testing.assert_array_equal(x, [0.25, 0.75])

    @pytest.mark.parametrize("name, bad", [
        *((name, bad) for name in ("c", "value", "row_upper")
          for bad in (np.nan, np.inf, -np.inf)),
        ("row_lower", np.nan), ("row_lower", np.inf),  # −inf: an open row
    ])
    @pytest.mark.parametrize("at", [0, -1])
    def test_a_non_finite_input_raises_naming_the_array(self, name, bad, at):
        lp = tiny_lp()
        arr = getattr(lp, name).copy()
        arr[at] = bad
        cache = lb.LPSolveCache()
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            cache.solve(lp._replace(**{name: arr}))
        assert cache.solve(tiny_lp())[0] == 0.5  # nothing cached, nothing stuck

    def test_highs_alone_would_answer_a_nan_cost(self, mutant):
        """Why the check exists: without it the solver returns a point."""
        mutant(lb, "LPSolveCache", drop_the_finite_check)
        x = lb.LPSolveCache().solve(tiny_lp()._replace(c=np.array([np.nan, 0.0])))
        assert x is not None and np.isfinite(x).all()

    @pytest.mark.parametrize("point, accepted", [
        ((0.5, 0.5), True),
        ((0.5 - lb.RESIDUAL_TOL / 2, 0.5 + lb.RESIDUAL_TOL), True),
        ((1.0 + 2 * lb.RESIDUAL_TOL, -2 * lb.RESIDUAL_TOL), False),       # y below its bound
        ((0.5 - 2 * lb.RESIDUAL_TOL, 0.5 + 2 * lb.RESIDUAL_TOL), False),  # x >= 0.5 missed
        ((0.5, 0.5 + 2 * lb.RESIDUAL_TOL), False),                        # x + y = 1 missed
        ((0.5, np.nan), False),
    ])
    def test_an_optimum_outside_the_lp_is_a_failure(self, point, accepted):
        """``linprog``'s residual test: ``kOptimal`` alone is not an answer."""
        cache = lb.LPSolveCache()
        real = cache._highs

        class Planted:
            def __getattr__(self, name):
                return getattr(real, name)

            def getSolution(self):
                x, y = point
                return SimpleNamespace(col_value=[x, y], row_value=[-x, x + y])

        cache._highs = Planted()
        x = cache.solve(tiny_lp())
        if accepted:
            np.testing.assert_array_equal(x, point)
        else:
            assert x is None


def make_infeasible(lp: lb.ColumnLP) -> lb.ColumnLP:
    """Σm = −n with m ≥ 0: the equality rows' bounds negated."""
    eq = lp.row_lower == lp.row_upper
    return lp._replace(
        row_lower=np.where(eq, -lp.row_lower, lp.row_lower),
        row_upper=np.where(eq, -lp.row_upper, lp.row_upper),
    )


def drop_the_finite_check(source: str) -> str:
    check = "if not np.isfinite(arr).all():"
    assert source.count(check) == 1
    return source.replace(check, "if False:")


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
