"""Device parking: idle accelerators stop SF maintenance.

Extension over the paper (documented in DESIGN.md): when the steady-state
cost of keeping an accelerator's SF mirror warm exceeds its contribution,
the activity-subset LP parks it — no transfers, no backlog — and charges a
full SF refetch if it is ever reactivated.
"""

import pytest

from repro.baselines.oracle import ground_truth_perf
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LoadBalancer
from repro.hw.device import DeviceSpec
from repro.hw.interconnect import BufferSizes, LinkSpec
from repro.hw.presets import CPU_N, GPU_K, get_platform
from repro.hw.topology import Platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def dead_link_platform() -> Platform:
    gpu = DeviceSpec(
        name="farGPU",
        kind="gpu",
        rates=GPU_K.rates,
        link=LinkSpec(h2d_gbps=0.05, d2h_gbps=0.05, latency_s=1e-3),
    )
    return Platform(name="deadlink", specs=[gpu, CPU_N])


class TestParkingDecision:
    def test_dead_link_gpu_parked(self):
        fw = FevesFramework(dead_link_platform(), CFG, FrameworkConfig(centric="cpu"))
        fw.run_model(8)
        d = fw.reports[-1].decision
        assert d.m.rows[0] == d.l.rows[0] == d.s.rows[0] == 0
        # System throughput equals CPU-only.
        solo = FevesFramework(get_platform("CPU_N"), CFG, FrameworkConfig())
        solo.run_model(8)
        assert fw.steady_state_fps(warmup=3) == pytest.approx(
            solo.steady_state_fps(), rel=0.02
        )

    def test_fast_gpu_not_parked(self):
        fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig())
        fw.run_model(8)
        d = fw.reports[-1].decision
        assert d.m.rows[0] + d.l.rows[0] + d.s.rows[0] > 0

    def test_parked_device_generates_no_transfers(self, transfer_plans):
        fw = FevesFramework(dead_link_platform(), CFG, FrameworkConfig(centric="cpu"))
        plans = transfer_plans(fw)
        fw.run_model(8)
        steady = plans[fw.reports[-1].frame_index]
        assert not any(t.device == "farGPU" for t in steady.items)


class TestDamParkingState:
    def _setup(self):
        platform = get_platform("SysNFF")
        dam = DataAccessManager(platform, BufferSizes(CFG.width, CFG.height))
        balancer = LoadBalancer(platform, CFG, FrameworkConfig())
        perf = ground_truth_perf(platform, CFG, active_refs=1)
        return platform, dam, balancer, perf

    def test_idle_device_enters_parked_set(self):
        from repro.core.bounds import ExtraTransfers
        from repro.core.distribution import Distribution
        from repro.core.load_balancing import LoadDecision

        platform, dam, _, _ = self._setup()
        n = CFG.mb_rows
        idle_gpu2 = Distribution(rows=(n, 0, 0), total=n)
        empty = ExtraTransfers(segments=(), rows=0)
        dec = LoadDecision(
            m=idle_gpu2, l=idle_gpu2, s=idle_gpu2,
            delta_m=[empty] * 3, delta_l=[empty] * 3,
        )
        dam.commit(dec, "GPU_F")
        assert "GPU_F2" in dam.parked
        assert dam.sigma_r_rows["GPU_F2"] == 0

    def test_reactivation_charges_full_sf(self):
        platform, dam, balancer, perf = self._setup()
        dam.parked.add("GPU_F2")
        decision = balancer.solve(
            perf, "GPU_F",
            {"GPU_F": False, "GPU_F2": True},
            {"GPU_F": 0, "GPU_F2": 0},
        )
        if decision.m.rows[1] + decision.l.rows[1] + decision.s.rows[1] > 0:
            plan = dam.plan(decision, "GPU_F")
            catchup = [
                t for t in plan.items
                if (t.device, t.phase, t.buffer, t.direction) == ("GPU_F2", 1, "sf", "h2d")
            ]
            assert sum(t.rows for t in catchup) == CFG.mb_rows

    def test_intra_reset_clears_parked(self):
        platform, dam, _, _ = self._setup()
        dam.parked.add("GPU_F2")
        dam.reset_after_intra()
        assert dam.parked == set()
