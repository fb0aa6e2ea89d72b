"""Video Coding Manager: schedule structure and measurement harvesting."""

import pytest

from oracles import validate_schedule
from repro.baselines.oracle import ground_truth_perf
from repro.codec.config import CodecConfig
from repro.core.coding_manager import VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.frame_plan import FramePlan
from repro.core.load_balancing import LoadBalancer
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.interconnect import BufferSizes
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def run_one_frame(platform_name="SysHK", frame_index=1, fw_cfg=None):
    platform = get_platform(platform_name)
    fw_cfg = fw_cfg or FrameworkConfig()
    manager = VideoCodingManager(platform, CFG, fw_cfg)
    dam = DataAccessManager(platform, BufferSizes(CFG.width, CFG.height))
    balancer = LoadBalancer(platform, CFG, fw_cfg)
    gpus = [d.name for d in platform.gpus]
    rstar = gpus[0] if gpus else platform.devices[0].name
    if frame_index == 1:
        decision = balancer.equidistant()
    else:
        perf0 = ground_truth_perf(platform, CFG, active_refs=1)
        decision = balancer.solve(
            perf0, rstar, dam.needs_rf(), {g: 0 for g in gpus}
        )
    perf = PerformanceCharacterization()
    plan = FramePlan.build(platform, frame_index, decision, rstar, 1)
    report = manager.run_frame(
        plan, dam.plan(decision, rstar), perf, probe_rstar=frame_index == 1
    )
    return platform, report, perf, decision


class TestSchedule:
    def test_taus_ordered_and_positive(self):
        _, report, _, _ = run_one_frame()
        assert 0 < report.tau1 <= report.tau2 <= report.tau_tot
        tl = report.timeline
        assert (tl.tau1, tl.tau2, tl.tau_tot) == (report.tau1, report.tau2, report.tau_tot)

    def test_no_resource_overlap(self):
        _, report, _, _ = run_one_frame("SysNFF")
        validate_schedule(report.timeline.records)

    def test_deterministic(self):
        _, r1, _, _ = run_one_frame("SysNFF")
        _, r2, _, _ = run_one_frame("SysNFF")
        assert r1.tau_tot == pytest.approx(r2.tau_tot)
        assert len(r1.timeline.records) == len(r2.timeline.records)

    def test_compute_ops_present_per_device(self):
        _, report, _, decision = run_one_frame("SysHK")
        labels = {r.label for r in report.timeline.records}
        assert "ME[GPU_K]" in labels and "ME[CPU_H]" in labels
        assert "SME[GPU_K]" in labels and "INT[CPU_H]" in labels
        assert "R*[GPU_K]" in labels

    def test_transfers_on_copy_engines_only(self):
        _, report, _, _ = run_one_frame("SysNF")
        for rec in report.timeline.records:
            if rec.category in ("h2d", "d2h"):
                assert "copy" in rec.resource
            elif rec.category == "compute" and rec.resource != "host.sync":
                assert rec.resource.endswith(".compute")

    def test_dual_copy_engine_splits_directions(self):
        _, report, _, _ = run_one_frame("SysHK")  # GPU_K has 2 engines
        h2d_res = {
            r.resource for r in report.timeline.records if r.category == "h2d"
            and r.resource.startswith("GPU_K")
        }
        d2h_res = {
            r.resource for r in report.timeline.records if r.category == "d2h"
            and r.resource.startswith("GPU_K")
        }
        assert h2d_res == {"GPU_K.copyH2D"}
        assert d2h_res == {"GPU_K.copyD2H"}

    def test_single_copy_engine_shares_resource(self):
        _, report, _, _ = run_one_frame("SysNF")  # GPU_F single engine
        res = {
            r.resource
            for r in report.timeline.records
            if r.category in ("h2d", "d2h") and r.resource.startswith("GPU_F")
        }
        assert res == {"GPU_F.copy"}

    def test_dual_engines_allow_direction_overlap(self):
        """Kepler's two copy engines let an h2d run during a d2h — the
        concurrency the paper's initialization phase detects and exploits.
        Structural check at the device level: two independent opposite-
        direction transfers overlap on a dual-engine device and serialize
        on a single-engine one."""
        from repro.hw.des import Op, Simulator
        from repro.hw.device import Device
        from repro.hw.presets import GPU_F, GPU_K

        for spec, expect_overlap in ((GPU_K, True), (GPU_F, False)):
            dev = Device(spec=spec)
            a = Op("h2d", dev.copy_h2d, 1.0, category="h2d")
            b = Op("d2h", dev.copy_d2h, 1.0, category="d2h")
            Simulator(dev.resources()).run()
            overlap = a.start < b.end and b.start < a.end
            assert overlap == expect_overlap, spec.name

    def test_single_engine_never_overlaps_directions(self):
        _, report, _, _ = run_one_frame("SysNF", frame_index=2)
        copies = sorted(
            (
                r for r in report.timeline.records
                if r.resource == "GPU_F.copy" and r.duration > 0
            ),
            key=lambda r: r.start,
        )
        for a, b in zip(copies, copies[1:], strict=False):
            assert b.start >= a.end - 1e-12


class TestMeasurements:
    def test_compute_ks_observed(self):
        platform, report, perf, decision = run_one_frame("SysHK")
        for i, dev in enumerate(platform.devices):
            for module, dist in (("me", decision.m), ("int", decision.l),
                                 ("sme", decision.s)):
                if dist.rows[i] > 0:
                    assert perf.k_compute(dev.name, module) is not None

    def test_bandwidths_observed_for_accelerators(self):
        platform, report, perf, _ = run_one_frame("SysNFF")
        for gpu in platform.gpus:
            assert perf.bandwidth(gpu.name, "h2d") is not None
            assert perf.bandwidth(gpu.name, "d2h") is not None

    def test_rstar_probe_covers_all_devices(self):
        platform, report, perf, _ = run_one_frame("SysNFF", frame_index=1)
        for dev in platform.devices:
            assert perf.rstar_frame_s(dev.name) is not None

    def test_observed_k_matches_ground_truth(self):
        """With zero noise, measured K == the simulator's rate model."""
        platform, report, perf, decision = run_one_frame("SysHK")
        dev = platform.device("GPU_K")
        want = dev.spec.rates.me_row_s(CFG, 1)
        assert perf.k_compute("GPU_K", "me") == pytest.approx(want, rel=1e-9)

    def test_ready_for_lp_after_init_frame(self):
        """One initialization frame measures every K the LP needs."""
        platform, _, perf, _ = run_one_frame("SysNFF", frame_index=1)
        for dev in platform.devices:
            for module in ("me", "int", "sme"):
                assert perf.k_compute(dev.name, module) is not None
        for gpu in platform.gpus:
            for direction in ("h2d", "d2h"):
                assert perf.bandwidth(gpu.name, direction) is not None


class TestNoise:
    def test_perturbation_slows_device(self):
        from repro.hw.noise import NoiseModel, PerturbationEvent, PerturbationSchedule

        fw = FrameworkConfig(
            noise=NoiseModel(
                schedule=PerturbationSchedule(
                    [PerturbationEvent(frame=1, device="CPU_H", factor=3.0)]
                )
            )
        )
        _, slow, _, _ = run_one_frame("SysHK", fw_cfg=fw)
        _, base, _, _ = run_one_frame("SysHK")
        assert slow.tau_tot > base.tau_tot * 1.5  # equidistant init frame
