"""Data Access Management: transfer plans and cross-frame buffer state."""

import pytest

from repro.baselines.oracle import ground_truth_perf
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager, TransferItem
from repro.core.load_balancing import LoadBalancer
from repro.hw.interconnect import BufferSizes
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
SIZES = BufferSizes(width=CFG.width, height=CFG.height)


def make_dam(platform_name="SysNFF"):
    platform = get_platform(platform_name)
    dam = DataAccessManager(platform, SIZES)
    balancer = LoadBalancer(platform, CFG, FrameworkConfig())
    perf = ground_truth_perf(platform, CFG, active_refs=1)
    gpus = [d.name for d in platform.gpus]
    rstar = gpus[0]
    decision = balancer.solve(
        perf, rstar, {g: g != rstar for g in gpus}, {g: 0 for g in gpus}
    )
    return platform, dam, decision, rstar


class TestTransferItem:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferItem("d", "cf", "sideways", 1, 10, 1, "x")
        with pytest.raises(ValueError):
            TransferItem("d", "cf", "h2d", 1, 10, 9, "x")
        with pytest.raises(ValueError):
            TransferItem("d", "cf", "h2d", -1, 10, 1, "x")


class TestPlan:
    def test_phases_and_buffers(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        for item in plan.items:
            assert item.phase in (1, 2, 3)
            assert item.buffer in ("cf", "cf_full", "rf", "sf", "mv")

    def test_cpu_has_no_transfers(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        assert not any(t.device == "CPU_N" for t in plan.items)

    def test_first_frame_everyone_needs_rf(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        for gpu in ("GPU_F", "GPU_F2"):
            rf_items = [
                t for t in plan.items if (t.device, t.phase, t.buffer) == (gpu, 1, "rf")
            ]
            assert len(rf_items) == 1 and rf_items[0].rows == 68

    def test_rstar_device_skips_rf_after_commit(self):
        platform, dam, decision, rstar = make_dam()
        dam.commit(decision, rstar)
        assert dam.needs_rf()[rstar] is False
        assert dam.needs_rf()["GPU_F2"] is True
        plan = dam.plan(decision, rstar)
        assert not any((t.device, t.buffer, t.direction) == (rstar, "rf", "h2d")
                       for t in plan.items)

    def test_rstar_device_phase3_sends_rf_back(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        back = [
            t for t in plan.items if (t.device, t.phase, t.direction) == (rstar, 3, "d2h")
        ]
        assert len(back) == 1
        assert back[0].buffer == "rf" and back[0].rows == 68

    def test_rstar_gets_mc_inputs_in_phase2(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        labels = {t.label for t in plan.items if (t.device, t.phase) == (rstar, 2)}
        assert "CF->MC" in labels or decision.m.rows[0] + decision.delta_m[0].rows >= 68
        assert "SF->MC" in labels or decision.l.rows[0] + decision.delta_l[0].rows >= 68

    def test_non_rstar_sme_mvs_leave_in_phase2(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        i2 = [d.name for d in platform.devices].index("GPU_F2")
        if decision.s.rows[i2] > 0:
            mv_out = [
                t
                for t in plan.items
                if (t.device, t.phase, t.direction, t.buffer) == ("GPU_F2", 2, "d2h", "mv")
            ]
            assert len(mv_out) == 1
            assert mv_out[0].rows == decision.s.rows[i2]

    def test_bytes_match_rows(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        from repro.core.perf_model import buffer_row_bytes

        for t in plan.items:
            assert t.nbytes == t.rows * buffer_row_bytes(t.buffer, SIZES)

    def test_total_bytes_by_direction(self):
        platform, dam, decision, rstar = make_dam()
        plan = dam.plan(decision, rstar)
        assert plan.total_bytes("h2d") + plan.total_bytes("d2h") == plan.total_bytes()


class TestSigmaState:
    def test_commit_tracks_sigma_remainder(self):
        platform, dam, decision, rstar = make_dam()
        dam.commit(decision, rstar)
        for name, rem in dam.sigma_r_rows.items():
            if name == rstar:
                assert rem == 0
            else:
                expected = decision.sigma_r.get(name)
                assert rem == (expected.rows if expected else 0)

    def test_sigma_r_transferred_next_frame(self):
        platform, dam, decision, rstar = make_dam()
        dam.commit(decision, rstar)
        other = "GPU_F2"
        backlog = dam.sigma_r_rows[other]
        plan = dam.plan(decision, rstar)
        catchup = [
            t
            for t in plan.items
            if (t.device, t.phase, t.buffer, t.direction) == (other, 1, "sf", "h2d")
        ]
        total = sum(t.rows for t in catchup)
        assert total == backlog or backlog == 0

    def test_cpu_centric_commit_clears_holder(self):
        platform, dam, decision, _ = make_dam("SysNF")
        dam.commit(decision, "CPU_N")
        assert dam.rf_holder is None
        assert dam.needs_rf()["GPU_F"] is True
