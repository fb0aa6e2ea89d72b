"""Orchestration fuzzing: arbitrary distributions must always schedule.

Hypothesis drives the Video Coding Manager + Data Access Management with
random (but valid) load decisions on random platforms; every resulting DES
schedule must satisfy the structural invariants of the paper's Fig. 4 —
whatever the split, however lopsided.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_schedule
from repro.codec.config import CodecConfig
from repro.core.bounds import ExtraTransfers, ls_bounds, ms_bounds
from repro.core.coding_manager import VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.distribution import Distribution, round_preserving_sum
from repro.core.frame_plan import FramePlan
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.interconnect import BufferSizes
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
PLATFORMS = ("SysNF", "SysNFF", "SysHK")


@st.composite
def random_decision(draw, n_devices: int):
    """A random valid LoadDecision for ``n_devices`` devices."""
    n = CFG.mb_rows

    def dist():
        weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n_devices)]
        rows = round_preserving_sum(np.array(weights), n)
        return Distribution(rows=rows, total=n)

    return dist(), dist(), dist()


@st.composite
def fuzz_case(draw):
    platform_name = draw(st.sampled_from(PLATFORMS))
    platform = get_platform(platform_name)
    m, l, s = draw(random_decision(len(platform.devices)))
    rstar_idx = draw(st.integers(min_value=0, max_value=len(platform.devices) - 1))
    return platform, m, l, s, platform.devices[rstar_idx].name


def build_decision(platform, m, l, s) -> LoadDecision:
    halo = 2
    empty = ExtraTransfers(segments=(), rows=0)
    d = len(platform.devices)
    return LoadDecision(
        m=m, l=l, s=s,
        delta_m=[
            ms_bounds(m, s, i) if platform.devices[i].is_accelerator else empty
            for i in range(d)
        ],
        delta_l=[
            ls_bounds(l, s, i, halo) if platform.devices[i].is_accelerator else empty
            for i in range(d)
        ],
    )


class TestOrchestrationFuzz:
    @given(fuzz_case())
    @settings(max_examples=60, deadline=None)
    def test_any_distribution_schedules_validly(self, case):
        platform, m, l, s, rstar = case
        decision = build_decision(platform, m, l, s)
        dam = DataAccessManager(platform, BufferSizes(CFG.width, CFG.height))
        manager = VideoCodingManager(platform, CFG, FrameworkConfig())
        perf = PerformanceCharacterization()
        plan = FramePlan.build(platform, 1, decision, rstar, 1)
        report = manager.run_frame(plan, dam.plan(decision, rstar), perf)
        # Structural invariants of the Fig. 4 schedule:
        validate_schedule(report.timeline.records)
        assert 0 <= report.tau1 <= report.tau2 <= report.tau_tot
        assert report.tau_tot > 0
        # Phase structure: every SME op starts at/after τ1, R* at/after τ2.
        for rec in report.timeline.records:
            if rec.label.startswith("SME["):
                assert rec.start >= report.tau1 - 1e-12
            if rec.label.startswith("R*[") and "probe" not in rec.label:
                assert rec.start >= report.tau2 - 1e-12

    @given(fuzz_case())
    @settings(max_examples=40, deadline=None)
    def test_transfer_plan_invariants(self, case):
        platform, m, l, s, rstar = case
        decision = build_decision(platform, m, l, s)
        dam = DataAccessManager(platform, BufferSizes(CFG.width, CFG.height))
        plan = dam.plan(decision, rstar)
        accel_names = {d.name for d in platform.gpus}
        n = CFG.mb_rows
        for item in plan.items:
            assert item.device in accel_names
            assert 0 < item.rows <= n
            assert item.nbytes > 0
        # Two consecutive frames keep σʳ accounting coherent.
        dam.commit(decision, rstar)
        plan2 = dam.plan(decision, rstar)
        for item in plan2.items:
            assert 0 < item.rows <= n

    @given(fuzz_case())
    @settings(max_examples=30, deadline=None)
    def test_measurements_consistent_with_assignments(self, case):
        platform, m, l, s, rstar = case
        decision = build_decision(platform, m, l, s)
        dam = DataAccessManager(platform, BufferSizes(CFG.width, CFG.height))
        manager = VideoCodingManager(platform, CFG, FrameworkConfig())
        perf = PerformanceCharacterization()
        plan = FramePlan.build(platform, 1, decision, rstar, 1)
        manager.run_frame(plan, dam.plan(decision, rstar), perf)
        for i, dev in enumerate(platform.devices):
            for module, dist in (("me", m), ("int", l), ("sme", s)):
                k = perf.k_compute(dev.name, module)
                if dist.rows[i] > 0:
                    assert k is not None and k > 0
                else:
                    assert k is None
