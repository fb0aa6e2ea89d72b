"""Bound, then solve: the mechanism, pinned one piece at a time.

That pruning never changes a run is the hypothesis property of
``tests/sanitizers/test_pruning_equivalence.py``. These tests pin what the
property cannot: how many LPs a jittered frame costs, that the subset
which *should* win is still solved (the dead-link GPU of
``test_parking.py``), the leave-one-out branch beyond three parkable
GPUs, the floor's degenerate inputs — and that each check kills the
seeded mutant it is there for.
"""

from __future__ import annotations

import pytest

import repro.core.framework as framework_module
import repro.core.load_balancing as lb_module
from repro.baselines.oracle import ground_truth_perf
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.load_balancing import PRUNE_MARGIN
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform, multi_gpu_platform

from oracles import log_subsets, solve_every_subset
from test_fast_path import decisions
from test_parking import dead_link_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
DEVICES = get_platform("SysNFF").devices  # GPU_F, GPU_F2, CPU_N


def jittered_run(platform, frames, prepare=None):
    """``frames`` inter frames under 5 % jitter (the LP re-solves each one)."""
    fw = framework_module.FevesFramework(
        platform, CFG,
        FrameworkConfig(noise=NoiseModel(jitter=GaussianJitter(sigma=0.05))),
    )
    if prepare is not None:
        prepare(fw.balancer)
    fw.run_model(frames)
    return fw


def sysnff_balancer():
    platform = get_platform("SysNFF")
    balancer = lb_module.LoadBalancer(platform, CFG, FrameworkConfig())
    return balancer, ground_truth_perf(platform, CFG)


def solve_sysnff(balancer, perf, **kwargs):
    return balancer.solve(
        perf, "GPU_F", {"GPU_F": False, "GPU_F2": True},
        {"GPU_F": 0, "GPU_F2": 0}, **kwargs,
    )


# --- directed tests (the first four are also run against their mutants) -------

def test_sysnff_under_jitter_solves_two_lps_per_frame():
    frames = 50
    fw = jittered_run(get_platform("SysNFF"), frames)
    assert fw.balancer.lp_cache.misses <= 2 * frames + 4  # 3.9 per frame unpruned
    assert sum(r.decision.used_lp for r in fw.reports) >= frames - 2


def test_dead_link_gpu_still_parked():
    """Its subset's floor is *below* the incumbent, so it is solved — and wins."""
    log: list = []
    fw = framework_module.FevesFramework(
        dead_link_platform(), CFG, FrameworkConfig(centric="cpu")
    )
    log_subsets(fw.balancer, log)
    fw.run_model(8)
    d = fw.reports[-1].decision
    assert d.m.rows[0] == d.l.rows[0] == d.s.rows[0] == 0
    assert any(parked == frozenset({0}) for parked, _, _ in log)


def test_floor_within_margin_is_still_solved():
    """Skip iff floor > incumbent·(1 + margin): a floor half a margin above
    the incumbent is solved, one two margins above is not."""
    balancer, perf = sysnff_balancer()
    incumbent = solve_sysnff(balancer, perf).tau_tot_pred
    for factor, expect in ((1 + PRUNE_MARGIN / 2, 2), (1 + 2 * PRUNE_MARGIN, 1)):
        balancer, perf = sysnff_balancer()
        balancer._tau_floor = lambda *_, f=factor: incumbent * f
        log: list = []
        log_subsets(balancer, log)
        assert solve_sysnff(balancer, perf).tau_tot_pred == incumbent
        assert len(log) == expect, f"floor = incumbent × {factor}"


def test_no_rstar_tail_when_the_rstar_device_is_not_active():
    """R* device hung: no subset's LP has an R* row, so none is charged T^R*."""
    balancer, perf = sysnff_balancer()
    solve_every_subset(balancer)
    log: list = []
    log_subsets(balancer, log)
    decision = solve_sysnff(balancer, perf, live={"GPU_F2", "CPU_N"})
    assert decision.used_lp and log
    for _, result, floor in log:
        assert result is None or 0.0 < floor <= result[3][2] * (1 + 1e-9)


def test_leave_one_out_branch_pruned_equals_exhaustive():
    """More than three parkable GPUs: all-active plus leave-one-out only."""
    log: list = []

    def exhaustive(balancer):
        solve_every_subset(balancer)
        log_subsets(balancer, log)

    slow = jittered_run(multi_gpu_platform(5), 8, exhaustive)
    fast = jittered_run(multi_gpu_platform(5), 8)
    assert decisions(fast) == decisions(slow)
    # Leaving one of five equal GPUs out costs less than the floor's slack:
    # nothing is pruned here today, and nothing may be pruned wrongly.
    assert slow.balancer.lp_cache.misses >= fast.balancer.lp_cache.misses > 0
    sizes = [len(parked) for parked, _, _ in log]
    assert max(sizes) == 1 and sizes.count(1) == 4 * sizes.count(0)


class TestFloorDegenerateInputs:
    def test_positive_on_a_characterized_platform(self):
        balancer, perf = sysnff_balancer()
        full = balancer._tau_floor(perf, "GPU_F", DEVICES)
        assert 0.0 < full < balancer._tau_floor(perf, "GPU_F", [DEVICES[0], DEVICES[2]])

    @pytest.mark.parametrize("seconds", [None, 0.0])
    def test_missing_or_zero_k_gives_zero(self, seconds):
        balancer, perf = sysnff_balancer()
        perf.invalidate("GPU_F2", keep_prior=False)
        for module in ("me", "int"):
            perf.observe_compute("GPU_F2", module, 1, 1e-3)
        if seconds is not None:
            perf.observe_compute("GPU_F2", "sme", 1, seconds)
        assert balancer._tau_floor(perf, "GPU_F", DEVICES) == 0.0
        assert balancer._tau_floor(perf, "GPU_F", [DEVICES[0], DEVICES[2]]) > 0.0

    def test_no_active_device_gives_zero(self):
        balancer, perf = sysnff_balancer()
        assert balancer._tau_floor(perf, "GPU_F", []) == 0.0

    def test_zero_floor_skips_nothing(self):
        """A K of 0 s/row is characterized, so the LP runs — unpruned."""
        balancer, perf = sysnff_balancer()
        perf.observe_compute("CPU_N", "sme", 1, 0.0)
        log: list = []
        log_subsets(balancer, log)
        assert solve_sysnff(balancer, perf).used_lp
        assert [parked for parked, _, _ in log] == [frozenset(), frozenset({1})]


# --- the mutants die ----------------------------------------------------------

MUTANTS = {
    "rstar-tail-without-rstar-device": (
        "if dev.name == rstar_device:\n                tail =",
        "if True:\n                tail =",
        test_no_rstar_tail_when_the_rstar_device_is_not_active,
    ),
    "comparison-inverted": (
        "if floor > best[3][2] * (1.0 + PRUNE_MARGIN):",
        "if floor < best[3][2] * (1.0 + PRUNE_MARGIN):",
        test_dead_link_gpu_still_parked,
    ),
    "margin-on-the-floor": (
        "if floor > best[3][2] * (1.0 + PRUNE_MARGIN):",
        "if floor * (1.0 + PRUNE_MARGIN) > best[3][2]:",
        test_floor_within_margin_is_still_solved,
    ),
    "never-prunes": (
        "if floor > best[3][2] * (1.0 + PRUNE_MARGIN):", "if False:",
        test_sysnff_under_jitter_solves_two_lps_per_frame,
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_seeded_mutant_is_killed(name, mutant, monkeypatch):
    old, new, check = MUTANTS[name]

    def edit(source: str) -> str:
        assert source.count(old) == 1
        return source.replace(old, new)

    mutant(lb_module, "LoadBalancer", edit)
    monkeypatch.setattr(framework_module, "LoadBalancer", lb_module.LoadBalancer)
    with pytest.raises(AssertionError):
        check()
