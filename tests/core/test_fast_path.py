"""Scheduling fast path: warm-start LP, characterization caches, and the
stale-state bugfix sweep around eviction/re-admission.

The end-to-end bit-identity of every optimization is property-tested in
``tests/sanitizers/test_fast_path_equivalence.py``; these tests pin the
mechanisms — cache hits actually happen, version counters actually bump,
live-set changes actually clear the per-frame caches — and the satellite
bugfix: a fault-then-readmit run must make bit-identical decisions to a
cold solver (``tests/oracles.py``), which only holds if
eviction/re-admission invalidates the warm-start state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.core.load_balancing import ColumnLP, LoadBalancer, LPSolveCache
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.noise import FaultEvent, FaultSchedule, GaussianJitter, NoiseModel
from repro.hw.presets import get_platform
from repro.service.scheduler import RoundLPBatch
from repro.service.session import EncodingSession
from repro.service.workload import StreamSpec

from oracles import make_cold

CFG = CodecConfig(width=704, height=576)  # 4CIF keeps runs fast


def run(platform="SysHK", frames=8, faults=None, cold=False):
    # rtol=0: decisions are reused only when provably identical.
    fw = FevesFramework(
        get_platform(platform), CFG,
        FrameworkConfig(faults=faults or FaultSchedule(), lb_cache_rtol=0.0),
    )
    if cold:
        make_cold(fw)
    for _ in range(frames):
        fw.encode_next_inter()
    return fw


def decisions(fw):
    return [
        (r.decision.m.rows, r.decision.l.rows, r.decision.s.rows,
         r.timeline.tau1, r.timeline.tau2, r.timeline.tau_tot)
        for r in fw.reports
    ]


class TestLPSolveCache:
    def tiny_lp(self, bound: float = -0.5) -> ColumnLP:
        # minimize x  s.t.  -x <= bound,  x + y = 1
        return ColumnLP(
            c=np.array([1.0, 0.0]),
            col_lower=np.zeros(2), col_upper=np.full(2, np.inf),
            row_lower=np.array([-np.inf, 1.0]), row_upper=np.array([bound, 1.0]),
            start=np.array([0, 2, 3], dtype=np.int32),
            index=np.array([0, 1, 1], dtype=np.int32),
            value=np.array([-1.0, 1.0, 1.0]),
        )

    def test_hit_returns_the_same_solution_object(self):
        cache = LPSolveCache()
        x1 = cache.solve(self.tiny_lp())
        x2 = cache.solve(self.tiny_lp())
        assert (cache.misses, cache.hits) == (1, 1)
        assert x2 is x1  # bit-identical by construction
        assert x1 is not None and x1[0] == pytest.approx(0.5)
        assert not x1.flags.writeable

    def test_distinct_systems_are_not_conflated(self):
        cache = LPSolveCache()
        x1 = cache.solve(self.tiny_lp())
        x2 = cache.solve(self.tiny_lp(-0.75))
        assert cache.misses == 2 and cache.hits == 0
        assert x1 is not None and x2 is not None
        assert x1[0] != x2[0]

    def test_every_array_is_part_of_the_key(self):
        """Equal bytes in every other array: a change to one still misses."""
        lp = self.tiny_lp()
        moved = {
            "c": np.array([1.0, 0.5]),
            "col_lower": np.array([0.0, 0.25]),
            "col_upper": np.array([np.inf, 0.75]),
            "row_lower": np.array([-0.75, 1.0]),
            "row_upper": np.array([-0.5, 1.25]),
            "start": np.array([0, 1, 3], dtype=np.int32),
            "index": np.array([0, 0, 1], dtype=np.int32),
            "value": np.array([-1.0, 1.0, 2.0]),
        }
        assert set(moved) == set(ColumnLP._fields)
        cache = LPSolveCache()
        cache.solve(lp)
        for name, arr in moved.items():
            cache.solve(lp._replace(**{name: arr}))
        assert (cache.misses, cache.hits) == (1 + len(moved), 0)

    def test_fifo_eviction_bounds_the_table(self):
        cache = LPSolveCache(max_entries=1)
        cache.solve(self.tiny_lp())
        cache.solve(self.tiny_lp(-0.75))  # evicts
        cache.solve(self.tiny_lp())  # miss again
        assert cache.misses == 3 and cache.hits == 0

    def test_a_negative_table_size_is_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            LPSolveCache(max_entries=-1)

    def test_a_table_of_size_zero_solves_every_time_and_keeps_nothing(self):
        cache = LPSolveCache(max_entries=0)
        x1 = cache.solve(self.tiny_lp())
        x2 = cache.solve(self.tiny_lp())
        assert (cache.misses, cache.hits) == (2, 0)
        assert x1 is not x2 and np.array_equal(x1, x2)
        assert cache._table == {}

    def test_infeasible_cached_as_none(self):
        cache = LPSolveCache()
        bad = self.tiny_lp(-2.0)  # x >= 2 contradicts x + y = 1, y >= 0
        assert cache.solve(bad) is None
        assert cache.solve(bad) is None
        assert (cache.misses, cache.hits) == (1, 1)


class TestWarmStart:
    def test_steady_state_hits_the_cache(self):
        """A round's batch shared by two equal sessions: the second asks
        for every LP the first has just solved."""
        batch = RoundLPBatch()
        spec = StreamSpec(stream_id="s", n_frames=8, width=CFG.width, height=CFG.height)
        sessions = [EncodingSession(spec, "SysHK") for _ in range(2)]
        for session in sessions:
            batch.attach(session)
        for _ in range(spec.n_frames):
            for session in sessions:
                session.framework.encode_next_inter()
        assert 0 < batch.misses <= batch.hits

    def test_a_lone_balancer_keeps_no_solve(self, monkeypatch):
        """200 jittered solves without a shared cache: each one reaches
        HiGHS and is counted as a miss, and none is kept."""
        solved = []
        cold = LPSolveCache._cold_solve

        def counted(self, lp):
            solved.append(None)
            return cold(self, lp)

        monkeypatch.setattr(LPSolveCache, "_cold_solve", counted)
        noise = NoiseModel(jitter=GaussianJitter(sigma=0.05, seed=7))
        fw = FevesFramework(get_platform("SysHK"), CFG, FrameworkConfig(noise=noise))
        while len(solved) < 200:
            fw.encode_next_inter()
        cache = fw.balancer.lp_cache
        assert (cache.hits, cache.misses) == (0, len(solved))
        assert cache._table == {}

    def test_note_live_set_change_clears_warm_state(self):
        fw = run(frames=6)
        b = fw.balancer
        assert b._cache_decision is not None  # steady state reached
        b.note_live_set_change()
        assert b._cache_decision is None
        assert b._cache_ks is None
        assert b._cache_key is None
        assert b._seed is None
        assert b._lp_converged is False

    def test_shared_cache_adoption(self):
        shared = LPSolveCache()
        b = LoadBalancer(get_platform("SysHK"), CFG, FrameworkConfig())
        assert b.lp_cache is not shared
        b.use_lp_cache(shared)
        assert b.lp_cache is shared


class TestCharacterizationVersioning:
    def test_version_bumps_on_observations_and_invalidation(self):
        perf = PerformanceCharacterization()
        v0 = perf.version
        perf.observe_compute("dev", "me", rows=10, seconds=0.01)
        v1 = perf.version
        assert v1 > v0
        perf.observe_transfer("dev", "h2d", nbytes=1e6, seconds=1e-3)
        v2 = perf.version
        assert v2 > v1
        perf.invalidate("dev")
        assert perf.version > v2

    def test_invalidate_unknown_device_does_not_bump(self):
        perf = PerformanceCharacterization()
        v0 = perf.version
        perf.invalidate("ghost")
        assert perf.version == v0

    def test_kt_cache_tracks_perf_version(self):
        perf = PerformanceCharacterization()
        perf.observe_transfer("GPU_K", "h2d", nbytes=1e9, seconds=1.0)
        b = LoadBalancer(get_platform("SysHK"), CFG, FrameworkConfig())
        k1 = b._kt_lookup(perf)("GPU_K", "rf", "h2d")
        assert k1 is not None and k1 > 0
        # alpha=1.0: a new observation replaces the estimate outright;
        # halving the bandwidth must double the per-row transfer K.
        perf.observe_transfer("GPU_K", "h2d", nbytes=1e9, seconds=2.0)
        k2 = b._kt_lookup(perf)("GPU_K", "rf", "h2d")
        assert k2 == pytest.approx(2 * k1)


class TestFaultThenReadmit:
    """The satellite bugfix: eviction/re-admission must not leak stale
    warm-start state into post-fault decisions."""

    HANG = FaultSchedule(events=(
        FaultEvent(frame=3, device="GPU_K", kind="hang", duration=2),
    ))

    def test_hang_readmit_bit_identical_to_cold_solver(self):
        fast = run(frames=9, faults=self.HANG)
        cold = run(frames=9, faults=self.HANG, cold=True)
        assert decisions(fast) == decisions(cold)
        assert list(fast.fault_log) == list(cold.fault_log)
        # The fault actually happened (otherwise this test is vacuous)...
        assert any(e.evicted for e in fast.fault_log)
        assert any(e.readmitted for e in fast.fault_log)
        # ...and the fast path skipped solves the oracle made.
        assert fast.balancer.lp_cache.misses < cold.balancer.lp_cache.misses

    def test_dropout_bit_identical_to_cold_solver(self):
        faults = FaultSchedule(events=(
            FaultEvent(frame=3, device="GPU_K", kind="dropout"),
        ))
        fast = run(frames=7, faults=faults)
        cold = run(frames=7, faults=faults, cold=True)
        assert decisions(fast) == decisions(cold)
        assert list(fast.fault_log) == list(cold.fault_log)
