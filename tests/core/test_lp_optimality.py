"""LP optimality: compare against exhaustive search on a tiny instance.

The Algorithm-2 LP is an approximation of the DES ground truth (it models
engine capacities and critical paths, not the exact interleaving). This
test enumerates *every* integer distribution on a small two-device frame,
executes each through the real DES, and checks that FEVES's converged
schedule is within a few percent of the true optimum.
"""

import itertools

import pytest

from repro.baselines.runner import PolicyRunner
from repro.codec.config import CodecConfig
from repro.core.bounds import ExtraTransfers, ls_bounds, ms_bounds
from repro.core.config import FrameworkConfig
from repro.core.distribution import Distribution
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LoadDecision
from repro.hw.presets import get_platform

#: Tiny frame: full 1080p width (so rates are calibrated) but only 6 MB rows.
CFG = CodecConfig(width=1920, height=96, search_range=16, num_ref_frames=1)
N = CFG.mb_rows  # 6


def static_decision(platform, m0: int, l0: int, s0: int) -> LoadDecision:
    """A fixed decision assigning (m0, l0, s0) rows to device 0 (the GPU)."""
    m = Distribution(rows=(m0, N - m0), total=N)
    l = Distribution(rows=(l0, N - l0), total=N)
    s = Distribution(rows=(s0, N - s0), total=N)
    halo = 2
    empty = ExtraTransfers(segments=(), rows=0)
    return LoadDecision(
        m=m, l=l, s=s,
        delta_m=[
            ms_bounds(m, s, i) if platform.devices[i].is_accelerator else empty
            for i in range(2)
        ],
        delta_l=[
            ls_bounds(l, s, i, halo) if platform.devices[i].is_accelerator else empty
            for i in range(2)
        ],
    )


def run_static(m0: int, l0: int, s0: int) -> float:
    platform = get_platform("SysNF")
    decision = static_decision(platform, m0, l0, s0)
    rstar = "GPU_F"

    def policy(idx, perf):
        return decision, rstar

    runner = PolicyRunner(platform, CFG, policy, FrameworkConfig())
    runner.run(3)
    return runner.reports[-1].tau_tot


@pytest.fixture(scope="module")
def exhaustive_best():
    best = None
    best_combo = None
    for m0, l0, s0 in itertools.product(range(N + 1), repeat=3):
        t = run_static(m0, l0, s0)
        if best is None or t < best:
            best, best_combo = t, (m0, l0, s0)
    return best, best_combo


class TestLpVsExhaustive:
    def test_feves_near_global_optimum(self, exhaustive_best):
        """At this toy scale (6 rows) per-transfer latencies and exact queue
        interleavings — which the LP only approximates — are a large
        fraction of the frame, so allow a wider margin than the ~2 % gap
        observed at realistic sizes (see test_local_optimality_at_1080p and
        the oracle comparison in tests/baselines)."""
        best, combo = exhaustive_best
        fw = FevesFramework(get_platform("SysNF"), CFG, FrameworkConfig())
        fw.run_model(8)
        feves = fw.reports[-1].tau_tot
        assert feves <= best * 1.18, (
            f"FEVES {feves * 1e3:.3f} ms vs exhaustive best {best * 1e3:.3f} ms "
            f"at {combo}"
        )

    def test_local_optimality_at_1080p(self):
        """At full frame height, no single-module whole-band reassignment
        of ±4 rows between the two devices improves on FEVES's schedule by
        more than 2 %."""
        cfg = CodecConfig(width=1920, height=1088, search_range=16,
                          num_ref_frames=1)
        n = cfg.mb_rows
        platform = get_platform("SysNF")
        fw = FevesFramework(platform, cfg, FrameworkConfig())
        fw.run_model(8)
        feves_t = fw.reports[-1].tau_tot
        base = fw.reports[-1].decision
        m0, l0, s0 = base.m.rows[0], base.l.rows[0], base.s.rows[0]

        def run_neighbor(m, l, s) -> float:
            p = get_platform("SysNF")
            md = Distribution(rows=(m, n - m), total=n)
            ld = Distribution(rows=(l, n - l), total=n)
            sd = Distribution(rows=(s, n - s), total=n)
            empty = ExtraTransfers(segments=(), rows=0)
            dec = LoadDecision(
                m=md, l=ld, s=sd,
                delta_m=[ms_bounds(md, sd, 0), empty],
                delta_l=[ls_bounds(ld, sd, 0, 2), empty],
            )
            runner = PolicyRunner(p, cfg, lambda i, pf: (dec, "GPU_F"),
                                  FrameworkConfig())
            runner.run(3)
            return runner.reports[-1].tau_tot

        for dm, dl, ds in itertools.product((-4, 0, 4), repeat=3):
            m = min(n, max(0, m0 + dm))
            l = min(n, max(0, l0 + dl))
            s = min(n, max(0, s0 + ds))
            neighbor_t = run_neighbor(m, l, s)
            assert neighbor_t >= feves_t * 0.98, (
                f"neighbor ({m},{l},{s}) beats FEVES: "
                f"{neighbor_t * 1e3:.3f} < {feves_t * 1e3:.3f} ms"
            )

    def test_optimum_uses_both_devices(self, exhaustive_best):
        """Sanity: on this instance heterogeneity must pay off at all."""
        _, (m0, l0, s0) = exhaustive_best
        gpu_only = run_static(N, N, N)
        best, _ = exhaustive_best
        assert best < gpu_only
        assert 0 < m0 <= N  # GPU does some but the CPU contributes somewhere
        assert (m0, l0, s0) != (N, N, N)

    def test_equidistant_is_suboptimal(self, exhaustive_best):
        best, _ = exhaustive_best
        half = N // 2
        equi = run_static(half, half, half)
        assert equi >= best
