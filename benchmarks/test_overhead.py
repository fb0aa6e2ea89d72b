"""Paper §IV scheduling-overhead claim.

"The scheduling overheads (introduced by the proposed framework) take, on
average, less than 2 ms per inter-frame encoding" — here measured as the
real wall-clock time of the Load Balancing solve + Data Access planning
per frame (everything between Algorithm 1's line 8 and the start of frame
execution). Two modes per platform:

- ``steady``  — the default configuration: the number the paper's claim
  is checked against;
- ``jittered``— 5% execution-time noise defeats the rtol decision cache,
  bounding overhead when decisions can't be reused.

Milliseconds depend on the host; *LP solves per frame* (``LPSolveCache``
misses, i.e. HiGHS calls) do not, so the re-solve column is gated on
that: at most two Δ iterations of the all-active subset (one when the
LP returns the rows it was seeded with) and nothing else on the
paper's platforms — the parked subsets are ruled out by their τtot floor
before HiGHS sees them. The 3- and 4-GPU rows are reported, not asserted
(the floor prunes most of 2^3 subsets, little of leave-one-out). What one
of those solves costs is reported under the table, not asserted: the
cache's direct HiGHS call against ``scipy.optimize.linprog`` (the wrapper
it replaced, now the test oracle) on SysNFF's jittered LP.

The regression gate on the milliseconds is ``BENCHMARK.json``'s
``sched_steady`` / ``sched_jitter`` ``host_ms_per_frame``; that the
scheduler's shortcuts change no decision is a tier-1 oracle test
(``tests/sanitizers/test_fast_path_equivalence.py``,
``test_pruning_equivalence.py``), not a benchmark.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LPSolveCache
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform, multi_gpu_platform
from repro.report import format_table

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)

#: The paper's platforms (asserted on) and two wider ones (reported).
PAPER_PLATFORMS = ("SysNF", "SysNFF", "SysHK")
WIDE_PLATFORMS = {"3xGPU_F+CPU_N": 3, "4xGPU_F+CPU_N": 4}


def run_model(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    built = (
        multi_gpu_platform(WIDE_PLATFORMS[platform])
        if platform in WIDE_PLATFORMS else get_platform(platform)
    )
    fw = FevesFramework(built, CFG, fw_cfg or FrameworkConfig())
    fw.run_model(n)
    return fw


def overhead(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    """``(scheduling ms, LP solves)`` per inter frame."""
    fw = run_model(platform, n, fw_cfg)
    return fw.scheduling_overhead_ms, fw.balancer.lp_cache.misses / n


def jittered() -> FrameworkConfig:
    """5 % execution-time noise from a fresh generator (it is stateful)."""
    return FrameworkConfig(noise=NoiseModel(jitter=GaussianJitter(sigma=0.05)))


def dense(lp) -> tuple:
    """``linprog``'s arguments for a column-form LP of ``≤`` and ``=`` rows."""
    a = csc_matrix((lp.value, lp.index, lp.start), (len(lp.row_upper), len(lp.c))).toarray()
    ub = lp.row_lower == -np.inf
    bounds = [
        (lo, None if hi == np.inf else hi)
        for lo, hi in zip(lp.col_lower.tolist(), lp.col_upper.tolist(), strict=True)
    ]
    return lp.c, a[ub], lp.row_upper[ub], a[~ub], lp.row_upper[~ub], bounds


def cold_solve_us(rounds: int = 200) -> tuple[float, float]:
    """µs per cold solve of SysNFF's jittered LP: ``(direct, linprog)``."""
    asked: list = []

    class Recording(LPSolveCache):
        def solve(self, lp):
            asked.append(lp)
            return super().solve(lp)

    fw = FevesFramework(get_platform("SysNFF"), CFG, jittered())
    fw.balancer.use_lp_cache(Recording())
    fw.run_model(10)
    lps = (asked[-1], asked[-3])  # two frames' LPs: same shape, other bytes
    cache = LPSolveCache(max_entries=1)  # each evicts the other: every call is a miss
    t0 = time.perf_counter()
    for _ in range(rounds):
        for lp in lps:
            cache.solve(lp)
    dense_lps = [dense(lp) for lp in lps]
    t1 = time.perf_counter()
    for _ in range(rounds):
        for c, a_ub, b_ub, a_eq, b_eq, bounds in dense_lps:
            linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                    bounds=bounds, method="highs")
    t2 = time.perf_counter()
    assert cache.hits == 0
    per_solve = 1e6 / (2 * rounds)
    return (t1 - t0) * per_solve, (t2 - t1) * per_solve


@pytest.fixture(scope="module")
def overheads():
    out = {}
    for platform in (*PAPER_PLATFORMS, *WIDE_PLATFORMS):
        out[platform] = {
            "steady": overhead(platform),
            "jittered": overhead(platform, fw_cfg=jittered()),
        }
    return out


def test_overhead_table(overheads, emit, benchmark):
    benchmark.pedantic(overhead, args=("SysHK", 20), rounds=2, iterations=1)
    rows = []
    for p, v in overheads.items():
        (steady_ms, steady_lps), (jitter_ms, jitter_lps) = v["steady"], v["jittered"]
        rows.append([p, f"{steady_ms:.3f}", f"{steady_lps:.2f}",
                     f"{jitter_ms:.3f}", f"{jitter_lps:.2f}"])
    direct_us, linprog_us = cold_solve_us()
    emit(
        "overhead",
        format_table(
            ["platform", "steady ms", "LP solves/frame",
             "5% jitter ms", "LP solves/frame"],
            rows,
            title="Scheduling overhead per inter frame (paper claim: < 2 ms)",
        )
        + f"\nus per cold solve (SysNFF LP): direct {direct_us:.0f} | "
          f"linprog oracle {linprog_us:.0f}",
    )


def test_steady_state_under_2ms(overheads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for p in PAPER_PLATFORMS:
        ms, _ = overheads[p]["steady"]
        assert ms < 2.0, f"{p}: {ms:.2f} ms"


def test_resolve_every_frame_costs_two_lp_solves(overheads, benchmark):
    """Host-independent gate on the re-solve column: at most the
    all-active subset's two Δ iterations (one when the LP returns its
    seed), no parked subset (SysNFF read 3.9)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for p in PAPER_PLATFORMS:
        _, solves = overheads[p]["jittered"]
        assert solves <= 2.1, f"{p}: {solves:.2f} LP solves per frame"


def test_overhead_much_smaller_than_frame_time(overheads, benchmark):
    """Paper: 'significantly less than the time required to individually
    execute any inter-loop module'."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fw = run_model("SysHK", 10)
    frame_ms = fw.frame_times_ms()[-1]
    assert overheads["SysHK"]["steady"][0] < 0.2 * frame_ms
