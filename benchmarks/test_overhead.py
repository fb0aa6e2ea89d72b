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

The regression gate on these numbers is ``BENCHMARK.json``'s
``sched_steady`` / ``sched_jitter`` ``host_ms_per_frame``; that the
scheduler's shortcuts change no decision is a tier-1 oracle test
(``tests/sanitizers/test_fast_path_equivalence.py``), not a benchmark.
"""

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform
from repro.report import format_table

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def run_model(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    fw = FevesFramework(get_platform(platform), CFG, fw_cfg or FrameworkConfig())
    fw.run_model(n)
    return fw


def overhead_ms(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    return run_model(platform, n, fw_cfg).scheduling_overhead_ms


@pytest.fixture(scope="module")
def overheads():
    out = {}
    for platform in ("SysNF", "SysNFF", "SysHK"):
        out[platform] = {
            "steady": overhead_ms(platform),
            "jittered": overhead_ms(
                platform,
                fw_cfg=FrameworkConfig(
                    noise=NoiseModel(jitter=GaussianJitter(sigma=0.05))
                ),
            ),
        }
    return out


def test_overhead_table(overheads, emit, benchmark):
    benchmark.pedantic(overhead_ms, args=("SysHK", 20), rounds=2, iterations=1)
    rows = [
        [p, f"{v['steady']:.3f}", f"{v['jittered']:.3f}"]
        for p, v in overheads.items()
    ]
    emit(
        "overhead",
        format_table(
            ["platform", "steady ms", "5% jitter ms"],
            rows,
            title="Scheduling overhead per inter frame (paper claim: < 2 ms)",
        ),
    )


def test_steady_state_under_2ms(overheads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for p, v in overheads.items():
        assert v["steady"] < 2.0, f"{p}: {v['steady']:.2f} ms"


def test_overhead_much_smaller_than_frame_time(overheads, benchmark):
    """Paper: 'significantly less than the time required to individually
    execute any inter-loop module'."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fw = run_model("SysHK", 10)
    frame_ms = fw.frame_times_ms()[-1]
    assert overheads["SysHK"]["steady"] < 0.2 * frame_ms
