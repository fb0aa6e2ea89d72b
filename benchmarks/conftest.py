"""Shared benchmark helpers.

Each benchmark regenerates one of the paper's figures/tables in model mode
(1080p geometry, simulated platform) and:

1. prints the paper-style table/chart (run with ``-s`` to see it, or read
   ``benchmarks/results/*.txt`` afterwards);
2. asserts the *shape* properties the paper reports (who wins, rough
   ratios, where real-time crossovers fall);
3. times the harness itself through pytest-benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform

#: Platforms of the paper's Fig. 6, in its legend order.
FIG6_CONFIGS = ("CPU_N", "CPU_H", "GPU_F", "GPU_K", "SysNF", "SysNFF", "SysHK")

RESULTS_DIR = Path(__file__).parent / "results"


def encode_fps(
    platform_name: str,
    sa_side: int = 32,
    num_refs: int = 1,
    n_frames: int = 15,
    fw_cfg: FrameworkConfig | None = None,
) -> float:
    """Steady-state fps of FEVES on a platform at 1080p."""
    cfg = CodecConfig(
        width=1920, height=1088, search_range=sa_side // 2, num_ref_frames=num_refs
    )
    fw = FevesFramework(get_platform(platform_name), cfg, fw_cfg or FrameworkConfig())
    fw.run_model(n_frames)
    return fw.steady_state_fps(warmup=max(3, num_refs + 1))


def save_result(name: str, text: str) -> None:
    """Persist a benchmark's table/chart under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def emit(capsys):
    """Print a result block unconditionally and persist it."""

    def _emit(name: str, text: str) -> None:
        save_result(name, text)
        with capsys.disabled():
            print(f"\n=== {name} ===\n{text}\n")

    return _emit
