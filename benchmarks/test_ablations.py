"""Ablations of FEVES design choices (DESIGN.md experiment index).

Isolates the contribution of each mechanism the paper motivates:

1. adaptive LP vs static equidistant splits ([8]-style) vs oracle static;
2. heterogeneous co-scheduling vs single-module ME offloading ([5]/[6]);
3. single vs dual copy engines (the §III concurrency discussion);
4. Δ data-reuse (MS/LS_BOUNDS) vs naive full re-transfers;
5. R* Dijkstra mapping vs pinning R* to the slowest device.
"""

import pytest

from conftest import save_result
from repro.baselines import (
    run_equidistant,
    run_offload_me,
    run_oracle_static,
)
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.device import DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.presets import CPU_N, GPU_F
from repro.hw.presets import get_platform
from repro.hw.topology import Platform
from repro.report import format_table

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def feves_fps(platform, fw_cfg=None, n=12):
    fw = FevesFramework(platform, CFG, fw_cfg or FrameworkConfig())
    fw.run_model(n)
    return fw.steady_state_fps()


@pytest.fixture(scope="module")
def scheduling_ablation():
    return {
        "FEVES (adaptive LP)": feves_fps(get_platform("SysNFF")),
        "oracle static": run_oracle_static(
            get_platform("SysNFF"), CFG, 12
        ).steady_state_fps(),
        "equidistant GPUs-only [8]": run_equidistant(
            get_platform("SysNFF"), CFG, 12, include_cpu=False
        ).steady_state_fps(),
        "equidistant incl. CPU": run_equidistant(
            get_platform("SysNFF"), CFG, 12, include_cpu=True
        ).steady_state_fps(),
        "ME offload [5,6] (SysNF)": run_offload_me(
            get_platform("SysNF"), CFG, 12
        ).steady_state_fps(),
    }


def test_scheduling_ablation_table(scheduling_ablation, emit, benchmark):
    benchmark.pedantic(
        feves_fps, args=(get_platform("SysNFF"),), rounds=2, iterations=1
    )
    rows = [[k, f"{v:.1f}"] for k, v in scheduling_ablation.items()]
    emit(
        "ablation_scheduling",
        format_table(
            ["scheduler", "fps"],
            rows,
            title="Ablation: scheduling policy on SysNFF (1080p, 32x32, 1RF)",
        ),
    )


def test_adaptive_matches_oracle_and_beats_static(scheduling_ablation, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a = scheduling_ablation
    assert a["FEVES (adaptive LP)"] >= 0.93 * a["oracle static"]
    assert a["FEVES (adaptive LP)"] > 1.1 * a["equidistant GPUs-only [8]"]
    assert a["FEVES (adaptive LP)"] > 1.3 * a["equidistant incl. CPU"]
    assert a["FEVES (adaptive LP)"] > 2.0 * a["ME offload [5,6] (SysNF)"]
    # Naively adding a slow CPU to an equidistant split *hurts*.
    assert a["equidistant GPUs-only [8]"] > a["equidistant incl. CPU"]


def _sysnf_with_copy_engines(n_engines: int) -> Platform:
    gpu = DeviceSpec(
        name="GPU_F",
        kind="gpu",
        rates=GPU_F.rates,
        link=LinkSpec(
            h2d_gbps=GPU_F.link.h2d_gbps,
            d2h_gbps=GPU_F.link.d2h_gbps,
            latency_s=GPU_F.link.latency_s,
            copy_engines=n_engines,
        ),
    )
    return Platform(name=f"SysNF_ce{n_engines}", specs=[gpu, CPU_N])


def test_dual_copy_engine_helps(emit, benchmark):
    """Overlapping h2d with d2h shortens the schedule (never hurts)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    single = feves_fps(_sysnf_with_copy_engines(1))
    dual = feves_fps(_sysnf_with_copy_engines(2))
    emit(
        "ablation_copy_engines",
        format_table(
            ["copy engines", "fps"],
            [["1 (Fermi-like)", f"{single:.2f}"], ["2 (Kepler-like)", f"{dual:.2f}"]],
            title="Ablation: copy-engine concurrency on SysNF",
        ),
    )
    assert dual >= single * 0.999


def test_data_reuse_reduces_traffic(emit, benchmark):
    """Δ bookkeeping (MS/LS_BOUNDS) vs re-sending whole buffers."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fw = FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig())
    fw.run_model(10)
    report = fw.reports[-1]
    plan_bytes = report.h2d_bytes
    # Naive: every non-R* accelerator refetches full CF + SF + MV each
    # frame for SME/MC instead of only the Δ segments.
    from repro.hw.interconnect import BufferSizes

    sizes = BufferSizes(CFG.width, CFG.height)
    n = CFG.mb_rows
    naive = 0
    for i, dev in enumerate(fw.platform.devices):
        if not dev.is_accelerator:
            continue
        naive += n * (sizes.cf_row + sizes.sf_row + sizes.mv_row)
        if dev.name == fw.rstar_device:
            naive += n * (sizes.cf_row_full + sizes.sf_row)
    savings = 1 - plan_bytes / naive
    emit(
        "ablation_data_reuse",
        format_table(
            ["variant", "h2d bytes/frame"],
            [
                ["FEVES Δ-reuse plan", f"{plan_bytes:,}"],
                ["naive full re-transfer", f"{naive:,}"],
                ["savings", f"{savings:.0%}"],
            ],
            title="Ablation: Data Access Management reuse (steady frame)",
        ),
    )
    assert plan_bytes < naive


def test_rstar_on_wrong_device_costs_time(benchmark):
    """Pinning R* to the CPU on SysHK (where the GPU is faster) must not
    beat the auto Dijkstra mapping."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    auto = feves_fps(get_platform("SysHK"))
    forced_cpu = feves_fps(
        get_platform("SysHK"), FrameworkConfig(centric="cpu")
    )
    assert auto >= forced_cpu
