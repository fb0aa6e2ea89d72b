"""Calibrated device and platform presets.

Models of the paper's evaluation hardware (§IV), calibrated so that the
single-device 1080p encoding speeds and their ratios land where the paper
reports them:

=========  =========================  ====================================
Preset     Paper hardware             Calibration anchors (1080p, 32×32
                                      SA, 1 RF)
=========  =========================  ====================================
CPU_N      Intel Nehalem i7 950       ≈ 12 fps; CPU_H ≈ 1.7 × CPU_N
CPU_H      Intel Haswell i7 4770K     ≈ 21 fps
GPU_F      NVIDIA Fermi GTX 580       ≈ 26 fps (real-time at 32×32/1RF);
                                      single copy engine, PCIe gen-2
GPU_K      NVIDIA Kepler GTX 780 Ti   ≈ 55 fps ≈ 2 × GPU_F; dual copy
                                      engine, PCIe gen-3
SysNF      CPU_N + GPU_F              ≈ 1.3 × GPU_F
SysNFF     CPU_N + 2 × GPU_F          up to ≈ 2.2 × GPU_F, ≈ 5 × CPU_N
SysHK      CPU_H + GPU_K              ≈ 1.3 × GPU_K, ≈ 3 × CPU_H;
                                      real-time at 64×64/1RF and ≤4 RFs
=========  =========================  ====================================

Module-time splits follow the paper's workload characterization ([4]):
ME+INT+SME ≈ 90 % of single-device inter-loop time, R* ≈ 10 %.
"""

from __future__ import annotations

from dataclasses import replace

from repro.hw.device import DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.rates import ModuleRates
from repro.hw.topology import Platform

#: 1080p geometry used for calibration (68 MB rows of 120 MBs).
_ROWS_1080P = 68
_MBS_1080P = _ROWS_1080P * 120


def _rates(me_ms: float, int_ms: float, sme_ms: float, rstar_ms: float) -> ModuleRates:
    """Convert per-frame 1080p module times (ms) into rate constants."""
    return ModuleRates(
        me_mb_us=me_ms * 1e3 / _MBS_1080P,
        int_row_us=int_ms * 1e3 / _ROWS_1080P,
        sme_row_us=sme_ms * 1e3 / _ROWS_1080P,
        rstar_row_us=rstar_ms * 1e3 / _ROWS_1080P,
    )


CPU_N = DeviceSpec(
    name="CPU_N",
    kind="cpu",
    rates=_rates(me_ms=54.0, int_ms=8.3, sme_ms=12.5, rstar_ms=8.3),
)

CPU_H = DeviceSpec(
    name="CPU_H",
    kind="cpu",
    rates=_rates(me_ms=31.0, int_ms=4.8, sme_ms=7.0, rstar_ms=4.8),
)

GPU_F = DeviceSpec(
    name="GPU_F",
    kind="gpu",
    rates=_rates(me_ms=24.0, int_ms=3.7, sme_ms=5.5, rstar_ms=3.7),
    link=LinkSpec(h2d_gbps=5.5, d2h_gbps=5.0, latency_s=15e-6, copy_engines=1),
)

GPU_K = DeviceSpec(
    name="GPU_K",
    kind="gpu",
    rates=_rates(me_ms=11.0, int_ms=1.5, sme_ms=2.5, rstar_ms=2.0),
    link=LinkSpec(h2d_gbps=10.0, d2h_gbps=9.0, latency_s=8e-6, copy_engines=2),
)


def _gpu_variant(spec: DeviceSpec, name: str) -> DeviceSpec:
    """A same-silicon copy of a GPU spec under a different name."""
    return replace(spec, name=name)


_PLATFORM_BUILDERS = {
    # Single-device "platforms" (baselines of Fig. 6).
    "CPU_N": lambda: Platform(name="CPU_N", specs=[CPU_N]),
    "CPU_H": lambda: Platform(name="CPU_H", specs=[CPU_H]),
    "GPU_F": lambda: Platform(name="GPU_F", specs=[GPU_F]),
    "GPU_K": lambda: Platform(name="GPU_K", specs=[GPU_K]),
    # Heterogeneous systems (paper §IV).
    "SysNF": lambda: Platform(name="SysNF", specs=[GPU_F, CPU_N]),
    "SysNFF": lambda: Platform(
        name="SysNFF",
        specs=[GPU_F, _gpu_variant(GPU_F, "GPU_F2"), CPU_N],
    ),
    "SysHK": lambda: Platform(name="SysHK", specs=[GPU_K, CPU_H]),
}


def list_platforms() -> list[str]:
    """Names of all available platform presets."""
    return sorted(_PLATFORM_BUILDERS)


def get_platform(name: str) -> Platform:
    """Build a fresh platform preset by name (new DES resources)."""
    try:
        builder = _PLATFORM_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {list_platforms()}"
        ) from None
    return builder()


def multi_gpu_platform(
    n_gpus: int,
    gpu: DeviceSpec = GPU_F,
    cpu: DeviceSpec | None = CPU_N,
    name: str | None = None,
) -> Platform:
    """Build a CPU + N-identical-GPU platform (scalability studies).

    The paper argues FEVES scales beyond the single accelerator of
    ME-offload designs; this helper generates the SysNF/SysNFF family for
    arbitrary GPU counts.
    """
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    specs: list[DeviceSpec] = [
        gpu if i == 0 else _gpu_variant(gpu, f"{gpu.name}{i + 1}")
        for i in range(n_gpus)
    ]
    if cpu is not None:
        specs.append(cpu)
    return Platform(
        name=name or f"Sys{n_gpus}x{gpu.name}", specs=specs
    )
