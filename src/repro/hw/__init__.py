"""Heterogeneous platform simulator.

FEVES was evaluated on real CPU+GPU desktops; this package replaces the
hardware with a deterministic discrete-event simulator exposing the same
observable surface the framework needs: per-op execution/transfer times on
devices with distinct speeds, PCIe links with asymmetric bandwidth, and
single- vs dual-copy-engine concurrency between kernels and transfers.

- :mod:`repro.hw.des` — dependency-graph discrete-event kernel.
- :mod:`repro.hw.rates` — per-module device rate models (the ground truth
  the framework must *learn* through measurement).
- :mod:`repro.hw.device` / :mod:`repro.hw.interconnect` — device and link
  descriptions.
- :mod:`repro.hw.topology` — platform = devices + links.
- :mod:`repro.hw.presets` — calibrated models of the paper's devices
  (CPU_N, CPU_H, GPU_F, GPU_K) and systems (SysNF, SysNFF, SysHK).
- :mod:`repro.hw.noise` — load-fluctuation injection (paper Fig. 7).
"""

from repro.hw.des import Op, Resource, Simulator
from repro.hw.device import Device, DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.presets import get_platform, list_platforms, multi_gpu_platform
from repro.hw.rates import ModuleRates
from repro.hw.topology import Platform
from repro.hw.trace_export import StreamTrace, export_stream_traces

__all__ = [
    "Device",
    "DeviceSpec",
    "LinkSpec",
    "ModuleRates",
    "Op",
    "Platform",
    "Resource",
    "Simulator",
    "StreamTrace",
    "export_stream_traces",
    "get_platform",
    "list_platforms",
    "multi_gpu_platform",
]
