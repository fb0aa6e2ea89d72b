"""repro — reproduction of FEVES (ICPP 2014).

FEVES: Framework for Efficient Parallel Video Encoding on Heterogeneous
Systems (A. Ilic, S. Momcilovic, N. Roma, L. Sousa).

Public API highlights
---------------------
- :class:`repro.core.framework.FevesFramework` — the paper's contribution:
  adaptive LP-based load balancing of the H.264/AVC inter-loop across a
  CPU + multi-GPU platform.
- :mod:`repro.codec` — a complete NumPy H.264/AVC inter-loop codec substrate
  (ME, INT, SME, MC, TQ, TQ⁻¹, DBL, entropy coding).
- :mod:`repro.hw` — discrete-event heterogeneous platform simulator with
  calibrated presets for the paper's devices (CPU_N, CPU_H, GPU_F, GPU_K)
  and systems (SysNF, SysNFF, SysHK).
- :mod:`repro.baselines` — single-device, equidistant multi-GPU, and
  ME-offload baselines the paper compares against.
- :mod:`repro.service` — multi-stream encoding service: session
  scheduling, admission control, and deadline-aware platform sharing on
  top of the single-stream framework (CLI: ``repro serve``).
- :mod:`repro.sanitizers` — the runtime checks (``--sanitize`` on
  run/serve/fleet/profile: the lifecycle-journal replay, plus the fleet's
  segment audit) and repo-specific static lint (CLI: ``repro lint``).
"""

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform, list_platforms
from repro.sanitizers import ScheduleViolationError
from repro.service import EncodingService, ServiceConfig, StreamSpec

__version__ = "1.2.0"

__all__ = [
    "CodecConfig",
    "EncodingService",
    "FaultEvent",
    "FaultSchedule",
    "FrameworkConfig",
    "FevesFramework",
    "ScheduleViolationError",
    "ServiceConfig",
    "StreamSpec",
    "get_platform",
    "list_platforms",
    "__version__",
]
