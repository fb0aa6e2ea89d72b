"""FEVES core: the paper's contribution.

- :mod:`repro.core.framework` — Framework Control (paper Algorithm 1):
  initialization with equidistant partitioning, then the adaptive
  iterative phase.
- :mod:`repro.core.frame_plan` — one inter frame's row split as executable
  rows (faulted bands as redo rows on a survivor), read by every executor.
- :mod:`repro.core.coding_manager` — Video Coding Manager (Fig. 4): turns
  the frame plan into the DAG of kernels and transfers with the τ1/τ2/τtot
  synchronization structure, for GPU- and CPU-centric configurations and
  single/dual copy engines.
- :mod:`repro.core.data_access` — Data Access Management (Fig. 5): device
  buffer states, transfer coalescing and the deferred-SF σ/σʳ machinery.
- :mod:`repro.core.load_balancing` — the linear program of Algorithm 2
  with the MS_BOUNDS/LS_BOUNDS data-reuse terms.
- :mod:`repro.core.perf_model` — online Performance Characterization.
- :mod:`repro.core.rstar` — Dijkstra-based mapping of the R* modules.
"""

from repro.core.analysis import (
    ideal_aggregate_fps,
    parallel_efficiency,
    utilization_summary,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework, FrameOutcome

__all__ = [
    "FevesFramework",
    "FrameOutcome",
    "FrameworkConfig",
    "ideal_aggregate_fps",
    "parallel_efficiency",
    "utilization_summary",
]
