"""Execution backends: run a frame's schedule for real instead of simulating it.

The DES-backed :class:`~repro.core.coding_manager.VideoCodingManager` is
the ``"sim"`` backend: it *simulates* a frame's
:class:`~repro.core.frame_plan.FramePlan` and (under ``encode()``) then
executes it serially on the host. This package adds the ``"process"``
backend — the same ``run_frame`` contract, but the plan's ME/INT/SME rows
execute on the persistent ``multiprocessing`` workers their slots name,
with frames, reference windows and subpel planes in
``multiprocessing.shared_memory`` buffers, behind the τ1/τ2 phase
barriers of Algorithm 1.

Select it with ``FrameworkConfig(backend="process")`` or ``repro run
--backend process`` and drive it with ``encode()`` / ``encode_frame_at()``;
it has no model mode, so ``run_model()`` raises. Measured per-row kernel
times feed the Performance Characterization. The measured τs land in the
framework's ``reports`` like the simulated ones, so
``FevesFramework.accuracy_report()`` (an
:class:`~repro.exec.accuracy.AccuracyReport`) scores the LP's predicted
τ1/τ2/τtot against either backend's run.
"""

from repro.exec.accuracy import AccuracyReport
from repro.exec.backend import ProcessBackend
from repro.exec.shm import SharedFrameStore

__all__ = [
    "AccuracyReport",
    "ProcessBackend",
    "SharedFrameStore",
]
