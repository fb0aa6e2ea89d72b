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
times feed the Performance Characterization, and every frame's
LP-predicted τ1/τ2/τtot is compared against the measured timeline in an
:class:`~repro.exec.accuracy.AccuracyReport`.
"""

from repro.exec.accuracy import AccuracyReport, FrameAccuracy
from repro.exec.backend import ProcessBackend
from repro.exec.shm import SharedFrameStore

__all__ = [
    "AccuracyReport",
    "FrameAccuracy",
    "ProcessBackend",
    "SharedFrameStore",
]
