"""Execution backends: run a frame's schedule for real instead of simulating it.

The DES-backed :class:`~repro.core.coding_manager.VideoCodingManager` is
the ``"sim"`` backend: it *simulates* the collaborative schedule and
(under ``encode()``) executes the kernels serially on the host. This package
adds the ``"process"`` backend — the same ``run_frame`` contract, but
ME/INT/SME work items execute at MB-row granularity on a persistent
``multiprocessing`` worker pool with frames, reference windows and
subpel planes in ``multiprocessing.shared_memory`` buffers, honoring the
LP-assigned row split per device (worker group) and the τ1/τ2 phase
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
