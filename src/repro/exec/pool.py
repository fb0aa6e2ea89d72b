"""Persistent multiprocessing worker pool for the codec kernels.

Workers attach to the :class:`~repro.exec.shm.SharedFrameStore` segments
once, in the pool initializer, and afterwards every task is pure
coordinates: ``(row0, nrows)`` plus small metadata. ME and SME return
their per-band motion fields (a few KB per MB row); INT writes its SF band
straight into the shared ``sf0`` slot and returns nothing — no pixel
plane ever crosses a process boundary.

Each task also returns its own ``time.perf_counter()`` start/end pair.
On Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is machine-wide,
so worker timestamps are directly comparable with the host's frame-start
anchor; the backend clamps defensively on platforms where they are not.

A worker that starts under ``$REPRO_SANITIZE`` (SAN-F; inherited by fork
and spawn alike) additionally returns its shared-memory
:class:`~repro.exec.shm.AccessRecord` entries with every task — built
from the *same* bounds the actual reads/writes use, so the journal
cannot drift from the access it describes — and the backend keeps the
merged per-frame journal for ``TimelineSanitizer.check_exec``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.interpolation import interpolate_rows
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.exec.shm import (
    PHASE_P1,
    PHASE_P2,
    SLOT_DTYPE,
    AccessRecord,
    Layout,
)
from repro.util.journal import record as _proto_journal, sanitize_from_env

if TYPE_CHECKING:
    from multiprocessing.sharedctypes import Synchronized

#: Environment override for the pool start method ("fork"/"spawn"/...).
START_METHOD_ENV = "REPRO_EXEC_START_METHOD"

#: Environment override for the per-task deadlock failsafe (seconds).
TASK_TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT_S"
DEFAULT_TASK_TIMEOUT_S = 600.0

# Per-worker attachment state, populated once by _attach_worker(). The
# SharedMemory objects are kept alive so the numpy views stay valid for
# the life of the worker process; the owning host unlinks the segments.
_VIEWS: dict[str, np.ndarray] = {}
_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_CFG: CodecConfig | None = None
_SANITIZE: bool = False


def _attach_worker(
    layout: Layout, cfg: CodecConfig, slot: Synchronized | None
) -> None:
    """Pool initializer: map every shared slot, take a CPU if handed a ``slot``.

    ``slot`` counts the workers that have attached so far; the k-th one
    pins itself to the k-th CPU this process may run on (see
    :class:`KernelPool` for when and why).
    """
    global _CFG, _SANITIZE
    _CFG = cfg
    _SANITIZE = sanitize_from_env()
    if slot is not None:
        with slot.get_lock():
            k = slot.value
            slot.value = k + 1
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    for key, (name, shape) in layout.items():
        seg = shared_memory.SharedMemory(name=name)
        _SEGMENTS[key] = seg
        _VIEWS[key] = np.ndarray(shape, dtype=SLOT_DTYPE, buffer=seg.buf)


def _cfg() -> CodecConfig:
    if _CFG is None:
        raise RuntimeError("worker not attached (pool initializer did not run)")
    return _CFG


def _rf_view() -> np.ndarray:
    """Unpadded newest-reference plane: the centred view of ``ref0``."""
    cfg = _cfg()
    sr = cfg.search_range
    pad = _VIEWS["ref0"]
    if sr == 0:
        return pad
    return pad[sr:-sr, sr:-sr]


def _journal(
    task: str, phase: int, accesses: list[tuple[str, int, int, str]]
) -> list[AccessRecord]:
    """Worker-side journal entries (empty unless sanitizing)."""
    if not _SANITIZE:
        return []
    return [
        AccessRecord(segment, row0, row1, kind, task, phase)
        for segment, row0, row1, kind in accesses
    ]


def me_task(
    row0: int, nrows: int, n_refs: int
) -> tuple[MotionField, float, float, list[AccessRecord]]:
    """Full-search ME over one chunk of MB rows (prepadded refs)."""
    cfg = _cfg()
    t0 = time.perf_counter()
    refs = [_VIEWS[f"ref{k}"] for k in range(n_refs)]
    out = motion_estimate_rows(
        _VIEWS["cur"], refs, row0, nrows, cfg, refs_prepadded=True
    )
    entries = _journal(
        f"me rows {row0}+{nrows}", PHASE_P1,
        [("cur", MB_SIZE * row0, MB_SIZE * (row0 + nrows), "r")]
        + [(f"ref{k}", 0, _VIEWS[f"ref{k}"].shape[0], "r")
           for k in range(n_refs)],
    )
    return out, t0, time.perf_counter(), entries


def int_task(
    row0: int, nrows: int
) -> tuple[None, float, float, list[AccessRecord]]:
    """Interpolate one SF band and write it into ``sf0`` in place.

    Bands are disjoint by construction (they partition the frame's MB
    rows), so concurrent INT tasks never write the same byte, and
    ``interpolate_rows`` is bit-exact with the matching rows of the
    full-plane kernel — the stitched ``sf0`` is identical to a serial
    ``interpolate_plane`` run.
    """
    t0 = time.perf_counter()
    band = interpolate_rows(_rf_view(), row0, nrows)
    px = 4 * MB_SIZE
    lo = px * row0
    hi = px * (row0 + nrows)
    _VIEWS["sf0"][lo:hi, :] = band
    entries = _journal(
        f"int rows {row0}+{nrows}", PHASE_P1,
        [("ref0", 0, _VIEWS["ref0"].shape[0], "r"), ("sf0", lo, hi, "w")],
    )
    return None, t0, time.perf_counter(), entries


def sme_task(
    row0: int, nrows: int, n_sfs: int, me_band: MotionField
) -> tuple[SubpelField, float, float, list[AccessRecord]]:
    """Quarter-pel refinement over one chunk (reads the stitched SFs)."""
    cfg = _cfg()
    t0 = time.perf_counter()
    sfs = [_VIEWS[f"sf{k}"] for k in range(n_sfs)]
    out = subpel_refine_rows(_VIEWS["cur"], sfs, me_band, row0, nrows, cfg)
    entries = _journal(
        f"sme rows {row0}+{nrows}", PHASE_P2,
        [("cur", MB_SIZE * row0, MB_SIZE * (row0 + nrows), "r")]
        + [(f"sf{k}", 0, _VIEWS[f"sf{k}"].shape[0], "r")
           for k in range(n_sfs)],
    )
    return out, t0, time.perf_counter(), entries


def resolve_start_method(requested: str | None = None) -> str:
    """The validated start method: explicit arg > env > platform default.

    Raises eagerly (naming the offending token and ``$REPRO_EXEC_START_-
    METHOD``) instead of letting ``multiprocessing.get_context`` surface
    a bare ``ValueError`` from deep inside pool construction.
    """
    methods = multiprocessing.get_all_start_methods()
    chosen = requested or os.environ.get(START_METHOD_ENV) or None
    if chosen is None:
        return "fork" if "fork" in methods else methods[0]
    if chosen not in methods:
        source = (
            "start_method" if requested
            else f"${START_METHOD_ENV}"
        )
        raise ValueError(
            f"invalid {source}={chosen!r}: this platform supports "
            f"{', '.join(sorted(methods))}"
        )
    return chosen


def task_timeout_from_env() -> float:
    """The validated per-task timeout in seconds (positive finite float)."""
    raw = os.environ.get(TASK_TIMEOUT_ENV)
    if raw is None or raw == "":
        return DEFAULT_TASK_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"invalid ${TASK_TIMEOUT_ENV}={raw!r}: expected a positive "
            "number of seconds"
        ) from None
    if not value > 0 or not math.isfinite(value):
        raise ValueError(
            f"invalid ${TASK_TIMEOUT_ENV}={raw!r}: expected a positive "
            "finite number of seconds"
        )
    return value


class KernelPool:
    """A persistent, pre-attached pool of kernel workers.

    Thin wrapper over :class:`~concurrent.futures.ProcessPoolExecutor`
    whose only job is to keep the submit API typed per kernel and to make
    shutdown explicit (``close()``): the pool lives for a whole encode,
    not per frame, so worker start-up and segment attachment are paid
    once. The start method comes from ``$REPRO_EXEC_START_METHOD``
    (validated: a typo fails here with a named token, not deep inside
    ``multiprocessing``).

    A pool at least as wide as the machine pins worker k to CPU k (mod the
    CPUs this process may use). A phase is a burst of a few tens of
    milliseconds between two sleeps, shorter than the scheduler's balancing
    interval: workers woken together onto one CPU stay stacked there, every
    frame, until the pool closes, and the phase runs at half speed — on
    some runs and not on others (measured on a 2-CPU guest: both workers on
    one CPU for a whole clip, task CPU time half its wall time, +25–45 ms
    per CIF frame). One worker per CPU is the only placement such a pool
    can want, so it takes it; a narrower pool shares the machine with
    whatever else runs there and leaves placement to the scheduler.
    """

    def __init__(self, workers: int, layout: Layout, cfg: CodecConfig) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.start_method = resolve_start_method()
        ctx = multiprocessing.get_context(self.start_method)
        slot = None
        if hasattr(os, "sched_setaffinity") and workers >= len(
            os.sched_getaffinity(0)
        ):
            slot = ctx.Value("i", 0)
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_attach_worker,
            initargs=(layout, cfg, slot),
        )
        _proto_journal(self, "create")

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            raise RuntimeError("kernel pool is closed")
        return self._pool

    def submit_me(
        self, row0: int, nrows: int, n_refs: int
    ) -> "Future[tuple[MotionField, float, float, list[AccessRecord]]]":
        _proto_journal(self, "submit_me", detail=f"{row0}+{nrows}")
        return self._executor().submit(me_task, row0, nrows, n_refs)

    def submit_int(
        self, row0: int, nrows: int
    ) -> "Future[tuple[None, float, float, list[AccessRecord]]]":
        _proto_journal(self, "submit_int", detail=f"{row0}+{nrows}")
        return self._executor().submit(int_task, row0, nrows)

    def submit_sme(
        self, row0: int, nrows: int, n_sfs: int, me_band: MotionField
    ) -> "Future[tuple[SubpelField, float, float, list[AccessRecord]]]":
        _proto_journal(self, "submit_sme", detail=f"{row0}+{nrows}")
        return self._executor().submit(sme_task, row0, nrows, n_sfs, me_band)

    def close(self) -> None:
        """Shut the workers down (idempotent; queued tasks are dropped)."""
        _proto_journal(self, "close")
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
