"""Persistent multiprocessing worker pool for the codec kernels.

Workers attach to the :class:`~repro.exec.shm.SharedFrameStore` segments
once, when they start, and afterwards every task is pure
coordinates: ``(row0, nrows)`` plus small metadata. ME and SME return
their per-band motion fields (a few KB per MB row); INT writes its SF band
straight into the shared ``sf0`` slot and returns nothing — no pixel
plane ever crosses a process boundary.

Each task also returns its own ``time.perf_counter()`` start/end pair
(see :data:`TaskResult`). On Linux ``perf_counter`` is
``CLOCK_MONOTONIC``, which is machine-wide, so worker timestamps are
directly comparable with the host's frame-start anchor; the backend
clamps defensively on platforms where they are not.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Generic, NoReturn, TypeVar

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.interpolation import interpolate_rows
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.exec.shm import SLOT_DTYPE, Layout
from repro.util.journal import record as _proto_journal

T = TypeVar("T")

#: What a task returns: its value, the ``perf_counter`` stamps of its
#: start and end, and an empty tuple — the slot the retired access journal
#: used, kept while ``benchmarks/suite`` unpacks four values from a result.
TaskResult = tuple[T, float, float, tuple[()]]

#: Environment override for the pool start method ("fork"/"spawn"/...).
START_METHOD_ENV = "REPRO_EXEC_START_METHOD"

#: Environment override for the per-task deadlock failsafe (seconds).
TASK_TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT_S"
DEFAULT_TASK_TIMEOUT_S = 600.0

#: How long a worker whose pipe broke gets to finish dying, so that the
#: error can name its exit code.
_EXIT_GRACE_S = 1.0

# Per-worker attachment state, populated once by _attach_worker(). The
# SharedMemory objects are kept alive so the numpy views stay valid for
# the life of the worker process; the owning host unlinks the segments.
_VIEWS: dict[str, np.ndarray] = {}
_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_CFG: CodecConfig | None = None


def _attach_worker(layout: Layout, cfg: CodecConfig, cpu: int | None) -> None:
    """Worker start-up: map every shared slot, take a CPU if handed one.

    ``cpu`` is the worker's index when the pool pins (see
    :class:`KernelPool` for when and why): worker k takes the k-th CPU
    this process may run on, wrapping around. Where the OS has it the
    worker also becomes a ``SCHED_BATCH`` task — same share of the CPU,
    but waking it does not preempt the thread that woke it (see
    :class:`KernelPool`, "the host is never preempted by its own work").
    """
    global _CFG
    _CFG = cfg
    if hasattr(os, "SCHED_BATCH"):
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    if cpu is not None:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[cpu % len(cpus)]})
    for key, (name, shape) in layout.items():
        seg = shared_memory.SharedMemory(name=name)
        _SEGMENTS[key] = seg
        _VIEWS[key] = np.ndarray(shape, dtype=SLOT_DTYPE, buffer=seg.buf)


def _cfg() -> CodecConfig:
    if _CFG is None:
        raise RuntimeError("worker not attached (_attach_worker did not run)")
    return _CFG


def _rf_view() -> np.ndarray:
    """Unpadded newest-reference plane: the centred view of ``ref0``."""
    cfg = _cfg()
    sr = cfg.search_range
    pad = _VIEWS["ref0"]
    if sr == 0:
        return pad
    return pad[sr:-sr, sr:-sr]


def me_task(row0: int, nrows: int, n_refs: int) -> TaskResult[MotionField]:
    """Full-search ME over one chunk of MB rows (prepadded refs)."""
    cfg = _cfg()
    t0 = time.perf_counter()
    refs = [_VIEWS[f"ref{k}"] for k in range(n_refs)]
    out = motion_estimate_rows(
        _VIEWS["cur"], refs, row0, nrows, cfg, refs_prepadded=True
    )
    return out, t0, time.perf_counter(), ()


def int_task(row0: int, nrows: int) -> TaskResult[None]:
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
    return None, t0, time.perf_counter(), ()


def sme_task(
    row0: int, nrows: int, n_sfs: int, me_band: MotionField
) -> TaskResult[SubpelField]:
    """Quarter-pel refinement over one chunk (reads the stitched SFs)."""
    cfg = _cfg()
    t0 = time.perf_counter()
    sfs = [_VIEWS[f"sf{k}"] for k in range(n_sfs)]
    out = subpel_refine_rows(_VIEWS["cur"], sfs, me_band, row0, nrows, cfg)
    return out, t0, time.perf_counter(), ()


def usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _worker_loop(
    conn: Connection, layout: Layout, cfg: CodecConfig, cpu: int | None
) -> None:
    """A worker's whole life: attach, then run the tasks on its own pipe.

    Tasks run in the order the host wrote them. A task's own exception
    goes back as its result; ``None``, the host's end closing or the host
    itself exiting ends the loop. The last is the one a killed host
    leaves: under fork this worker holds a copy of its pipe's host end
    (and so does every later sibling), so ``recv`` would never see EOF.
    """
    _attach_worker(layout, cfg, cpu)
    host = multiprocessing.parent_process()
    assert host is not None, "a kernel worker runs in a child process"
    while True:
        # REP201 reads any wait() a worker can reach as a fork hazard. This
        # one blocks on two descriptors the worker owns, after start-up,
        # holding no lock: a false positive.
        if conn not in wait([conn, host.sentinel]):  # noqa: REP201
            return
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, args = task
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


class TaskHandle(Generic[T]):
    """One submitted task; ``result()`` waits for it.

    ``worker`` is the index of the worker the task was given to and
    ``task`` its label (``"sme rows 9+9"``).
    """

    __slots__ = ("_pool", "worker", "task", "_reply")

    def __init__(self, pool: KernelPool, worker: int, task: str) -> None:
        self._pool = pool
        self.worker = worker
        self.task = task
        self._reply: tuple[bool, Any] | None = None

    def result(self, timeout: float | None = None) -> T:
        """The task's return value; its own exception is raised as itself.

        Raises :class:`TimeoutError` after ``timeout`` seconds and
        :class:`RuntimeError` if a worker died (the pool is then closed).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._reply is None:
            self._pool._drain(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        ok, value = self._reply
        if not ok:
            raise value
        return value


class KernelPool:
    """A persistent, pre-attached pool of kernel workers.

    ``workers`` processes, each at the far end of its own duplex pipe.
    The calling thread writes a task straight to the pipe of the worker
    it names and reads results back with one ``wait`` over the busy
    pipes: no thread, no shared queue and no lock stands between the
    host and a worker, so a burst of submits reaches every worker within
    microseconds of each other, and what one worker is given it runs in
    order. A worker holds one task at a time; what else it has been given
    queues on the host and goes down the pipe the moment the result ahead
    of it is read — a pipe never holds two messages, so neither end can
    block on a full one whatever a field pickles to. The pool lives for a
    whole encode, not per frame, so worker start-up and segment
    attachment are paid once. The start method comes from
    ``$REPRO_EXEC_START_METHOD`` (validated: a typo fails here with a
    named token, not deep inside ``multiprocessing``).

    A worker that dies (its pipe at EOF, its process gone) is one
    :class:`RuntimeError` naming it and the task it held; the pool is
    closed by then. A task's own exception is raised by that task's
    ``result()`` and the pool carries on.

    The host is never preempted by its own work: workers are
    ``SCHED_BATCH`` tasks. A worker that has slept since the last phase
    wakes with all the credit the scheduler can give; pinned to the CPU
    the host thread happens to be on, it used to take that CPU the moment
    the host wrote its task, and the host got to write the *next* worker's
    task only once it had been migrated or the first task was over — 4–5
    ms into phase 1, every frame, whenever the first task of a burst went
    to the worker sharing the host's CPU (measured both ways round on the
    2-CPU guest, EXPERIMENTS.md "Host performance: dispatch"). Batch tasks
    do not preempt on wake-up; the host finishes the burst, sleeps in
    ``wait``, and the worker has the CPU a few tens of microseconds later.

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
        pin = hasattr(os, "sched_setaffinity") and workers >= usable_cpus()
        self._closed = False
        self._procs: list[BaseProcess] = []
        self._conns: list[Connection] = []
        #: Process id of every worker, by worker index.
        self.pids: list[int | None] = []
        #: Per worker, oldest first: the task it holds, then those waiting.
        self._queues: list[deque[tuple[TaskHandle[Any], Any]]] = [
            deque() for _ in range(workers)
        ]
        _proto_journal(self, "create")
        try:
            for k in range(workers):
                host_end, worker_end = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_loop,
                    args=(worker_end, layout, cfg, k if pin else None),
                    name=f"repro-kernel-{k}",
                    daemon=True,
                )
                proc.start()
                self._conns.append(host_end)
                self._procs.append(proc)
                self.pids.append(proc.pid)
                # Closed before the next fork: the worker holds the only
                # copy of its end, so its death reads as EOF on the host's.
                worker_end.close()
        except BaseException:
            self.close()
            raise

    def _submit(
        self, worker: int, task: str, fn: Callable[..., T], *args: Any
    ) -> TaskHandle[T]:
        if self._closed:
            raise RuntimeError("kernel pool is closed")
        handle: TaskHandle[T] = TaskHandle(self, worker % self.workers, task)
        queue = self._queues[handle.worker]
        queue.append((handle, (fn, args)))
        if len(queue) == 1:
            self._send(handle.worker)
        return handle

    def _send(self, worker: int) -> None:
        """Write the head of ``worker``'s queue to its (idle) pipe."""
        try:
            self._conns[worker].send(self._queues[worker][0][1])
        except OSError:
            self._fail(worker)

    def _drain(self, timeout: float | None) -> None:
        """Wait for a result, then take in every one that is ready."""
        busy = {self._conns[k]: k for k, queue in enumerate(self._queues) if queue}
        if not busy:
            raise RuntimeError("kernel pool is closed")
        ready = wait(list(busy), timeout)
        if not ready:
            raise TimeoutError
        for conn in ready:
            k = busy[conn]
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._fail(k)
            handle, _task = self._queues[k].popleft()
            handle._reply = reply
            if self._queues[k]:
                self._send(k)

    def _fail(self, worker: int) -> NoReturn:
        """A worker is gone: close the pool, raise the one named error."""
        proc = self._procs[worker]
        held = self._queues[worker][0][0].task
        proc.join(_EXIT_GRACE_S)
        self.close()
        raise RuntimeError(
            f"kernel worker {worker} (pid {proc.pid}) died with exit code "
            f"{proc.exitcode} while it held {held!r}; the pool is closed"
        )

    def submit_me(
        self, row0: int, nrows: int, n_refs: int, worker: int = 0
    ) -> TaskHandle[TaskResult[MotionField]]:
        _proto_journal(self, "submit_me", detail=f"{row0}+{nrows}")
        return self._submit(
            worker, f"me rows {row0}+{nrows}", me_task, row0, nrows, n_refs
        )

    def submit_int(
        self, row0: int, nrows: int, worker: int = 0
    ) -> TaskHandle[TaskResult[None]]:
        _proto_journal(self, "submit_int", detail=f"{row0}+{nrows}")
        return self._submit(
            worker, f"int rows {row0}+{nrows}", int_task, row0, nrows
        )

    def submit_sme(
        self, row0: int, nrows: int, n_sfs: int, me_band: MotionField,
        worker: int = 0,
    ) -> TaskHandle[TaskResult[SubpelField]]:
        _proto_journal(self, "submit_sme", detail=f"{row0}+{nrows}")
        return self._submit(
            worker, f"sme rows {row0}+{nrows}", sme_task,
            row0, nrows, n_sfs, me_band,
        )

    def close(self) -> None:
        """Stop the workers (idempotent; tasks not yet run are dropped)."""
        _proto_journal(self, "close")
        self._closed = True
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        for conn, proc, queue in zip(conns, procs, self._queues):
            if queue:  # mid-task: nobody will read its result
                queue.clear()
                proc.kill()
            else:
                try:
                    conn.send(None)
                except OSError:  # already dead
                    pass
            conn.close()
        for proc in procs:
            proc.join()

    def __enter__(self) -> KernelPool:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
