"""The ``process`` execution backend: really-parallel frame encoding.

:class:`ProcessBackend` implements the same ``run_frame`` contract as the
DES-backed :class:`~repro.core.coding_manager.VideoCodingManager`, but
instead of simulating the frame plan it *executes* it: each row of the
:class:`~repro.core.frame_plan.FramePlan` goes to the pool worker its
slot names — the plan gives every surviving device a worker group and
splits the device's band into one chunk per worker, which runs what it
is given in order, so a device's INT and ME share its workers the way
the LP's engine row assumes — and the τ1/τ2 phase barriers of
Algorithm 1 are real collection points: the frame is staged before the
first task is submitted, and the new SF is read and SME tasks submitted
only once every ME/INT result of the frame is in (the call-order test
of ``tests/exec/test_sanitize_exec.py`` holds it). A faulted
device's redo rows run on the fallback's workers like any other row.

Timing discipline: the host anchors ``t=0`` at frame start; workers stamp
their kernels with ``time.perf_counter()`` (machine-wide on Linux), so
the assembled :class:`~repro.hw.timeline.FrameTimeline` holds measured,
not simulated, intervals. Measured per-module spans (redo rows excepted)
feed ``PerformanceCharacterization.observe_*`` so the LP schedules
subsequent frames from real rates; the framework's accuracy report
compares its predictions with what was then measured.

Transfers are identically zero here — shared memory *is* the bus — so
the backend seeds the characterization's transfer estimates with the
platform's model priors once, purely to satisfy the LP's readiness check.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.frames import pad_plane
from repro.codec.me import MotionField
from repro.codec.sme import SubpelField
from repro.core.coding_manager import FrameReport, RealContext
from repro.core.config import FrameworkConfig
from repro.core.data_access import TransferPlan
from repro.core.frame_plan import FramePlan, Row
from repro.core.perf_model import PerformanceCharacterization
from repro.exec.pool import (
    TASK_TIMEOUT_ENV,
    KernelPool,
    TaskHandle,
    TaskResult,
    resolve_start_method,
    task_timeout_from_env,
    usable_cpus,
)
from repro.exec.shm import SharedFrameStore
from repro.hw.des import OpRecord, Schedule
from repro.hw.timeline import FrameTimeline
from repro.hw.topology import Platform
from repro.util.journal import span

#: Representative payload for the one-time transfer priors (bytes).
_PRIOR_TRANSFER_BYTES = 1 << 20


# One executed row: the plan row and its worker's (t0_abs, t1_abs) stamps.
_Chunk = tuple[Row, float, float]


def _wall_s(intervals: list[tuple[float, float]]) -> float:
    """Wall time covered by ``intervals``: overlapping ones count once."""
    total, covered = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > covered:
            total += t1 - max(t0, covered)
            covered = t1
    return total


class ProcessBackend:
    """Drop-in ``run_frame`` provider that executes frames in parallel.

    Lifetime: the shared-memory store and the worker pool are created
    lazily on the first frame (so constructing a framework stays cheap)
    and live until :meth:`close` — call it, or use the owning framework
    as a context manager.
    """

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        fw_cfg: FrameworkConfig,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.fw_cfg = fw_cfg
        self.workers = fw_cfg.exec_workers or usable_cpus()
        # Validate both env knobs here, at construction: a typo'd
        # $REPRO_EXEC_START_METHOD / $REPRO_EXEC_TIMEOUT_S must fail
        # with a named token before any frame (or fork) happens.
        resolve_start_method()
        self.task_timeout_s = task_timeout_from_env()
        self._store: SharedFrameStore | None = None
        self._pool: KernelPool | None = None
        self._priors_seeded = False

    # ------------------------------ lifecycle ----------------------------

    def _ensure_started(self) -> tuple[SharedFrameStore, KernelPool]:
        if self._store is None or self._pool is None:
            with span(self, "exec_start"):
                store = SharedFrameStore(self.codec_cfg)
                try:
                    pool = KernelPool(self.workers, store.layout(), self.codec_cfg)
                except BaseException:
                    store.close()
                    raise
                self._store, self._pool = store, pool
        return self._store, self._pool

    def close(self) -> None:
        """Shut down the pool, then unlink the shared segments (idempotent)."""
        pool, self._pool = self._pool, None
        store, self._store = self._store, None
        try:
            if pool is not None:
                pool.close()
        finally:
            if store is not None:
                store.close()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------- scheduling ----------------------------

    def _seed_transfer_priors(self, perf: PerformanceCharacterization) -> None:
        """Install model-rate link priors once (shared memory is zero-copy).

        The LP's readiness check requires h2d/d2h bandwidth estimates for
        every accelerator before it engages; no transfer ever executes on
        this backend, so the platform's modelled link speeds stand in.
        """
        if self._priors_seeded:
            return
        self._priors_seeded = True
        nbytes = _PRIOR_TRANSFER_BYTES
        for dev in self.platform.devices:
            if not dev.is_accelerator:
                continue
            for direction in ("h2d", "d2h"):
                perf.observe_transfer(
                    dev.name, direction, nbytes,
                    dev.transfer_s(nbytes, direction), prior=True,
                )

    def _collect(
        self, futs: list[TaskHandle[TaskResult[Any]]]
    ) -> list[TaskResult[Any]]:
        """Gather task results, failing fast on a stalled pool."""
        out: list[TaskResult[Any]] = []
        for fut in futs:
            try:
                out.append(fut.result(timeout=self.task_timeout_s))
            except TimeoutError:
                raise RuntimeError(
                    f"worker pool stalled: no result within "
                    f"{self.task_timeout_s:.0f}s (set ${TASK_TIMEOUT_ENV} "
                    "to adjust the failsafe)"
                ) from None
        return out

    # ------------------------------ run_frame ----------------------------

    def run_frame(
        self,
        plan: FramePlan,
        transfers: TransferPlan,
        perf: PerformanceCharacterization,
        ctx: RealContext | None = None,
        probe_rstar: bool = False,
    ) -> FrameReport:
        """Execute one inter frame's ``plan`` for real (same contract as the sim)."""
        if ctx is None:
            raise ValueError(
                "the process backend has no model mode: run_frame needs a "
                "RealContext (call encode() / encode_frame_at(); run_model() "
                "and encode_next_inter() need backend='sim')"
            )
        cfg = self.codec_cfg
        store, pool = self._ensure_started()
        self._seed_transfer_priors(perf)
        t_frame0 = time.perf_counter()

        # ---- stage the frame into shared memory (host is the only writer)
        with span(self, "exec_write"):
            sr = cfg.search_range
            n_refs = min(len(ctx.refs_y), cfg.num_ref_frames)
            store.view("cur")[:] = ctx.cur.y
            for k in range(n_refs):
                store.view(f"ref{k}")[:] = pad_plane(ctx.refs_y[k], sr)
            for k, sf_prev in enumerate(ctx.sfs_prev):
                store.view(f"sf{k + 1}")[:] = sf_prev

        # ---- phase 1: ME + INT rows, barriered at τ1 ------------------------
        with span(self, "exec_phase1"):
            p1_futs: list[TaskHandle[TaskResult[Any]]] = []
            for row in plan.phase1:
                row0, nrows = row.band[0], row.band[1] - row.band[0]
                if row.module == "int":
                    p1_futs.append(pool.submit_int(row0, nrows, row.slot))
                else:
                    p1_futs.append(pool.submit_me(row0, nrows, n_refs, row.slot))
            p1_results = self._collect(p1_futs)
            tau1 = time.perf_counter() - t_frame0

        # ---- τ1 barrier: stitch ME bands, copy the new SF out ------------
        with span(self, "exec_tau1"):
            ctx.me_field = MotionField.merge([
                mf for row, (mf, *_) in zip(plan.phase1, p1_results, strict=True)
                if row.module == "me"
            ])
            ctx.sf_new = np.array(store.view("sf0"), copy=True)
            ctx.sfs = [ctx.sf_new] + ctx.sfs_prev
            barrier1 = (tau1, time.perf_counter() - t_frame0)

        # ---- phase 2: SME rows, barriered at τ2 ---------------------------
        with span(self, "exec_phase2"):
            n_sfs = 1 + len(ctx.sfs_prev)
            sme_futs: list[TaskHandle[TaskResult[Any]]] = []
            for row in plan.phase2:
                row0, nrows = row.band[0], row.band[1] - row.band[0]
                sme_futs.append(pool.submit_sme(
                    row0, nrows, n_sfs, ctx.me_field.slice_rows(row0, nrows),
                    row.slot,
                ))
            sme_results = self._collect(sme_futs)
            tau2 = time.perf_counter() - t_frame0

        with span(self, "exec_tau2"):
            ctx.sme_field = SubpelField.merge([sf for sf, *_ in sme_results])
            barrier2 = (tau2, time.perf_counter() - t_frame0)

        # ---- R* block on the host, attributed to the R* device ------------
        with span(self, "exec_rstar"):
            t_rstar0 = time.perf_counter()
            ctx.run_rstar()
            rstar_s = time.perf_counter() - t_rstar0
        tau_tot = time.perf_counter() - t_frame0

        chunks: list[_Chunk] = [
            (row, t0, t1)
            for rows, results in ((plan.phase1, p1_results), (plan.phase2, sme_results))
            for row, (_out, t0, t1, _) in zip(rows, results, strict=True)
        ]
        timeline = self._build_timeline(
            plan, chunks, t_frame0, t_rstar0, rstar_s, barrier1, barrier2, tau_tot,
        )
        self._feed_characterization(perf, plan, chunks, rstar_s, probe_rstar)
        return FrameReport(
            frame_index=plan.frame_index,
            tau1=tau1,
            tau2=tau2,
            tau_tot=tau_tot,
            timeline=timeline,
            decision=plan.decision,
            rstar_device=plan.rstar_device,
            transfer_plan=transfers,
            encoded=ctx.encoded,
            faulted=tuple(sorted(plan.faulted)),
            fault_time_lost_s=_wall_s([(t0, t1) for row, t0, t1 in chunks if row.redo]),
        )

    # ------------------------------ harvest ------------------------------

    def _build_timeline(
        self, plan: FramePlan, chunks: list[_Chunk], t_frame0: float,
        t_rstar0: float, rstar_s: float, barrier1: tuple[float, float],
        barrier2: tuple[float, float], tau_tot: float,
    ) -> FrameTimeline:
        """Assemble the measured Gantt chart (times relative to frame start).

        A barrier's ``host.sync`` record runs from τ1 (τ2) to the end of
        the host's stitch of that phase's results, the host's own work
        between the phases.
        """
        names = [dev.name for dev in self.platform.devices]
        records: list[OpRecord] = []
        for row, t0, t1 in chunks:
            # One lane per worker: ``<device>.w<slot>``, the slot the row ran on.
            name = names[row.device]
            start = max(0.0, t0 - t_frame0)
            end = max(start, t1 - t_frame0)
            row0, stop = row.band
            records.append(OpRecord(
                f"{row.label(names)} rows {row0}+{stop - row0}", f"{name}.w{row.slot}",
                "compute", start, end,
            ))
        rstar = plan.rstar_device
        rstar_start = max(0.0, t_rstar0 - t_frame0)
        records += [
            OpRecord(f"R*[{rstar}]", f"{rstar}.compute", "compute",
                     rstar_start, rstar_start + rstar_s),
            OpRecord("tau1", "host.sync", "sync", *barrier1),
            OpRecord("tau2", "host.sync", "sync", *barrier2),
        ]
        return FrameTimeline(
            plan.frame_index, Schedule.of(records), barrier1[0], barrier2[0], tau_tot
        )

    def _feed_characterization(
        self, perf: PerformanceCharacterization, plan: FramePlan,
        chunks: list[_Chunk], rstar_s: float, probe_rstar: bool,
    ) -> None:
        """Close the loop: measured rates → the characterization.

        The per-(device, module) observation is the *span* from the first
        chunk start to the last chunk end. It starts at a worker's own
        stamp, so the wait ahead of a device's first chunk is never in it;
        the gaps between its chunks are, when its group shares workers
        with another device — the effective rate the LP must plan with
        there. Redo rows are not observed: they are a faulted device's
        band measured on another device.
        """
        span: dict[tuple[int, str], tuple[float, float]] = {}
        for row, t0, t1 in chunks:
            if row.redo:
                continue
            key = (row.owner, row.module)
            lo, hi = span.get(key, (t0, t1))
            span[key] = (min(lo, t0), max(hi, t1))
        decision = plan.decision
        rows_of = {"me": decision.m, "int": decision.l, "sme": decision.s}
        for i, dev in enumerate(self.platform.devices):
            for module, dist in sorted(rows_of.items()):
                lohi = span.get((i, module))
                if lohi is not None:
                    perf.observe_compute(
                        dev.name, module, dist.rows[i], lohi[1] - lohi[0]
                    )
        perf.observe_rstar(plan.rstar_device, rstar_s)
        if probe_rstar:
            # No way to measure R* on "other devices" here — every group
            # runs on the same host cores — so the one measured block
            # stands in for all of them (bootstraps the R* mapping).
            for dev in self.platform.devices:
                if dev.name in plan.survivors and dev.name != plan.rstar_device:
                    perf.observe_rstar(dev.name, rstar_s)
