"""The ``process`` execution backend: really-parallel frame encoding.

:class:`ProcessBackend` implements the same ``run_frame`` contract as the
DES-backed :class:`~repro.core.coding_manager.VideoCodingManager`, but
instead of simulating the collaborative schedule it *executes* it: each
"device" of the platform becomes a worker group on one persistent
:class:`~repro.exec.pool.KernelPool`, the LP-assigned row split (m, l, s)
is honored by giving every device's band to its group as MB-row chunks —
chunk j to the group's j-th worker, which runs what it is given in order,
so a device's INT and ME share its workers the way the LP's engine row
assumes — and the τ1/τ2 phase barriers of Algorithm 1 are real collection
points: no SME task is submitted before every ME/INT result of the frame
is in.

Timing discipline: the host anchors ``t=0`` at frame start; workers stamp
their kernels with ``time.perf_counter()`` (machine-wide on Linux), so
the assembled :class:`~repro.hw.timeline.FrameTimeline` holds measured,
not simulated, intervals. Measured per-module spans feed
``PerformanceCharacterization.observe_*`` so the LP schedules subsequent
frames from real rates; the accuracy report compares its predictions with
what was then measured.

Transfers are identically zero here — shared memory *is* the bus — so
the backend seeds the characterization's transfer estimates with the
platform's model priors once, purely to satisfy the LP's readiness check.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import Any

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.frames import pad_plane
from repro.codec.me import MotionField
from repro.codec.sme import SubpelField
from repro.core.coding_manager import FrameReport, RealContext
from repro.core.config import FrameworkConfig
from repro.core.data_access import TransferPlan
from repro.core.distribution import Distribution
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization
from repro.exec.accuracy import AccuracyReport, FrameAccuracy
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
from repro.hw.des import OpRecord
from repro.hw.timeline import FrameTimeline
from repro.hw.topology import Platform
from repro.util.journal import span

#: Representative payload for the one-time transfer priors (bytes).
_PRIOR_TRANSFER_BYTES = 1 << 20


def split_band(band: tuple[int, int], n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[start, stop)`` into ≤ ``n_chunks`` contiguous near-equal bands."""
    start, stop = band
    total = stop - start
    if total <= 0:
        return []
    n = max(1, min(n_chunks, total))
    base, extra = divmod(total, n)
    out: list[tuple[int, int]] = []
    row = start
    for j in range(n):
        nrows = base + (1 if j < extra else 0)
        out.append((row, row + nrows))
        row += nrows
    return out


def worker_group_sizes(n_devices: int, n_workers: int) -> list[int]:
    """Workers per device group (every device gets at least one)."""
    if n_devices < 1:
        raise ValueError(f"need at least one device, got {n_devices}")
    base, extra = divmod(max(n_workers, n_devices), n_devices)
    return [base + (1 if i < extra else 0) for i in range(n_devices)]


# One executed chunk: (module, device, row0, nrows, t0_abs, t1_abs).
_Chunk = tuple[str, str, int, int, float, float]


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
        self.accuracy = AccuracyReport()
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
        frame_index: int,
        decision: LoadDecision,
        rstar_device: str,
        plan: TransferPlan,
        active_refs: int,
        perf: PerformanceCharacterization,
        ctx: RealContext | None = None,
        probe_rstar: bool = False,
        live: frozenset[str] | set[str] | None = None,
        faulted_now: frozenset[str] | set[str] = frozenset(),
        fallback_device: str | None = None,
    ) -> FrameReport:
        """Execute one inter frame for real (same contract as the sim)."""
        if ctx is None:
            raise ValueError(
                "the process backend has no model mode: run_frame needs a "
                "RealContext (call encode() / encode_frame_at(); run_model() "
                "and encode_next_inter() need backend='sim')"
            )
        if faulted_now:
            raise ValueError(
                "fault injection is simulation-only; the process backend "
                "cannot execute faulted frames"
            )
        devices = self.platform.devices
        live_set = (
            frozenset(d.name for d in devices) if live is None else frozenset(live)
        )
        if rstar_device not in live_set:
            raise ValueError(
                f"R* device {rstar_device!r} is not a live survivor this frame"
            )
        cfg = self.codec_cfg
        store, pool = self._ensure_started()
        self._seed_transfer_priors(perf)

        live_idx = [i for i, d in enumerate(devices) if d.name in live_set]
        groups = worker_group_sizes(len(live_idx), self.workers)
        group_of = dict(zip(live_idx, groups, strict=True))
        # Device i owns workers first_of[i] .. first_of[i] + group_of[i] - 1
        # (mod the pool width when there are fewer workers than devices).
        first_of = dict(zip(live_idx, accumulate([0, *groups[:-1]]), strict=True))

        def chunks_of(i: int, dist: Distribution) -> list[tuple[int, int, int]]:
            """``(row0, nrows, worker)`` per chunk of device ``i``'s band."""
            return [
                (row0, stop - row0, first_of[i] + j)
                for j, (row0, stop) in enumerate(
                    split_band(dist.band(i), group_of[i])
                )
            ]

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

        chunks: list[_Chunk] = []

        # ---- phase 1: ME + INT, barriered at τ1 ----------------------------
        with span(self, "exec_phase1"):
            int_futs: list[TaskHandle[TaskResult[None]]] = []
            int_meta: list[tuple[str, int, int]] = []
            me_futs: list[TaskHandle[TaskResult[MotionField]]] = []
            me_meta: list[tuple[str, int, int]] = []
            for i in live_idx:
                name = devices[i].name
                for row0, nrows, worker in chunks_of(i, decision.l):
                    int_futs.append(pool.submit_int(row0, nrows, worker))
                    int_meta.append((name, row0, nrows))
                for row0, nrows, worker in chunks_of(i, decision.m):
                    me_futs.append(pool.submit_me(row0, nrows, n_refs, worker))
                    me_meta.append((name, row0, nrows))
            int_results = self._collect(list(int_futs))
            me_results = self._collect(list(me_futs))
            tau1 = time.perf_counter() - t_frame0
            for (name, row0, nrows), (_none, t0, t1, _) in zip(
                int_meta, int_results, strict=True
            ):
                chunks.append(("int", name, row0, nrows, t0, t1))
            for (name, row0, nrows), (_mf, t0, t1, _) in zip(
                me_meta, me_results, strict=True
            ):
                chunks.append(("me", name, row0, nrows, t0, t1))

        # ---- τ1 barrier: stitch ME bands, copy the new SF out ------------
        with span(self, "exec_tau1"):
            ctx.me_field = MotionField.merge(
                [mf for mf, _t0, _t1, _ in me_results]
            )
            ctx.sf_new = np.array(store.view("sf0"), copy=True)
            ctx.sfs = [ctx.sf_new] + ctx.sfs_prev

        # ---- phase 2: SME, barriered at τ2 --------------------------------
        with span(self, "exec_phase2"):
            n_sfs = 1 + len(ctx.sfs_prev)
            sme_futs: list[TaskHandle[TaskResult[SubpelField]]] = []
            sme_meta: list[tuple[str, int, int]] = []
            for i in live_idx:
                name = devices[i].name
                for row0, nrows, worker in chunks_of(i, decision.s):
                    sme_futs.append(
                        pool.submit_sme(
                            row0, nrows, n_sfs,
                            ctx.me_field.slice_rows(row0, nrows), worker,
                        )
                    )
                    sme_meta.append((name, row0, nrows))
            sme_results = self._collect(list(sme_futs))
            tau2 = time.perf_counter() - t_frame0
            for (name, row0, nrows), (_sf, t0, t1, _) in zip(
                sme_meta, sme_results, strict=True
            ):
                chunks.append(("sme", name, row0, nrows, t0, t1))

        with span(self, "exec_tau2"):
            ctx.sme_field = SubpelField.merge(
                [sf for sf, _t0, _t1, _ in sme_results]
            )

        # ---- R* block on the host, attributed to the R* device ------------
        with span(self, "exec_rstar"):
            t_rstar0 = time.perf_counter()
            ctx.run_rstar()
            rstar_s = time.perf_counter() - t_rstar0
        tau_tot = time.perf_counter() - t_frame0

        timeline = self._build_timeline(
            frame_index, chunks, rstar_device,
            t_frame0, t_rstar0, rstar_s, tau1, tau2, tau_tot,
        )
        self._feed_characterization(
            perf, decision, chunks, rstar_device, rstar_s, live_set, probe_rstar,
        )
        if decision.used_lp and decision.tau_tot_pred > 0:
            self.accuracy.add(
                FrameAccuracy(
                    frame_index=frame_index,
                    tau1_pred=decision.tau1_pred,
                    tau2_pred=decision.tau2_pred,
                    tau_tot_pred=decision.tau_tot_pred,
                    tau1_meas=tau1,
                    tau2_meas=tau2,
                    tau_tot_meas=tau_tot,
                )
            )
        return FrameReport(
            frame_index=frame_index,
            tau1=tau1,
            tau2=tau2,
            tau_tot=tau_tot,
            timeline=timeline,
            decision=decision,
            rstar_device=rstar_device,
            transfer_plan=plan,
            encoded=ctx.encoded,
        )

    # ------------------------------ harvest ------------------------------

    def _build_timeline(
        self,
        frame_index: int,
        chunks: list[_Chunk],
        rstar_device: str,
        t_frame0: float,
        t_rstar0: float,
        rstar_s: float,
        tau1: float,
        tau2: float,
        tau_tot: float,
    ) -> FrameTimeline:
        """Assemble the measured Gantt chart (times relative to frame start)."""
        records: list[OpRecord] = []
        lane: dict[str, int] = {}
        module_tag = {"me": "ME", "int": "INT", "sme": "SME"}
        for module, name, row0, nrows, t0, t1 in chunks:
            j = lane.get(name, 0)
            lane[name] = j + 1
            start = max(0.0, t0 - t_frame0)
            end = max(start, t1 - t_frame0)
            records.append(
                OpRecord(
                    label=f"{module_tag[module]}[{name}] rows {row0}+{nrows}",
                    resource=f"{name}.w{j}",
                    category="compute",
                    start=start,
                    end=end,
                )
            )
        rstar_start = max(0.0, t_rstar0 - t_frame0)
        records.append(
            OpRecord(
                label=f"R*[{rstar_device}]",
                resource=f"{rstar_device}.compute",
                category="compute",
                start=rstar_start,
                end=rstar_start + rstar_s,
            )
        )
        records.append(OpRecord("tau1", "host.sync", "sync", tau1, tau1))
        records.append(OpRecord("tau2", "host.sync", "sync", tau2, tau2))
        records.sort(key=lambda r: (r.start, r.resource, r.label))
        return FrameTimeline(
            frame_index=frame_index, records=records,
            tau1=tau1, tau2=tau2, tau_tot=tau_tot,
        )

    def _feed_characterization(
        self,
        perf: PerformanceCharacterization,
        decision: LoadDecision,
        chunks: list[_Chunk],
        rstar_device: str,
        rstar_s: float,
        live_set: frozenset[str],
        probe_rstar: bool,
    ) -> None:
        """Close the loop: measured rates → the characterization.

        The per-(device, module) observation is the *span* from the first
        chunk start to the last chunk end. It starts at a worker's own
        stamp, so the wait ahead of a device's first chunk is never in it;
        the gaps between its chunks are, when its group shares workers
        with another device — the effective rate the LP must plan with
        there.
        """
        span: dict[tuple[str, str], tuple[float, float]] = {}
        for module, name, _row0, _nrows, t0, t1 in chunks:
            key = (name, module)
            lo, hi = span.get(key, (t0, t1))
            span[key] = (min(lo, t0), max(hi, t1))
        rows_of = {"me": decision.m, "int": decision.l, "sme": decision.s}
        for i, dev in enumerate(self.platform.devices):
            for module, dist in sorted(rows_of.items()):
                lohi = span.get((dev.name, module))
                if lohi is None:
                    continue
                perf.observe_compute(
                    dev.name, module, dist.rows[i], lohi[1] - lohi[0]
                )
        perf.observe_rstar(rstar_device, rstar_s)
        if probe_rstar:
            # No way to measure R* on "other devices" here — every group
            # runs on the same host cores — so the one measured block
            # stands in for all of them (bootstraps the R* mapping).
            for dev in self.platform.devices:
                if dev.name in live_set and dev.name != rstar_device:
                    perf.observe_rstar(dev.name, rstar_s)
