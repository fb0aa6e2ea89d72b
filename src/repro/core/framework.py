"""Framework Control: paper Algorithm 1.

Ties everything together:

1. **Initialization phase** (first inter frame): detect devices, configure
   the Video Coding Manager and Data Access Management, distribute the ME /
   INT / SME loads *equidistantly*, execute, record times, and build the
   initial Performance Characterization (including R* probes for the
   Dijkstra mapping).
2. **Iterative phase** (every subsequent inter frame): ask the Load
   Balancing LP for new distributions based on the measured
   characterization, execute collaboratively, and fold the new
   measurements back in — adapting to load changes within one frame.

Two run modes share this control loop, and the method called selects
between them: :meth:`FevesFramework.run_model` /
:meth:`~FevesFramework.encode_next_inter` advance only simulated time
(1080p benchmark sweeps, sim backend), :meth:`~FevesFramework.encode` /
:meth:`~FevesFramework.encode_frame_at` also execute the NumPy codec and
return bit-exact encoded frames (either backend).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.config import CodecConfig
from repro.codec.encoder import EncodedFrame, encode_intra
from repro.codec.frames import YuvFrame
from repro.codec.gop import ReferenceStore
from repro.core.analysis import steady_state_fps, utilization_summary
from repro.core.coding_manager import FrameReport, RealContext, VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager, TransferPlan
from repro.core.distribution import Distribution
from repro.core.frame_plan import FramePlan
from repro.core.load_balancing import LoadDecision
from repro.hw.des import Schedule
from repro.hw.timeline import FaultLogEntry, FrameTimeline
from repro.core.load_balancing import LoadBalancer
from repro.core.perf_model import PerformanceCharacterization
from repro.core.rstar import select_rstar_device
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform
from repro.util.journal import span
from repro.util.timing import WallTimer


@dataclass
class FrameOutcome:
    """Per-frame result surfaced to callers."""

    report: FrameReport
    encoded: EncodedFrame | None = None

    @property
    def time_s(self) -> float:
        return self.report.tau_tot

    @property
    def fps(self) -> float:
        return 1.0 / self.report.tau_tot if self.report.tau_tot > 0 else 0.0


class FevesFramework:
    """The FEVES unified collaborative video-encoding framework."""

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        fw_cfg: FrameworkConfig | None = None,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.fw_cfg = fw_cfg or FrameworkConfig()
        sizes = BufferSizes(width=codec_cfg.width, height=codec_cfg.height)

        # Algorithm 1, lines 1-2: "detect" devices and instantiate blocks.
        self.perf = PerformanceCharacterization(alpha=self.fw_cfg.ewma_alpha)
        self.balancer = LoadBalancer(platform, codec_cfg, self.fw_cfg)
        if self.fw_cfg.backend == "process":
            # Lazy import: repro.exec depends on the coding manager (for
            # the run_frame contract), never the other way round.
            from repro.exec.backend import ProcessBackend

            self.manager: VideoCodingManager | ProcessBackend = ProcessBackend(
                platform, codec_cfg, self.fw_cfg
            )
        else:
            self.manager = VideoCodingManager(platform, codec_cfg, self.fw_cfg)
        self.dam = DataAccessManager(
            platform, sizes, enable_parking=self.fw_cfg.enable_parking
        )

        # Fault model: validate the schedule against real device names and
        # start with every device live.
        for name in self.fw_cfg.faults.devices():
            platform.device(name)  # raises on unknown device
        self._live: dict[str, bool] = {d.name: True for d in platform.devices}
        self.fault_log: list[FaultLogEntry] = []

        self._inter_frames_done = 0
        self._frames_since_intra = 0
        self._rstar_device = self._initial_rstar_device()
        self.lb_timer = WallTimer()
        self.reports: list[FrameReport] = []
        #: (decision, other plan inputs, transfer plan, frame plan) of the
        #: last plans built, reused while a frame repeats their inputs.
        self._last_plan: tuple[LoadDecision, tuple, TransferPlan, FramePlan] | None = None

        # Real-compute state.
        self._store = ReferenceStore(max_refs=codec_cfg.num_ref_frames)

    # -------------------------------------------------------------------------

    def _initial_rstar_device(self) -> str:
        """Default R* placement before any characterization exists."""
        gpus = self.platform.gpus
        cpu = self.platform.cpu
        if self.fw_cfg.centric == "cpu" and cpu is not None:
            return cpu.name
        if gpus:
            return gpus[0].name
        assert cpu is not None
        return cpu.name

    @property
    def rstar_device(self) -> str:
        return self._rstar_device

    def _maybe_reselect_rstar(self) -> None:
        """After init (or a live-set change), map R* via Dijkstra (auto).

        Only live devices compete: an evicted device keeps its last R*
        estimate as a prior, but it cannot host the block.
        """
        if self.fw_cfg.centric != "auto":
            return
        estimates = {
            d.name: t
            for d in self.platform.devices
            if self._live.get(d.name, True)
            and (t := self.perf.rstar_frame_s(d.name)) is not None
        }
        if len(estimates) < 2:
            return
        decision = select_rstar_device(self.platform, estimates, self.codec_cfg)
        self._rstar_device = decision.device

    def _rstar_fallback(self, survivors: frozenset[str]) -> str:
        """R* placement when the selected device died.

        Survival overrides a forced centric policy: the Dijkstra mapping
        re-runs over characterized survivors; with fewer than two
        estimates the fastest (or only) measured survivor wins, and with
        no measurements at all the CPU — else the first surviving device —
        takes the block.
        """
        # Iterate platform device order, not the survivor set (REP102):
        # frozenset order varies with PYTHONHASHSEED, and the insertion
        # order of `estimates` must stay canonical so no downstream
        # consumer (min() tie-breaks, serialization) can ever observe a
        # hash-seed-dependent order.
        estimates = {
            d.name: t
            for d in self.platform.devices
            if d.name in survivors
            and (t := self.perf.rstar_frame_s(d.name)) is not None
        }
        if len(estimates) >= 2:
            return select_rstar_device(
                self.platform, estimates, self.codec_cfg
            ).device
        if estimates:
            return min(estimates, key=lambda k: estimates[k])
        cpu = self.platform.cpu
        if cpu is not None and cpu.name in survivors:
            return cpu.name
        return next(d.name for d in self.platform.devices if d.name in survivors)

    def _fault_fallback(self, survivors: frozenset[str]) -> str:
        """Survivor that redoes a dying device's bands (CPU preferred —
        the data is already in host memory)."""
        cpu = self.platform.cpu
        if cpu is not None and cpu.name in survivors:
            return cpu.name
        return next(d.name for d in self.platform.devices if d.name in survivors)

    # ------------------------- model mode ------------------------------------

    def run_model(self, n_inter_frames: int) -> list[FrameOutcome]:
        """Encode ``n_inter_frames`` in model mode (timing only).

        Frame indices are 1-based to match the paper's Fig. 7 (frame 1 is
        the equidistant initialization frame).
        """
        if n_inter_frames < 1:
            raise ValueError("need at least one inter frame")
        return [self.encode_next_inter() for _ in range(n_inter_frames)]

    def encode_next_inter(self) -> FrameOutcome:
        """Encode one more inter frame in model mode (stepping API).

        Exactly one iteration of :meth:`run_model`'s loop. The
        multi-stream service layer uses this to interleave frames of many
        sessions on a shared platform: it adjusts each device's capacity
        share between calls and advances one frame at a time.
        """
        return self._encode_inter(None)

    # ------------------------- real mode --------------------------------------

    def encode(self, frames: list[YuvFrame]) -> list[FrameOutcome]:
        """Encode a sequence in real mode.

        Frame 0 — and, when ``gop_size`` is set, every ``gop_size``-th
        frame — is coded intra on the host (the paper's evaluation, like
        ours, times only the inter loop), resetting the reference window
        and the accelerators' buffer state; all other frames run the
        collaborative inter loop.
        """
        return [self.encode_frame_at(cur, f) for f, cur in enumerate(frames)]

    def encode_frame_at(self, cur: YuvFrame, index: int) -> FrameOutcome:
        """Encode one frame of a real-mode sequence (stepping API).

        Exactly one iteration of :meth:`encode`'s loop, keyed by the
        source frame index: 0 (and every ``gop_size``-th index) is coded
        intra, everything else runs the collaborative inter loop. The
        service layer uses this to interleave *really-executed* frames
        of many streams (process backend), the way
        :meth:`encode_next_inter` interleaves simulated ones.

        An I frame is coded on the host, untimed, and starts a new GOP:
        the reference window is discarded and, since the reconstructed RF
        lives in host memory, every accelerator must refetch it and the
        deferred-SF backlog is void (Data Access Management reset).
        """
        gop = self.fw_cfg.gop_size
        if index == 0 or (gop > 0 and index % gop == 0):
            encoded = encode_intra(cur, self.codec_cfg, index)
            self._store.reset(encoded.recon)
            self.dam.reset_after_intra()
            self._frames_since_intra = 0
            return FrameOutcome(report=_intra_report(), encoded=encoded)
        if not self._store.frames:
            raise RuntimeError(
                f"encode_frame_at(index={index}) needs a reference, but this "
                "framework has coded no I frame yet: encode index 0 first"
            )
        return self._encode_inter(cur)

    # ------------------------- backend lifecycle ------------------------------

    def close(self) -> None:
        """Release backend resources (worker pool, shared memory).

        No-op for the sim backend; idempotent. Use the framework as a
        context manager to make this automatic.
        """
        closer = getattr(self.manager, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "FevesFramework":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def accuracy_report(self):
        """The LP's predicted τ1/τ2/τtot against each LP frame's, either backend."""
        from repro.exec.accuracy import AccuracyReport

        return AccuracyReport(tuple(self.reports))

    # ------------------------- shared control loop ----------------------------

    def _encode_inter(self, cur: YuvFrame | None) -> FrameOutcome:
        self._inter_frames_done += 1
        idx = self._inter_frames_done
        is_init = idx == 1
        n_devices = len(self.platform.devices)
        faults = self.fw_cfg.faults
        reasons: list[tuple[str, str]] = []

        # --- fault lifecycle (before planning) ---------------------------
        # Re-admit devices whose outage window ended: their demoted priors
        # (or a warm-up grant, if characterization was cleared) bring them
        # back into the LP this very frame.
        readmitted: list[str] = []
        for name, alive in self._live.items():
            if not alive and faults.down(idx, name) is None:
                self._live[name] = True
                # A re-admission changes the live set the cached decision
                # and fixed-point seed were computed for; a fresh balancer
                # would hold neither, so drop both before the next solve
                # (stale-state bugfix).
                self.balancer.note_live_set_change()
                readmitted.append(name)
                reasons.append((name, "outage ended; re-admitted"))
        live = frozenset(n for n, a in self._live.items() if a)
        # Devices dying *during* this frame: planning still counts them
        # (the fault is only discovered at execution), but their transfers
        # are skipped and their bands redone on a survivor.
        newly_down = frozenset(
            n for n in live if faults.down(idx, n) is not None
        )
        survivors = live - newly_down
        if not survivors:
            raise RuntimeError(
                f"all devices faulted at inter frame {idx}; cannot continue"
            )
        if readmitted:
            self._maybe_reselect_rstar()
        if self._rstar_device not in survivors:
            old = self._rstar_device
            self._rstar_device = self._rstar_fallback(survivors)
            reasons.append((old, f"R* host down; moved to {self._rstar_device}"))

        # Active references ramp up at the start of each GOP (Fig. 7(b)).
        self._frames_since_intra += 1
        active_refs = min(self._frames_since_intra, self.codec_cfg.num_ref_frames)

        # What the transfer and frame plans are built from besides the
        # decision: while these and the decision object repeat, the last
        # plans are reused (DESIGN.md → "Plan and graph reuse").
        dam = self.dam
        inputs = (
            self._rstar_device, live, newly_down, active_refs, dam.rf_holder,
            tuple(dam.sigma_r_rows.items()), frozenset(dam.parked),
            self.manager.workers,
        )

        # Algorithm 1 line 3 / line 8 (the <2 ms scheduling overhead the
        # paper reports is exactly the work timed here). The balancer
        # falls back to an equidistant split over the live set until every
        # live device is characterized.
        with self.lb_timer:
            if is_init:
                decision = self.balancer.equidistant(live=live)
            else:
                decision = self.balancer.solve(
                    perf=self.perf,
                    rstar_device=self._rstar_device,
                    needs_rf=dam.needs_rf(),
                    sigma_r_prev=dict(dam.sigma_r_rows),
                    live=live,
                )
            reuse = self._last_plan
            if reuse is not None and (reuse[0] is not decision or reuse[1] != inputs):
                reuse = None
            if reuse is None:
                with span(self, "plan"):
                    transfers = dam.plan(decision, self._rstar_device, live=survivors)

        # Degradation faults enter as genuine slowdowns, never as events:
        # the characterization measures them like any other load change.
        for dev in self.platform.devices:
            dev.set_fault_scales(
                compute=faults.compute_factor(idx, dev.name),
                copy=faults.copy_factor(idx, dev.name),
            )

        ctx = self._build_ctx(cur, idx) if cur is not None else None
        if reuse is not None:
            transfers, plan = reuse[2], reuse[3]._replace(frame_index=idx)
        else:
            with span(self, "frame_plan"):
                plan = FramePlan.build(
                    self.platform, idx, decision, self._rstar_device, active_refs,
                    live=live, faulted=newly_down,
                    fallback=self._fault_fallback(survivors) if newly_down else None,
                    workers=self.manager.workers,
                )
            self._last_plan = (decision, inputs, transfers, plan)
        report = self.manager.run_frame(
            plan, transfers, self.perf, ctx, probe_rstar=is_init and n_devices > 1
        )
        self.dam.commit(decision, self._rstar_device, live=survivors)
        if report.rf_on_host:
            # Slice-parallel R* ran: the new RF was reassembled on the
            # host, so no single accelerator holds it.
            self.dam.rf_holder = None

        # --- fault lifecycle (after execution) ---------------------------
        for name in sorted(newly_down):
            ev = faults.down(idx, name)
            assert ev is not None
            self._live[name] = False
            # Mirror the perf/DAM eviction in the balancer: its decision
            # cache and seed describe the pre-fault live set.
            self.balancer.note_live_set_change()
            # A hang keeps the pre-fault estimates as priors (one-frame
            # re-warm on re-admission); clear_characterization forgets the
            # device so it must re-probe through warm-up rows.
            self.perf.invalidate(name, keep_prior=not ev.clear_characterization)
            self.dam.evict(name)
            why = f"{ev.kind} at frame {ev.frame}"
            if ev.duration:
                why += f" for {ev.duration} frames"
            reasons.append((name, why))
        if is_init:
            self._maybe_reselect_rstar()

        self.fault_log.append(
            FaultLogEntry(
                frame_index=idx,
                live=tuple(sorted(live)),
                evicted=tuple(sorted(newly_down)),
                readmitted=tuple(readmitted),
                reasons=tuple(reasons),
                time_lost_s=report.fault_time_lost_s,
                used_lp=decision.used_lp,
                rstar_device=self._rstar_device,
            )
        )

        if ctx is not None and ctx.encoded is not None:
            assert ctx.sf_new is not None
            self._store.push_sf(ctx.sf_new)
            self._store.push(ctx.encoded.recon)

        self.reports.append(report)
        return FrameOutcome(report=report, encoded=ctx.encoded if ctx else None)

    def _build_ctx(self, cur: YuvFrame, idx: int) -> RealContext:
        store = self._store
        refs = store.active_refs()
        # SFs of all active refs except the newest (interpolated this frame).
        sfs_prev = store.sfs[: max(0, store.num_active - 1)]
        return RealContext(
            cur=cur,
            refs_y=[r.y for r in refs],
            rf_new_y=store.frames[0].y,
            sfs_prev=list(sfs_prev),
            chroma=store.active_chroma(),
            cfg=self.codec_cfg,
            frame_index=idx,
        )

    # ------------------------- reporting --------------------------------------

    @property
    def scheduling_overhead_ms(self) -> float:
        """Mean wall-clock milliseconds of LB + transfer planning per frame."""
        return self.lb_timer.mean_s * 1e3

    def frame_times_ms(self) -> list[float]:
        """τtot per inter frame, in ms (paper Fig. 7 y-axis)."""
        return [r.tau_tot * 1e3 for r in self.reports]

    def steady_state_fps(self, warmup: int = 2) -> float:
        """fps once the load balancing has converged (paper Fig. 6)."""
        return steady_state_fps(self.reports, warmup)

    @property
    def live_devices(self) -> list[str]:
        """The devices live now, by name."""
        return sorted(n for n, a in self._live.items() if a)

    def summary(self) -> dict:
        """Headline numbers of the run so far (for logs and notebooks).

        Keys: ``platform``, ``frames``, ``steady_fps``, ``realtime``
        (≥25 fps), ``rstar_device``, ``lb_overhead_ms``, per-module final
        distributions, and steady-state compute utilization per device.
        """
        if not self.reports:
            raise RuntimeError("nothing encoded yet")
        last = self.reports[-1].decision
        names = [d.name for d in self.platform.devices]
        util = utilization_summary(self.reports)
        fps = self.steady_state_fps()
        return {
            "platform": self.platform.name,
            "frames": len(self.reports),
            "steady_fps": fps,
            "realtime": fps >= 25.0,
            "rstar_device": self._rstar_device,
            "live_devices": self.live_devices,
            "fault_events": sum(1 for e in self.fault_log if e.eventful),
            "fault_time_lost_s": sum(e.time_lost_s for e in self.fault_log),
            "lb_overhead_ms": self.scheduling_overhead_ms,
            "distribution": {
                "devices": names,
                "me": last.m.rows,
                "int": last.l.rows,
                "sme": last.s.rows,
            },
            "compute_utilization": {
                name: util.compute_utilization(name) for name in names
            },
        }


def _intra_report() -> FrameReport:
    """Placeholder report for the (untimed) intra frame."""
    dist = Distribution(rows=(0,), total=0)
    decision = LoadDecision(m=dist, l=dist, s=dist, delta_m=[], delta_l=[])
    return FrameReport(
        frame_index=0,
        tau1=0.0,
        tau2=0.0,
        tau_tot=0.0,
        timeline=FrameTimeline(frame_index=0, records=Schedule.of(())),
        decision=decision,
        rstar_device="",
    )
