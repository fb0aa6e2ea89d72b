"""Video Coding Manager: per-frame orchestration of kernels and transfers.

Builds the Fig.-4 op DAG for one inter frame — per accelerator engine
queues, the τ1/τ2 synchronization barriers, the R* block on its selected
device — runs it on the DES, and harvests the measurements that feed the
Performance Characterization. In ``compute="real"`` mode the ops carry
thunks executing the actual NumPy codec kernels, and the barriers stitch
the per-device bands back together, so the collaborative output can be
compared bit-exactly against the reference encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.encoder import (
    EncodedFrame,
    deblock_frame,
    encode_inter_residual_full,
)
from repro.codec.entropy import get_coder
from repro.codec.frames import YuvFrame
from repro.codec.interpolation import interpolate_rows
from repro.codec.mc import motion_compensate
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.quality import frame_psnr
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.core.config import FrameworkConfig
from repro.core.data_access import TransferPlan
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization
from repro.hw.des import Op, Resource, Simulator
from repro.hw.timeline import FrameTimeline
from repro.hw.topology import Platform
from repro.util.profiling import PhaseProfiler


@dataclass
class RealContext:
    """Shared state of one real-compute frame (filled in by op thunks)."""

    cur: YuvFrame
    refs_y: list[np.ndarray]
    rf_new_y: np.ndarray
    sfs_prev: list[np.ndarray]
    chroma: list[tuple[np.ndarray, np.ndarray]]
    cfg: CodecConfig
    qp: int
    frame_index: int
    sf_bands: dict[int, np.ndarray] = field(default_factory=dict)
    me_bands: dict[int, MotionField] = field(default_factory=dict)
    sme_bands: dict[int, SubpelField] = field(default_factory=dict)
    sf_new: np.ndarray | None = None
    me_field: MotionField | None = None
    sme_field: SubpelField | None = None
    sfs: list[np.ndarray] = field(default_factory=list)
    encoded: EncodedFrame | None = None


@dataclass
class FrameReport:
    """Everything observed while encoding one inter frame.

    ``faulted`` names the devices that died *during* this frame; their
    stall (detection timeout) plus host-side redo work is accounted in
    ``fault_time_lost_s``.
    """

    frame_index: int
    tau1: float
    tau2: float
    tau_tot: float
    timeline: FrameTimeline
    decision: LoadDecision
    rstar_device: str
    transfer_plan: TransferPlan
    encoded: EncodedFrame | None = None
    faulted: tuple[str, ...] = ()
    fault_time_lost_s: float = 0.0


class VideoCodingManager:
    """Executes one frame's collaborative schedule on the platform."""

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        fw_cfg: FrameworkConfig,
        profiler: PhaseProfiler | None = None,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.fw_cfg = fw_cfg
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.host = Resource("host.sync")
        resources = [self.host]
        for dev in platform.devices:
            resources.extend(dev.resources())
        self.sim = Simulator(resources)

    # -------------------------------------------------------------------------

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
        fault_timeout_s: float = 0.0,
        fallback_device: str | None = None,
    ) -> FrameReport:
        """Build, simulate and (optionally) really-execute one inter frame.

        Parameters
        ----------
        active_refs:
            Reference frames available to this frame's ME (ramps up to the
            configured count at the start of a GOP — paper Fig. 7(b)).
        ctx:
            Real-compute context; ``None`` runs in model mode.
        probe_rstar:
            Issue tiny 1-row R* probe ops on every non-selected device to
            bootstrap the Dijkstra mapping (initialization frame only).
        live:
            Devices participating this frame (None = all). Evicted devices
            have zero rows in ``decision`` already; they also get no probe
            or R*-slice ops.
        faulted_now:
            Devices dying *during* this frame: the decision still assigns
            them rows, but instead of their kernels a detection stall
            (category ``"fault"``, ``fault_timeout_s`` long) occupies
            their compute engine, and their bands are redone on
            ``fallback_device`` — keyed by the original device index, so
            the band merge (and the real-mode bitstream) is unchanged.
        fallback_device:
            Survivor that redoes the faulted bands; required when
            ``faulted_now`` is non-empty.
        """
        self.sim.reset()
        # The op-DAG build is timed as "des_build" up to each sim.run call
        # (manual section because the build spans two exit points).
        _build = self.profiler.phase("des_build")
        _build.__enter__()
        cfg = self.codec_cfg
        noise = self.fw_cfg.noise
        devices = self.platform.devices
        live_set = (
            frozenset(d.name for d in devices) if live is None else frozenset(live)
        )
        faulted = frozenset(faulted_now)
        live_eff = live_set - faulted
        if rstar_device not in live_eff:
            raise ValueError(
                f"R* device {rstar_device!r} is not a live survivor this frame"
            )
        fb_dev = None
        if faulted:
            if fallback_device is None or fallback_device not in live_eff:
                raise ValueError(
                    "faulted_now requires a live fallback_device, got "
                    f"{fallback_device!r}"
                )
            fb_dev = self.platform.device(fallback_device)

        phase1: list[Op] = []
        phase2: list[Op] = []
        me_ops: dict[int, Op] = {}
        int_ops: dict[int, Op] = {}
        sme_ops: dict[int, Op] = {}
        transfer_ops: list[tuple[Op, Any]] = []
        fault_ops: list[Op] = []  # stalls + redo work (never harvested)
        redo_sme: list[tuple[int, tuple[int, int], int]] = []

        def scale(dev_name: str) -> float:
            # Load noise, active compute degradation, and the session's
            # multi-stream capacity share: all three are *measured* by the
            # characterization, never reported to it.
            dev = self.platform.device(dev_name)
            fault = dev.fault_compute_scale * dev.share_scale
            return noise.scale(frame_index, dev_name) * fault

        # ------------------------- phase 1 ----------------------------------
        rf_ops: dict[str, Op] = {}
        for i, dev in enumerate(devices):
            name = dev.name
            if name not in live_set:
                continue
            m_i = decision.m.rows[i]
            l_i = decision.l.rows[i]
            m_band = decision.m.band(i)
            l_band = decision.l.band(i)

            if name in faulted:
                # The device dies mid-frame: its engine shows only the
                # watchdog stall, and its phase-1 bands are redone on the
                # fallback survivor once the fault is detected.
                assert fb_dev is not None
                stall = Op(
                    label=f"FAULT[{name}]",
                    resource=dev.compute,
                    duration=fault_timeout_s,
                    category="fault",
                )
                phase1.append(stall)
                fault_ops.append(stall)
                if l_i > 0:
                    redo_int = Op(
                        label=f"INT-redo[{name}->{fb_dev.name}]",
                        resource=fb_dev.compute,
                        duration=fb_dev.spec.rates.int_row_s(cfg)
                        * l_i
                        * scale(fb_dev.name),
                        deps=[stall],
                        thunk=self._int_thunk(ctx, i, l_band) if ctx else None,
                    )
                    phase1.append(redo_int)
                    fault_ops.append(redo_int)
                if m_i > 0:
                    redo_me = Op(
                        label=f"ME-redo[{name}->{fb_dev.name}]",
                        resource=fb_dev.compute,
                        duration=fb_dev.spec.rates.me_row_s(cfg, active_refs)
                        * m_i
                        * scale(fb_dev.name),
                        deps=[stall],
                        thunk=self._me_thunk(ctx, i, m_band) if ctx else None,
                    )
                    phase1.append(redo_me)
                    fault_ops.append(redo_me)
                if decision.s.rows[i] > 0:
                    redo_sme.append((i, decision.s.band(i), decision.s.rows[i]))
                continue

            cf_me_op: Op | None = None
            if dev.is_accelerator:
                for item in plan.for_device(name, phase=1):
                    if item.direction != "h2d":
                        continue
                    op = Op(
                        label=f"{item.label}[{name}]",
                        resource=dev.copy_h2d,
                        duration=dev.transfer_s(item.nbytes, "h2d"),
                        category="h2d",
                    )
                    transfer_ops.append((op, item))
                    phase1.append(op)
                    if item.label == "RF":
                        rf_ops[name] = op
                    if item.label == "CF->ME":
                        cf_me_op = op

            if l_i > 0:
                deps = [rf_ops[name]] if name in rf_ops else []
                int_op = Op(
                    label=f"INT[{name}]",
                    resource=dev.compute,
                    duration=dev.spec.rates.int_row_s(cfg) * l_i * scale(name),
                    deps=deps,
                    thunk=self._int_thunk(ctx, i, l_band) if ctx else None,
                )
                int_ops[i] = int_op
                phase1.append(int_op)
            if m_i > 0:
                deps = [d for d in (rf_ops.get(name), cf_me_op) if d is not None]
                me_op = Op(
                    label=f"ME[{name}]",
                    resource=dev.compute,
                    duration=dev.spec.rates.me_row_s(cfg, active_refs)
                    * m_i
                    * scale(name),
                    deps=deps,
                    thunk=self._me_thunk(ctx, i, m_band) if ctx else None,
                )
                me_ops[i] = me_op
                phase1.append(me_op)

            if dev.is_accelerator:
                for item in plan.for_device(name, phase=1):
                    if item.direction != "d2h":
                        continue
                    if item.label.startswith("SF"):
                        deps = [int_ops[i]] if i in int_ops else []
                    else:  # MV->SME
                        deps = [me_ops[i]] if i in me_ops else []
                    op = Op(
                        label=f"{item.label}[{name}]",
                        resource=dev.copy_d2h,
                        duration=dev.transfer_s(item.nbytes, "d2h"),
                        deps=deps,
                        category="d2h",
                    )
                    transfer_ops.append((op, item))
                    phase1.append(op)

        tau1_op = Op(
            label="tau1",
            resource=self.host,
            duration=0.0,
            deps=list(phase1),
            thunk=self._tau1_thunk(ctx, decision) if ctx else None,
        )

        # ------------------------- phase 2 ----------------------------------
        assert fb_dev is not None or not redo_sme
        for i, s_band, s_i in redo_sme:
            redo_op = Op(
                label=f"SME-redo[{devices[i].name}->{fb_dev.name}]",
                resource=fb_dev.compute,
                duration=fb_dev.spec.rates.sme_row_s(cfg) * s_i * scale(fb_dev.name),
                deps=[tau1_op],
                thunk=self._sme_thunk(ctx, i, s_band) if ctx else None,
            )
            phase2.append(redo_op)
            fault_ops.append(redo_op)
        for i, dev in enumerate(devices):
            name = dev.name
            if name not in live_eff:
                continue
            s_i = decision.s.rows[i]
            s_band = decision.s.band(i)
            in_ops: list[Op] = [tau1_op]
            if dev.is_accelerator:
                for item in plan.for_device(name, phase=2):
                    if item.direction != "h2d":
                        continue
                    op = Op(
                        label=f"{item.label}[{name}]",
                        resource=dev.copy_h2d,
                        duration=dev.transfer_s(item.nbytes, "h2d"),
                        deps=[tau1_op],
                        category="h2d",
                    )
                    transfer_ops.append((op, item))
                    phase2.append(op)
                    if item.label in ("SF(RF)->SME", "MV->SME"):
                        in_ops.append(op)
            if s_i > 0:
                sme_op = Op(
                    label=f"SME[{name}]",
                    resource=dev.compute,
                    duration=dev.spec.rates.sme_row_s(cfg) * s_i * scale(name),
                    deps=in_ops,
                    thunk=self._sme_thunk(ctx, i, s_band) if ctx else None,
                )
                sme_ops[i] = sme_op
                phase2.append(sme_op)
            if dev.is_accelerator:
                for item in plan.for_device(name, phase=2):
                    if item.direction != "d2h":
                        continue
                    deps = [sme_ops[i]] if i in sme_ops else [tau1_op]
                    op = Op(
                        label=f"{item.label}[{name}]",
                        resource=dev.copy_d2h,
                        duration=dev.transfer_s(item.nbytes, "d2h"),
                        deps=deps,
                        category="d2h",
                    )
                    transfer_ops.append((op, item))
                    phase2.append(op)

        tau2_op = Op(
            label="tau2",
            resource=self.host,
            duration=0.0,
            deps=list(phase2) + [tau1_op],
            thunk=self._tau2_thunk(ctx, decision) if ctx else None,
        )

        # ------------------------- phase 3 ----------------------------------
        if self._rstar_parallel_possible(ctx):
            tail_ops, rstar_like_ops = self._build_parallel_rstar(
                decision, rstar_device, tau2_op, transfer_ops, scale, live_eff
            )
            probe_ops = {}
            _build.__exit__()
            with self.profiler.phase("des"):
                records = self.sim.run(execute_thunks=ctx is not None)
            tau1 = float(tau1_op.end or 0.0)
            tau2 = float(tau2_op.end or 0.0)
            tau_tot = max(float(op.end or 0.0) for op in tail_ops + [tau2_op])
            self._harvest(
                perf, decision, me_ops, int_ops, sme_ops, transfer_ops,
                rstar_like_ops, rstar_device, probe_ops, cfg,
            )
            timeline = FrameTimeline(
                frame_index=frame_index, records=records,
                tau1=tau1, tau2=tau2, tau_tot=tau_tot,
            )
            return FrameReport(
                frame_index=frame_index, tau1=tau1, tau2=tau2,
                tau_tot=tau_tot, timeline=timeline, decision=decision,
                rstar_device=rstar_device, transfer_plan=plan,
                encoded=ctx.encoded if ctx else None,
                faulted=tuple(sorted(faulted)),
                fault_time_lost_s=sum(op.duration for op in fault_ops),
            )

        rstar_dev = self.platform.device(rstar_device)
        rstar_deps: list[Op] = [tau2_op]
        rstar_pre: list[Op] = []
        if rstar_dev.is_accelerator:
            for item in plan.for_device(rstar_device, phase=3):
                if item.direction != "h2d":
                    continue
                op = Op(
                    label=f"{item.label}[{rstar_device}]",
                    resource=rstar_dev.copy_h2d,
                    duration=rstar_dev.transfer_s(item.nbytes, "h2d"),
                    deps=[tau2_op],
                    category="h2d",
                )
                transfer_ops.append((op, item))
                rstar_pre.append(op)
        rstar_op = Op(
            label=f"R*[{rstar_device}]",
            resource=rstar_dev.compute,
            duration=rstar_dev.spec.rates.rstar_frame_s(cfg) * scale(rstar_device),
            deps=rstar_deps + rstar_pre,
            thunk=self._rstar_thunk(ctx) if ctx else None,
        )
        tail_ops: list[Op] = [rstar_op]
        if rstar_dev.is_accelerator:
            for item in plan.for_device(rstar_device, phase=3):
                if item.direction != "d2h":
                    continue
                op = Op(
                    label=f"{item.label}[{rstar_device}]",
                    resource=rstar_dev.copy_d2h,
                    duration=rstar_dev.transfer_s(item.nbytes, "d2h"),
                    deps=[rstar_op],
                    category="d2h",
                )
                transfer_ops.append((op, item))
                tail_ops.append(op)
        for i, dev in enumerate(devices):
            if not dev.is_accelerator or dev.name == rstar_device:
                continue
            for item in plan.for_device(dev.name, phase=3):
                op = Op(
                    label=f"{item.label}[{dev.name}]",
                    resource=dev.copy_h2d,
                    duration=dev.transfer_s(item.nbytes, "h2d"),
                    deps=[tau2_op],
                    category="h2d",
                )
                transfer_ops.append((op, item))
                tail_ops.append(op)

        probe_ops: dict[str, Op] = {}
        if probe_rstar:
            for dev in devices:
                if dev.name == rstar_device or dev.name not in live_eff:
                    continue
                probe_ops[dev.name] = Op(
                    label=f"R*probe[{dev.name}]",
                    resource=dev.compute,
                    duration=dev.spec.rates.rstar_row_s(cfg) * scale(dev.name),
                    deps=[tau2_op],
                )

        # ------------------------- run & harvest ----------------------------
        _build.__exit__()
        with self.profiler.phase("des"):
            records = self.sim.run(execute_thunks=ctx is not None)
        tau1 = float(tau1_op.end or 0.0)
        tau2 = float(tau2_op.end or 0.0)
        tau_tot = max(float(op.end or 0.0) for op in tail_ops + [tau2_op])

        # Feed the Performance Characterization (Algorithm 1, lines 5/10).
        for i, dev in enumerate(devices):
            if i in me_ops:
                perf.observe_compute(
                    dev.name, "me", decision.m.rows[i], me_ops[i].duration
                )
            if i in int_ops:
                perf.observe_compute(
                    dev.name, "int", decision.l.rows[i], int_ops[i].duration
                )
            if i in sme_ops:
                perf.observe_compute(
                    dev.name, "sme", decision.s.rows[i], sme_ops[i].duration
                )
        perf.observe_rstar(rstar_device, rstar_op.duration)
        for name, op in probe_ops.items():
            perf.observe_rstar(name, op.duration * cfg.mb_rows)
        for op, item in transfer_ops:
            perf.observe_transfer(item.device, item.direction, item.nbytes, op.duration)

        timeline = FrameTimeline(
            frame_index=frame_index,
            records=records,
            tau1=tau1,
            tau2=tau2,
            tau_tot=tau_tot,
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
            encoded=ctx.encoded if ctx else None,
            faulted=tuple(sorted(faulted)),
            fault_time_lost_s=sum(op.duration for op in fault_ops),
        )

    def _rstar_parallel_possible(self, ctx) -> bool:
        """Slice-parallel R* applies only in model mode with parallel DBL."""
        return (
            self.fw_cfg.rstar_parallel
            and ctx is None
            and self.codec_cfg.num_slices > 1
            and not self.codec_cfg.deblock_across_slices
            and len(self.platform.devices) > 1
        )

    def _build_parallel_rstar(
        self, decision, rstar_device, tau2_op, transfer_ops, scale, live_eff
    ):
        """Distribute the R* block per-slice across the devices.

        Each participating device processes whole slices: it receives the
        CF (full YUV), SF and MVs of its slice rows (unless it is the
        nominal R* device, which holds them from phase 2), runs
        MC+TQ+TQ⁻¹+DBL on them, and returns its piece of the new RF. The
        reassembled RF lives on the host afterwards.
        """
        from repro.codec.slices import slice_bounds
        from repro.core.perf_model import buffer_row_bytes
        from repro.hw.interconnect import BufferSizes

        cfg = self.codec_cfg
        sizes = BufferSizes(width=cfg.width, height=cfg.height)
        bounds = slice_bounds(cfg.mb_rows, cfg.num_slices)
        devices = self.platform.devices
        # Fastest-first assignment: slices round-robin over devices sorted
        # by R* speed (rate-model order is stable and known to the DES).
        order = sorted(
            (i for i in range(len(devices)) if devices[i].name in live_eff),
            key=lambda i: devices[i].spec.rates.rstar_row_s(cfg),
        )
        assignment: dict[int, list[tuple[int, int]]] = {}
        for k, sl in enumerate(bounds):
            assignment.setdefault(order[k % len(order)], []).append(sl)

        tail_ops = []
        rstar_like = []
        for i, slices in assignment.items():
            dev = devices[i]
            rows = sum(b - a for a, b in slices)
            pre = []
            if dev.is_accelerator:
                if dev.name == rstar_device:
                    # Holds the full CF/SF from phase 2; only MVs missing.
                    in_bytes = rows * buffer_row_bytes("mv", sizes)
                else:
                    in_bytes = rows * (
                        buffer_row_bytes("cf_full", sizes)
                        + buffer_row_bytes("sf", sizes)
                        + buffer_row_bytes("mv", sizes)
                    )
                op_in = Op(
                    label=f"R*in[{dev.name}]",
                    resource=dev.copy_h2d,
                    duration=dev.transfer_s(in_bytes, "h2d"),
                    deps=[tau2_op],
                    category="h2d",
                )
                pre.append(op_in)
            comp = Op(
                label=f"R*slice[{dev.name}]",
                resource=dev.compute,
                duration=dev.spec.rates.rstar_row_s(cfg) * rows * scale(dev.name),
                deps=[tau2_op] + pre,
            )
            rstar_like.append((dev.name, rows, comp))
            tail_ops.append(comp)
            if dev.is_accelerator:
                out = Op(
                    label=f"RFpiece[{dev.name}]",
                    resource=dev.copy_d2h,
                    duration=dev.transfer_s(
                        rows * buffer_row_bytes("rf", sizes), "d2h"
                    ),
                    deps=[comp],
                    category="d2h",
                )
                tail_ops.append(out)
        return tail_ops, rstar_like

    def _harvest(
        self, perf, decision, me_ops, int_ops, sme_ops, transfer_ops,
        rstar_like, rstar_device, probe_ops, cfg,
    ):
        """Feed measurements for the parallel-R* variant."""
        for i, dev in enumerate(self.platform.devices):
            if i in me_ops:
                perf.observe_compute(
                    dev.name, "me", decision.m.rows[i], me_ops[i].duration
                )
            if i in int_ops:
                perf.observe_compute(
                    dev.name, "int", decision.l.rows[i], int_ops[i].duration
                )
            if i in sme_ops:
                perf.observe_compute(
                    dev.name, "sme", decision.s.rows[i], sme_ops[i].duration
                )
        for name, rows, op in rstar_like:
            # Scale the partial block to a full-frame estimate.
            perf.observe_rstar(name, op.duration * cfg.mb_rows / max(1, rows))
        for op, item in transfer_ops:
            perf.observe_transfer(
                item.device, item.direction, item.nbytes, op.duration
            )

    # ------------------------- real-compute thunks ---------------------------

    def _int_thunk(self, ctx: RealContext | None, i: int, band: tuple[int, int]):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            ctx.sf_bands[i] = interpolate_rows(ctx.rf_new_y, band[0], band[1] - band[0])

        return thunk

    def _me_thunk(self, ctx: RealContext | None, i: int, band: tuple[int, int]):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            ctx.me_bands[i] = motion_estimate_rows(
                ctx.cur.y, ctx.refs_y, band[0], band[1] - band[0], ctx.cfg
            )

        return thunk

    def _tau1_thunk(self, ctx: RealContext | None, decision: LoadDecision):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            ctx.sf_new = np.concatenate(
                [ctx.sf_bands[i] for i in sorted(ctx.sf_bands)], axis=0
            )
            ctx.sfs = [ctx.sf_new] + ctx.sfs_prev
            ctx.me_field = MotionField.merge(
                [ctx.me_bands[i] for i in sorted(ctx.me_bands)]
            )

        return thunk

    def _sme_thunk(self, ctx: RealContext | None, i: int, band: tuple[int, int]):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            assert ctx.me_field is not None
            ctx.sme_bands[i] = subpel_refine_rows(
                ctx.cur.y, ctx.sfs, ctx.me_field, band[0], band[1] - band[0], ctx.cfg
            )

        return thunk

    def _tau2_thunk(self, ctx: RealContext | None, decision: LoadDecision):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            ctx.sme_field = SubpelField.merge(
                [ctx.sme_bands[i] for i in sorted(ctx.sme_bands)]
            )

        return thunk

    def _rstar_thunk(self, ctx: RealContext | None):
        assert ctx is not None

        def thunk(_op: Op) -> None:
            execute_rstar(ctx)

        return thunk


def execute_rstar(ctx: RealContext) -> None:
    """The R* block (MC → T/Q/T⁻¹/Q⁻¹ → entropy → DBL) on one context.

    Shared by both execution backends: the sim backend calls it from the
    R* op thunk, the process backend calls it directly on the host after
    the τ2 barrier. Fills ``ctx.encoded``.
    """
    assert ctx.sme_field is not None
    mc = motion_compensate(
        ctx.cur, ctx.sme_field, ctx.sfs, ctx.chroma, ctx.cfg, ctx.qp
    )
    res = encode_inter_residual_full(
        ctx.cur, mc.pred, ctx.qp, coder=get_coder(ctx.cfg.entropy_coder)
    )
    recon, res_bits, cnz4 = res.recon, res.bits, res.cnz4
    h, w = ctx.cur.y.shape
    intra4 = np.zeros((h // 4, w // 4), dtype=bool)
    from repro.codec.slices import dbl_skip_luma_rows

    recon = deblock_frame(
        recon, mc.mv4, mc.ref4, cnz4, intra4, ctx.qp,
        skip_luma_rows=dbl_skip_luma_rows(ctx.cfg),
    )
    hist: dict[tuple[int, int], int] = {}
    for mode_i, shape in enumerate(ctx.sme_field.mode_shapes):
        hist[shape] = int((mc.mode_idx == mode_i).sum())
    ctx.encoded = EncodedFrame(
        index=ctx.frame_index,
        is_intra=False,
        bits=res_bits + mc.header_bits,
        psnr=frame_psnr(ctx.cur, recon),
        recon=recon,
        mode_histogram=hist,
    )
