"""Video Coding Manager: per-frame orchestration of kernels and transfers.

Builds the Fig.-4 op DAG for one inter frame — per accelerator engine
queues, the τ1/τ2 synchronization barriers, the R* block on its selected
device — runs it on the DES, and harvests the measurements that feed the
Performance Characterization. Given a :class:`RealContext` (the
framework's ``encode()`` path) the ops carry thunks executing the actual
NumPy codec kernels, and the barriers stitch the per-device bands back
together, so the collaborative output can be compared bit-exactly against
the reference encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.config import CodecConfig
from repro.codec.encoder import EncodedFrame, encode_rstar
from repro.codec.frames import YuvFrame
from repro.codec.interpolation import interpolate_rows
from repro.codec.me import MotionField, motion_estimate_rows
from repro.codec.slices import slice_bounds
from repro.codec.sme import SubpelField, subpel_refine_rows
from repro.core.config import FrameworkConfig
from repro.core.data_access import TransferItem, TransferPlan
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization, buffer_row_bytes
from repro.hw.des import Op, Resource, Simulator
from repro.hw.device import Device
from repro.hw.interconnect import BufferSizes
from repro.hw.timeline import FrameTimeline
from repro.hw.topology import Platform
from repro.util.journal import span

#: Simulated watchdog time charged on the frame a dropout/hang is
#: detected: the faulted device's engine stalls this long before its
#: bands are redone on a survivor.
FAULT_DETECTION_TIMEOUT_S = 0.040


@dataclass
class RealContext:
    """Shared state of one real-compute frame (filled in by op thunks)."""

    cur: YuvFrame
    refs_y: list[np.ndarray]
    rf_new_y: np.ndarray
    sfs_prev: list[np.ndarray]
    chroma: list[tuple[np.ndarray, np.ndarray]]
    cfg: CodecConfig
    frame_index: int
    sf_bands: dict[int, np.ndarray] = field(default_factory=dict)
    me_bands: dict[int, MotionField] = field(default_factory=dict)
    sme_bands: dict[int, SubpelField] = field(default_factory=dict)
    sf_new: np.ndarray | None = None
    me_field: MotionField | None = None
    sme_field: SubpelField | None = None
    sfs: list[np.ndarray] = field(default_factory=list)
    encoded: EncodedFrame | None = None

    # The steps the op thunks run, in DAG order (bands keyed by device index).

    def interpolate_band(self, i: int, band: tuple[int, int]) -> None:
        self.sf_bands[i] = interpolate_rows(
            self.rf_new_y, band[0], band[1] - band[0]
        )

    def estimate_band(self, i: int, band: tuple[int, int]) -> None:
        self.me_bands[i] = motion_estimate_rows(
            self.cur.y, self.refs_y, band[0], band[1] - band[0], self.cfg
        )

    def stitch_tau1(self) -> None:
        self.sf_new = np.concatenate(
            [self.sf_bands[i] for i in sorted(self.sf_bands)], axis=0
        )
        self.sfs = [self.sf_new] + self.sfs_prev
        self.me_field = MotionField.merge(
            [self.me_bands[i] for i in sorted(self.me_bands)]
        )

    def refine_band(self, i: int, band: tuple[int, int]) -> None:
        assert self.me_field is not None
        self.sme_bands[i] = subpel_refine_rows(
            self.cur.y, self.sfs, self.me_field, band[0], band[1] - band[0],
            self.cfg,
        )

    def stitch_tau2(self) -> None:
        self.sme_field = SubpelField.merge(
            [self.sme_bands[i] for i in sorted(self.sme_bands)]
        )

    def run_rstar(self) -> None:
        """The R* block on the merged SME field (after τ2); fills ``encoded``."""
        assert self.sme_field is not None
        self.encoded = encode_rstar(
            self.cur, self.sme_field, self.sfs, self.chroma, self.cfg,
            self.frame_index,
        )


@dataclass
class FrameReport:
    """Everything observed while encoding one inter frame.

    ``faulted`` names the devices that died *during* this frame; their
    stall (detection timeout) plus host-side redo work is accounted in
    ``fault_time_lost_s``. ``rf_on_host`` is set when slice-parallel R*
    ran: the new RF was reassembled on the host, so no accelerator holds
    it (Data Access Management must not assume the R* device does).
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
    rf_on_host: bool = False


class VideoCodingManager:
    """Executes one frame's collaborative schedule on the platform."""

    def __init__(
        self,
        platform: Platform,
        codec_cfg: CodecConfig,
        fw_cfg: FrameworkConfig,
    ) -> None:
        self.platform = platform
        self.codec_cfg = codec_cfg
        self.fw_cfg = fw_cfg
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
        fallback_device: str | None = None,
    ) -> FrameReport:
        """Build, simulate and (given a ``ctx``) really execute one inter frame.

        Parameters
        ----------
        active_refs:
            Reference frames available to this frame's ME (ramps up to the
            configured count at the start of a GOP — paper Fig. 7(b)).
        ctx:
            Real-compute context: the ops carry thunks that run the codec
            kernels on it. ``None`` only advances the simulated clock.
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
            (category ``"fault"``, :data:`FAULT_DETECTION_TIMEOUT_S` long)
            occupies their compute engine, and their bands are redone on
            ``fallback_device`` — keyed by the original device index, so
            the band merge (and the real-mode bitstream) is unchanged.
        fallback_device:
            Survivor that redoes the faulted bands; required when
            ``faulted_now`` is non-empty.
        """
        self.sim.reset()
        cfg = self.codec_cfg
        noise = self.fw_cfg.noise
        devices = self.platform.devices
        transfer_ops: list[tuple[Op, TransferItem]] = []
        fault_ops: list[Op] = []  # stalls + redo work (never harvested)

        def scale(dev: Device) -> float:
            # Load noise, active compute degradation, and the session's
            # multi-stream capacity share: all three are *measured* by the
            # characterization, never reported to it.
            fault = dev.fault_compute_scale * dev.share_scale
            return noise.scale(frame_index, dev.name) * fault

        def xfer(dev: Device, item: TransferItem, deps: list[Op]) -> Op:
            # The one TransferItem → Op builder (copy queue by direction).
            op = Op(
                label=f"{item.label}[{dev.name}]",
                resource=dev.copy_h2d if item.direction == "h2d" else dev.copy_d2h,
                duration=dev.transfer_s(item.nbytes, item.direction),
                deps=deps,
                category=item.direction,
            )
            transfer_ops.append((op, item))
            return op

        with span(self, "des_build"):
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

            # ------------------------- phase 1 ------------------------------
            phase1: list[Op] = []
            me_ops: dict[int, Op] = {}
            int_ops: dict[int, Op] = {}
            redo_sme: list[int] = []
            for i, dev in enumerate(devices):
                name = dev.name
                if name not in live_set:
                    continue
                m_i = decision.m.rows[i]
                l_i = decision.l.rows[i]
                int_thunk = _thunk(
                    ctx, RealContext.interpolate_band, i, decision.l.band(i)
                )
                me_thunk = _thunk(
                    ctx, RealContext.estimate_band, i, decision.m.band(i)
                )

                if name in faulted:
                    # The device dies mid-frame: its engine shows only the
                    # watchdog stall, and its phase-1 bands are redone on the
                    # fallback survivor once the fault is detected.
                    stall = Op(
                        label=f"FAULT[{name}]",
                        resource=dev.compute,
                        duration=FAULT_DETECTION_TIMEOUT_S,
                        category="fault",
                    )
                    redone = [stall]
                    fb_rates = fb_dev.spec.rates
                    if l_i > 0:
                        redone.append(_redo_op(
                            "INT", dev, fb_dev,
                            fb_rates.int_row_s(cfg) * l_i * scale(fb_dev),
                            stall, int_thunk,
                        ))
                    if m_i > 0:
                        redone.append(_redo_op(
                            "ME", dev, fb_dev,
                            fb_rates.me_row_s(cfg, active_refs) * m_i * scale(fb_dev),
                            stall, me_thunk,
                        ))
                    phase1 += redone
                    fault_ops += redone
                    if decision.s.rows[i] > 0:
                        redo_sme.append(i)
                    continue

                items = plan.for_device(name, phase=1) if dev.is_accelerator else ()
                rf_op: Op | None = None
                cf_me_op: Op | None = None
                for item in items:
                    if item.direction != "h2d":
                        continue
                    op = xfer(dev, item, [])
                    phase1.append(op)
                    if item.label == "RF":
                        rf_op = op
                    if item.label == "CF->ME":
                        cf_me_op = op
                if l_i > 0:
                    int_ops[i] = Op(
                        label=f"INT[{name}]",
                        resource=dev.compute,
                        duration=dev.spec.rates.int_row_s(cfg) * l_i * scale(dev),
                        deps=[rf_op] if rf_op is not None else [],
                        thunk=int_thunk,
                    )
                    phase1.append(int_ops[i])
                if m_i > 0:
                    me_ops[i] = Op(
                        label=f"ME[{name}]",
                        resource=dev.compute,
                        duration=dev.spec.rates.me_row_s(cfg, active_refs)
                        * m_i
                        * scale(dev),
                        deps=[d for d in (rf_op, cf_me_op) if d is not None],
                        thunk=me_thunk,
                    )
                    phase1.append(me_ops[i])
                for item in items:
                    if item.direction != "d2h":
                        continue
                    # SF(RF)->host waits for INT, MV->SME for ME.
                    src = int_ops if item.label.startswith("SF") else me_ops
                    phase1.append(xfer(dev, item, [src[i]] if i in src else []))

            tau1_op = Op(
                label="tau1",
                resource=self.host,
                duration=0.0,
                deps=list(phase1),
                thunk=_thunk(ctx, RealContext.stitch_tau1),
            )

            # ------------------------- phase 2 ------------------------------
            phase2: list[Op] = []
            sme_ops: dict[int, Op] = {}
            for i in redo_sme:
                op = _redo_op(
                    "SME", devices[i], fb_dev,
                    fb_dev.spec.rates.sme_row_s(cfg)
                    * decision.s.rows[i]
                    * scale(fb_dev),
                    tau1_op,
                    _thunk(ctx, RealContext.refine_band, i, decision.s.band(i)),
                )
                phase2.append(op)
                fault_ops.append(op)
            for i, dev in enumerate(devices):
                name = dev.name
                if name not in live_eff:
                    continue
                s_i = decision.s.rows[i]
                items = plan.for_device(name, phase=2) if dev.is_accelerator else ()
                in_ops: list[Op] = [tau1_op]
                for item in items:
                    if item.direction != "h2d":
                        continue
                    op = xfer(dev, item, [tau1_op])
                    phase2.append(op)
                    if item.label in ("SF(RF)->SME", "MV->SME"):
                        in_ops.append(op)
                if s_i > 0:
                    sme_ops[i] = Op(
                        label=f"SME[{name}]",
                        resource=dev.compute,
                        duration=dev.spec.rates.sme_row_s(cfg) * s_i * scale(dev),
                        deps=in_ops,
                        thunk=_thunk(
                            ctx, RealContext.refine_band, i, decision.s.band(i)
                        ),
                    )
                    phase2.append(sme_ops[i])
                for item in items:
                    if item.direction == "d2h":
                        phase2.append(xfer(dev, item, [sme_ops.get(i, tau1_op)]))

            tau2_op = Op(
                label="tau2",
                resource=self.host,
                duration=0.0,
                deps=phase2 + [tau1_op],
                thunk=_thunk(ctx, RealContext.stitch_tau2),
            )

            # ------------------------- phase 3 ------------------------------
            rf_on_host = self._rstar_parallel_possible(ctx)
            if rf_on_host:
                tail_ops, rstar_obs = self._build_parallel_rstar(
                    rstar_device, tau2_op, scale, live_eff
                )
            else:
                tail_ops, rstar_obs = self._build_rstar(
                    rstar_device, plan, tau2_op, xfer, scale, ctx,
                    live_eff if probe_rstar else frozenset(),
                )

        # ------------------------- run & harvest ----------------------------
        with span(self, "des"):
            records = self.sim.run()
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
        for name, frame_s in rstar_obs:
            perf.observe_rstar(name, frame_s)
        for op, item in transfer_ops:
            perf.observe_transfer(item.device, item.direction, item.nbytes, op.duration)

        return FrameReport(
            frame_index=frame_index,
            tau1=tau1,
            tau2=tau2,
            tau_tot=tau_tot,
            timeline=FrameTimeline(
                frame_index=frame_index,
                records=records,
                tau1=tau1,
                tau2=tau2,
                tau_tot=tau_tot,
            ),
            decision=decision,
            rstar_device=rstar_device,
            transfer_plan=plan,
            encoded=ctx.encoded if ctx else None,
            faulted=tuple(sorted(faulted)),
            fault_time_lost_s=sum(op.duration for op in fault_ops),
            rf_on_host=rf_on_host,
        )

    def _rstar_parallel_possible(self, ctx: RealContext | None) -> bool:
        """Slice-parallel R* applies only in model mode with parallel DBL."""
        return (
            self.fw_cfg.rstar_parallel
            and ctx is None
            and self.codec_cfg.num_slices > 1
            and not self.codec_cfg.deblock_across_slices
            and len(self.platform.devices) > 1
        )

    def _build_rstar(
        self, rstar_device, plan, tau2_op, xfer, scale, ctx, probe_on
    ) -> tuple[list[Op], list[tuple[str, float]]]:
        """The paper's R* block on its one device, plus the phase-3 traffic.

        Returns ``(tail_ops, rstar_observations)``: the ops whose ends
        bound τtot, and ``(device, full-frame R* seconds)`` measurements —
        the block itself and, on the devices in ``probe_on``, 1-row probes
        scaled to a frame (they run after τ2 but do not bound τtot).
        """
        cfg = self.codec_cfg
        rstar_dev = self.platform.device(rstar_device)
        items = (
            plan.for_device(rstar_device, phase=3) if rstar_dev.is_accelerator else ()
        )
        rstar_deps = [tau2_op]
        for item in items:
            if item.direction == "h2d":
                rstar_deps.append(xfer(rstar_dev, item, [tau2_op]))
        rstar_op = Op(
            label=f"R*[{rstar_device}]",
            resource=rstar_dev.compute,
            duration=rstar_dev.spec.rates.rstar_frame_s(cfg) * scale(rstar_dev),
            deps=rstar_deps,
            thunk=_thunk(ctx, RealContext.run_rstar),
        )
        tail_ops = [rstar_op]
        for item in items:
            if item.direction == "d2h":
                tail_ops.append(xfer(rstar_dev, item, [rstar_op]))
        for dev in self.platform.devices:
            if dev.is_accelerator and dev.name != rstar_device:
                for item in plan.for_device(dev.name, phase=3):
                    tail_ops.append(xfer(dev, item, [tau2_op]))
        rstar_obs = [(rstar_device, rstar_op.duration)]
        for dev in self.platform.devices:
            if dev.name != rstar_device and dev.name in probe_on:
                probe = Op(
                    label=f"R*probe[{dev.name}]",
                    resource=dev.compute,
                    duration=dev.spec.rates.rstar_row_s(cfg) * scale(dev),
                    deps=[tau2_op],
                )
                rstar_obs.append((dev.name, probe.duration * cfg.mb_rows))
        return tail_ops, rstar_obs

    def _build_parallel_rstar(
        self, rstar_device, tau2_op, scale, live_eff
    ) -> tuple[list[Op], list[tuple[str, float]]]:
        """Distribute the R* block per-slice across the devices.

        Each participating device processes whole slices: it receives the
        CF (full YUV), SF and MVs of its slice rows (unless it is the
        nominal R* device, which holds them from phase 2), runs
        MC+TQ+TQ⁻¹+DBL on them, and returns its piece of the new RF. The
        reassembled RF lives on the host afterwards. Same return contract
        as :meth:`_build_rstar`, each partial block scaled to a frame.
        """
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
        rstar_obs = []
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
                duration=dev.spec.rates.rstar_row_s(cfg) * rows * scale(dev),
                deps=[tau2_op] + pre,
            )
            rstar_obs.append((dev.name, comp.duration * cfg.mb_rows / max(1, rows)))
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
        return tail_ops, rstar_obs


def _redo_op(
    tag: str, dev: Device, fb_dev: Device, seconds: float, dep: Op, thunk
) -> Op:
    """``dev``'s faulted band, redone on the fallback survivor ``fb_dev``."""
    return Op(
        label=f"{tag}-redo[{dev.name}->{fb_dev.name}]",
        resource=fb_dev.compute,
        duration=seconds,
        deps=[dep],
        thunk=thunk,
    )


def _thunk(ctx: RealContext | None, step, *args):
    """``step(ctx, *args)`` as an op thunk; without a context there is
    none, and the op only takes time."""
    if ctx is None:
        return None
    return lambda _op: step(ctx, *args)
