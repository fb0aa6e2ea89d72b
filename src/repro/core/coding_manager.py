"""Video Coding Manager: per-frame orchestration of kernels and transfers.

Turns one inter frame's :class:`~repro.core.frame_plan.FramePlan` into
the Fig.-4 op DAG — per accelerator engine queues, the τ1/τ2
synchronization barriers, the R* block on its selected device — runs it
on the DES, and harvests the measurements that feed the Performance
Characterization. The DAG is built only when the plan's structure
changes; every frame re-times it (bands and bytes, noise, fault and share
stretch, link speed) before the DES runs. The ops only take simulated
time; under ``encode()`` the same plan is then executed serially on the host
(:meth:`RealContext.execute`), so the collaborative output can be
compared bit-exactly against the reference encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_not

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
from repro.core.frame_plan import FramePlan
from repro.core.load_balancing import LoadDecision
from repro.core.perf_model import PerformanceCharacterization, buffer_row_bytes
from repro.hw.des import Op, Resource, Simulator
from repro.hw.device import Device
from repro.hw.interconnect import BufferSizes
from repro.hw.noise import NoiseModel
from repro.hw.timeline import FrameTimeline
from repro.hw.topology import Platform
from repro.util.journal import span

#: Simulated watchdog time charged on the frame a dropout/hang is
#: detected: the faulted device's engine stalls this long before its
#: bands are redone on a survivor.
FAULT_DETECTION_TIMEOUT_S = 0.040


@dataclass
class RealContext:
    """Shared state of one real-compute frame (filled in by the executors)."""

    cur: YuvFrame
    refs_y: list[np.ndarray]
    rf_new_y: np.ndarray
    sfs_prev: list[np.ndarray]
    chroma: list[tuple[np.ndarray, np.ndarray]]
    cfg: CodecConfig
    frame_index: int
    sf_new: np.ndarray | None = None
    me_field: MotionField | None = None
    sme_field: SubpelField | None = None
    sfs: list[np.ndarray] = field(default_factory=list)
    encoded: EncodedFrame | None = None

    def execute(self, plan: FramePlan) -> None:
        """The in-process executor: ``plan``'s rows serially, phase by phase.

        Each module's rows are in band order, so the τ1/τ2 stitches are a
        concatenation and a merge of the bands as they come.
        """
        cur, cfg = self.cur.y, self.cfg
        sf_bands: list[np.ndarray] = []
        me_bands: list[MotionField] = []
        for row in plan.phase1:
            row0, nrows = row.band[0], row.band[1] - row.band[0]
            if row.module == "int":
                sf_bands.append(interpolate_rows(self.rf_new_y, row0, nrows))
            else:
                me_bands.append(
                    motion_estimate_rows(cur, self.refs_y, row0, nrows, cfg)
                )
        self.sf_new = np.concatenate(sf_bands, axis=0)
        self.sfs = [self.sf_new] + self.sfs_prev
        me_field = self.me_field = MotionField.merge(me_bands)
        self.sme_field = SubpelField.merge([
            subpel_refine_rows(
                cur, self.sfs, me_field, row.band[0], row.band[1] - row.band[0], cfg
            )
            for row in plan.phase2
        ])
        self.run_rstar()

    def run_rstar(self) -> None:
        """The R* block on the merged SME field (after τ2); fills ``encoded``."""
        assert self.sme_field is not None
        self.encoded = encode_rstar(
            self.cur, self.sme_field, self.sfs, self.chroma, self.cfg,
            self.frame_index,
        )


@dataclass(slots=True)
class FrameReport:
    """Everything observed while encoding one inter frame.

    ``faulted`` names the devices that died *during* this frame; the time
    their redo rows took (on the DES plus the detection stall, on the pool
    the measured wall time while any redo row ran) is ``fault_time_lost_s``.
    ``rf_on_host`` is set when slice-parallel R* ran: the new RF was
    reassembled on the host, so no accelerator holds it (Data Access
    Management must not assume the R* device does).
    ``h2d_bytes`` and ``d2h_bytes`` total the frame's transfer plan per
    direction; the plan itself is not kept, since a run keeps every report.
    """

    frame_index: int
    tau1: float
    tau2: float
    tau_tot: float
    timeline: FrameTimeline
    decision: LoadDecision
    rstar_device: str
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    encoded: EncodedFrame | None = None
    faulted: tuple[str, ...] = ()
    fault_time_lost_s: float = 0.0
    rf_on_host: bool = False


@dataclass(eq=False)
class _OpGraph:
    """One frame's op DAG, issued on the simulator's engines.

    The build fixes the structure: which ops, on which engine, after
    which. The sizes are a plan's (:meth:`size`: its bands and bytes) and
    the durations the retime's (:meth:`retime`), so a graph serves every
    frame whose structure repeats, sized when its plan moves and re-timed
    every frame.
    """

    #: (op, device, seconds before noise and stretch) per compute op, in
    #: issue order: the order the frame's noise is drawn in.
    kernels: list[tuple[Op, str, float]]
    #: (op, device, bytes, direction) per transfer op.
    copies: list[tuple[Op, Device, int, str]]
    #: Where a plan's sizes go: (kernel, row, seconds per MB row) per
    #: compute op of a plan row (``row`` indexes ``phase1 + phase2``),
    #: (copy, item) per planned transfer and (device, module, owner, op)
    #: per non-redo compute op.
    row_kernels: list[tuple[int, int, float]]
    planned: list[tuple[int, int]]
    owners: list[tuple[str, str, int, Op]]
    #: (device, op, mul, div) per R* measurement, ``op.duration * mul /
    #: div`` full-frame seconds: with the two lists :meth:`size` fills,
    #: what the Performance Characterization harvests.
    observed_rstar: list[tuple[str, Op, int, int]]
    #: Stalls and redo work: the frame's ``fault_time_lost_s``.
    fault_ops: list[Op]
    tau1: Op
    tau2: Op
    #: The ops whose ends bound τtot, τ2 last.
    tail: list[Op]
    #: The first op issued on a device engine (engines a platform shares).
    first: Op
    #: (device, module, rows, op) per non-redo compute op and (item, op)
    #: per planned transfer, of the plan last sized.
    observed_compute: list[tuple[str, str, int, Op]] = field(default_factory=list)
    observed_copies: list[tuple[TransferItem, Op]] = field(default_factory=list)

    def installed(self) -> bool:
        """Do the engines still queue this graph? Another simulator on the
        same platform resets them when it builds."""
        queue = self.first.resource.ops
        return bool(queue) and queue[0] is self.first

    def size(self, plan: FramePlan, transfers: TransferPlan) -> None:
        """Take ``plan``'s bands and ``transfers``' bytes (the structure
        must be this graph's): the seconds and bytes the retime times, and
        the rows and items the harvest reports."""
        rows = plan.phase1 + plan.phase2
        kernels = self.kernels
        for k, r, row_s in self.row_kernels:
            op, name, _ = kernels[k]
            band = rows[r].band
            kernels[k] = (op, name, row_s * (band[1] - band[0]))
        items, copies = transfers.items, self.copies
        self.observed_copies = []
        for c, i in self.planned:
            op, dev, _, direction = copies[c]
            copies[c] = (op, dev, items[i].nbytes, direction)
            self.observed_copies.append((items[i], op))
        d = plan.decision
        rows_of = {"me": d.m.rows, "int": d.l.rows, "sme": d.s.rows}
        self.observed_compute = [
            (name, module, rows_of[module][i], op) for name, module, i, op in self.owners
        ]

    def retime(self, frame_index: int, noise: NoiseModel, devices: list[Device]) -> None:
        """Fill every duration for ``frame_index``: one noise draw per
        compute op in issue order, scaled by its device's fault and share
        stretch; each transfer at its link's current speed."""
        # Load noise, active compute degradation, and the session's
        # multi-stream capacity share: all three are *measured* by the
        # characterization, never reported to it.
        stretch = {dev.spec.name: dev.fault_compute_scale * dev.share_scale for dev in devices}
        for op, name, base_s in self.kernels:
            op.duration = base_s * (noise.scale(frame_index, name) * stretch[name])
        for op, dev, nbytes, direction in self.copies:
            op.duration = dev.transfer_s(nbytes, direction)


class VideoCodingManager:
    """Simulates one frame's collaborative schedule on the platform (the DES)."""

    #: Executor slots per device: the DES runs each band as one op.
    workers = 1

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
        #: The last frame's op graph and what it was built from, kept
        #: while the plan's structure repeats (see :meth:`run_frame`).
        self._graph: _OpGraph | None = None
        self._graph_key: tuple | None = None
        #: The rows and transfer items of the last plan, and their structure.
        self._sizes: tuple = (None, None, None)
        self._structure: tuple = ()

    # -------------------------------------------------------------------------

    def run_frame(
        self,
        plan: FramePlan,
        transfers: TransferPlan,
        perf: PerformanceCharacterization,
        ctx: RealContext | None = None,
        probe_rstar: bool = False,
    ) -> FrameReport:
        """Simulate one inter frame's ``plan``, then (given a ``ctx``) execute it.

        ``plan`` must have one slot per device (:attr:`workers`). Each of
        its rows becomes one compute op, with ``transfers`` on the copy
        engines around it. A faulted device's engine shows only a
        detection stall (category ``"fault"``,
        :data:`FAULT_DETECTION_TIMEOUT_S` long); its redo rows queue on
        the fallback's engine behind that stall. ``ctx`` is the
        real-compute context, run by :meth:`RealContext.execute` once the
        schedule is known; ``probe_rstar`` issues 1-row R* probe ops on
        the survivors that do not host R* to bootstrap the Dijkstra
        mapping (initialization frame only).

        The op graph is built only when its structure changes: the last
        frame's graph is kept and, while the rows (by module, owner,
        device, slot and redo), the transfers (by device, direction, label
        and phase), the R* placement and mode, the probes, the live and
        faulted sets and the active references (the ME rate) repeat, only
        re-timed from this frame's bands and bytes.
        """
        rf_on_host = self._rstar_parallel_possible(ctx)
        # A frame that repeats the last plan hands on its very rows and
        # items: their structure is derived, and the graph sized, once.
        sizes = (plan.phase1, plan.phase2, transfers.items)
        resized = any(map(is_not, sizes, self._sizes))
        if resized:
            self._sizes = sizes
            self._structure = (
                [(r.module, r.owner, r.device, r.slot, r.redo) for r in plan.phase1 + plan.phase2],
                [(t.device, t.direction, t.label, t.phase) for t in transfers.items],
            )
        key = (
            probe_rstar, rf_on_host, plan.rstar_device, plan.active_refs,
            plan.live, plan.faulted, self._structure,
        )
        graph = self._graph
        if graph is None or self._graph_key != key or not graph.installed():
            with span(self, "des_build"):
                graph = self._graph = self._build(plan, transfers, probe_rstar, rf_on_host)
            self._graph_key = key
            resized = True
        with span(self, "des_retime"):
            if resized:
                graph.size(plan, transfers)
            graph.retime(plan.frame_index, self.fw_cfg.noise, self.platform.devices)
        with span(self, "des"):
            records = self.sim.run()
        tau1 = float(graph.tau1.end or 0.0)
        tau2 = float(graph.tau2.end or 0.0)
        tau_tot = max(float(op.end or 0.0) for op in graph.tail)

        # Feed the Performance Characterization (Algorithm 1, lines 5/10).
        with span(self, "observe"):
            for name, module, rows, op in graph.observed_compute:
                perf.observe_compute(name, module, rows, op.duration)
            for name, op, mul, div in graph.observed_rstar:
                perf.observe_rstar(name, op.duration * mul / div)
            for item, op in graph.observed_copies:
                perf.observe_transfer(
                    item.device, item.direction, item.nbytes, op.duration
                )

        if ctx is not None:
            ctx.execute(plan)
        return FrameReport(
            frame_index=plan.frame_index,
            tau1=tau1,
            tau2=tau2,
            tau_tot=tau_tot,
            timeline=FrameTimeline(plan.frame_index, records, tau1, tau2, tau_tot),
            decision=plan.decision,
            rstar_device=plan.rstar_device,
            h2d_bytes=transfers.h2d_bytes,
            d2h_bytes=transfers.d2h_bytes,
            encoded=ctx.encoded if ctx else None,
            faulted=tuple(sorted(plan.faulted)),
            fault_time_lost_s=sum(op.duration for op in graph.fault_ops),
            rf_on_host=rf_on_host,
        )

    def _build(
        self, plan: FramePlan, transfers: TransferPlan, probe_rstar: bool, rf_on_host: bool
    ) -> _OpGraph:
        """Issue ``plan``'s op graph on fresh engine queues, durations unset."""
        self.sim.reset()
        cfg = self.codec_cfg
        devices = self.platform.devices
        names = [dev.name for dev in devices]
        rows = plan.phase1 + plan.phase2
        kernels: list[tuple[Op, str, float]] = []
        row_kernels: list[tuple[int, int, float]] = []
        copies: list[tuple[Op, Device, int, str]] = []
        planned: list[tuple[int, int]] = []
        fault_ops: list[Op] = []  # stalls + redo work (never harvested)
        # Non-redo compute op per module and device index (the harvest).
        ops: dict[str, dict[int, Op]] = {"int": {}, "me": {}, "sme": {}}

        def kernel(label: str, dev: Device, base_s: float, deps: list[Op]) -> Op:
            # The one compute-op builder: ``base_s`` is its time before the
            # frame's noise and stretch.
            op = Op(label=label, resource=dev.compute, duration=0.0, deps=deps)
            kernels.append((op, dev.name, base_s))
            return op

        def copy(dev: Device, nbytes: int, direction: str, label: str, deps: list[Op]) -> Op:
            # The one transfer-op builder (copy queue by direction).
            op = Op(
                label=label,
                resource=dev.copy_h2d if direction == "h2d" else dev.copy_d2h,
                duration=0.0,
                deps=deps,
                category=direction,
            )
            copies.append((op, dev, nbytes, direction))
            return op

        def xfer(dev: Device, entry: tuple[int, TransferItem], deps: list[Op]) -> Op:
            # A planned transfer (its index in the plan, and the item), sized
            # by the plan: the characterization measures its link.
            k, item = entry
            planned.append((len(copies), k))
            return copy(dev, 0, item.direction, f"{item.label}[{item.device}]", deps)

        def compute(k: int, deps: list[Op]) -> Op:
            # The one plan-row → Op builder (``rows[k]``), on the executing
            # device's engine.
            row = rows[k]
            dev = devices[row.device]
            rates = dev.spec.rates
            row_s = (
                rates.int_row_s(cfg) if row.module == "int"
                else rates.me_row_s(cfg, plan.active_refs) if row.module == "me"
                else rates.sme_row_s(cfg)
            )
            row_kernels.append((len(kernels), k, row_s))
            op = kernel(row.label(names), dev, 0.0, deps)
            if row.redo:
                fault_ops.append(op)
            else:
                ops[row.module][row.owner] = op
            return op

        survivors = plan.survivors
        n_phase1 = len(plan.phase1)
        by_owner: dict[int, list[int]] = {}
        for k in range(n_phase1):
            by_owner.setdefault(rows[k].owner, []).append(k)
        # The transfers of each (device, phase), in plan order, with their
        # index in the plan.
        moves: dict[tuple[str, int], list[tuple[int, TransferItem]]] = {}
        for k, item in enumerate(transfers.items):
            moves.setdefault((item.device, item.phase), []).append((k, item))

        # ------------------------- phase 1 ----------------------------------
        phase1: list[Op] = []
        for i, dev in enumerate(devices):
            name = names[i]
            if name not in plan.live:
                continue
            if name in plan.faulted:
                # The device dies mid-frame: its engine shows only the
                # watchdog stall, and its bands are redone on the
                # fallback survivor once the fault is detected.
                stall = Op(
                    label=f"FAULT[{name}]",
                    resource=dev.compute,
                    duration=FAULT_DETECTION_TIMEOUT_S,
                    category="fault",
                )
                fault_ops.append(stall)
                phase1.append(stall)
                phase1 += [compute(k, [stall]) for k in by_owner.get(i, ())]
                continue

            items = moves.get((name, 1), ()) if dev.is_accelerator else ()
            rf_op: Op | None = None
            cf_me_op: Op | None = None
            for entry in items:
                item = entry[1]
                if item.direction != "h2d":
                    continue
                op = xfer(dev, entry, [])
                phase1.append(op)
                if item.label == "RF":
                    rf_op = op
                if item.label == "CF->ME":
                    cf_me_op = op
            int_in = [] if rf_op is None else [rf_op]
            me_in = int_in if cf_me_op is None else [*int_in, cf_me_op]
            for k in by_owner.get(i, ()):
                phase1.append(compute(k, list(int_in if rows[k].module == "int" else me_in)))
            for entry in items:
                item = entry[1]
                if item.direction != "d2h":
                    continue
                # SF(RF)->host waits for INT, MV->SME for ME.
                src = ops["int" if item.label.startswith("SF") else "me"]
                phase1.append(xfer(dev, entry, [src[i]] if i in src else []))

        tau1_op = Op(label="tau1", resource=self.host, duration=0.0, deps=list(phase1))

        # ------------------------- phase 2 ----------------------------------
        # Redo rows queue on the fallback ahead of its own SME.
        phase2_rows = range(n_phase1, len(rows))
        phase2 = [compute(k, [tau1_op]) for k in phase2_rows if rows[k].redo]
        sme_rows = {rows[k].owner: k for k in phase2_rows if not rows[k].redo}
        for i, dev in enumerate(devices):
            name = names[i]
            if name not in survivors:
                continue
            items = moves.get((name, 2), ()) if dev.is_accelerator else ()
            in_ops: list[Op] = [tau1_op]
            for entry in items:
                item = entry[1]
                if item.direction != "h2d":
                    continue
                op = xfer(dev, entry, [tau1_op])
                phase2.append(op)
                if item.label in ("SF(RF)->SME", "MV->SME"):
                    in_ops.append(op)
            if i in sme_rows:
                phase2.append(compute(sme_rows[i], in_ops))
            for entry in items:
                if entry[1].direction == "d2h":
                    phase2.append(xfer(dev, entry, [ops["sme"].get(i, tau1_op)]))

        tau2_op = Op(label="tau2", resource=self.host, duration=0.0, deps=phase2 + [tau1_op])

        # ------------------------- phase 3 ----------------------------------
        if rf_on_host:
            tail, observed_rstar = self._build_parallel_rstar(
                plan.rstar_device, tau2_op, kernel, copy, survivors
            )
        else:
            tail, observed_rstar = self._build_rstar(
                plan.rstar_device, moves, tau2_op, kernel, xfer,
                survivors if probe_rstar else frozenset(),
            )

        return _OpGraph(
            kernels=kernels,
            copies=copies,
            row_kernels=row_kernels,
            planned=planned,
            owners=[
                (name, module, i, ops[module][i])
                for i, name in enumerate(names)
                for module in ("me", "int", "sme")
                if i in ops[module]
            ],
            observed_rstar=observed_rstar,
            fault_ops=fault_ops,
            tau1=tau1_op,
            tau2=tau2_op,
            tail=tail + [tau2_op],
            first=next(op for r in self.sim.resources if r is not self.host for op in r.ops[:1]),
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
        self, rstar_device, moves, tau2_op, kernel, xfer, probe_on
    ) -> tuple[list[Op], list[tuple[str, Op, int, int]]]:
        """The paper's R* block on its one device, plus the phase-3 traffic
        (``moves``: the frame's transfers by ``(device, phase)``).

        Returns ``(tail_ops, rstar_observations)``: the ops whose ends
        bound τtot, and ``(device, op, mul, div)`` R* measurements (see
        :class:`_OpGraph`) — the block itself and, on the devices in
        ``probe_on``, 1-row probes scaled to a frame (they run after τ2
        but do not bound τtot).
        """
        cfg = self.codec_cfg
        rstar_dev = self.platform.device(rstar_device)
        items = moves.get((rstar_device, 3), ()) if rstar_dev.is_accelerator else ()
        rstar_deps = [tau2_op]
        for entry in items:
            if entry[1].direction == "h2d":
                rstar_deps.append(xfer(rstar_dev, entry, [tau2_op]))
        rstar_op = kernel(
            f"R*[{rstar_device}]", rstar_dev,
            rstar_dev.spec.rates.rstar_frame_s(cfg), rstar_deps,
        )
        tail_ops = [rstar_op]
        for entry in items:
            if entry[1].direction == "d2h":
                tail_ops.append(xfer(rstar_dev, entry, [rstar_op]))
        for dev in self.platform.devices:
            if dev.is_accelerator and dev.name != rstar_device:
                for entry in moves.get((dev.name, 3), ()):
                    tail_ops.append(xfer(dev, entry, [tau2_op]))
        rstar_obs = [(rstar_device, rstar_op, 1, 1)]
        for dev in self.platform.devices:
            if dev.name != rstar_device and dev.name in probe_on:
                probe = kernel(
                    f"R*probe[{dev.name}]", dev,
                    dev.spec.rates.rstar_row_s(cfg), [tau2_op],
                )
                rstar_obs.append((dev.name, probe, cfg.mb_rows, 1))
        return tail_ops, rstar_obs

    def _build_parallel_rstar(
        self, rstar_device, tau2_op, kernel, copy, survivors
    ) -> tuple[list[Op], list[tuple[str, Op, int, int]]]:
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
            (i for i in range(len(devices)) if devices[i].name in survivors),
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
                pre.append(copy(dev, in_bytes, "h2d", f"R*in[{dev.name}]", [tau2_op]))
            comp = kernel(
                f"R*slice[{dev.name}]", dev,
                dev.spec.rates.rstar_row_s(cfg) * rows, [tau2_op] + pre,
            )
            rstar_obs.append((dev.name, comp, cfg.mb_rows, max(1, rows)))
            tail_ops.append(comp)
            if dev.is_accelerator:
                tail_ops.append(copy(
                    dev, rows * buffer_row_bytes("rf", sizes), "d2h",
                    f"RFpiece[{dev.name}]", [comp],
                ))
        return tail_ops, rstar_obs
