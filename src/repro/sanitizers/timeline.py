"""Dynamic schedule sanitizer: race/invariant checking for DES timelines.

A TSAN-style checker for the simulator: it re-derives, from first
principles, the invariants every FEVES schedule must satisfy and walks the
produced :class:`~repro.hw.des.OpRecord` timelines looking for violations.
Four classes of checks (rule prefixes match :data:`~repro.sanitizers.
violations.SCHED_RULES`):

**A — engine races.** Ops bound to one serially-executing engine must not
overlap (SAN-A1), and a device must never have more concurrent copy
operations in flight than its link has copy engines (SAN-A2) — the
1-vs-2-copy-engine distinction the paper's Fig. 4 schedule is built
around.

**B — dependency races.** The three synchronization points must be
ordered 0 ≤ τ1 ≤ τ2 ≤ τtot (SAN-B1), and every op must run inside its
phase window (SAN-B2): ME/INT (and their fault redos) plus phase-1
transfers finish by τ1, SME and its feeding transfers run inside
[τ1, τ2], the R* block and phase-3 transfers start at τ2, and nothing
ends after τtot (R* probes are bootstrap measurements excluded from the
frame makespan by design, so they are exempt from the τtot bound only).

**C — conservation.** The distribution vectors m/l/s must each cover the
frame's MB rows exactly (SAN-C1); the Δm/Δl extra-transfer terms must
match a recomputation of MS_BOUNDS/LS_BOUNDS from the final distributions
(SAN-C2); every planned transfer's byte count must equal rows ×
bytes-per-row of its buffer (SAN-C3); and the deferred-SF split must
conserve rows: σ + σʳ = N − l_i − Δl_i per device, the planned transfers
must move exactly the Δ/σ rows the decision predicts, and the σʳ rows a
frame defers must be the rows the next frame's plan catches up (SAN-C4).

**D — service invariants.** Capacity shares granted in one scheduling
round sum to at most the whole platform (SAN-D1), and no session ever
executes work on a device that is down or was evicted — a down device may
only carry its fault-detection stall (SAN-D2).

**E — cluster invariants.** At fleet scale every stream must be owned by
at most one node at a time — segment placement intervals must not
overlap, and only the last segment may still be open (SAN-E1); every
segment must land on a known node inside that node's live window
(SAN-E2); and reroutes must conserve frames: segment offsets chain
contiguously, the global frame indices of one stream cover exactly
1..frames_done with no loss or duplication, no stream encodes more
frames than submitted, and the fleet-wide node-side and stream-side
frame totals agree (SAN-E3). Per-node services are additionally run
through the full A–D :meth:`~TimelineSanitizer.check_service` pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bounds import ls_bounds, ms_bounds
from repro.core.perf_model import buffer_row_bytes
from repro.hw.interconnect import BufferSizes
from repro.sanitizers.protocols.monitor import check_events
from repro.sanitizers.violations import SanitizerReport, Violation
from repro.util.journal import JOURNAL

if TYPE_CHECKING:
    from repro.cluster.dispatcher import Cluster
    from repro.codec.config import CodecConfig
    from repro.core.coding_manager import FrameReport
    from repro.core.framework import FevesFramework
    from repro.hw.des import OpRecord
    from repro.hw.timeline import FrameTimeline
    from repro.hw.topology import Platform
    from repro.service.service import EncodingService

#: (base label, category) → phase for window checks. Labels carry their
#: device in a ``[...]`` suffix which :func:`_base_label` strips; the
#: category disambiguates labels reused across phases (``MV->SME`` is a
#: phase-1 d2h *and* a phase-2 h2d).
_PHASE_OF: dict[tuple[str, str], int] = {
    ("RF", "h2d"): 1,
    ("CF->ME", "h2d"): 1,
    ("CF->SME", "h2d"): 1,
    ("SF(RF-1)->SME", "h2d"): 1,
    ("SF(RF)->host", "d2h"): 1,
    ("MV->SME", "d2h"): 1,
    ("ME", "compute"): 1,
    ("INT", "compute"): 1,
    ("ME-redo", "compute"): 1,
    ("INT-redo", "compute"): 1,
    ("SF(RF)->SME", "h2d"): 2,
    ("MV->SME", "h2d"): 2,
    ("CF->MC", "h2d"): 2,
    ("SF->MC", "h2d"): 2,
    ("MV(SME)->host", "d2h"): 2,
    ("SME", "compute"): 2,
    ("SME-redo", "compute"): 2,
    ("MV->MC", "h2d"): 3,
    ("RF+1->host", "d2h"): 3,
    ("SF->SME+1", "h2d"): 3,
    ("R*", "compute"): 3,
    ("R*probe", "compute"): 3,
    ("R*in", "h2d"): 3,
    ("R*slice", "compute"): 3,
    ("RFpiece", "d2h"): 3,
}


def _base_label(label: str) -> str:
    """Strip the ``[device]`` / ``[a->b]`` suffix off an op label."""
    cut = label.find("[")
    return label if cut < 0 else label[:cut]


def _device_of_resource(resource: str) -> str:
    """Device name of a DES resource (``gpu1.compute`` → ``gpu1``)."""
    return resource.rsplit(".", 1)[0]


class TimelineSanitizer:
    """Checks DES timelines, frame reports, runs, and services.

    Parameters
    ----------
    platform:
        The platform the timelines were produced on (engine topology and
        copy-engine counts).
    mb_rows:
        MB rows per frame the distributions must cover.
    sizes:
        Buffer geometry for the bytes-per-row conservation check.
    halo:
        SF halo rows used by LS_BOUNDS (must match the balancer's).
    eps:
        Absolute tolerance for simulated-time comparisons — simulated
        times are sums of float durations, so exact comparison would
        misfire (the very mistake lint rule REP002 exists to catch).
    """

    def __init__(
        self,
        platform: Platform,
        mb_rows: int,
        sizes: BufferSizes | None = None,
        halo: int = 0,
        eps: float = 1e-9,
    ) -> None:
        self.platform = platform
        self.mb_rows = mb_rows
        self.sizes = sizes
        self.halo = halo
        self.eps = eps

    @classmethod
    def for_framework(cls, fw: FevesFramework) -> TimelineSanitizer:
        """Build a sanitizer matching a framework's exact configuration."""
        return cls.for_config(fw.platform, fw.codec_cfg)

    @classmethod
    def for_config(
        cls,
        platform: Platform,
        codec_cfg: CodecConfig,
    ) -> TimelineSanitizer:
        return cls(
            platform=platform,
            mb_rows=codec_cfg.mb_rows,
            sizes=BufferSizes(width=codec_cfg.width, height=codec_cfg.height),
            halo=codec_cfg.sf_halo_rows,
        )

    # ----------------------- class A: engine races ------------------------

    def _check_engine_races(
        self, records: list[OpRecord], frame: int, out: SanitizerReport
    ) -> None:
        by_res: dict[str, list[OpRecord]] = {}
        for rec in records:
            if rec.duration > 0:
                by_res.setdefault(rec.resource, []).append(rec)
        for name, recs in by_res.items():
            recs = sorted(recs, key=lambda r: (r.start, r.end))
            for a, b in zip(recs, recs[1:], strict=False):
                if b.start < a.end - self.eps:
                    out.add(
                        "SAN-A1",
                        f"{a.label} [{a.start:.6f},{a.end:.6f}] overlaps "
                        f"{b.label} [{b.start:.6f},{b.end:.6f}]",
                        frame=frame,
                        where=name,
                    )

    def _check_copy_engines(
        self, records: list[OpRecord], frame: int, out: SanitizerReport
    ) -> None:
        for dev in self.platform.devices:
            if dev.is_accelerator:
                assert dev.spec.link is not None
                engines = dev.spec.link.copy_engines
            else:
                engines = 0
            prefix = f"{dev.name}."
            copies = [
                r
                for r in records
                if r.category in ("h2d", "d2h")
                and r.duration > 0
                and r.resource.startswith(prefix)
            ]
            if not copies:
                continue
            if engines == 0:
                out.add(
                    "SAN-A2",
                    f"{len(copies)} copy op(s) on device without copy engines",
                    frame=frame,
                    where=dev.name,
                )
                continue
            # Sweep line over copy intervals: max in-flight ≤ engines.
            events = sorted(
                [(r.start + self.eps, 1, r.label) for r in copies]
                + [(r.end, -1, r.label) for r in copies]
            )
            inflight = 0
            for t, delta, label in events:
                inflight += delta
                if inflight > engines:
                    out.add(
                        "SAN-A2",
                        f"{inflight} concurrent copies at t={t:.6f} "
                        f"(last issued: {label}) but link has "
                        f"{engines} copy engine(s)",
                        frame=frame,
                        where=dev.name,
                    )
                    break

    # -------------------- class B: dependency races -----------------------

    def _check_tau_windows(
        self, timeline: FrameTimeline, out: SanitizerReport
    ) -> None:
        eps = self.eps
        frame = timeline.frame_index
        t1, t2, tt = timeline.tau1, timeline.tau2, timeline.tau_tot
        if not (-eps <= t1 <= t2 + eps and t2 <= tt + eps):
            out.add(
                "SAN-B1",
                f"τ1={t1:.6f} τ2={t2:.6f} τtot={tt:.6f} violate 0 ≤ τ1 ≤ τ2 ≤ τtot",
                frame=frame,
            )
        for rec in timeline.records:
            base = _base_label(rec.label)
            if rec.start < -eps:
                out.add(
                    "SAN-B2",
                    f"{rec.label} starts at {rec.start:.6f} < 0",
                    frame=frame,
                    where=rec.resource,
                )
            if base != "R*probe" and rec.end > tt + eps:
                out.add(
                    "SAN-B2",
                    f"{rec.label} ends at {rec.end:.6f} after τtot={tt:.6f}",
                    frame=frame,
                    where=rec.resource,
                )
            phase = _PHASE_OF.get((base, rec.category))
            if phase is None:
                continue
            if phase == 1 and rec.end > t1 + eps:
                out.add(
                    "SAN-B2",
                    f"phase-1 op {rec.label} ends at {rec.end:.6f} "
                    f"after τ1={t1:.6f}",
                    frame=frame,
                    where=rec.resource,
                )
            elif phase == 2:
                if rec.start < t1 - eps:
                    out.add(
                        "SAN-B2",
                        f"phase-2 op {rec.label} starts at {rec.start:.6f} "
                        f"before τ1={t1:.6f}",
                        frame=frame,
                        where=rec.resource,
                    )
                if rec.end > t2 + eps:
                    out.add(
                        "SAN-B2",
                        f"phase-2 op {rec.label} ends at {rec.end:.6f} "
                        f"after τ2={t2:.6f}",
                        frame=frame,
                        where=rec.resource,
                    )
            elif phase == 3 and rec.start < t2 - eps:
                out.add(
                    "SAN-B2",
                    f"phase-3 op {rec.label} starts at {rec.start:.6f} "
                    f"before τ2={t2:.6f}",
                    frame=frame,
                    where=rec.resource,
                )

    # ----------------------- class C: conservation ------------------------

    def _check_distributions(
        self, report: FrameReport, out: SanitizerReport
    ) -> None:
        decision = report.decision
        frame = report.frame_index
        for name, dist in (("m", decision.m), ("l", decision.l), ("s", decision.s)):
            if any(r < 0 for r in dist.rows):
                out.add(
                    "SAN-C1",
                    f"{name} has negative row counts: {dist.rows}",
                    frame=frame,
                )
            if sum(dist.rows) != dist.total or dist.total != self.mb_rows:
                out.add(
                    "SAN-C1",
                    f"{name}={dist.rows} sums to {sum(dist.rows)} "
                    f"(total={dist.total}) but the frame has "
                    f"{self.mb_rows} MB rows",
                    frame=frame,
                )

    def _check_deltas(self, report: FrameReport, out: SanitizerReport) -> None:
        decision = report.decision
        frame = report.frame_index
        for i, dev in enumerate(self.platform.devices):
            if not dev.is_accelerator:
                continue
            if i >= len(decision.delta_m) or i >= len(decision.delta_l):
                out.add(
                    "SAN-C2",
                    f"decision carries no Δ entry for device index {i}",
                    frame=frame,
                    where=dev.name,
                )
                continue
            want_dm = ms_bounds(decision.m, decision.s, i).rows
            want_dl = ls_bounds(decision.l, decision.s, i, self.halo).rows
            got_dm = decision.delta_m[i].rows
            got_dl = decision.delta_l[i].rows
            if got_dm != want_dm:
                out.add(
                    "SAN-C2",
                    f"Δm={got_dm} but MS_BOUNDS(m,s) gives {want_dm}",
                    frame=frame,
                    where=dev.name,
                )
            if got_dl != want_dl:
                out.add(
                    "SAN-C2",
                    f"Δl={got_dl} but LS_BOUNDS(l,s,halo={self.halo}) "
                    f"gives {want_dl}",
                    frame=frame,
                    where=dev.name,
                )

    def _check_transfer_bytes(
        self, report: FrameReport, out: SanitizerReport
    ) -> None:
        if self.sizes is None:
            return
        for item in report.transfer_plan.items:
            want = item.rows * buffer_row_bytes(item.buffer, self.sizes)
            if item.nbytes != want:
                out.add(
                    "SAN-C3",
                    f"{item.label} moves {item.nbytes} B for {item.rows} "
                    f"{item.buffer} row(s); rows × row-bytes = {want} B",
                    frame=report.frame_index,
                    where=item.device,
                )

    def _plan_rows(
        self, report: FrameReport, device: str, label: str, phase: int
    ) -> int:
        return sum(
            item.rows
            for item in report.transfer_plan.items
            if (item.device, item.phase, item.label) == (device, phase, label)
        )

    def _check_sigma_conservation(
        self, report: FrameReport, out: SanitizerReport
    ) -> None:
        decision = report.decision
        frame = report.frame_index
        n = self.mb_rows
        for i, dev in enumerate(self.platform.devices):
            if not dev.is_accelerator:
                continue
            name = dev.name
            # σ/σʳ row conservation (paper eqs. (14)–(15)): everything the
            # device neither interpolated (l_i) nor fetched for SME (Δl_i)
            # must be split exactly between σ (this frame) and σʳ (next).
            if name in decision.sigma or name in decision.sigma_r:
                sg = decision.sigma.get(name)
                rem = decision.sigma_r.get(name)
                got = (sg.rows if sg else 0) + (rem.rows if rem else 0)
                dl = decision.delta_l[i].rows if i < len(decision.delta_l) else 0
                want = n - decision.l.rows[i] - dl
                if got != want:
                    out.add(
                        "SAN-C4",
                        f"σ+σʳ = {got} rows but N − l_i − Δl_i = {want}",
                        frame=frame,
                        where=name,
                    )
            # Planned transfers must move exactly the Δ/σ rows the decision
            # predicts. A device absent from the plan was parked or lost
            # its link this frame — nothing to reconcile.
            if not any(t.device == name for t in report.transfer_plan.items):
                continue
            dm = decision.delta_m[i].rows if i < len(decision.delta_m) else 0
            dl = decision.delta_l[i].rows if i < len(decision.delta_l) else 0
            checks = [
                ("CF->SME", 1, dm, "Δm"),
                ("SF(RF)->SME", 2, dl, "Δl"),
                ("MV->SME", 2, dm, "Δm"),
            ]
            if name != report.rstar_device:
                sg = decision.sigma.get(name)
                checks.append(("SF->SME+1", 3, sg.rows if sg else 0, "σ"))
            for label, phase, want, what in checks:
                got = self._plan_rows(report, name, label, phase)
                if got != want:
                    out.add(
                        "SAN-C4",
                        f"plan moves {got} row(s) as {label} (phase {phase}) "
                        f"but the decision's {what} is {want}",
                        frame=frame,
                        where=name,
                    )

    # ------------------- class D: down-device execution -------------------

    def _check_faulted_idle(
        self, report: FrameReport, out: SanitizerReport
    ) -> None:
        """A device that died this frame may only carry its fault stall."""
        for name in report.faulted:
            prefix = f"{name}."
            for rec in report.timeline.records:
                if (
                    rec.resource.startswith(prefix)
                    and rec.category != "fault"
                    and rec.duration > 0
                ):
                    out.add(
                        "SAN-D2",
                        f"faulted device executes {rec.label} "
                        f"({rec.category}, {rec.duration:.6f}s)",
                        frame=report.frame_index,
                        where=rec.resource,
                    )

    # ----------------------------- entry points ---------------------------

    def check_timeline(self, timeline: FrameTimeline) -> SanitizerReport:
        """Record-level checks (classes A and B) on one frame timeline."""
        out = SanitizerReport()
        self._check_engine_races(timeline.records, timeline.frame_index, out)
        self._check_copy_engines(timeline.records, timeline.frame_index, out)
        self._check_tau_windows(timeline, out)
        return out

    def check_report(self, report: FrameReport) -> SanitizerReport:
        """All per-frame checks (classes A–C plus faulted-device idleness)."""
        out = SanitizerReport()
        if report.frame_index == 0:
            return out  # intra placeholder report: nothing scheduled
        out.extend(self.check_timeline(report.timeline))
        self._check_distributions(report, out)
        self._check_deltas(report, out)
        self._check_transfer_bytes(report, out)
        self._check_sigma_conservation(report, out)
        self._check_faulted_idle(report, out)
        return out

    def check_run(self, fw: FevesFramework) -> SanitizerReport:
        """Sanitize every frame of a run, plus cross-frame σʳ handover.

        The cross-frame check closes the conservation loop: the SF rows a
        frame defers (σʳ) must be exactly the rows the next frame's plan
        transfers during τ1 (``SF(RF-1)->SME``). Pairs interrupted by an
        intra refresh, a fault event, or parking are skipped — those
        legitimately reset the backlog.

        A process-backed framework gets an empty report: its timelines
        are measured, not scheduled, it has no modelled transfers, and
        its shared-memory discipline is proved statically (REP203/REP204)
        rather than journaled at run time.
        """
        out = SanitizerReport()
        if fw.fw_cfg.backend == "process":
            return out
        if not fw.reports:
            return out   # never encoded (e.g. a rejected session)
        eventful = {
            e.frame_index for e in fw.fault_log if e.eventful
        }
        for prev, cur in zip([None] + fw.reports[:-1], fw.reports, strict=True):
            out.extend(self.check_report(cur))
            if (
                prev is None
                or cur.frame_index != prev.frame_index + 1
                or prev.frame_index in eventful
                or cur.frame_index in eventful
            ):
                continue
            for name, rem in prev.decision.sigma_r.items():
                if name in prev.faulted or name in cur.faulted:
                    continue
                if not any(t.device == name for t in cur.transfer_plan.items):
                    continue  # parked this frame: backlog legitimately reset
                got = self._plan_rows(cur, name, "SF(RF-1)->SME", 1)
                if got != rem.rows:
                    out.add(
                        "SAN-C4",
                        f"frame {prev.frame_index} deferred σʳ={rem.rows} "
                        f"row(s) but frame {cur.frame_index} catches up "
                        f"{got}",
                        frame=cur.frame_index,
                        where=name,
                    )
        return out

    # ------------------------- service-level checks -----------------------

    @staticmethod
    def check_service(service: EncodingService, eps: float = 1e-9) -> SanitizerReport:
        """Class-D service invariants plus per-session frame sanitization.

        Every session's frames are checked with a sanitizer built for that
        session's own resolution and halo; on top, the capacity shares
        granted in each scheduling round must sum to ≤ 1 (SAN-D1) and no
        session may execute work on a device held down by the service-level
        fault schedule in that round (SAN-D2).
        """
        out = SanitizerReport()
        share_sum: dict[int, float] = {}
        down_cache: dict[int, frozenset[str]] = {}

        def down_at(round_idx: int) -> frozenset[str]:
            if round_idx not in down_cache:
                down_cache[round_idx] = frozenset(
                    d.name
                    for d in service.template.devices
                    if service.cfg.faults.down(round_idx, d.name) is not None
                )
            return down_cache[round_idx]

        for session in service.sessions:
            san = TimelineSanitizer.for_framework(session.framework)
            out.extend(san.check_run(session.framework))
            for rec in session.records:
                share_sum[rec.round] = share_sum.get(rec.round, 0.0) + rec.share
                if not 0.0 < rec.share <= 1.0 + eps:
                    out.add(
                        "SAN-D1",
                        f"frame {rec.index} granted share {rec.share}",
                        where=session.stream_id,
                    )
                down = down_at(rec.round)
                if not down:
                    continue
                report = session.framework.reports[rec.index - 1]
                for op in report.timeline.records:
                    dev = _device_of_resource(op.resource)
                    if dev in down and op.category != "fault" and op.duration > 0:
                        out.add(
                            "SAN-D2",
                            f"stream {session.stream_id} frame {rec.index} "
                            f"runs {op.label} on {dev}, which is down in "
                            f"round {rec.round}",
                            frame=rec.index,
                            where=op.resource,
                        )
        for round_idx, total in sorted(share_sum.items()):
            if total > 1.0 + 1e-6:
                out.add(
                    "SAN-D1",
                    f"round {round_idx} grants {total:.6f} total capacity "
                    f"(> 1.0)",
                    where="scheduler",
                )
        return out

    # ----------------------- protocol checks (SAN-G) ----------------------

    @staticmethod
    def check_protocols(events: list | None = None) -> SanitizerReport:
        """Class-G lifecycle/protocol discipline on the runtime journal.

        ``events`` is a list of :class:`~repro.util.journal.Event` (the
        stream instrumented classes emit while the journal is on); when
        omitted, the global journal is drained. Its lifecycle events are
        replayed against the declarative specs
        in :mod:`repro.sanitizers.protocols.spec`:

        **SAN-G1** — an event illegal in the object's protocol state
        (``step()`` on a retired node, ``view()`` on a closed store),
        or the object's own clock running backwards between events.

        **SAN-G2** — an unmet obligation: a dequeued/parked stream with
        no disposition, a solve over a changed live set with no
        invalidation in between, or a ``require_terminal`` object
        (kernel pool, frame store) never shut down by teardown.
        """
        if events is None:
            events = JOURNAL.drain()
        return check_events(events)

    # ------------------------- cluster-level checks -----------------------

    @staticmethod
    def check_cluster(cluster: Cluster, eps: float = 1e-9) -> SanitizerReport:
        """Class-E fleet invariants plus the full A–D pass per node.

        Every node's :class:`~repro.service.service.EncodingService` is
        first sanitized with :meth:`check_service` (violations re-anchored
        under ``node_id:``); then the dispatcher's segment bookkeeping is
        checked stream by stream: exclusive time-ordered ownership
        (SAN-E1), placement inside the owning node's live window
        (SAN-E2), and frame conservation across reroutes (SAN-E3).
        """
        out = SanitizerReport()
        for node in cluster.nodes:
            rep = TimelineSanitizer.check_service(node.service, eps=eps)
            for v in rep.violations:
                where = f"{node.node_id}:{v.where}" if v.where else node.node_id
                out.add(v.rule, v.message, frame=v.frame, where=where)

        nodes = {n.node_id: n for n in cluster.nodes}
        for stream_id, st in cluster.dispatcher.streams.items():
            segs = st.segments
            # --- E1: exclusive, time-ordered ownership -------------------
            for i, seg in enumerate(segs):
                if seg.t_evicted is None and i != len(segs) - 1:
                    out.add(
                        "SAN-E1",
                        f"segment {i} on {seg.node_id} was never evicted "
                        f"but segment {i + 1} exists",
                        where=stream_id,
                    )
            for a, b in zip(segs, segs[1:], strict=False):
                if a.t_evicted is not None and b.t_routed < a.t_evicted - eps:
                    out.add(
                        "SAN-E1",
                        f"rerouted to {b.node_id} at {b.t_routed:.6f} while "
                        f"{a.node_id} still owned the stream until "
                        f"{a.t_evicted:.6f}",
                        where=stream_id,
                    )
            # --- E2: placement inside the node's live window -------------
            for seg in segs:
                node = nodes.get(seg.node_id)
                if node is None:
                    out.add(
                        "SAN-E2",
                        f"segment placed on unknown node {seg.node_id!r}",
                        where=stream_id,
                    )
                    continue
                if seg.t_routed < node.joined_s - eps:
                    out.add(
                        "SAN-E2",
                        f"segment routed to {seg.node_id} at "
                        f"{seg.t_routed:.6f} before the node joined at "
                        f"{node.joined_s:.6f}",
                        where=stream_id,
                    )
                if node.retired_s is not None and (
                    seg.t_routed > node.retired_s + eps
                ):
                    out.add(
                        "SAN-E2",
                        f"segment routed to {seg.node_id} at "
                        f"{seg.t_routed:.6f} after the node retired at "
                        f"{node.retired_s:.6f}",
                        where=stream_id,
                    )
            # --- E3: frame conservation across reroutes ------------------
            offset = 0
            indices: list[int] = []
            for seg in segs:
                if seg.offset != offset:
                    out.add(
                        "SAN-E3",
                        f"segment on {seg.node_id} starts at global offset "
                        f"{seg.offset} but earlier segments encoded "
                        f"{offset} frame(s)",
                        where=stream_id,
                    )
                indices.extend(seg.offset + r.index for r in seg.session.records)
                offset += len(seg.session.records)
            if sorted(indices) != list(range(1, len(indices) + 1)):
                missing = sorted(set(range(1, len(indices) + 1)) - set(indices))
                dupes = sorted({i for i in indices if indices.count(i) > 1})
                out.add(
                    "SAN-E3",
                    f"global frame indices do not cover 1..{len(indices)} "
                    f"(missing {missing[:8]}, duplicated {dupes[:8]})",
                    where=stream_id,
                )
            if st.frames_done > st.spec.n_frames:
                out.add(
                    "SAN-E3",
                    f"encoded {st.frames_done} frame(s) but the stream "
                    f"submitted {st.spec.n_frames}",
                    where=stream_id,
                )

        node_frames = sum(
            len(s.records) for n in cluster.nodes for s in n.service.sessions
        )
        stream_frames = sum(
            st.frames_done for st in cluster.dispatcher.streams.values()
        )
        if node_frames != stream_frames:
            out.add(
                "SAN-E3",
                f"nodes recorded {node_frames} frame(s) but stream segments "
                f"account for {stream_frames}",
                where="cluster",
            )
        return out


__all__ = [
    "TimelineSanitizer",
    "SanitizerReport",
    "Violation",
]
