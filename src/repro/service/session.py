"""Per-stream encoding sessions of the multi-stream service.

One :class:`EncodingSession` wraps a complete, private
:class:`~repro.core.framework.FevesFramework` — its own per-stream
Performance Characterization, LP balancer, and Data Access Management —
built on a fresh instance of the *shared* platform preset. The service
layer time-shares the physical platform between sessions by granting each
session a capacity share per scheduling round
(:meth:`~repro.hw.device.Device.set_capacity_share`), so a session's
framework simply observes devices that are proportionally slower and
adapts its intra-frame distribution exactly as the paper's single-stream
algorithm does. With a single session at share 1.0 the decisions are
bit-identical to a standalone run.

Frame pacing follows a live capture model: frame ``k`` (1-based) of a
session is *captured* ``(k-1)/fps_target`` seconds after admission and
cannot be encoded earlier; a session that falls behind accumulates capture
backlog and its frame latencies (completion − capture) grow, which is what
the deadline-miss metrics measure.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework, FrameOutcome
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.util.journal import record as _journal
from repro.video.generator import SyntheticSequence


@dataclass(frozen=True)
class DeadlineClass:
    """Service class of a stream.

    ``budget_factor`` sets the per-frame deadline as a multiple of the
    frame period (``math.inf`` = no deadline); ``weight`` is the base
    priority multiplier the co-scheduler applies to the stream's demand.
    """

    name: str
    budget_factor: float
    weight: float


#: Built-in service classes.
DEADLINE_CLASSES: dict[str, DeadlineClass] = {
    "realtime": DeadlineClass("realtime", budget_factor=1.0, weight=2.0),
    "standard": DeadlineClass("standard", budget_factor=2.0, weight=1.0),
    "background": DeadlineClass("background", budget_factor=math.inf, weight=0.5),
}


@dataclass(frozen=True)
class StreamSpec:
    """Static description of one stream submitted to the service."""

    stream_id: str
    fps_target: float = 25.0
    n_frames: int = 30
    deadline_class: str = "standard"
    arrival_s: float = 0.0
    width: int = 1920
    height: int = 1088
    search_range: int = 16
    num_ref_frames: int = 1

    def __post_init__(self) -> None:
        if self.fps_target <= 0:
            raise ValueError(f"fps_target must be > 0, got {self.fps_target}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.deadline_class not in DEADLINE_CLASSES:
            raise ValueError(
                f"deadline_class must be one of {sorted(DEADLINE_CLASSES)}, "
                f"got {self.deadline_class!r}"
            )
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")

    @property
    def period_s(self) -> float:
        return 1.0 / self.fps_target  # noqa: REP004 - fps_target validated > 0 in __post_init__

    @property
    def klass(self) -> DeadlineClass:
        return DEADLINE_CLASSES[self.deadline_class]

    def codec_config(self) -> CodecConfig:
        return CodecConfig(
            width=self.width,
            height=self.height,
            search_range=self.search_range,
            num_ref_frames=self.num_ref_frames,
        )


class SessionFaultView:
    """Adapter exposing the service-level fault schedule to one session.

    The service injects faults at *service rounds* (one round = one
    co-scheduled frame across all active sessions), while each session's
    framework queries its schedule at the session's own 1-based inter-frame
    index. The service advances :attr:`round` before stepping any session,
    and the view answers every per-frame query with the fault state of the
    current round — so all sessions observe a platform fault in the same
    round, whenever each of them was admitted.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.round = 0

    @property
    def empty(self) -> bool:
        return self.schedule.empty

    @property
    def events(self) -> list[FaultEvent]:
        return self.schedule.events

    def devices(self) -> set[str]:
        return self.schedule.devices()

    def down(self, frame: int, device: str) -> FaultEvent | None:
        return self.schedule.down(self.round, device)

    def compute_factor(self, frame: int, device: str) -> float:
        return self.schedule.compute_factor(self.round, device)

    def copy_factor(self, frame: int, device: str) -> float:
        return self.schedule.copy_factor(self.round, device)


@dataclass(frozen=True)
class FrameRecord:
    """One encoded frame of one session, on the service clock."""

    index: int          # 1-based inter-frame index within the session
    round: int          # service round it was encoded in
    capture_s: float    # when the frame became available (release time)
    start_s: float      # when the service started encoding it
    end_s: float        # completion on the service clock
    deadline_s: float   # capture + budget_factor * period (inf = none)
    share: float        # capacity share granted for this frame
    tau_s: float        # simulated encode time at that share

    @property
    def latency_s(self) -> float:
        return self.end_s - self.capture_s

    @property
    def missed(self) -> bool:
        return self.end_s > self.deadline_s


#: Session lifecycle states.
QUEUED, RUNNING, DONE, REJECTED = "queued", "running", "done", "rejected"


class EncodingSession:
    """Runtime state of one admitted (or waiting) stream.

    ``backend="process"`` makes the session *really encode* a
    deterministic synthetic clip (seeded from the stream id) on a
    multiprocessing worker pool instead of simulating the frame times —
    the service clock then advances by measured wall seconds. Capacity
    shares still steer the co-scheduler's allocation decisions, but they
    cannot slow a measured encode down: every session's pool runs on the
    same physical cores and the OS arbitrates them.
    """

    def __init__(
        self,
        spec: StreamSpec,
        platform_name: str,
        faults: FaultSchedule | None = None,
        backend: str = "sim",
        exec_workers: int = 0,
    ) -> None:
        self.spec = spec
        self.fault_view = SessionFaultView(faults or FaultSchedule())
        self._source: SyntheticSequence | None = None
        if backend == "process":
            self._source = SyntheticSequence(
                width=spec.width,
                height=spec.height,
                seed=zlib.crc32(spec.stream_id.encode()) & 0x7FFFFFFF,
            )
        self.framework = FevesFramework(
            get_platform(platform_name),
            spec.codec_config(),
            FrameworkConfig(
                backend=backend,
                exec_workers=exec_workers,
                faults=self.fault_view,
            ),
        )
        self._intra_done = False
        self.state = QUEUED
        _journal(self, "create", 0.0, detail=spec.stream_id)
        self.admitted_s: float | None = None
        self.records: list[FrameRecord] = []
        #: Device-seconds consumed per engine over the session's frames:
        #: busy time on its scaled clock × its share of the engine.
        self.busy_device_s: dict[str, float] = {}
        # EWMA of the full-speed (share-normalized) frame time: the
        # session's measured demand on the whole platform, in
        # platform-seconds per frame.
        self._tau_full_ewma: float | None = None

    # ------------------------------------------------------------------

    @property
    def stream_id(self) -> str:
        return self.spec.stream_id

    @property
    def frames_done(self) -> int:
        return len(self.records)

    @property
    def done(self) -> bool:
        return self.frames_done >= self.spec.n_frames

    @property
    def est_frame_s(self) -> float | None:
        """Measured full-speed frame time (None before the first frame)."""
        return self._tau_full_ewma

    def admit(self, now: float) -> None:
        if self.state != QUEUED:
            raise RuntimeError(f"cannot admit session in state {self.state!r}")
        self.state = RUNNING
        _journal(self, "admit", now, detail=self.stream_id)
        self.admitted_s = now

    def reject(self) -> None:
        self.state = REJECTED
        _journal(self, "reject", self.spec.arrival_s, detail=self.stream_id)

    @property
    def wait_s(self) -> float:
        """Seconds spent in the admission queue."""
        if self.admitted_s is None:
            return 0.0
        return self.admitted_s - self.spec.arrival_s

    # ------------------------------------------------------------------

    def capture_s(self, index: int) -> float:
        """Capture (release) time of 1-based frame ``index``."""
        assert self.admitted_s is not None
        return self.admitted_s + (index - 1) * self.spec.period_s

    def next_capture_s(self) -> float:
        """Capture time of the next frame still to encode."""
        return self.capture_s(self.frames_done + 1)

    def has_pending(self, now: float) -> bool:
        """A frame is captured and waiting to be encoded."""
        return (
            self.state == RUNNING
            and not self.done
            and self.next_capture_s() <= now + 1e-12
        )

    def deadline_for(self, capture: float) -> float:
        budget = self.spec.klass.budget_factor
        if math.isinf(budget):
            return math.inf
        return capture + budget * self.spec.period_s

    # ------------------------------------------------------------------

    def _encode_next(self) -> FrameOutcome:
        """Advance the framework by one inter frame (backend-specific)."""
        if self._source is None:
            return self.framework.encode_next_inter()
        # Process backend: really encode the session's synthetic clip.
        # The leading intra frame is host work outside the service clock
        # (as in the paper's evaluation), produced lazily on first step.
        if not self._intra_done:
            self.framework.encode_frame_at(self._source.frame(0), 0)
            self._intra_done = True
        idx = self.frames_done + 1
        return self.framework.encode_frame_at(self._source.frame(idx), idx)

    def close(self) -> None:
        """Release backend resources (worker pool/shared memory)."""
        self.framework.close()

    def step(self, now: float, share: float, round_idx: int) -> FrameRecord:
        """Encode the session's next frame at ``share`` of the platform."""
        if self.state != RUNNING or self.done:
            raise RuntimeError(f"session {self.stream_id!r} has no frame to encode")
        _journal(self, "step", now, detail=self.stream_id)
        for dev in self.framework.platform.devices:
            dev.set_capacity_share(share)
        self.fault_view.round = round_idx
        outcome = self._encode_next()
        tau = outcome.report.tau_tot
        busy = self.busy_device_s
        for res, b in outcome.report.timeline.busy_by_resource().items():
            busy[res] = busy.get(res, 0.0) + b * share
        capture = self.next_capture_s()
        rec = FrameRecord(
            index=self.frames_done + 1,
            round=round_idx,
            capture_s=capture,
            start_s=now,
            end_s=now + tau,
            deadline_s=self.deadline_for(capture),
            share=share,
            tau_s=tau,
        )
        self.records.append(rec)
        full = tau * share
        if self._tau_full_ewma is None:
            self._tau_full_ewma = full
        else:
            self._tau_full_ewma = 0.5 * full + 0.5 * self._tau_full_ewma
        if self.done:
            self.state = DONE
            _journal(self, "finish", rec.end_s, detail=self.stream_id)
            # A finished process-backed session holds a worker pool and
            # shared segments; free them as soon as the stream completes.
            self.close()
        return rec
