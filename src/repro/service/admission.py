"""Admission control against aggregate platform capacity.

A stream's *demand fraction* is the slice of the whole platform it needs
to sustain its target rate:

    u_i = fps_target_i × T_i

where ``T_i`` is the stream's full-platform frame time in seconds — the
time one collaborative FEVES frame of that stream's codec configuration
takes when granted 100% of every live device. Before a session has
encoded anything, ``T_i`` is estimated from the calibrated device rate
models under the paper's linear-scaling upper bound
(``1/T = Σ_d 1/frame_time_d``); once the session runs, its measured
share-normalized frame time (the per-stream Performance Model's view)
replaces the estimate.

The controller admits a new stream while ``Σ u_i + u_new ≤ headroom``,
parks it in a bounded FIFO wait queue when the platform is committed, and
rejects it outright when the queue is full. Capacity is always evaluated
against the *live* device set, so a device dropout shrinks capacity and
throttles admissions until sessions drain.
"""

from __future__ import annotations

from collections import deque

from repro.codec.config import CodecConfig
from repro.hw.device import DeviceSpec
from repro.hw.topology import Platform
from repro.service.session import EncodingSession, StreamSpec

#: Admission outcomes.
ADMITTED, QUEUED, REJECTED = "admitted", "queued", "rejected"


class CapacityModel:
    """Model-based estimate of platform service capacity."""

    def __init__(self, platform: Platform) -> None:
        self.specs: list[DeviceSpec] = [d.spec for d in platform.devices]

    def device_frame_s(self, spec: DeviceSpec, cfg: CodecConfig, refs: int) -> float:
        """Single-device inter-frame time for a codec configuration."""
        rates = spec.rates
        per_row = (
            rates.me_row_s(cfg, refs) + rates.int_row_s(cfg) + rates.sme_row_s(cfg)
        )
        return cfg.mb_rows * per_row + rates.rstar_frame_s(cfg)

    def platform_frame_s(
        self, cfg: CodecConfig, refs: int, live: frozenset[str] | set[str] | None = None
    ) -> float:
        """Full-platform frame time under the linear-scaling upper bound."""
        inv = 0.0
        for spec in self.specs:
            if live is not None and spec.name not in live:
                continue
            inv += 1.0 / self.device_frame_s(spec, cfg, refs)
        if inv <= 0:
            raise ValueError("no live devices; platform has zero capacity")
        return 1.0 / inv

    def fps_capacity(
        self, cfg: CodecConfig, refs: int, live: frozenset[str] | set[str] | None = None
    ) -> float:
        """Sustainable frames/s for streams of this configuration."""
        return 1.0 / self.platform_frame_s(cfg, refs, live)

    def demand_fraction(
        self, spec: StreamSpec, live: frozenset[str] | set[str] | None = None
    ) -> float:
        """Model-estimated platform fraction a stream needs."""
        return spec.fps_target * self.platform_frame_s(
            spec.codec_config(), spec.num_ref_frames, live
        )


class AdmissionController:
    """Accept / queue / reject streams against committed capacity."""

    def __init__(
        self,
        capacity: CapacityModel,
        headroom: float = 1.0,
        max_queue: int = 8,
    ) -> None:
        if headroom <= 0:
            raise ValueError(f"headroom must be > 0, got {headroom}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.capacity = capacity
        self.headroom = headroom
        self.max_queue = max_queue
        self.running: list[EncodingSession] = []
        self.queue: deque[EncodingSession] = deque()
        self.counts: dict[str, int] = {
            ADMITTED: 0, QUEUED: 0, REJECTED: 0, "completed": 0, "evicted": 0,
        }

    # ------------------------------------------------------------------

    def session_fraction(
        self, session: EncodingSession, live: frozenset[str] | set[str] | None
    ) -> float:
        """Committed fraction of one session (measured when available)."""
        measured = session.est_frame_s
        if measured is not None:
            return session.spec.fps_target * measured
        return self.capacity.demand_fraction(session.spec, live)

    def committed_fraction(self, live: frozenset[str] | set[str] | None) -> float:
        """Total platform fraction promised to running sessions."""
        return sum(self.session_fraction(s, live) for s in self.running)

    def _fits(
        self, spec: StreamSpec, live: frozenset[str] | set[str] | None
    ) -> bool:
        demand = self.capacity.demand_fraction(spec, live)
        return self.committed_fraction(live) + demand <= self.headroom + 1e-9

    # ------------------------------------------------------------------

    def offer(
        self,
        session: EncodingSession,
        now: float,
        live: frozenset[str] | set[str] | None = None,
    ) -> str:
        """Decide a newly arrived stream: admit, queue, or reject.

        A newcomer is only admitted directly when nobody is waiting —
        otherwise a small stream would overtake a larger queued one and
        could starve it indefinitely.
        """
        if not self.queue and self._fits(session.spec, live):
            session.admit(now)
            self.running.append(session)
            self.counts[ADMITTED] += 1
            return ADMITTED
        if len(self.queue) < self.max_queue:
            self.queue.append(session)
            self.counts[QUEUED] += 1
            return QUEUED
        session.reject()
        self.counts[REJECTED] += 1
        return REJECTED

    def drain(
        self, now: float, live: frozenset[str] | set[str] | None = None
    ) -> list[EncodingSession]:
        """Admit queued streams that now fit (FIFO, head-of-line order).

        Strict FIFO is deliberate — a large queued stream blocks smaller
        ones behind it rather than being starved forever. As a liveness
        backstop, the head is admitted unconditionally when nothing is
        running (a stream too big for an idle platform would otherwise
        wait forever; it runs best-effort instead).
        """
        admitted: list[EncodingSession] = []
        while self.queue:
            head = self.queue[0]
            if not self.running or self._fits(head.spec, live):
                self.queue.popleft()
                head.admit(now)
                self.running.append(head)
                self.counts[ADMITTED] += 1
                admitted.append(head)
            else:
                break
        return admitted

    def release(self, session: EncodingSession) -> None:
        """A session finished its last frame; free its capacity."""
        self.running.remove(session)
        self.counts["completed"] += 1

    # ------------------------------------------------------------------

    def has_room(
        self, spec: StreamSpec, live: frozenset[str] | set[str] | None
    ) -> bool:
        """Would :meth:`offer` do anything other than reject right now?"""
        if not self.queue and self._fits(spec, live):
            return True
        return len(self.queue) < self.max_queue

    def evict_all(self) -> tuple[list[EncodingSession], list[EncodingSession]]:
        """Node-level eviction: empty the controller without completing.

        Returns ``(running, queued)`` — every session that was running
        and every session still waiting. Neither list counts toward
        ``completed``; the caller (the cluster's fault/drain machinery)
        owns their fate, typically re-routing the survivors through the
        global dispatch queue. Mirrors the PR-1 device-eviction shape one
        level up: capacity vanishes, work is handed back for re-placement.
        """
        running = list(self.running)
        queued = list(self.queue)
        self.running.clear()
        self.queue.clear()
        self.counts["evicted"] += len(running)
        return running, queued
