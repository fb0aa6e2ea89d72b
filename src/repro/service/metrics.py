"""Per-stream and aggregate service metrics.

Frame latency is measured capture-to-completion on the service clock; a
frame misses its deadline when it completes after
``capture + budget_factor × period`` (background streams have no
deadline and never miss). Device utilization is genuine device-seconds —
each session's busy time weighted by the capacity share it held — over
the service run duration, so utilizations stay ≤ 1 no matter how many
sessions time-share an engine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.service.session import EncodingSession, FrameRecord


def percentiles(sample: list[float], scale: float = 1.0) -> dict[str, float]:
    """p50/p95/p99 of ``sample``, in its own unit times ``scale``.

    Interpolation is pinned to numpy's ``method="linear"`` (percentile
    ``q`` maps to fractional order statistic ``(n-1)·q/100``, linearly
    interpolated between neighbours) so small samples — service smoke
    runs routinely produce n < 20 — give the same values on every numpy
    version regardless of its default-method history. Edge cases: an
    empty sample reports 0.0 for every percentile; a single sample
    reports that value for all three.
    """
    if not sample:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(sample, dtype=float) * scale
    return {
        f"p{q}": float(np.percentile(arr, q, method="linear"))
        for q in (50, 95, 99)
    }


def latency_percentiles_ms(latencies_s: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample in seconds, in milliseconds."""
    return percentiles(latencies_s, scale=1e3)


def frame_stats(records: Iterable[FrameRecord]) -> dict[str, float]:
    """The latency/deadline fold of any set of frame records, in one pass.

    ``{frames, p50_ms, p95_ms, p99_ms, deadline_miss_rate}`` — the
    headline numbers of a stream, a class, a service or a fleet alike.
    The miss rate is over frames that *have* a deadline: background
    frames never miss, and a sample with none reports 0.0.
    """
    latencies: list[float] = []
    missable = missed = 0
    for r in records:
        latencies.append(r.latency_s)
        if not math.isinf(r.deadline_s):
            missable += 1
            missed += r.missed
    pct = latency_percentiles_ms(latencies)
    return {
        "frames": len(latencies),
        "p50_ms": pct["p50"],
        "p95_ms": pct["p95"],
        "p99_ms": pct["p99"],
        "deadline_miss_rate": missed / missable if missable else 0.0,
    }


def per_class_summary(sessions: list[EncodingSession]) -> dict[str, dict]:
    """:func:`frame_stats` per deadline class, over every session's frames.

    Classes with no encoded frames are omitted. Shared by the service
    snapshot and the cluster layer, where per-class SLOs drive routing
    and autoscaling decisions.
    """
    by_class: dict[str, list[FrameRecord]] = {}
    for s in sessions:
        if s.records:
            by_class.setdefault(s.spec.deadline_class, []).extend(s.records)
    return {klass: frame_stats(by_class[klass]) for klass in sorted(by_class)}


@dataclass(frozen=True)
class StreamMetrics:
    """Headline numbers of one stream's run through the service."""

    stream_id: str
    deadline_class: str
    fps_target: float
    state: str
    frames: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    deadline_miss_rate: float
    achieved_fps: float
    wait_s: float
    fault_events: int

    @classmethod
    def from_session(cls, session: EncodingSession) -> "StreamMetrics":
        recs = session.records
        stats = frame_stats(recs)
        achieved = 0.0
        if recs and session.admitted_s is not None:
            span = recs[-1].end_s - session.admitted_s
            if span > 0:
                achieved = len(recs) / span
        return cls(
            stream_id=session.stream_id,
            deadline_class=session.spec.deadline_class,
            fps_target=session.spec.fps_target,
            state=session.state,
            frames=len(recs),
            p50_ms=stats["p50_ms"],
            p95_ms=stats["p95_ms"],
            p99_ms=stats["p99_ms"],
            deadline_miss_rate=stats["deadline_miss_rate"],
            achieved_fps=achieved,
            wait_s=session.wait_s,
            fault_events=sum(1 for e in session.framework.fault_log if e.eventful),
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ServiceMetrics:
    """Aggregate outcome of one service run."""

    platform: str
    duration_s: float
    rounds: int
    streams: tuple[StreamMetrics, ...]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    deadline_miss_rate: float
    admission: dict[str, int] = field(default_factory=dict)
    device_utilization: dict[str, float] = field(default_factory=dict)
    fault_events: int = 0
    classes: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        platform: str,
        duration_s: float,
        rounds: int,
        sessions: list[EncodingSession],
        admission_counts: dict[str, int],
    ) -> "ServiceMetrics":
        streams = tuple(StreamMetrics.from_session(s) for s in sessions)
        stats = frame_stats(r for s in sessions for r in s.records)
        busy: dict[str, float] = {}
        for s in sessions:
            for res, t in s.busy_device_s.items():
                busy[res] = busy.get(res, 0.0) + t
        # Per-device utilization: fold a device's engines (compute + copy)
        # into the compute-engine figure most dashboards care about.
        util = {
            res: (t / duration_s if duration_s > 0 else 0.0)
            for res, t in sorted(busy.items())
            if res.endswith(".compute")
        }
        return cls(
            platform=platform,
            duration_s=duration_s,
            rounds=rounds,
            streams=streams,
            p50_ms=stats["p50_ms"],
            p95_ms=stats["p95_ms"],
            p99_ms=stats["p99_ms"],
            deadline_miss_rate=stats["deadline_miss_rate"],
            admission=dict(admission_counts),
            device_utilization=util,
            fault_events=sum(m.fault_events for m in streams),
            classes=per_class_summary(sessions),
        )

    def stream(self, stream_id: str) -> StreamMetrics:
        for m in self.streams:
            if m.stream_id == stream_id:
                return m
        raise KeyError(f"no stream {stream_id!r} in metrics")

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "duration_s": self.duration_s,
            "rounds": self.rounds,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "deadline_miss_rate": self.deadline_miss_rate,
            "admission": dict(self.admission),
            "device_utilization": dict(self.device_utilization),
            "fault_events": self.fault_events,
            "classes": {k: dict(v) for k, v in self.classes.items()},
            "streams": [m.to_dict() for m in self.streams],
        }
