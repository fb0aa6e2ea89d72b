"""Timeline and fault-log export in Chrome trace-event format.

Dump frame timelines to the JSON consumed by ``chrome://tracing`` /
Perfetto, one "thread" per DES resource — the practical way to eyeball a
multi-frame FEVES schedule outside the terminal. Device-fault activity
(eviction, re-admission, stall intervals) rides along: fault stalls are
ordinary duration events with category ``fault``, and the per-frame
:class:`~repro.hw.timeline.FaultLogEntry` records become instant events at
each frame's start, so the moment a GPU dies is visible in the same view
as the schedule reacting to it.

One writer, :func:`export_stream_traces`, serves every trace: each
stream exports under its own ``pid`` with a ``process_name`` metadata
record, so N concurrent streams of a service or fleet render as N
labelled process groups instead of interleaving into one row, and a
single run (``repro run --trace``) is one stream whose frames follow each other
(:meth:`StreamTrace.back_to_back`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from repro.hw.timeline import FaultLogEntry, FrameTimeline

#: Category colors follow trace-viewer conventions via the ``cat`` field.
_CATEGORY = {
    "compute": "kernel",
    "h2d": "transfer_in",
    "d2h": "transfer_out",
    "fault": "fault",
}


def resource_tids(timelines: list[FrameTimeline]) -> dict[str, int]:
    """Stable resource → tid mapping over a set of frame timelines.

    Built from the union of resources so a frame that happens to miss a
    resource (an evicted device, an idle copy engine) cannot shift the
    tids of later frames.
    """
    resources = sorted({res for tl in timelines for _, res, _ in tl.records.ops})
    return {res: i + 1 for i, res in enumerate(resources)}


def thread_metadata_events(tids: dict[str, int], pid: int = 1) -> list[dict]:
    """``thread_name`` metadata records for a resource → tid mapping."""
    return [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": res},
        }
        for res, tid in tids.items()
    ]


def process_metadata_events(pid: int, name: str, sort_index: int = 0) -> list[dict]:
    """``process_name``/``process_sort_index`` metadata for one stream."""
    return [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": sort_index},
        },
    ]


def timeline_to_events(
    timeline: FrameTimeline,
    time_offset_s: float = 0.0,
    pid: int = 1,
    tids: dict[str, int] | None = None,
    stream: str | None = None,
) -> list[dict]:
    """Convert one frame's records to trace-event dicts (``X`` events).

    When ``tids`` is provided it is used as the (caller-stable) resource
    → tid mapping and no thread metadata is emitted — multi-frame and
    multi-stream exporters emit the metadata once per pid themselves.
    ``stream`` adds a stream/session id to every event's args.
    """
    events: list[dict] = []
    if tids is None:
        tids = resource_tids([timeline])
        events.extend(thread_metadata_events(tids, pid=pid))
    for rec in timeline.records:
        if rec.duration <= 0:
            continue
        args: dict = {"frame": timeline.frame_index}
        if stream is not None:
            args["stream"] = stream
        events.append(
            {
                "name": rec.label,
                "cat": _CATEGORY.get(rec.category, rec.category),
                "ph": "X",
                "pid": pid,
                "tid": tids[rec.resource],
                "ts": (time_offset_s + rec.start) * 1e6,   # µs
                "dur": rec.duration * 1e6,
                "args": args,
            }
        )
    return events


def fault_log_to_events(
    entries: list[FaultLogEntry],
    frame_offsets_s: dict[int, float],
    pid: int = 1,
    scope: str = "g",
) -> list[dict]:
    """Instant events ("i" phase) for eventful fault-log entries.

    ``frame_offsets_s`` maps each frame index to its start time on the
    common trace clock; entries for frames without a timeline are skipped.
    ``scope`` is the trace-viewer instant scope: ``"g"`` (global) for
    single-process traces, ``"p"`` (process) for per-stream exports.
    """
    events: list[dict] = []
    for entry in entries:
        if not entry.eventful or entry.frame_index not in frame_offsets_s:
            continue
        parts = []
        if entry.evicted:
            parts.append("evicted " + ",".join(entry.evicted))
        if entry.readmitted:
            parts.append("readmitted " + ",".join(entry.readmitted))
        if entry.time_lost_s > 0:
            parts.append(f"lost {entry.time_lost_s * 1e3:.1f}ms")
        events.append(
            {
                "name": "; ".join(parts) or "fault",
                "cat": "fault",
                "ph": "i",
                "s": scope,
                "pid": pid,
                "tid": 0,
                "ts": frame_offsets_s[entry.frame_index] * 1e6,
                "args": entry.to_dict(),
            }
        )
    return events


def export_fault_log(entries: list[FaultLogEntry], path: str | Path) -> int:
    """Write the structured per-frame fault/decision log as JSON.

    Returns the number of entries written. The file is a JSON array of
    per-frame objects (see :meth:`FaultLogEntry.to_dict`), suitable for
    postmortem tooling and diffing across runs.
    """
    payload = [entry.to_dict() for entry in entries]
    Path(path).write_text(json.dumps(payload, indent=1))
    return len(payload)


@dataclass
class StreamTrace:
    """One stream's worth of trace material for a multi-stream export.

    ``frames`` pairs each frame timeline with its absolute start time on
    the shared service clock (frames of different streams overlap — that
    is the point).
    """

    pid: int
    name: str
    frames: list[tuple[FrameTimeline, float]]
    fault_log: list[FaultLogEntry] | None = None
    sort_index: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.sort_index < 0:
            self.sort_index = self.pid

    @classmethod
    def back_to_back(
        cls,
        timelines: list[FrameTimeline],
        name: str,
        fault_log: list[FaultLogEntry] | None = None,
    ) -> StreamTrace:
        """One run's consecutive frames as pid 1: frame k starts where the
        frames before it end, at the sum of their τtot."""
        starts = accumulate((max(tl.tau_tot, 0.0) for tl in timelines), initial=0.0)
        return cls(1, name, list(zip(timelines, starts, strict=False)), fault_log)


def export_stream_traces(streams: list[StreamTrace], path: str | Path) -> int:
    """Write a multi-stream Chrome trace, one process (pid) per stream.

    Every stream gets its own ``pid`` with ``process_name`` metadata and a
    tid mapping stable across all of its frames, so concurrent sessions
    render as separate labelled process groups in chrome://tracing /
    Perfetto instead of interleaving into one row. Per-stream fault logs
    become process-scoped instant events at the frames they struck.
    Returns the number of duration events written.
    """
    events: list[dict] = []
    for st in streams:
        events.extend(process_metadata_events(st.pid, st.name, st.sort_index))
        tids = resource_tids([tl for tl, _ in st.frames])
        events.extend(thread_metadata_events(tids, pid=st.pid))
        frame_offsets: dict[int, float] = {}
        for tl, start_s in st.frames:
            frame_offsets[tl.frame_index] = start_s
            events.extend(
                timeline_to_events(
                    tl,
                    time_offset_s=start_s,
                    pid=st.pid,
                    tids=tids,
                    stream=st.name,
                )
            )
        if st.fault_log:
            events.extend(
                fault_log_to_events(
                    st.fault_log, frame_offsets, pid=st.pid, scope="p"
                )
            )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload))
    return sum(1 for e in events if e["ph"] == "X")
