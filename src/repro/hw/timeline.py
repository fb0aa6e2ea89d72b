"""Timeline utilities: per-frame Gantt-style records and summaries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.des import Schedule


@dataclass(frozen=True, slots=True)
class FaultLogEntry:
    """Structured per-frame fault/decision record.

    One entry per encoded inter frame documents which devices the
    scheduler considered live while executing it, what it evicted or
    re-admitted (with a human-readable reason per device), the simulated
    time the frame lost to fault stalls and host-side redo work, and
    whether the distribution came from the LP.
    """

    frame_index: int
    live: tuple[str, ...]
    evicted: tuple[str, ...] = ()
    readmitted: tuple[str, ...] = ()
    reasons: tuple[tuple[str, str], ...] = ()  # (device, why) pairs
    time_lost_s: float = 0.0
    used_lp: bool = False
    rstar_device: str = ""

    @property
    def eventful(self) -> bool:
        """True when something fault-related happened this frame."""
        return bool(self.evicted or self.readmitted or self.time_lost_s > 0)

    def to_dict(self) -> dict:
        """JSON-friendly representation (for trace export)."""
        return {
            "frame": self.frame_index,
            "live": list(self.live),
            "evicted": list(self.evicted),
            "readmitted": list(self.readmitted),
            "reasons": dict(self.reasons),
            "time_lost_s": self.time_lost_s,
            "used_lp": self.used_lp,
            "rstar_device": self.rstar_device,
        }


@dataclass(slots=True)
class FrameTimeline:
    """Schedule of one encoded frame.

    ``records`` holds the frame's op descriptors, record order and times
    (:class:`~repro.hw.des.Schedule`): a simulated frame shares the first
    two with every frame that re-times the same op graph.
    """

    frame_index: int
    records: Schedule
    tau1: float = 0.0
    tau2: float = 0.0
    tau_tot: float = 0.0

    def busy_by_resource(self) -> dict[str, float]:
        """Busy seconds per resource, in one pass over the times.

        The durations are added per resource in record order, so the sums
        are the floats a pass over :attr:`records` gives.
        """
        s = self.records
        ops, times, n = s.ops, s.times.tolist(), len(s.ops)
        busy: dict[str, float] = {}
        get = busy.get
        for i in s.order:
            res = ops[i][1]
            busy[res] = get(res, 0.0) + (times[n + i] - times[i])
        return busy

    def utilization_by_resource(self) -> dict[str, float]:
        """Busy fraction of each resource over the frame makespan."""
        busy = self.busy_by_resource()
        if self.tau_tot <= 0:
            return dict.fromkeys(busy, 0.0)
        return {res: b / self.tau_tot for res, b in busy.items()}

    def utilization(self, resource: str) -> float:
        """Busy fraction of a resource over the frame makespan."""
        return self.utilization_by_resource().get(resource, 0.0)

    def gantt_text(self, width: int = 72) -> str:
        """ASCII Gantt chart of the frame (one line per resource)."""
        records = list(self.records)
        if not records or self.tau_tot <= 0:
            return "(empty timeline)"
        resources = sorted({r.resource for r in records})
        lines = [f"frame {self.frame_index}  tau_tot={self.tau_tot * 1e3:.3f} ms"]
        scale = width / self.tau_tot
        for res in resources:
            row = [" "] * width
            for rec in records:
                if rec.resource != res:
                    continue
                a = min(width - 1, int(rec.start * scale))
                b = min(width, max(a + 1, int(rec.end * scale)))
                ch = {"compute": "#", "h2d": ">", "d2h": "<", "fault": "X"}.get(
                    rec.category, "?"
                )
                for i in range(a, b):
                    row[i] = ch
            lines.append(f"{res:>18s} |{''.join(row)}|")
        return "\n".join(lines)

