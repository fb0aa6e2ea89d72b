"""Timeline utilities: per-frame Gantt-style records and summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.des import OpRecord


@dataclass(frozen=True)
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


@dataclass
class FrameTimeline:
    """Schedule of one encoded frame."""

    frame_index: int
    records: list[OpRecord]
    tau1: float = 0.0
    tau2: float = 0.0
    tau_tot: float = 0.0
    _busy: dict[str, float] | None = field(default=None, repr=False, compare=False)

    def busy_by_resource(self) -> dict[str, float]:
        """Busy seconds per resource, computed in one pass and memoized.

        Accumulating per resource in record order adds the same floats in
        the same order as the per-resource filtered scans did, so the
        sums are bit-identical; callers iterating over many resources go
        from O(records × resources) to O(records). Records are treated
        as immutable once the timeline exists (they are — the simulator
        emits them once per frame).
        """
        if self._busy is None:
            busy: dict[str, float] = {}
            for r in self.records:
                busy[r.resource] = busy.get(r.resource, 0.0) + r.duration
            self._busy = busy
        return self._busy

    def busy_time(self, resource: str) -> float:
        """Total occupied simulated seconds of a resource."""
        return self.busy_by_resource().get(resource, 0.0)

    def utilization(self, resource: str) -> float:
        """Busy fraction of a resource over the frame makespan."""
        if self.tau_tot <= 0:
            return 0.0
        return self.busy_time(resource) / self.tau_tot

    def gantt_text(self, width: int = 72) -> str:
        """ASCII Gantt chart of the frame (one line per resource)."""
        if not self.records or self.tau_tot <= 0:
            return "(empty timeline)"
        resources = sorted({r.resource for r in self.records})
        lines = [f"frame {self.frame_index}  tau_tot={self.tau_tot * 1e3:.3f} ms"]
        scale = width / self.tau_tot
        for res in resources:
            row = [" "] * width
            for rec in self.records:
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

