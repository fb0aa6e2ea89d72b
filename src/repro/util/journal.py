"""The sanitize switch and the runtime lifecycle journal it gates.

- :func:`sanitize_from_env` is the one predicate over ``$REPRO_SANITIZE``.
  Nothing else in ``src/`` reads the variable and nothing takes a
  ``sanitize`` argument: the shared frame store and the kernel pool's
  worker initializer ask it once when they start, the journal asks per
  record, and ``repro … --sanitize`` sets the variable for one command.
- Instrumented classes (sessions, nodes, the dispatcher, the shared frame
  store, the kernel pool, the load balancer) call :func:`record` at each
  lifecycle transition; while the predicate holds, the event is appended
  to the global :data:`JOURNAL`, and ``TimelineSanitizer.check_protocols``
  replays the stream against the declarative protocol specs (SAN-G).
  The runtime journals, the analysis package checks: imports point from
  there to here, never back.

Properties the callers rely on:

- **No imports of its own** beyond ``os`` and ``dataclasses``: it sits
  below every runtime layer, so ``core/`` imports it at module level
  without a cycle. (Importing it still runs ``repro/__init__.py`` first,
  like any submodule — a leaf, not a lightweight entry point.)
- **Determinism.** Object labels are assigned in first-recorded order
  (``Node#0``, ``Node#1`` …) and sequence numbers are dense, so a
  deterministic run produces a byte-identical journal across
  ``PYTHONHASHSEED`` (pinned by the determinism regression tests).
  Strong references are kept for labeled objects so ``id()`` reuse can
  never alias two objects to one label.
- **One env read per record.** With the variable unset, ``record`` is
  that read and a return.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: The one switch for every runtime sanitizer layer (SAN-A…G).
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_from_env() -> bool:
    """Is runtime sanitizing requested via ``$REPRO_SANITIZE``?

    Unset, empty, ``0`` and ``off`` mean no; any other value (``1``,
    ``strict``, ``on``, …) means yes. Every layer that honours the
    variable asks here, so no spelling can switch on only some of them.
    """
    return os.environ.get(SANITIZE_ENV, "").lower() not in ("", "0", "off")


@dataclass(frozen=True)
class ProtocolEvent:
    """One journaled lifecycle event."""

    seq: int
    cls: str      # tracked class name ("Node", "KernelPool", ...)
    obj: str      # stable per-run label ("Node#0", ...)
    event: str    # transition/observer/obligation event name
    clock: float  # the object's own clock at the event (0.0 if none)
    detail: str = ""  # stream id / slot key / live-set signature

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "cls": self.cls,
            "obj": self.obj,
            "event": self.event,
            "clock": repr(self.clock),
            "detail": self.detail,
        }


class ProtocolJournal:
    """Global, append-only event journal (one per process)."""

    def __init__(self) -> None:
        self._events: list[ProtocolEvent] = []
        self._labels: dict[int, str] = {}
        self._keep: list[object] = []  # pin ids against reuse
        self._counts: dict[str, int] = {}

    def reset(self) -> None:
        """Drop every event and label (test isolation)."""
        self._events.clear()
        self._labels.clear()
        self._keep.clear()
        self._counts.clear()

    # -- recording -----------------------------------------------------

    def label_of(self, obj: object) -> str:
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            cls = type(obj).__name__
            k = self._counts.get(cls, 0)
            self._counts[cls] = k + 1
            label = f"{cls}#{k}"
            self._labels[key] = label
            self._keep.append(obj)
        return label

    def record(
        self, obj: object, event: str, clock: float = 0.0, detail: str = ""
    ) -> None:
        if not sanitize_from_env():
            return
        self._events.append(
            ProtocolEvent(
                seq=len(self._events),
                cls=type(obj).__name__,
                obj=self.label_of(obj),
                event=event,
                clock=float(clock),
                detail=detail,
            )
        )

    # -- consumption ---------------------------------------------------

    def drain(self) -> list[ProtocolEvent]:
        """Return and clear the journal (labels survive for continuity)."""
        out, self._events = self._events, []
        return out

    def snapshot(self) -> list[ProtocolEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


#: The process-wide journal every instrumented class records into.
JOURNAL = ProtocolJournal()


def record(
    obj: object, event: str, clock: float = 0.0, detail: str = ""
) -> None:
    """Journal one lifecycle event on the global journal (cheap no-op
    unless sanitizing is enabled)."""
    JOURNAL.record(obj, event, clock, detail)


__all__ = ["JOURNAL", "ProtocolEvent", "ProtocolJournal", "record"]
