"""The runtime event journal: lifecycle events and host phase time.

- :func:`sanitize_from_env` is the one predicate over ``$REPRO_SANITIZE``;
  nothing else in ``src/`` reads the variable and nothing takes a
  ``sanitize`` argument. The journal asks it on every plain ``reset()``,
  the CLI when a command ends (to run its sanitizer pass or not);
  ``repro … --sanitize`` sets the variable for one command.
- :attr:`Journal.on` is the journal's one switch, set by
  :meth:`Journal.reset`: from the predicate at import and on every plain
  ``reset()``, or explicitly (``repro profile``). No record reads the
  environment: off, :func:`record` and :func:`span` are one attribute
  test each, with no allocation.
- :class:`Event` is the one record type. A *lifecycle event*
  (:func:`record`) is an instant on the object's own clock, replayed by
  ``repro.sanitizers.check_protocols`` against the protocol specs
  (SAN-G). A *span* (``with span(self, "lp_solve"):``) is an interval of
  host ``time.perf_counter`` time spent in one named phase, tabulated by
  ``repro profile``. The runtime journals, the analysis package checks:
  imports point from there to here, never back.
- Standard-library imports only: it sits below every runtime layer, so
  ``core/`` imports it at module level without a cycle.
- Labels are assigned in first-recorded order (``Node#0``, ``Node#1`` …)
  and sequence numbers are dense, so the lifecycle events of a
  deterministic run are byte-identical across ``PYTHONHASHSEED``; spans
  carry wall times. Labeled objects are pinned so ``id()`` reuse can
  never alias two of them.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass

#: The one switch for the runtime checks (SAN-E1, SAN-G).
SANITIZE_ENV = "REPRO_SANITIZE"

#: :attr:`Event.domain` of a lifecycle instant and of a span.
OBJECT_CLOCK, HOST_CLOCK = "object", "host"


def sanitize_from_env() -> bool:
    """Is runtime sanitizing requested via ``$REPRO_SANITIZE``?

    Unset, empty, ``0`` and ``off`` mean no; any other value (``1``,
    ``strict``, ``on``, …) means yes. Every layer that honours the
    variable asks here, so no spelling can switch on only some of them.
    """
    return os.environ.get(SANITIZE_ENV, "").lower() not in ("", "0", "off")


@dataclass(frozen=True)
class Event:
    """One journaled event: a lifecycle instant or a host phase span."""

    seq: int
    cls: str      # recording class name ("Node", "LoadBalancer", ...)
    obj: str      # stable per-run label ("Node#0", ...)
    event: str    # lifecycle event or phase name
    clock: float  # the instant, or the span's start (0.0 if no clock)
    detail: str = ""  # stream id / slot key / live-set signature
    end: float | None = None     # a span's end; None for an instant
    domain: str = OBJECT_CLOCK   # the clock ``clock`` and ``end`` are on


class Journal:
    """Global, append-only event journal (one per process)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self, on: bool | None = None) -> None:
        """Drop every event and label and set the switch: to ``on`` if
        given, else to :func:`sanitize_from_env`."""
        self._events: list[Event] = []
        self._labels: dict[int, str] = {}
        self._keep: list[object] = []  # pin ids against reuse
        self._counts: dict[str, int] = {}
        self.on = sanitize_from_env() if on is None else on

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

    def _append(
        self, obj: object, event: str, clock: float, detail: str,
        end: float | None = None, domain: str = OBJECT_CLOCK,
    ) -> None:
        self._events.append(Event(
            len(self._events), type(obj).__name__, self.label_of(obj),
            event, float(clock), detail, end, domain,
        ))

    def drain(self) -> list[Event]:
        """Return and clear the journal (labels survive for continuity)."""
        out, self._events = self._events, []
        return out

    def snapshot(self) -> list[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


#: The process-wide journal every instrumented class records into.
JOURNAL = Journal()

_OFF = nullcontext()


def record(
    obj: object, event: str, clock: float = 0.0, detail: str | frozenset[str] = ""
) -> None:
    """Journal one lifecycle event of ``obj`` at its own ``clock``; a set
    ``detail`` becomes its sorted, comma-joined members (only while on)."""
    if JOURNAL.on:
        if not isinstance(detail, str):
            detail = ",".join(sorted(detail))
        JOURNAL._append(obj, event, clock, detail)


def span(obj: object, phase: str) -> AbstractContextManager[None]:
    """``with span(self, "lp_solve"):`` journals the block's host wall
    time as one span of ``obj`` (a shared null context while off)."""
    return _timed(obj, phase) if JOURNAL.on else _OFF


@contextmanager
def _timed(obj: object, phase: str) -> Iterator[None]:
    t0 = time.perf_counter()
    try:
        yield
    finally:
        JOURNAL._append(obj, phase, t0, "", time.perf_counter(), HOST_CLOCK)


__all__ = ["JOURNAL", "Event", "Journal", "record", "span"]
