"""SAN-G: replay runtime protocol journals against the declarative specs.

The monitor compiles each :class:`~repro.sanitizers.protocols.spec.
ProtocolSpec` into a per-object replay checker and walks one journal
(the lifecycle events of a :class:`~repro.util.journal.Event` stream;
spans carry host wall time and are skipped) in sequence order. Two rules:

SAN-G1
    An event illegal in the object's current protocol state (a
    transition fired outside its source states, an observer called in a
    forbidden state), or the object's own clock running backwards
    between events.
SAN-G2
    An unmet obligation: a trigger event never discharged
    (``until-discharged``: a dequeued/parked stream with no
    disposition), a trigger whose detail changed without a discharge in
    between (``on-change``: a solve over a changed live set with no
    invalidation), or a ``require_terminal`` object (pool, segment
    store) that never reached a terminal state by teardown.

Continuity across partial journals: an object whose first visible event
is not ``create`` predates this journal window (e.g. a fixture-scoped
service observed mid-life), so the monitor *adopts* a consistent state
from that first event instead of flagging it — only objects whose birth
was journaled are checked from their initial state, and only they are
held to ``require_terminal``.
"""

from __future__ import annotations

from repro.util.journal import JOURNAL, OBJECT_CLOCK, Event
from repro.sanitizers.protocols.spec import (
    CLASS_SPECS,
    ON_CHANGE,
    ProtocolSpec,
)
from repro.sanitizers.violations import SanitizerReport

#: Event journaled by instrumented constructors.
CREATE = "create"


class _ObjectMonitor:
    """Replay state of one journaled object."""

    def __init__(self, spec: ProtocolSpec, label: str) -> None:
        self.spec = spec
        self.label = label
        self.state: str | None = None  # None until first event seen
        self.born = False              # create event was journaled
        self.clock: float | None = None
        # until-discharged: obligation name -> {detail: trigger event}
        self.pending: dict[str, dict[str, Event]] = {
            ob.name: {} for ob in spec.obligations
        }
        # on-change: obligation name -> (last detail, discharged since)
        self.last_trigger: dict[str, tuple[str, bool]] = {}

    # ------------------------------------------------------------------

    def _check_clock(self, ev: Event, report: SanitizerReport) -> None:
        if self.clock is not None and ev.clock < self.clock - 1e-12:
            report.add(
                "SAN-G1",
                f"clock ran backwards: {ev.event!r} at {ev.clock:g} after "
                f"an event at {self.clock:g}",
                where=self.label,
            )
        self.clock = max(self.clock, ev.clock) if self.clock is not None else ev.clock

    def _apply_state(self, ev: Event, report: SanitizerReport) -> None:
        spec = self.spec
        if ev.event == CREATE:
            self.born = True
            self.state = spec.initial
            return
        if not spec.knows(ev.event):
            return  # obligation-only / foreign events carry no state
        if self.state is None:
            # Mid-life adoption: infer the most permissive consistent
            # state; never flag the first event of an unborn object.
            allowed = spec.allowed_sources(ev.event)
            start = next(
                (s for s in spec.states if s in allowed), spec.initial
            )
            self.state = spec.step(start, ev.event) or start
            return
        nxt = spec.step(self.state, ev.event)
        if nxt is None:
            allowed = sorted(spec.allowed_sources(ev.event))
            report.add(
                "SAN-G1",
                f"{ev.event}() in state {self.state!r} violates protocol "
                f"{spec.name!r} (legal from: {', '.join(allowed) or '-'})",
                where=self.label,
            )
            return  # keep the pre-violation state to avoid cascades
        self.state = nxt

    def _apply_obligations(
        self, ev: Event, report: SanitizerReport
    ) -> None:
        for ob in self.spec.obligations:
            if ob.kind == ON_CHANGE:
                if ev.event in ob.discharge:
                    last = self.last_trigger.get(ob.name)
                    if last is not None:
                        self.last_trigger[ob.name] = (last[0], True)
                elif ev.event == ob.trigger:
                    last = self.last_trigger.get(ob.name)
                    if (
                        last is not None
                        and last[0] != ev.detail
                        and not last[1]
                    ):
                        report.add(
                            "SAN-G2",
                            f"obligation {ob.name!r} unmet: "
                            f"{ob.trigger}({ev.detail!r}) after "
                            f"{ob.trigger}({last[0]!r}) with no "
                            f"{'/'.join(ob.discharge)} in between",
                            where=self.label,
                        )
                    self.last_trigger[ob.name] = (ev.detail, False)
            else:  # until-discharged
                if ev.event == ob.trigger:
                    self.pending[ob.name][ev.detail] = ev
                elif ev.event in ob.discharge:
                    self.pending[ob.name].pop(ev.detail, None)

    def observe(self, ev: Event, report: SanitizerReport) -> None:
        self._check_clock(ev, report)
        self._apply_state(ev, report)
        self._apply_obligations(ev, report)

    def finish(self, report: SanitizerReport) -> None:
        for ob in self.spec.obligations:
            for detail, ev in self.pending.get(ob.name, {}).items():
                report.add(
                    "SAN-G2",
                    f"obligation {ob.name!r} unmet: {ob.trigger}"
                    f"({detail!r}) at clock {ev.clock:g} never reached "
                    f"{'/'.join(ob.discharge)}",
                    where=self.label,
                )
        if (
            self.spec.require_terminal
            and self.born
            and self.state not in self.spec.terminal
        ):
            report.add(
                "SAN-G2",
                f"never shut down: still in state {self.state!r} at "
                f"teardown (protocol {self.spec.name!r} requires one of: "
                f"{', '.join(self.spec.terminal)})",
                where=self.label,
            )


def check_events(events: list[Event]) -> SanitizerReport:
    """Replay the lifecycle events of one journal; returns the SAN-G report."""
    report = SanitizerReport()
    monitors: dict[str, _ObjectMonitor] = {}
    for ev in sorted(events, key=lambda e: e.seq):
        spec = CLASS_SPECS.get(ev.cls)
        if spec is None or ev.domain != OBJECT_CLOCK:
            continue
        mon = monitors.get(ev.obj)
        if mon is None:
            mon = monitors[ev.obj] = _ObjectMonitor(spec, ev.obj)
        mon.observe(ev, report)
    for label in sorted(monitors):
        monitors[label].finish(report)
    return report


def check_protocols(events: list[Event] | None = None) -> SanitizerReport:
    """SAN-G on ``events``, or on the global journal, which it drains."""
    return check_events(JOURNAL.drain() if events is None else events)


__all__ = ["CREATE", "check_events", "check_protocols"]
