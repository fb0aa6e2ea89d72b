"""Declarative protocol specs: what SAN-G replays the journal against.

A :class:`ProtocolSpec` is a small state machine over one tracked class:
named states, transition methods (``method: sources -> target``),
observer methods legal only in some states, terminal states, and
paired-op :class:`Obligation`\\ s (a trigger event that must be matched
by a discharge event). The spec compiles once, into the SAN-G replay
monitor (:mod:`repro.sanitizers.protocols.monitor`), which walks the
lifecycle events the tracked classes journal at run time. Every
transition, observer and obligation event of a shipped spec is journaled
somewhere in ``src/``, and every event a tracked class journals is in
its spec's alphabet or is ``create`` (``tests/sanitizers/
test_protocols.py::TestSpecJournalCensus``): a method nothing journals
would be a rule that never runs, an event outside the alphabet one the
monitor silently treats as neutral.

Specs validate eagerly at construction (so a malformed spec fails at
import, not mid-replay) with named-token errors: ``unknown state``,
``duplicate transition``, ``unreachable terminal``.

This module has no imports of its own on purpose: the replay monitor
imports it, and it needs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ProtocolSpecError(ValueError):
    """A malformed protocol spec (raised at spec construction/import)."""


@dataclass(frozen=True)
class Transition:
    """``method`` moves the object from any of ``sources`` to ``target``."""

    method: str
    sources: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class Observer:
    """``method`` is legal only while the object is in ``states``."""

    method: str
    states: tuple[str, ...]


#: Obligation kinds. ``until-discharged``: every trigger event must be
#: followed by a discharge event with the same detail before the journal
#: ends. ``on-change``: two trigger events whose details differ must
#: have a discharge event between them (the invalidation-before-solve
#: shape: consecutive solves over different live sets need a cache drop
#: in between).
UNTIL_DISCHARGED, ON_CHANGE = "until-discharged", "on-change"


@dataclass(frozen=True)
class Obligation:
    """A paired-op contract between a trigger and its discharge events."""

    name: str
    trigger: str
    discharge: tuple[str, ...]
    kind: str = UNTIL_DISCHARGED

    def __post_init__(self) -> None:
        if self.kind not in (UNTIL_DISCHARGED, ON_CHANGE):
            raise ProtocolSpecError(
                f"obligation {self.name!r}: unknown kind {self.kind!r}"
            )
        if not self.discharge:
            raise ProtocolSpecError(
                f"obligation {self.name!r}: empty discharge set"
            )


@dataclass(frozen=True)
class ProtocolSpec:
    """One tracked class's protocol (see module docstring)."""

    name: str
    classes: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    terminal: tuple[str, ...] = ()
    observers: tuple[Observer, ...] = ()
    obligations: tuple[Obligation, ...] = ()
    #: Must every journaled instance reach a terminal state by teardown?
    #: (Leaked pools/segment stores; meaningless for e.g. sessions that
    #: may legitimately idle in the admission queue at end of run.)
    require_terminal: bool = False
    #: method -> transitions carrying it (derived, validation side effect)
    by_method: dict[str, tuple[Transition, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    observer_states: dict[str, tuple[str, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        known = set(self.states)
        if len(known) != len(self.states):
            raise ProtocolSpecError(f"spec {self.name!r}: duplicate state")

        def need(state: str, where: str) -> None:
            if state not in known:
                raise ProtocolSpecError(
                    f"spec {self.name!r}: unknown state {state!r} in {where}"
                )

        need(self.initial, "initial")
        for t in self.terminal:
            need(t, "terminal")
        seen: set[tuple[str, str]] = set()
        by_method: dict[str, list[Transition]] = {}
        for tr in self.transitions:
            need(tr.target, f"transition {tr.method!r}")
            for src in tr.sources:
                need(src, f"transition {tr.method!r}")
                if (tr.method, src) in seen:
                    raise ProtocolSpecError(
                        f"spec {self.name!r}: duplicate transition "
                        f"{tr.method!r} from state {src!r}"
                    )
                seen.add((tr.method, src))
            by_method.setdefault(tr.method, []).append(tr)
        for ob in self.observers:
            if ob.method in by_method:
                raise ProtocolSpecError(
                    f"spec {self.name!r}: {ob.method!r} is both a "
                    "transition and an observer"
                )
            for st in ob.states:
                need(st, f"observer {ob.method!r}")

        # Terminal states must be reachable from the initial state.
        reach = {self.initial}
        grew = True
        while grew:
            grew = False
            for tr in self.transitions:
                if tr.target not in reach and any(
                    s in reach for s in tr.sources
                ):
                    reach.add(tr.target)
                    grew = True
        for t in self.terminal:
            if t not in reach:
                raise ProtocolSpecError(
                    f"spec {self.name!r}: unreachable terminal state {t!r}"
                )
        if self.require_terminal and not self.terminal:
            raise ProtocolSpecError(
                f"spec {self.name!r}: require_terminal without a "
                "terminal state"
            )

        self.by_method.update(
            {m: tuple(ts) for m, ts in sorted(by_method.items())}
        )
        self.observer_states.update(
            {ob.method: ob.states for ob in self.observers}
        )

    # ------------------------------------------------------------------

    def allowed_sources(self, method: str) -> frozenset[str]:
        """States from which calling ``method`` is legal."""
        if method in self.by_method:
            return frozenset(
                s for tr in self.by_method[method] for s in tr.sources
            )
        return frozenset(self.observer_states.get(method, ()))

    def step(self, state: str, method: str) -> str | None:
        """Next state after ``method`` from ``state``; None if illegal."""
        if method in self.by_method:
            for tr in self.by_method[method]:
                if state in tr.sources:
                    return tr.target
            return None  # known transition, no legal source: illegal
        if method in self.observer_states:
            return state if state in self.observer_states[method] else None
        return state  # methods outside the spec's alphabet are neutral

    def knows(self, method: str) -> bool:
        return method in self.by_method or method in self.observer_states


# ---------------------------------------------------------------------------
# The shipped specs: every lifecycle-bearing class of the runtime stack.

SPECS: tuple[ProtocolSpec, ...] = (
    # The shared-segment owner: create -> use -> close exactly once; any
    # access after close is a use-after-free on real shared memory.
    ProtocolSpec(
        name="shared-frame-store",
        classes=("SharedFrameStore",),
        states=("open", "closed"),
        initial="open",
        transitions=(Transition("close", ("open", "closed"), "closed"),),
        terminal=("closed",),
        observers=(Observer("view", ("open",)),),
        require_terminal=True,
    ),
    # The worker pool: submissions only between construction and close.
    ProtocolSpec(
        name="kernel-pool",
        classes=("KernelPool",),
        states=("open", "closed"),
        initial="open",
        transitions=(Transition("close", ("open", "closed"), "closed"),),
        terminal=("closed",),
        observers=(
            Observer("submit_me", ("open",)),
            Observer("submit_int", ("open",)),
            Observer("submit_sme", ("open",)),
        ),
        require_terminal=True,
    ),
    # One stream's service-level lifecycle (queued -> running -> done,
    # with reject and fleet-level evict exits).
    ProtocolSpec(
        name="encoding-session",
        classes=("EncodingSession",),
        states=("queued", "running", "done", "rejected", "evicted"),
        initial="queued",
        transitions=(
            Transition("admit", ("queued",), "running"),
            Transition("reject", ("queued",), "rejected"),
            Transition("step", ("running",), "running"),
            Transition("finish", ("running",), "done"),
            Transition("evict", ("running",), "evicted"),
        ),
        terminal=("done", "rejected", "evicted"),
    ),
    # One fleet node: stepping or offering to a retired node is silent
    # state corruption (nothing guards it at runtime).
    ProtocolSpec(
        name="node",
        classes=("Node",),
        states=("up", "retired"),
        initial="up",
        transitions=(
            Transition("offer", ("up",), "up"),
            Transition("step", ("up",), "up"),
            Transition("evict_all", ("up",), "up"),
            Transition("retire", ("up",), "retired"),
        ),
        terminal=("retired",),
    ),
    # The global dispatch queue: conservation obligations, not states.
    # Every dequeue must reach a disposition, and every parked stream
    # must eventually be placed, rejected, or explicitly stranded — the
    # PR-7 stranded-parked-streams bug class.
    ProtocolSpec(
        name="dispatcher-queue",
        classes=("Dispatcher",),
        states=("open",),
        initial="open",
        obligations=(
            Obligation(
                name="dequeue-disposition",
                trigger="dequeue",
                discharge=("place", "park", "reject"),
            ),
            Obligation(
                name="parked-disposition",
                trigger="park",
                discharge=("place", "reject", "strand"),
            ),
        ),
    ),
    # The balancer's decision cache: consecutive solves over *different*
    # live sets must have an invalidation between them — the PR-6
    # stale-decision-cache bug class.
    ProtocolSpec(
        name="balancer-cache",
        classes=("LoadBalancer",),
        states=("ready",),
        initial="ready",
        obligations=(
            Obligation(
                name="invalidate-before-solve",
                trigger="solve",
                discharge=("invalidate",),
                kind=ON_CHANGE,
            ),
        ),
    ),
)

SPEC_BY_NAME: dict[str, ProtocolSpec] = {s.name: s for s in SPECS}

#: Tracked class name -> its spec (what the monitor keys on).
CLASS_SPECS: dict[str, ProtocolSpec] = {
    cls: s for s in SPECS for cls in s.classes
}


__all__ = [
    "CLASS_SPECS",
    "ON_CHANGE",
    "SPECS",
    "SPEC_BY_NAME",
    "UNTIL_DISCHARGED",
    "Obligation",
    "Observer",
    "ProtocolSpec",
    "ProtocolSpecError",
    "Transition",
]
