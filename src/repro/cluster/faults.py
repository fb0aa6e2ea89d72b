"""Node-level fault domains: whole-node dropout and graceful drain.

Device faults (PR 1) evict *devices* from a framework and rebalance the
frame distribution over the survivors. One level up, a node fault evicts
*sessions* from a node and re-routes the survivors over the surviving
nodes: every running session is torn off at the fault time (its encoded
frames stay recorded on the failed node), its **remaining** frames are
wrapped in a continuation :class:`~repro.service.session.StreamSpec` and
pushed back through the cluster's global dispatch queue, and the routing
policy places the continuation on a live node. Queued (never-admitted)
streams simply re-enter the global queue unchanged.

Fault granularity is the scheduling-round boundary: the fleet loop
applies a fault before stepping any node past its trigger time, so no
frame is ever half-encoded on a dead node — frame conservation across
the reroute (no loss, no duplication) is what
``tests/cluster/test_dispatcher.py::TestNodeFaults`` checks.

Two kinds:

``down``
    Unplanned whole-node dropout. The node stops routing and stepping
    permanently; sessions are evicted and re-routed.

``drain``
    Planned removal (operator action or the autoscaler scaling in).
    Mechanically identical — stop accepting, evict, re-route — but
    accounted as a graceful drain, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Node-fault kinds.
NODE_DOWN, NODE_DRAIN = "down", "drain"


@dataclass(frozen=True)
class NodeFaultEvent:
    """One scheduled whole-node fault."""

    node_id: str
    at_s: float
    kind: str = NODE_DOWN

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.kind not in (NODE_DOWN, NODE_DRAIN):
            raise ValueError(
                f"kind must be {NODE_DOWN!r} or {NODE_DRAIN!r}, got {self.kind!r}"
            )


class NodeFaultSchedule:
    """Time-ordered queue of scheduled node faults."""

    def __init__(self, events: list[NodeFaultEvent] | None = None) -> None:
        self.events = sorted(
            events or [], key=lambda e: (e.at_s, e.node_id, e.kind)
        )
        self._next = 0

    @property
    def empty(self) -> bool:
        return not self.events

    def node_ids(self) -> set[str]:
        return {e.node_id for e in self.events}

    def next_at_s(self) -> float | None:
        """Trigger time of the next unapplied fault (None when exhausted)."""
        if self._next >= len(self.events):
            return None
        return self.events[self._next].at_s

    def pop_due(self, t: float, eps: float = 1e-12) -> list[NodeFaultEvent]:
        """Consume every fault with ``at_s <= t`` (in schedule order)."""
        due: list[NodeFaultEvent] = []
        while self._next < len(self.events) and (
            self.events[self._next].at_s <= t + eps
        ):
            due.append(self.events[self._next])
            self._next += 1
        return due


def parse_node_fault_spec(text: str) -> NodeFaultEvent:
    """Validate one ``--node-fault NODE@T[:KIND]`` token eagerly.

    Mirrors the device fault-spec validation: every malformed field —
    missing separator, empty node id, non-numeric time, unknown kind —
    raises a ``ValueError`` naming the offending token, so the CLI can
    exit with a message instead of a traceback.
    """

    def bad(why: str) -> ValueError:
        return ValueError(
            f"bad --node-fault spec {text!r}: {why} (expected NODE@T[:down|drain])"
        )

    node_id, at, rest = text.partition("@")
    if not at:
        raise bad("missing '@'")
    if not node_id:
        raise bad("empty node id")
    t_text, colon, kind = rest.partition(":")
    if not colon:
        kind = NODE_DOWN
    elif kind not in (NODE_DOWN, NODE_DRAIN):
        raise bad(f"unknown kind {kind!r}")
    try:
        t = float(t_text)
    except ValueError:
        raise bad(f"non-numeric time {t_text!r}") from None
    try:
        return NodeFaultEvent(node_id=node_id, at_s=t, kind=kind)
    except ValueError as exc:
        raise bad(str(exc)) from None


def parse_node_fault_specs(texts: list[str]) -> NodeFaultSchedule:
    """Parse all ``--node-fault`` tokens into a schedule."""
    return NodeFaultSchedule([parse_node_fault_spec(t) for t in texts])


__all__ = [
    "NODE_DOWN",
    "NODE_DRAIN",
    "NodeFaultEvent",
    "NodeFaultSchedule",
    "parse_node_fault_spec",
    "parse_node_fault_specs",
]
