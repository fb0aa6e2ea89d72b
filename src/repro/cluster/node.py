"""One fleet node: an :class:`EncodingService` over a platform preset.

A node is the unit of placement and of failure in the cluster layer. It
wraps one complete multi-stream :class:`~repro.service.service.EncodingService`
(its own admission controller, co-scheduler, sessions and simulated
clock) built on a platform preset — mixed fleets are just nodes over
different presets (SysHK-class fast nodes next to SysNF-class slow ones).

The node exposes exactly the service's stepping primitives to the
cluster driver: the dispatcher offers streams through
:meth:`Node.offer`, the fleet loop advances the node one scheduling
round at a time through :meth:`Node.step`, and the fault machinery empties
it through :meth:`Node.evict_all`. Because a node's rounds run on the
service's own code path, a single-node fleet is bit-identical to
``repro serve`` on the same workload (see DESIGN.md → Cluster layer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.admission import ADMITTED, QUEUED, REJECTED
from repro.service.scheduler import RoundLPBatch
from repro.service.service import EncodingService, ServiceConfig
from repro.service.session import RUNNING
from repro.service.session import QUEUED as SESSION_QUEUED
from repro.service.session import EncodingSession, StreamSpec
from repro.util.journal import record as _journal

#: Node lifecycle states.
UP, DOWN, DRAINED = "up", "down", "drained"

#: Session state stamped on sessions a node fault/drain tore away from
#: their node (distinct from the service-level queued/running/done).
EVICTED = "evicted"


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one fleet node."""

    node_id: str
    platform: str = "SysHK"
    headroom: float = 1.0
    max_queue: int = 8

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")


class Node:
    """Runtime state of one fleet node."""

    def __init__(
        self,
        spec: NodeSpec,
        lp_batch: RoundLPBatch | None = None,
        start_s: float = 0.0,
        index: int = 0,
    ) -> None:
        self.spec = spec
        self.index = index
        self.service = EncodingService(
            ServiceConfig(
                platform=spec.platform,
                headroom=spec.headroom,
                max_queue=spec.max_queue,
            ),
            lp_batch=lp_batch,
        )
        # A node added by the autoscaler mid-run starts on the fleet clock.
        self.service.now = max(self.service.now, start_s)
        self.state = UP
        _journal(self, "create", start_s, detail=spec.node_id)
        self.joined_s = start_s
        self.retired_s: float | None = None

    # ------------------------------------------------------------------

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def platform(self) -> str:
        return self.spec.platform

    @property
    def now(self) -> float:
        return self.service.now

    @property
    def accepting(self) -> bool:
        """Routable: up, not draining or gone."""
        return self.state == UP

    @property
    def n_running(self) -> int:
        return len(self.service.admission.running)

    @property
    def n_queued(self) -> int:
        return len(self.service.admission.queue)

    @property
    def idle(self) -> bool:
        return self.n_running == 0 and self.n_queued == 0

    def _live(self) -> frozenset[str]:
        """Devices live in the round this node would run next."""
        return self.service.live_devices(self.service.rounds + 1)

    def committed_fraction(self) -> float:
        """Platform fraction promised to this node's running sessions."""
        return self.service.admission.committed_fraction(self._live())

    def load(self) -> float:
        """Committed fraction normalized by the admission headroom."""
        return self.committed_fraction() / self.spec.headroom

    def demand_fraction(self, spec: StreamSpec) -> float:
        """Model-estimated fraction of *this node* the stream needs."""
        return self.service.capacity.demand_fraction(spec, self._live())

    def fps_capacity(self, spec: StreamSpec) -> float:
        """Sustainable fps for streams of this shape on this node."""
        return self.service.capacity.fps_capacity(
            spec.codec_config(), spec.num_ref_frames, self._live()
        )

    # ------------------------------------------------------------------

    def has_room(self, spec: StreamSpec) -> bool:
        """Would an offer land (admit or queue) rather than reject?"""
        return self.service.admission.has_room(spec, self._live())

    def offer(self, spec: StreamSpec, now: float) -> tuple[EncodingSession, str]:
        """Submit a routed stream to this node's admission controller.

        The node's clock is pulled forward to the dispatch time first (a
        node that idled in the past admits on the fleet clock, exactly as
        the standalone service admits on its own clock after an idle
        jump); clocks never move backwards.
        """
        svc = self.service
        svc.now = max(svc.now, now)
        _journal(self, "offer", svc.now, detail=spec.stream_id)
        session = svc.submit(spec, self._live())
        if session.state == RUNNING:
            return session, ADMITTED
        if session.state == SESSION_QUEUED:
            return session, QUEUED
        return session, REJECTED

    # ------------------------------------------------------------------

    def next_action_s(self) -> float | None:
        """Earliest simulated time this node can make progress, or None.

        ``now`` while any running session has a captured frame waiting or
        the admission queue is non-empty (draining can admit or the
        liveness backstop fires); otherwise the earliest next frame
        capture among running sessions; ``None`` for a fully idle node.
        """
        svc = self.service
        if self.state in (DOWN, DRAINED):
            return None
        for s in svc.admission.running:
            if s.has_pending(svc.now):
                return svc.now
        if svc.admission.queue:
            return svc.now
        events = [
            s.next_capture_s() for s in svc.admission.running if not s.done
        ]
        return min(events) if events else None

    def step(self, next_arrival_s: float | None = None) -> str:
        """Advance the node one service round (see ``EncodingService``)."""
        _journal(self, "step", self.service.now, detail=self.node_id)
        live = self.service.begin_round()
        return self.service.step_round(live, next_arrival_s)

    # ------------------------------------------------------------------

    def evict_all(self, now: float) -> tuple[list[EncodingSession], list[EncodingSession]]:
        """Tear every session off this node (fault or drain at ``now``).

        Running sessions keep their frame records (encoded frames stay
        counted on this node; ``Segment.offset`` numbers them in the
        stream) and are stamped ``EVICTED``; queued sessions never ran here, so they are
        removed from the node's session list entirely and only their
        specs travel back to the global queue. Returns
        ``(evicted_running, removed_queued)``.
        """
        svc = self.service
        svc.now = max(svc.now, now)
        _journal(self, "evict_all", svc.now, detail=self.node_id)
        running, queued = svc.admission.evict_all()
        for s in running:
            s.state = EVICTED
            _journal(s, "evict", svc.now, detail=s.stream_id)
        for s in queued:
            svc.sessions.remove(s)
        return running, queued

    def retire(self, now: float, state: str) -> None:
        if state not in (DOWN, DRAINED):
            raise ValueError(f"retire state must be down/drained, got {state!r}")
        self.state = state
        self.retired_s = now
        _journal(self, "retire", max(now, self.service.now), detail=self.node_id)
        # Sessions torn off mid-stream never reach their own close().
        self.service.close()


__all__ = [
    "DOWN",
    "DRAINED",
    "EVICTED",
    "Node",
    "NodeSpec",
    "UP",
]
