"""Cluster dispatch tier: global work queue, stream placement, fleet loop.

The dispatch tier sits one level above the per-node
:class:`~repro.service.service.EncodingService` stack and mirrors its
shape at fleet scale:

- arriving streams enter a **bounded global work queue** (backpressure:
  overflow rejects, exactly like the per-node admission queue one level
  down);
- a pluggable :class:`~repro.cluster.routing.RoutingPolicy` places the
  queue head on a node, whose own admission controller then admits or
  parks it — two queue tiers, global then per-node;
- **node faults** (whole-node dropout or drain) evict every session from
  the node; survivors' remaining frames re-enter the global queue as
  continuation streams and are re-routed — the PR-1 device-eviction
  machinery lifted one level up;
- a reactive :class:`~repro.cluster.autoscale.Autoscaler` adds or drains
  nodes on sustained queue depth or realtime-p99 breach.

The fleet loop (:meth:`Cluster.run`) advances simulated time strictly in
event order: at each iteration the earliest of (next arrival, next node
fault, earliest node able to act) wins; arrivals due by that time are
dispatched first, then the earliest actionable node runs exactly one
scheduling round on its own service clock. Because per-node rounds run
on the service's unmodified code path and a single-node fleet degenerates
to "deliver arrivals, then step the node" — the exact ``repro serve``
loop — a one-node cluster is bit-identical to the standalone service
(regression-tested; see DESIGN.md → Cluster layer).

Determinism: nodes are scanned in stable insertion order, the global
queue is FIFO, routing tie-breaks on node index, and nothing iterates a
``set``/``dict`` whose order could leak — fleet runs are bit-identical
across ``PYTHONHASHSEED`` and node-insertion shuffles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cluster.autoscale import (
    SCALE_DOWN,
    SCALE_UP,
    AutoscaleConfig,
    Autoscaler,
    ScaleEvent,
)
from repro.cluster.faults import (
    NODE_DOWN,
    NodeFaultEvent,
    NodeFaultSchedule,
)
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import DOWN, DRAINED, UP, Node, NodeSpec
from repro.cluster.routing import RoutingPolicy, get_policy
from repro.hw.trace_export import export_stream_traces
from repro.service.admission import REJECTED
from repro.service.scheduler import RoundLPBatch
from repro.service.service import stream_traces
from repro.service.session import EncodingSession, StreamSpec
from repro.util.journal import record as _journal

#: Safety valve against a runaway fleet loop.
MAX_TICKS = 1_000_000

#: Cluster-level stream states (:attr:`StreamState.state`).
S_QUEUED, S_PLACED, S_REJECTED, S_STRANDED = (
    "queued", "placed", "rejected", "stranded",
)


@dataclass
class Segment:
    """One placement of a stream on one node.

    ``offset`` is the number of frames the stream had already encoded on
    *earlier* nodes when this segment was routed: frame ``k`` of the
    segment's session is global frame ``offset + k`` of the stream, and a
    rerouted stream's frames are numbered 1..n across its segments.
    ``t_routed``/``t_evicted`` are audited by SAN-E1
    (:func:`repro.sanitizers.check_cluster`): one owner at a time.
    """

    node_id: str
    session: EncodingSession
    offset: int
    t_routed: float
    t_evicted: float | None = None
    frames_seen: int = 0  # autoscaler feed watermark


@dataclass
class StreamState:
    """Cluster-level lifecycle of one submitted stream."""

    spec: StreamSpec                  # original submission
    pending_spec: StreamSpec          # what the next placement will run
    state: str = S_QUEUED
    segments: list[Segment] = field(default_factory=list)
    reroutes: int = 0
    enqueued_s: float | None = None   # entered the global queue at
    queue_wait_s: float = 0.0         # cumulative global-queue wait

    @property
    def stream_id(self) -> str:
        return self.spec.stream_id

    @property
    def frames_done(self) -> int:
        return sum(len(seg.session.records) for seg in self.segments)

    @property
    def frames_remaining(self) -> int:
        return self.spec.n_frames - self.frames_done

    @property
    def done(self) -> bool:
        return self.frames_done >= self.spec.n_frames

    def continuation(self, at_s: float) -> StreamSpec:
        """Spec for the remaining frames, arriving at the eviction time."""
        return replace(
            self.spec, n_frames=self.frames_remaining, arrival_s=at_s
        )


@dataclass
class ClusterConfig:
    """Fleet-level tunables.

    ``nodes`` is the operator's baseline fleet; the autoscaler may add
    more (it only ever drains its own additions). ``global_queue`` bounds
    the dispatch queue for *new arrivals* — evicted survivors being
    re-routed are never dropped, they may transiently overflow it.
    """

    nodes: tuple[NodeSpec, ...] = ()
    policy: str = "least-loaded"
    global_queue: int = 64
    node_faults: NodeFaultSchedule = field(default_factory=NodeFaultSchedule)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in fleet: {ids}")
        if self.global_queue < 0:
            raise ValueError(
                f"global_queue must be >= 0, got {self.global_queue}"
            )


class Dispatcher:
    """Bounded global work queue + routing-policy placement."""

    def __init__(
        self, cluster: "Cluster", policy: RoutingPolicy, global_queue: int
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.global_queue = global_queue
        self.queue: deque[StreamState] = deque()
        self.streams: dict[str, StreamState] = {}   # insertion-ordered
        self.counts = {"placed": 0, "parked": 0, "rejected": 0, "rerouted": 0}
        # Event-time high-water for the lifecycle journal: dispatch
        # times arrive monotone, but end-of-run stranding must never
        # journal behind the last dispatch.
        self.now = 0.0

    # ------------------------------------------------------------------

    def _place(self, st: StreamState, node: Node, t: float) -> str:
        """Offer a stream's pending spec to a node; book the segment."""
        self.now = max(self.now, t)
        session, outcome = node.offer(st.pending_spec, t)
        if outcome == REJECTED:
            st.state = S_REJECTED
            self.counts["rejected"] += 1
            _journal(self, "reject", self.now, detail=st.stream_id)
            return outcome
        st.segments.append(
            Segment(
                node_id=node.node_id,
                session=session,
                offset=st.frames_done,
                t_routed=t,
            )
        )
        st.state = S_PLACED
        self.counts["placed"] += 1
        _journal(self, "place", self.now, detail=st.stream_id)
        return outcome

    def submit(self, spec: StreamSpec, t: float) -> StreamState:
        """A brand-new stream arrives at the cluster at time ``t``."""
        if spec.stream_id in self.streams:
            raise ValueError(f"duplicate stream id {spec.stream_id!r}")
        st = StreamState(spec=spec, pending_spec=spec)
        self.streams[spec.stream_id] = st
        nodes = self.cluster.live_nodes()
        # Direct placement only when nobody is waiting — mirrors the
        # per-node admission rule, so a small newcomer cannot overtake
        # a queued stream and starve it.
        if not self.queue:
            node = self.policy.choose(nodes, spec, t)
            if node is not None and node.has_room(spec):
                self._place(st, node, t)
                return st
        if len(self.queue) < self.global_queue:
            st.enqueued_s = t
            self.queue.append(st)
            self.counts["parked"] += 1
            self.now = max(self.now, t)
            _journal(self, "park", self.now, detail=st.stream_id)
            return st
        # Global overflow: hand it to the routed node anyway, whose
        # admission controller records the rejection (with no routable
        # node at all, reject at the cluster tier).
        node = self.policy.choose(nodes, spec, t)
        if node is None:
            st.state = S_REJECTED
            self.counts["rejected"] += 1
            self.now = max(self.now, t)
            _journal(self, "reject", self.now, detail=st.stream_id)
            return st
        self._place(st, node, t)
        return st

    def requeue(self, states: list[StreamState], t: float) -> None:
        """Evicted/displaced streams re-enter at the head of the queue.

        They were already being served, so they outrank parked
        newcomers; relative order is preserved. The global bound does not
        apply — survivors of a node fault are never dropped.
        """
        self.now = max(self.now, t)
        for st in reversed(states):
            st.state = S_QUEUED
            st.enqueued_s = t
            self.queue.appendleft(st)
            _journal(self, "park", self.now, detail=st.stream_id)

    def drain(self, t: float) -> int:
        """Place queued streams head-first; stop at the first blocked one.

        Strict FIFO like the per-node queue: a big stream at the head
        blocks those behind it rather than being starved forever.
        """
        placed = 0
        nodes = self.cluster.live_nodes()
        while self.queue:
            head = self.queue[0]
            node = self.policy.choose(nodes, head.pending_spec, t)
            if node is None or not node.has_room(head.pending_spec):
                break
            self.queue.popleft()
            self.now = max(self.now, t)
            _journal(self, "dequeue", self.now, detail=head.stream_id)
            if head.enqueued_s is not None:
                head.queue_wait_s += t - head.enqueued_s
                head.enqueued_s = None
            self._place(head, node, t)
            placed += 1
        return placed

    @property
    def depth(self) -> int:
        return len(self.queue)


class Cluster:
    """A fleet of heterogeneous nodes behind one dispatch tier."""

    def __init__(self, cfg: ClusterConfig) -> None:
        self.cfg = cfg
        self.policy = get_policy(cfg.policy)
        self._lp_batches: dict[str, RoundLPBatch] = {}
        self.nodes: list[Node] = []       # every node ever, stable order
        for spec in cfg.nodes:
            self._add_node(spec, start_s=0.0)
        self.n_baseline = len(self.nodes)
        self.dispatcher = Dispatcher(self, self.policy, cfg.global_queue)
        self.autoscaler = Autoscaler(cfg.autoscale)
        self.node_fault_log: list[NodeFaultEvent] = []
        self.ticks = 0
        self.reroutes = 0
        self.evicted_sessions = 0
        self.peak_concurrent = 0
        self._metrics: ClusterMetrics | None = None

    # ------------------------------------------------------------------

    def _add_node(self, spec: NodeSpec, start_s: float) -> Node:
        # Nodes of one platform class share one LP solve cache: its keys
        # are the full constraint bytes, so sharing cannot change a
        # result (DESIGN.md → Performance).
        node = Node(
            spec,
            lp_batch=self._lp_batches.setdefault(spec.platform, RoundLPBatch()),
            start_s=start_s,
            index=len(self.nodes),
        )
        self.nodes.append(node)
        return node

    def live_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.state == UP]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node {node_id!r} in fleet")

    # ------------------------------------------------------------------

    def _session_states(self) -> dict[int, StreamState]:
        """id(session) → owning StreamState, via the segment registry."""
        out: dict[int, StreamState] = {}
        for st in self.dispatcher.streams.values():
            for seg in st.segments:
                out[id(seg.session)] = st
        return out

    def _apply_node_fault(self, ev: NodeFaultEvent) -> None:
        """Whole-node dropout/drain: evict everything, requeue survivors."""
        try:
            node = self.node(ev.node_id)
        except KeyError:
            # A fault can name an autoscaled node that was never
            # provisioned in this run; record and skip.
            self.node_fault_log.append(ev)
            return
        if node.state != UP:
            self.node_fault_log.append(ev)
            return
        running, queued = node.evict_all(ev.at_s)
        node.retire(ev.at_s, DOWN if ev.kind == NODE_DOWN else DRAINED)
        self.node_fault_log.append(ev)
        self.evicted_sessions += len(running)

        by_session = self._session_states()
        survivors: list[StreamState] = []
        for session in running:           # admission order — deterministic
            st = by_session[id(session)]
            seg = st.segments[-1]
            assert seg.session is session
            seg.t_evicted = ev.at_s
            if st.done:
                continue                  # finished exactly at the boundary
            st.pending_spec = st.continuation(ev.at_s)
            st.reroutes += 1
            self.reroutes += 1
            self.dispatcher.counts["rerouted"] += 1
            survivors.append(st)
        displaced: list[StreamState] = []
        for session in queued:            # never ran here; spec unchanged
            st = by_session[id(session)]
            seg = st.segments.pop()       # placement never materialized
            assert seg.session is session and not session.records
            displaced.append(st)
        self.dispatcher.requeue(survivors + displaced, ev.at_s)

    # ------------------------------------------------------------------

    def _autoscale_tick(self, t: float) -> None:
        live = self.live_nodes()
        n_scaled = sum(1 for n in live if n.index >= self.n_baseline)
        headroom = sum(n.spec.headroom for n in live)
        committed = sum(n.committed_fraction() for n in live)
        load = committed / headroom if headroom > 0 else 0.0
        verdict, reason = self.autoscaler.tick(
            self.dispatcher.depth, len(live), n_scaled, load
        )
        if verdict == SCALE_UP:
            platform = self.autoscaler.next_platform()
            template = self.cfg.nodes[0]
            taken = {n.node_id for n in self.nodes}
            k = len(self.nodes)
            while f"n{k}" in taken:
                k += 1
            spec = NodeSpec(
                node_id=f"n{k}",
                platform=platform,
                headroom=template.headroom,
                max_queue=template.max_queue,
            )
            node = self._add_node(spec, start_s=t)
            self.autoscaler.events.append(ScaleEvent(
                at_s=t, action="add", node_id=node.node_id,
                platform=platform, reason=reason,
            ))
        elif verdict == SCALE_DOWN:
            scaled = [n for n in live if n.index >= self.n_baseline]
            # Quietest first; newest (highest index) breaks ties.
            victim = min(
                scaled, key=lambda n: (n.n_running + n.n_queued, -n.index)
            )
            self.autoscaler.events.append(ScaleEvent(
                at_s=t, action="drain", node_id=victim.node_id,
                platform=victim.platform, reason=reason,
            ))
            self._apply_node_fault(
                NodeFaultEvent(node_id=victim.node_id, at_s=t, kind="drain")
            )

    # ------------------------------------------------------------------

    def _after_step(self, node: Node) -> None:
        """Post-round bookkeeping: autoscaler latency feed, concurrency."""
        for st in self.dispatcher.streams.values():
            for seg in st.segments:
                if seg.node_id != node.node_id:
                    continue
                recs = seg.session.records
                for rec in recs[seg.frames_seen:]:
                    self.autoscaler.observe_frame(
                        seg.session.spec.deadline_class, rec.latency_s
                    )
                seg.frames_seen = len(recs)
        concurrent = sum(n.n_running for n in self.live_nodes())
        self.peak_concurrent = max(self.peak_concurrent, concurrent)

    def run(self, workload: list[StreamSpec]) -> ClusterMetrics:
        """Serve a complete workload across the fleet; returns metrics."""
        pending = sorted(workload, key=lambda s: (s.arrival_s, s.stream_id))
        i = 0
        faults = self.cfg.node_faults
        while True:
            self.ticks += 1
            if self.ticks > MAX_TICKS:
                raise RuntimeError(f"cluster exceeded {MAX_TICKS} ticks")

            t_arr = pending[i].arrival_s if i < len(pending) else None
            t_fault = faults.next_at_s()
            candidates = [
                (t_n, node.index, node)
                for node in self.live_nodes()
                if (t_n := node.next_action_s()) is not None
            ]
            if candidates:
                t_step, _, step_node = min(
                    candidates, key=lambda c: (c[0], c[1])
                )
            else:
                t_step, step_node = None, None

            times = [t for t in (t_arr, t_fault, t_step) if t is not None]
            if not times:
                # Every node idle, no arrivals or faults left. Parked
                # streams get one more placement pass on the fleet clock
                # (a finishing round frees capacity *after* the pre-step
                # drain already ran); only a truly unplaceable head
                # strands. Mirrors the service draining its admission
                # queue before reporting DONE.
                if self.dispatcher.queue:
                    t_idle = max((n.now for n in self.nodes), default=0.0)
                    if self.dispatcher.drain(t_idle):
                        continue
                break
            t = min(times)

            # 1. Node faults fire first at their trigger time.
            if t_fault is not None and t_fault <= t + 1e-12:
                for ev in faults.pop_due(t):
                    self._apply_node_fault(ev)
                self.dispatcher.drain(t)
                continue

            # 2. A pure arrival (earlier than any node can act): deliver,
            # dispatch, and re-evaluate — placement may wake a node.
            if t_step is None or (t_arr is not None and t_arr < t_step - 1e-12):
                while i < len(pending) and pending[i].arrival_s <= t_arr + 1e-12:
                    self.dispatcher.submit(pending[i], pending[i].arrival_s)
                    i += 1
                self.dispatcher.drain(t_arr)
                self._autoscale_tick(t_arr)
                concurrent = sum(n.n_running for n in self.live_nodes())
                self.peak_concurrent = max(self.peak_concurrent, concurrent)
                continue

            # 3. Step the earliest actionable node one scheduling round,
            # after delivering every arrival due by its action time.
            while i < len(pending) and pending[i].arrival_s <= t_step + 1e-12:
                self.dispatcher.submit(pending[i], pending[i].arrival_s)
                i += 1
            self.dispatcher.drain(t_step)
            self._autoscale_tick(t_step)
            next_arrival = pending[i].arrival_s if i < len(pending) else None
            assert step_node is not None
            step_node.step(next_arrival)
            self._after_step(step_node)

        # Streams stuck in the global queue with no routable node left.
        for st in self.dispatcher.queue:
            st.state = S_STRANDED
            _journal(
                self.dispatcher, "strand", self.dispatcher.now,
                detail=st.stream_id,
            )
        self.dispatcher.queue.clear()

        for node in self.nodes:
            node.service.finalize()
        self._metrics = ClusterMetrics.collect(self)
        return self._metrics

    # ------------------------------------------------------------------

    @property
    def metrics(self) -> ClusterMetrics:
        if self._metrics is None:
            raise RuntimeError("nothing served yet; call run() first")
        return self._metrics

    def export_metrics(self, path: str | Path) -> None:
        """Write the cluster metrics as JSON."""
        import json

        Path(path).write_text(json.dumps(self.metrics.to_dict(), indent=1))

    def export_trace(self, path: str | Path) -> int:
        """Write a Chrome trace with node-namespaced stream processes.

        Each (node, session) pair gets its own pid — streams are named
        ``node/stream`` so a rerouted stream shows up once per node it
        ran on, with the eviction gap visible between the segments. Node
        ``k``'s sessions occupy the pid block ``1000·(k+1)+1 …``, via the
        existing stream-trace union exporter.
        """
        traces = [
            trace
            for node in self.nodes
            for trace in stream_traces(
                node.service.sessions,
                pid0=1000 * (node.index + 1),
                prefix=f"{node.node_id}/",
            )
        ]
        return export_stream_traces(traces, path)


__all__ = [
    "Cluster",
    "ClusterConfig",
    "Dispatcher",
    "Segment",
    "StreamState",
]
