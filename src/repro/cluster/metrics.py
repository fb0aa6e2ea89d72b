"""Aggregate fleet metrics: per-class and per-node tails, reroutes, scaling.

Everything is computed from simulated time. Frame latencies aggregate
across every node (a rerouted stream's segments all contribute), keyed
both per deadline class — the fleet's SLO view — and per node. Queue
wait is the *global dispatch queue* wait (time between entering the
cluster queue and being placed on a node); the per-node admission wait
is already inside each node's ServiceMetrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.service.metrics import frame_stats, per_class_summary, percentiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.cluster.dispatcher import Cluster


@dataclass(frozen=True)
class NodeMetrics:
    """Headline numbers of one node's run inside the fleet."""

    node_id: str
    platform: str
    state: str
    joined_s: float
    retired_s: float | None
    rounds: int
    frames: int
    sessions: int
    p99_ms: float
    deadline_miss_rate: float
    device_utilization: dict[str, float]
    admission: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClusterMetrics:
    """Aggregate outcome of one fleet run."""

    policy: str
    duration_s: float
    ticks: int
    n_nodes: int
    n_nodes_live: int
    nodes: tuple[NodeMetrics, ...]
    classes: dict[str, dict]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    deadline_miss_rate: float
    streams: dict[str, int]            # cluster-level stream outcome counts
    frames_encoded: int
    peak_concurrent: int
    reroutes: int
    evicted_sessions: int
    node_faults: int
    queue_wait_p50_s: float
    queue_wait_p95_s: float
    queue_wait_max_s: float
    dispatch: dict[str, int] = field(default_factory=dict)
    autoscale_events: tuple[dict, ...] = ()
    lp_cache: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def collect(cls, cluster: "Cluster") -> "ClusterMetrics":
        node_rows: list[NodeMetrics] = []
        all_sessions = []
        for node in cluster.nodes:
            m = node.service.metrics
            all_sessions.extend(node.service.sessions)
            node_rows.append(NodeMetrics(
                node_id=node.node_id,
                platform=node.platform,
                state=node.state,
                joined_s=node.joined_s,
                retired_s=node.retired_s,
                rounds=m.rounds,
                frames=sum(sm.frames for sm in m.streams),
                sessions=len(m.streams),
                p99_ms=m.p99_ms,
                deadline_miss_rate=m.deadline_miss_rate,
                device_utilization=m.device_utilization,
                admission=m.admission,
            ))

        stream_counts: dict[str, int] = {}
        waits = []
        for st in cluster.dispatcher.streams.values():
            key = "done" if st.done else st.state
            stream_counts[key] = stream_counts.get(key, 0) + 1
            waits.append(st.queue_wait_s)
        wait_pct = percentiles(waits)
        stats = frame_stats(r for s in all_sessions for r in s.records)
        lp_cache = {
            platform: {
                "hits": batch.hits,
                "misses": batch.misses,
                "hit_rate": round(batch.hit_rate, 4),
            }
            for platform, batch in sorted(cluster._lp_batches.items())
        }
        return cls(
            policy=cluster.cfg.policy,
            duration_s=max((n.now for n in cluster.nodes), default=0.0),
            ticks=cluster.ticks,
            n_nodes=len(cluster.nodes),
            n_nodes_live=len(cluster.live_nodes()),
            nodes=tuple(node_rows),
            classes=per_class_summary(all_sessions),
            p50_ms=stats["p50_ms"],
            p95_ms=stats["p95_ms"],
            p99_ms=stats["p99_ms"],
            deadline_miss_rate=stats["deadline_miss_rate"],
            streams=stream_counts,
            frames_encoded=sum(row.frames for row in node_rows),
            peak_concurrent=cluster.peak_concurrent,
            reroutes=cluster.reroutes,
            evicted_sessions=cluster.evicted_sessions,
            node_faults=len(cluster.node_fault_log),
            queue_wait_p50_s=wait_pct["p50"],
            queue_wait_p95_s=wait_pct["p95"],
            queue_wait_max_s=max(waits, default=0.0),
            dispatch=dict(cluster.dispatcher.counts),
            autoscale_events=tuple(
                asdict(e) for e in cluster.autoscaler.events
            ),
            lp_cache=lp_cache,
        )

    def node(self, node_id: str) -> NodeMetrics:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node {node_id!r} in metrics")

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "duration_s": self.duration_s,
            "ticks": self.ticks,
            "n_nodes": self.n_nodes,
            "n_nodes_live": self.n_nodes_live,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "deadline_miss_rate": self.deadline_miss_rate,
            "classes": {k: dict(v) for k, v in self.classes.items()},
            "streams": dict(self.streams),
            "frames_encoded": self.frames_encoded,
            "peak_concurrent": self.peak_concurrent,
            "reroutes": self.reroutes,
            "evicted_sessions": self.evicted_sessions,
            "node_faults": self.node_faults,
            "queue_wait_p50_s": self.queue_wait_p50_s,
            "queue_wait_p95_s": self.queue_wait_p95_s,
            "queue_wait_max_s": self.queue_wait_max_s,
            "dispatch": dict(self.dispatch),
            "autoscale_events": list(self.autoscale_events),
            "lp_cache": {k: dict(v) for k, v in self.lp_cache.items()},
            "nodes": [n.to_dict() for n in self.nodes],
        }


__all__ = ["ClusterMetrics", "NodeMetrics"]
