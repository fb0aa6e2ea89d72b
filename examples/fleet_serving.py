#!/usr/bin/env python
"""Fleet-scale serving: a mixed cluster rides out a whole-node dropout.

Dispatches a broadcast-style stream mix across a 4-node heterogeneous
fleet (two hybrid SysHK nodes, one SysNF, one SysNFF) under slack-aware
routing. Early in the run node n0 — a SysHK carrying realtime traffic —
drops out: its sessions are evicted, their remaining frames rerouted as
continuations over the survivors: every submitted frame is encoded once,
and the fleet's segment audit (SAN-E1) confirms each stream had one
owner at a time across the move.

Run:  python examples/fleet_serving.py
"""

from repro.cluster import (
    Cluster,
    ClusterConfig,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.report import format_table
from repro.sanitizers import check_cluster
from repro.service import build_workload


def main() -> None:
    workload = build_workload(
        n_streams=8, n_frames=8, mix="broadcast", arrival_rate=12.0, seed=3
    )
    cluster = Cluster(ClusterConfig(
        nodes=(
            NodeSpec("n0", platform="SysHK", headroom=2.0),
            NodeSpec("n1", platform="SysNF", headroom=2.0),
            NodeSpec("n2", platform="SysNFF", headroom=2.0),
            NodeSpec("n3", platform="SysHK", headroom=2.0),
        ),
        policy="slack",
        node_faults=NodeFaultSchedule(
            [NodeFaultEvent("n0", at_s=0.15, kind="down")]
        ),
    ))
    metrics = cluster.run(workload)

    rows = [
        [
            n.node_id,
            n.platform,
            n.state,
            n.sessions,
            n.frames,
            f"{n.p99_ms:.1f}",
            f"{100 * n.deadline_miss_rate:.0f}%",
        ]
        for n in metrics.nodes
    ]
    print(format_table(
        ["node", "platform", "state", "sessions", "frames", "p99 ms", "miss"],
        rows,
        title="mixed fleet, slack routing — n0 drops out at t=0.15s",
    ))

    print(
        f"\nfleet: {metrics.frames_encoded} frames, "
        f"{metrics.streams.get('done', 0)} streams done, "
        f"{metrics.reroutes} sessions rerouted off n0, "
        f"aggregate p99 {metrics.p99_ms:.1f} ms"
    )
    for name, cls in sorted(metrics.classes.items()):
        print(
            f"  {name:<10} {cls['frames']:3d} frames  "
            f"p99 {cls['p99_ms']:8.1f} ms  "
            f"miss {100 * cls['deadline_miss_rate']:.0f}%"
        )

    submitted = sum(spec.n_frames for spec in workload)
    print(f"\nframes: {metrics.frames_encoded} encoded of {submitted} submitted")
    report = check_cluster(cluster)
    print(
        "segment audit (SAN-E1, one owner per stream across the reroute): "
        f"{'CLEAN' if report.clean else report.summary()}"
    )


if __name__ == "__main__":
    main()
