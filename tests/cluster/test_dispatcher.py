"""Cluster dispatch tier: queue semantics, faults, autoscale, metrics."""

import pytest

from repro.cluster import (
    AutoscaleConfig,
    Cluster,
    ClusterConfig,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.cluster.dispatcher import S_REJECTED
from repro.cluster.node import DOWN, DRAINED
from repro.service import StreamSpec, build_workload


def run_fleet(workload, platforms=("SysHK",), **cfg_kw):
    nodes = tuple(
        NodeSpec(node_id=f"n{i}", platform=p) for i, p in enumerate(platforms)
    )
    cluster = Cluster(ClusterConfig(nodes=nodes, **cfg_kw))
    metrics = cluster.run(workload)
    return cluster, metrics


class TestConfig:
    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterConfig(nodes=())

    def test_rejects_duplicate_node_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterConfig(nodes=(NodeSpec("a"), NodeSpec("a")))


class TestDispatch:
    def test_all_streams_complete_on_multi_node_fleet(self):
        wl = build_workload(6, n_frames=3, fps_target=25.0)
        cluster, m = run_fleet(wl, platforms=("SysHK", "SysNF"))
        assert m.streams == {"done": 6}
        assert m.frames_encoded == 18

    def test_duplicate_stream_id_rejected(self):
        wl = [StreamSpec("dup", n_frames=2), StreamSpec("dup", n_frames=2)]
        nodes = (NodeSpec("n0"),)
        cluster = Cluster(ClusterConfig(nodes=nodes))
        with pytest.raises(ValueError, match="dup"):
            cluster.run(wl)

    def test_work_spreads_across_nodes(self):
        wl = build_workload(6, n_frames=3, fps_target=25.0)
        _, m = run_fleet(wl, platforms=("SysHK", "SysHK"))
        frames = {n.node_id: n.frames for n in m.nodes}
        assert frames["n0"] > 0 and frames["n1"] > 0

    def test_global_overflow_rejects(self):
        # One slow saturated node, zero global queue: extra streams must
        # be rejected (by the node's controller), exactly like serve.
        wl = build_workload(10, n_frames=2, fps_target=30.0)
        cluster, m = run_fleet(
            wl, platforms=("SysNF",), global_queue=0
        )
        # With queue 0 nothing parks at the cluster tier.
        assert m.dispatch["parked"] == 0
        assert sum(m.streams.values()) == 10

    def test_queue_wait_accounted(self):
        # Tiny node queue forces the global queue to hold streams.
        nodes = (NodeSpec("n0", platform="SysNF", max_queue=0),)
        cluster = Cluster(ClusterConfig(nodes=nodes, global_queue=64))
        wl = build_workload(5, n_frames=2, fps_target=25.0)
        m = cluster.run(wl)
        assert m.dispatch["parked"] > 0
        assert m.queue_wait_max_s > 0.0
        assert m.streams == {"done": 5}


class TestNodeFaults:
    def fleet_with_fault(self, kind):
        wl = build_workload(8, n_frames=6, fps_target=25.0, seed=2)
        faults = NodeFaultSchedule([NodeFaultEvent("n0", at_s=0.15, kind=kind)])
        return run_fleet(
            wl,
            platforms=("SysHK", "SysNF", "SysNFF", "SysHK"),
            policy="slack",
            node_faults=faults,
        )

    def test_dropout_conserves_frames(self):
        cluster, m = self.fleet_with_fault("down")
        assert m.frames_encoded == 8 * 6
        assert m.streams == {"done": 8}
        # Per-stream global frame indices must be exactly 1..n.
        for st in cluster.dispatcher.streams.values():
            indices = sorted(
                seg.offset + r.index
                for seg in st.segments
                for r in seg.session.records
            )
            assert indices == list(range(1, st.spec.n_frames + 1))

    def test_dropout_reroutes_survivors(self):
        cluster, m = self.fleet_with_fault("down")
        assert m.node_faults == 1
        assert m.reroutes >= 1
        assert m.evicted_sessions >= 1
        assert cluster.node("n0").state == DOWN
        rerouted = [
            st for st in cluster.dispatcher.streams.values()
            if len(st.segments) > 1
        ]
        assert rerouted
        assert all(
            seg.node_id != "n0" for st in rerouted for seg in st.segments[1:]
        )

    def test_drain_is_graceful(self):
        cluster, m = self.fleet_with_fault("drain")
        assert cluster.node("n0").state == DRAINED
        assert cluster.node("n0") not in cluster.live_nodes()
        assert m.frames_encoded == 8 * 6
        assert m.streams == {"done": 8}

    def test_fault_on_every_node_strands_streams(self):
        wl = [StreamSpec("a", n_frames=20, fps_target=25.0)]
        faults = NodeFaultSchedule([NodeFaultEvent("n0", at_s=0.1)])
        cluster, m = run_fleet(wl, platforms=("SysHK",), node_faults=faults)
        assert m.streams.get("stranded", 0) == 1
        assert m.frames_encoded < 20


class TestAutoscale:
    def test_scales_out_under_pressure(self):
        wl = build_workload(12, n_frames=4, fps_target=25.0)
        nodes = (NodeSpec("n0", platform="SysNF", max_queue=1),)
        cfg = ClusterConfig(
            nodes=nodes,
            autoscale=AutoscaleConfig(
                enabled=True, max_nodes=4, template=("SysHK",),
            ),
        )
        cluster = Cluster(cfg)
        m = cluster.run(wl)
        assert m.n_nodes > 1
        adds = [e for e in m.autoscale_events if e["action"] == "add"]
        assert adds and adds[0]["platform"] == "SysHK"
        assert m.streams == {"done": 12}
        assert m.n_nodes <= 4

    def test_autoscaled_ids_avoid_collision(self):
        wl = build_workload(10, n_frames=3, fps_target=25.0)
        # Operator already owns "n1": the scaler must skip that id.
        nodes = (
            NodeSpec("n0", platform="SysNF", max_queue=1),
            NodeSpec("n1", platform="SysNF", max_queue=1),
        )
        cfg = ClusterConfig(
            nodes=nodes,
            autoscale=AutoscaleConfig(enabled=True, max_nodes=4),
        )
        cluster = Cluster(cfg)
        cluster.run(wl)
        ids = [n.node_id for n in cluster.nodes]
        assert len(set(ids)) == len(ids)

    def test_disabled_by_default(self):
        wl = build_workload(8, n_frames=2, fps_target=25.0)
        cluster, m = run_fleet(wl, platforms=("SysNF",))
        assert m.n_nodes == 1
        assert m.autoscale_events == ()


class TestSharedLpCache:
    def test_same_platform_nodes_share_a_cache(self):
        wl = build_workload(4, n_frames=3, fps_target=25.0)
        cluster, m = run_fleet(wl, platforms=("SysHK", "SysHK"))
        assert set(m.lp_cache) == {"SysHK"}
        assert m.lp_cache["SysHK"]["hits"] > 0


class TestMetrics:
    def test_per_class_summary_present(self):
        wl = build_workload(6, n_frames=3, mix="conference", seed=1)
        _, m = run_fleet(wl, platforms=("SysHK", "SysNF"))
        assert set(m.classes) <= {"realtime", "standard", "background"}
        total = sum(c["frames"] for c in m.classes.values())
        assert total == m.frames_encoded

    def test_to_dict_round_trips_json(self):
        import json

        wl = build_workload(4, n_frames=2, fps_target=25.0)
        _, m = run_fleet(wl, platforms=("SysHK", "SysNF"))
        blob = json.loads(json.dumps(m.to_dict()))
        assert blob["n_nodes"] == 2
        assert len(blob["nodes"]) == 2
        assert blob["frames_encoded"] == m.frames_encoded

    def test_node_lookup(self):
        wl = build_workload(2, n_frames=2, fps_target=25.0)
        _, m = run_fleet(wl, platforms=("SysHK",))
        assert m.node("n0").platform == "SysHK"
        with pytest.raises(KeyError):
            m.node("nope")
