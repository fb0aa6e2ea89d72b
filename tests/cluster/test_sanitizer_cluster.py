"""SAN-E1, one owner per stream: the audit, its seeded bugs, its evidence."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.cluster.dispatcher import Dispatcher
from repro.sanitizers import SCHED_RULES, ScheduleViolationError, check_cluster
from repro.service import build_workload

import test_dispatcher


def faulted_fleet() -> Cluster:
    """A 4-node mixed fleet with an n0 dropout mid-run."""
    wl = build_workload(8, n_frames=6, fps_target=25.0, seed=3)
    cluster = Cluster(ClusterConfig(
        nodes=(
            NodeSpec("n0", platform="SysHK"),
            NodeSpec("n1", platform="SysNF"),
            NodeSpec("n2", platform="SysNFF"),
            NodeSpec("n3", platform="SysHK"),
        ),
        policy="slack",
        node_faults=NodeFaultSchedule(
            [NodeFaultEvent("n0", at_s=0.15, kind="down")]
        ),
    ))
    cluster.run(wl)
    return cluster


@pytest.fixture(scope="module")
def faulted_cluster():
    return faulted_fleet()


def rerouted(cluster):
    return next(
        s for s in cluster.dispatcher.streams.values() if len(s.segments) > 1
    )


def test_san_e1_registered():
    assert "SAN-E1" in SCHED_RULES


def test_faulted_fleet_is_clean(faulted_cluster):
    report = check_cluster(faulted_cluster)
    assert report.clean, report.summary()


def test_overlapping_ownership_fires_e1(faulted_cluster):
    st = rerouted(faulted_cluster)
    seg = st.segments[1]
    orig = seg.t_routed
    seg.t_routed = st.segments[0].t_evicted - 0.01
    try:
        report = check_cluster(faulted_cluster)
    finally:
        seg.t_routed = orig
    assert any(v.rule == "SAN-E1" for v in report.violations)


def test_open_segment_before_the_last_fires_e1(faulted_cluster):
    seg = rerouted(faulted_cluster).segments[0]
    orig = seg.t_evicted
    seg.t_evicted = None
    try:
        report = check_cluster(faulted_cluster)
    finally:
        seg.t_evicted = orig
    assert [v.rule for v in report.violations] == ["SAN-E1"]
    assert "never evicted" in report.violations[0].message


def test_dirty_report_raises_one_error_listing_its_violations(faulted_cluster):
    seg = rerouted(faulted_cluster).segments[0]
    orig = seg.t_evicted
    seg.t_evicted = None
    try:
        report = check_cluster(faulted_cluster)
    finally:
        seg.t_evicted = orig
    assert "SAN-E1" in report.summary()
    assert report.to_dict()["count"] == len(report.violations)
    with pytest.raises(ScheduleViolationError) as err:
        report.raise_if_dirty()
    assert "SAN-E1" in str(err.value)
    assert isinstance(err.value, AssertionError)


def test_strict_env_raises_on_dirty(monkeypatch):
    """REPRO_SANITIZE=1 makes Cluster.run raise on a violation."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = faulted_fleet()   # clean run must not raise
    rerouted(cluster).segments[0].t_evicted = None
    with pytest.raises(ScheduleViolationError):
        check_cluster(cluster).raise_if_dirty()


def test_only_e1_kills_a_reroute_booked_at_arrival(transplant, monkeypatch):
    """The evidence SAN-E1 stays on (DESIGN.md "Layer 1 — the timeline
    sanitizer's verdict"):
    a segment booked at the stream's arrival time instead of its routing
    time moves no frame and no metric, so the fleet's plain tests pass on
    it (run unaudited, also under ``REPRO_SANITIZE``); only the audit sees
    the reroute begin before the eviction."""
    transplant(Dispatcher, "_place", "t_routed=t,", "t_routed=st.spec.arrival_s,")
    monkeypatch.setattr(Cluster, "run", getattr(Cluster.run, "__wrapped__", Cluster.run))
    faults = test_dispatcher.TestNodeFaults()
    faults.test_dropout_conserves_frames()
    faults.test_dropout_reroutes_survivors()
    report = check_cluster(faulted_fleet())
    assert report.violations
    assert {v.rule for v in report.violations} == {"SAN-E1"}
