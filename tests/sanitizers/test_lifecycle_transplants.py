"""Lifecycle bugs put into the real methods die on SAN-G or a plain test.

Every object with a protocol in ``sanitizers/protocols/spec.py`` is built
in one method and retired, closed or stepped in another (``Cluster.
_add_node`` / ``_apply_node_fault``, ``ProcessBackend._ensure_started`` /
``close``), so a lifecycle bug lives in code that an intraprocedural
typestate lint never sees whole. Each bug below is installed with the
``transplant`` fixture into the method where it would be written, and is
killed by what remains:

* a node stepped after ``retire()``, and a node retired on one branch
  before ``evict_all()``: SAN-G1 on the journal of a small faulted fleet;
* a store ``view()`` after ``close()`` in ``ProcessBackend.close``: the
  store's own ``RuntimeError``, and SAN-G1;
* a ``drain()`` that pops the head before its room check, then breaks:
  SAN-G2 (a dequeue with no disposition) and a plain count of finished
  streams.

Each scenario replays clean on the unmutated methods. A segment unlinked
before it is closed is no defect on Linux — ``shm_unlink`` removes the
name, not the mappings — and the last test shows it.
"""

from __future__ import annotations

import inspect
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    Dispatcher,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.exec.backend import ProcessBackend
from repro.exec.shm import SLOT_DTYPE, SharedFrameStore
from repro.hw.presets import get_platform
from repro.sanitizers.protocols.monitor import check_events
from repro.service import build_workload

CFG = CodecConfig(width=64, height=48, search_range=4, num_ref_frames=1)

RETIRE = "        node.retire(ev.at_s, DOWN if ev.kind == NODE_DOWN else DRAINED)\n"
EVICT = "        running, queued = node.evict_all(ev.at_s)\n"
RETIRE_DOWN_FIRST = (
    "        if ev.kind == NODE_DOWN:\n"
    "            node.retire(ev.at_s, DOWN)\n"
    + EVICT
    + "        if ev.kind != NODE_DOWN:\n"
    "            node.retire(ev.at_s, DRAINED)\n"
)
JOURNAL_DEQUEUE = (
    "            self.now = max(self.now, t)\n"
    '            _journal(self, "dequeue", self.now, detail=head.stream_id)\n'
)
ROOM_CHECK = (
    "            node = self.policy.choose(nodes, head.pending_spec, t)\n"
    "            if node is None or not node.has_room(head.pending_spec):\n"
    "                break\n"
)
PEEK_THEN_POP = (
    "            head = self.queue[0]\n"
    + ROOM_CHECK
    + "            self.queue.popleft()\n"
    + JOURNAL_DEQUEUE
)
POP_THEN_CHECK = (
    "            head = self.queue.popleft()\n" + JOURNAL_DEQUEUE + ROOM_CHECK
)
STORE_CLOSE = "if store is not None:\n                store.close()\n"
CLOSE_THEN_UNLINK = "seg.close()\n                seg.unlink()\n"


def install(transplant, cls, method: str, old: str, new: str) -> None:
    """``transplant`` after checking ``old`` names one spot in ``method``."""
    assert inspect.getsource(getattr(cls, method)).count(old) == 1
    transplant(cls, method, old, new)


def faulted_fleet():
    """Two nodes, four streams, ``n0`` lost mid-run."""
    cluster = Cluster(ClusterConfig(
        nodes=(NodeSpec("n0"), NodeSpec("n1")),
        node_faults=NodeFaultSchedule(
            [NodeFaultEvent("n0", at_s=0.1, kind="down")]
        ),
    ))
    return cluster.run(build_workload(4, n_frames=6, fps_target=25.0))


def saturated_fleet():
    """One node that queues nothing: streams wait in the global queue."""
    cluster = Cluster(ClusterConfig(
        nodes=(NodeSpec("n0", platform="SysNF", max_queue=0),),
    ))
    return cluster.run(build_workload(5, n_frames=2, fps_target=25.0))


def assert_all_done(metrics, n: int) -> None:
    assert metrics.streams == {"done": n}


#: transplant -> (class, method, old, new, scenario, rule, message token)
SAN_G = {
    "step_after_retire": (
        Cluster, "_apply_node_fault", RETIRE, RETIRE + "        node.step()\n",
        faulted_fleet, "SAN-G1", "step()",
    ),
    "retire_on_one_branch_before_evict_all": (
        Cluster, "_apply_node_fault", EVICT + RETIRE, RETIRE_DOWN_FIRST,
        faulted_fleet, "SAN-G1", "evict_all()",
    ),
    "drain_pops_before_room_check": (
        Dispatcher, "drain", PEEK_THEN_POP, POP_THEN_CHECK,
        saturated_fleet, "SAN-G2", "dequeue-disposition",
    ),
}


@pytest.mark.parametrize("name", list(SAN_G))
def test_transplant_fails_san_g(transplant, journal, name):
    cls, method, old, new, scenario, rule, token = SAN_G[name]
    install(transplant, cls, method, old, new)
    scenario()
    report = check_events(journal.drain())
    assert any(
        v.rule == rule and token in v.message for v in report.violations
    ), report.summary()


@pytest.mark.parametrize("scenario", [faulted_fleet, saturated_fleet])
def test_unmutated_scenario_replays_clean(journal, scenario):
    scenario()
    events = journal.drain()
    assert events
    report = check_events(events)
    assert report.clean, report.summary()


def test_drain_pop_before_room_check_loses_a_stream(transplant, journal):
    # The count reads no journal; the fixture only drops the mutant's
    # events before a strict run's teardown replay would flag them too.
    assert_all_done(saturated_fleet(), 5)
    cls, method, old, new, *_ = SAN_G["drain_pops_before_room_check"]
    install(transplant, cls, method, old, new)
    with pytest.raises(AssertionError):
        assert_all_done(saturated_fleet(), 5)


def started_backend() -> ProcessBackend:
    backend = ProcessBackend(
        get_platform("SysHK"), CFG, FrameworkConfig(exec_workers=1)
    )
    backend._ensure_started()
    return backend


def test_view_after_close_raises_and_fails_san_g1(transplant, journal):
    install(
        transplant, ProcessBackend, "close", STORE_CLOSE,
        STORE_CLOSE + '                store.view("orig")\n',
    )
    backend = started_backend()
    with pytest.raises(RuntimeError, match="shared frame store is closed"):
        backend.close()
    report = check_events(journal.drain())
    assert any(
        v.rule == "SAN-G1" and "view()" in v.message
        for v in report.violations
    ), report.summary()


def test_unmutated_backend_lifecycle_replays_clean(journal):
    started_backend().close()
    report = check_events(journal.drain())
    assert report.clean, report.summary()


def test_unlink_before_close_keeps_attached_views(transplant):
    install(
        transplant, SharedFrameStore, "close", CLOSE_THEN_UNLINK,
        "seg.unlink()\n                seg.close()\n",
    )
    store = SharedFrameStore(CFG)
    layout = store.layout()
    store.view("cur")[:] = 7
    name, shape = layout["cur"]
    # A worker's mapping, attached by name as the pool initializer does.
    worker = shared_memory.SharedMemory(name=name)
    try:
        view = np.ndarray(shape, dtype=SLOT_DTYPE, buffer=worker.buf)
        store.close()                # unlinks, then unmaps the host side
        assert not os.path.exists(f"/dev/shm/{name}")
        assert (view == 7).all()     # the worker still reads its view
        view[0, 0] = 9
        assert view[0, 0] == 9
        del view
    finally:
        worker.close()
    for seg_name, _shape in layout.values():
        assert not os.path.exists(f"/dev/shm/{seg_name}")
