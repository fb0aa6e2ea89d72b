"""``Simulator.run`` vs the reference Kahn loop, and validate_schedule.

``Simulator.run`` is one forward pass over the ops in issue order;
``tests/oracles.py::reference_run`` is the dict-based textbook Kahn
loop. Both must emit the same ops with the same float start/end times
in the same record order.

``validate_schedule`` skips the re-sort when records are already in
(start, end) order per resource — the common case, since the simulator
emits them sorted. These tests pin what passes, what raises, and with
which message, on sorted and unsorted input alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.des import Op, OpRecord, Resource, Simulator

from oracles import reference_run, validate_schedule

#: Dyadic durations add up exactly, so unrelated ops often share a start.
DURATIONS = (0.0, 0.25, 0.5, 1.0, 1.75)


@st.composite
def frame_like_dag(draw):
    """Ops issued the way the coding manager issues them: compute engines,
    one copy engine per device shared by h2d and d2h, zero-duration host
    barriers over everything issued since the last one, and labels from a
    small pool, so that several ops on one resource can tie on (start,
    resource, label) and the record order rests on the stable sort."""
    n_dev = draw(st.integers(1, 3))
    host = Resource("host.sync")
    compute = [Resource(f"d{i}.compute") for i in range(n_dev)]
    copy = [Resource(f"d{i}.copy") for i in range(n_dev)]
    ops: list[Op] = []
    since_barrier: list[Op] = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("compute", "h2d", "d2h", "barrier")))
        if kind == "barrier":
            op = Op(draw(st.sampled_from(("tau", "tau2"))), host, 0.0,
                    deps=list(since_barrier))
            since_barrier = []
        else:
            dev = draw(st.integers(0, n_dev - 1))
            deps = draw(st.lists(st.sampled_from(ops), max_size=3)) if ops else []
            op = Op(
                f"{kind}{draw(st.integers(0, 1))}",
                compute[dev] if kind == "compute" else copy[dev],
                draw(st.sampled_from(DURATIONS)),
                deps=deps,
                category=kind,
            )
            since_barrier.append(op)
        ops.append(op)
    ops.append(Op("tau2", host, 0.0, deps=since_barrier))  # every frame ends on one
    return Simulator([host, *compute, *copy]), ops


def random_graph(seed: int, n_res: int = 3, n_ops: int = 24):
    """Random DAG over a few resources; deps only point backwards."""
    rng = random.Random(seed)
    resources = [Resource(f"r{i}") for i in range(n_res)]
    ops: list[Op] = []
    for k in range(n_ops):
        deps = rng.sample(ops, k=min(len(ops), rng.randint(0, 2)))
        ops.append(Op(
            f"op{k}",
            rng.choice(resources),
            rng.choice(DURATIONS),
            deps=deps,
        ))
    return resources


def as_tuples(records):
    return [(r.label, r.resource, r.category, r.start, r.end) for r in records]


def run_records(seed: int, run):
    return as_tuples(run(Simulator(random_graph(seed))))


@pytest.mark.parametrize("seed", range(8))
def test_fast_matches_reference_on_random_dags(seed):
    assert run_records(seed, Simulator.run) == run_records(seed, reference_run)


@given(frame_like_dag())
@settings(max_examples=200, deadline=None)
def test_fast_matches_reference_on_frame_like_dags(dag):
    sim, ops = dag
    fast = as_tuples(sim.run())
    for op in ops:
        op.start = op.end = None
    assert fast == as_tuples(reference_run(sim))


def test_record_ties_keep_issue_order():
    """Two ops on one resource, one start, one label: the records come in
    issue order (the stable sort), as the reference emits them."""
    r = Resource("host.sync")
    Op("tau", r, 0.0)
    Op("tau", r, 1.0)
    sim = Simulator([r])
    fast = as_tuples(sim.run())
    assert [end for *_, end in fast] == [0.0, 1.0]
    assert fast == as_tuples(reference_run(sim))


def test_fast_detects_cycles_like_reference():
    for run in (Simulator.run, reference_run):
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 1.0)
        b = Op("b", r2, 1.0, deps=[a])
        a.deps.append(b)
        with pytest.raises(RuntimeError, match="cycle"):
            run(Simulator([r1, r2]))


def test_fast_start_end_are_python_floats():
    """The determinism digests hash ``repr(op.start)``; numpy scalars
    would change the repr without changing the value."""
    r = Resource("r")
    a = Op("a", r, 1.5)
    b = Op("b", r, 0.5)
    Simulator([r]).run()
    for op in (a, b):
        assert type(op.start) is float
        assert type(op.end) is float


class TestValidateSchedule:
    def test_sorted_input_passes_without_resort(self):
        recs = [
            OpRecord("a", "r", "compute", 0.0, 1.0),
            OpRecord("b", "r", "compute", 1.0, 2.0),
            OpRecord("c", "q", "compute", 0.5, 0.75),
        ]
        validate_schedule(recs)  # must not raise

    def test_unsorted_input_still_validated(self):
        """Out-of-order records are re-sorted before the overlap check —
        the skip-resort fast path must not change what is accepted."""
        recs = [
            OpRecord("b", "r", "compute", 1.0, 2.0),
            OpRecord("a", "r", "compute", 0.0, 1.0),
        ]
        validate_schedule(recs)  # valid schedule, merely unsorted

    def test_unsorted_overlap_detected(self):
        recs = [
            OpRecord("b", "r", "compute", 1.0, 3.0),
            OpRecord("a", "r", "compute", 0.0, 2.0),
        ]
        with pytest.raises(AssertionError, match="overlap"):
            validate_schedule(recs)

    def test_sorted_overlap_detected(self):
        recs = [
            OpRecord("a", "r", "compute", 0.0, 2.0),
            OpRecord("b", "r", "compute", 1.0, 3.0),
        ]
        with pytest.raises(AssertionError, match="overlap"):
            validate_schedule(recs)

    def test_zero_duration_records_ignored(self):
        recs = [
            OpRecord("a", "r", "compute", 0.0, 2.0),
            OpRecord("tau", "r", "compute", 1.0, 1.0),  # instantaneous marker
        ]
        validate_schedule(recs)

    def test_back_to_back_zero_gap_passes(self):
        recs = [
            OpRecord("a", "r", "compute", 0.0, 1.0),
            OpRecord("b", "r", "compute", 1.0, 1.5),
        ]
        validate_schedule(recs)

    def test_equal_starts_ordered_by_end(self):
        """Ties on start are broken by end (the stable lexsort key)."""
        recs = [
            OpRecord("b", "r", "compute", 0.0, 0.0),
            OpRecord("a", "r", "compute", 0.0, 1.0),
        ]
        validate_schedule(recs)
