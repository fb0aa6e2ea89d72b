"""DES fuzzing: randomized DAGs must always produce valid schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_schedule
from repro.hw.des import Op, Resource, Simulator


@st.composite
def random_dag(draw):
    """A random op DAG: ops reference only earlier ops (acyclic)."""
    n_res = draw(st.integers(min_value=1, max_value=4))
    n_ops = draw(st.integers(min_value=1, max_value=20))
    resources = [Resource(f"r{i}") for i in range(n_res)]
    ops: list[Op] = []
    for i in range(n_ops):
        res = resources[draw(st.integers(min_value=0, max_value=n_res - 1))]
        dur = draw(st.floats(min_value=0.0, max_value=5.0,
                             allow_nan=False, allow_infinity=False))
        n_deps = draw(st.integers(min_value=0, max_value=min(3, len(ops))))
        deps = [
            ops[draw(st.integers(min_value=0, max_value=len(ops) - 1))]
            for _ in range(n_deps)
        ] if ops else []
        ops.append(Op(f"op{i}", res, dur, deps=list(dict.fromkeys(deps))))
    return resources, ops


class TestDesFuzz:
    @given(random_dag())
    @settings(max_examples=120, deadline=None)
    def test_schedule_invariants(self, dag):
        resources, ops = dag
        records = Simulator(resources).run()

        # 1. no overlap on any resource.
        validate_schedule(records)

        eps = 1e-9
        for op in ops:
            assert op.start is not None and op.end is not None
            # 2. duration respected.
            assert abs((op.end - op.start) - op.duration) <= eps
            # 3. explicit dependencies respected.
            for d in op.deps:
                assert op.start >= d.end - eps
        # 4. issue order respected per resource.
        for r in resources:
            for a, b in zip(r.ops, r.ops[1:], strict=False):
                assert b.start >= a.end - eps
        # 5. makespan bounds: at least the busiest resource, at most the sum.
        total = sum(op.duration for op in ops)
        busiest = max(
            (sum(op.duration for op in r.ops) for r in resources), default=0.0
        )
        sim_makespan = max(op.end for op in ops)
        assert busiest - eps <= sim_makespan <= total + eps

    @given(random_dag())
    @settings(max_examples=40, deadline=None)
    def test_rerun_after_reset_is_identical(self, dag):
        resources, ops = dag
        sim = Simulator(resources)
        first = [(r.label, r.start, r.end) for r in sim.run()]
        # Re-running the same issued ops must give the same schedule.
        for op in ops:
            op.start = op.end = None
        second = [(r.label, r.start, r.end) for r in sim.run()]
        assert first == second

    @given(random_dag())
    @settings(max_examples=40, deadline=None)
    def test_greedy_work_conservation(self, dag):
        """An op starts exactly when its last blocker finishes (no idling)."""
        resources, ops = dag
        Simulator(resources).run()
        eps = 1e-9
        for r in resources:
            for i, op in enumerate(r.ops):
                blockers = [d.end for d in op.deps]
                if i > 0:
                    blockers.append(r.ops[i - 1].end)
                expected = max(blockers, default=0.0)
                assert abs(op.start - expected) <= eps
