"""Discrete-event simulation kernel."""

import pytest

from oracles import reference_run, validate_schedule
from repro.hw.des import Op, OpRecord, Resource, Schedule, Simulator


class TestScheduling:
    def test_serial_on_one_resource(self):
        r = Resource("q")
        a = Op("a", r, 1.0)
        b = Op("b", r, 2.0)
        sim = Simulator([r])
        sim.run()
        assert (a.start, a.end) == (0.0, 1.0)
        assert (b.start, b.end) == (1.0, 3.0)

    def test_parallel_on_two_resources(self):
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 5.0)
        b = Op("b", r2, 3.0)
        sim = Simulator([r1, r2])
        sim.run()
        assert a.start == 0.0 and b.start == 0.0
        assert sim.makespan() == 5.0

    def test_dependency_delays_start(self):
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 4.0)
        b = Op("b", r2, 1.0, deps=[a])
        Simulator([r1, r2]).run()
        assert b.start == 4.0

    def test_cross_resource_chain(self):
        """compute -> transfer -> compute alternation (the Fig. 4 pattern)."""
        comp, copy = Resource("comp"), Resource("copy")
        h2d = Op("h2d", copy, 1.0)
        kern = Op("kern", comp, 2.0, deps=[h2d])
        d2h = Op("d2h", copy, 1.0, deps=[kern])
        Simulator([comp, copy]).run()
        assert kern.start == 1.0
        assert d2h.start == 3.0

    def test_blocked_queue_head_blocks_queue(self):
        """In-order queues: an op waiting on a dep stalls later queue ops."""
        comp, copy = Resource("comp"), Resource("copy")
        kern = Op("kern", comp, 5.0)
        out = Op("out", copy, 1.0, deps=[kern])   # issued first on copy
        other = Op("other", copy, 1.0)            # ready but behind `out`
        Simulator([comp, copy]).run()
        assert out.start == 5.0
        assert other.start == 6.0

    def test_zero_duration_barrier(self):
        r = Resource("r")
        host = Resource("host")
        a = Op("a", r, 2.0)
        tau = Op("tau", host, 0.0, deps=[a])
        b = Op("b", r, 1.0, deps=[tau])
        Simulator([r, host]).run()
        assert tau.end == 2.0
        assert b.start == 2.0


class TestValidation:
    def test_negative_duration_rejected(self):
        r = Resource("r")
        with pytest.raises(ValueError):
            Op("bad", r, -1.0)

    def test_cycle_detected(self):
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 1.0)
        b = Op("b", r2, 1.0, deps=[a])
        a.deps.append(b)
        with pytest.raises(RuntimeError, match="cycle"):
            Simulator([r1, r2]).run()

    def test_dep_issued_after_its_op_rejected(self):
        """The deps of an op are issued before it. A dep added after
        issue is refused even when the graph stays acyclic, which the
        Kahn loop of ``reference_run`` accepts."""
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 1.0)
        b = Op("b", r2, 2.0)
        a.deps.append(b)  # b does not depend on a: no cycle
        sim = Simulator([r1, r2])
        reference_run(sim)
        assert a.start == 2.0
        with pytest.raises(RuntimeError, match="'a' depends on 'b', which is issued after it"):
            sim.run()

    def test_foreign_dep_rejected(self):
        r1, r2 = Resource("r1"), Resource("r2")
        a = Op("a", r1, 1.0)
        _b = Op("b", r2, 1.0, deps=[a])
        with pytest.raises(RuntimeError, match="not"):
            Simulator([r2]).run()  # r1 not part of this simulator

    def test_duplicate_resource_names(self):
        with pytest.raises(ValueError):
            Simulator([Resource("x"), Resource("x")])

    def test_validate_schedule_detects_overlap(self):
        recs = [
            OpRecord("a", "r", "compute", 0.0, 2.0),
            OpRecord("b", "r", "compute", 1.0, 3.0),
        ]
        with pytest.raises(AssertionError, match="overlap"):
            validate_schedule(recs)

    def test_run_schedule_always_valid(self):
        r1, r2 = Resource("r1"), Resource("r2")
        ops = [Op(f"a{i}", r1, 0.5) for i in range(5)]
        Op("x", r2, 1.0, deps=[ops[2]])
        records = Simulator([r1, r2]).run()
        validate_schedule(records)  # must not raise


class TestReset:
    def test_reset_clears_ops(self):
        r = Resource("r")
        Op("a", r, 1.0)
        sim = Simulator([r])
        sim.run()
        sim.reset()
        assert sim.makespan() == 0.0
        Op("b", r, 2.0)
        sim.run()
        assert sim.makespan() == 2.0

    def test_determinism(self):
        def build():
            r1, r2 = Resource("r1"), Resource("r2")
            a = Op("a", r1, 1.5)
            b = Op("b", r2, 0.5, deps=[a])
            Op("c", r1, 1.0, deps=[b])
            recs = Simulator([r1, r2]).run()
            return [(x.label, x.start, x.end) for x in recs]

        assert build() == build()


class TestSchedule:
    """``run`` returns the times as arrays over the issued ops; read as a
    sequence, they are the records the simulator used to return."""

    @staticmethod
    def issue(resources):
        r1, r2 = resources
        a = Op("a", r1, 1.5)
        b = Op("b", r2, 0.5, deps=[a], category="h2d")
        Op("c", r1, 1.0, deps=[b])
        Op("d", r2, 0.25)

    def test_reads_as_the_records(self):
        r1, r2 = Resource("r1"), Resource("r2")
        self.issue((r1, r2))
        sim = Simulator([r1, r2])
        s = sim.run()
        recs = reference_run(sim)
        assert len(s) == 4 and list(s) == recs and s == recs and recs == s
        assert s[0] == recs[0] and s[-1] == recs[-1] and s[1:3] == recs[1:3]
        assert s == Schedule.of(reversed(recs))  # packing re-sorts
        assert s != recs[:-1]
        assert s != [*recs[:-1], OpRecord("d", "r2", "compute", 0.0, 0.5)]
        with pytest.raises(AttributeError):
            s[0].start = 1.0  # type: ignore[misc]

    def test_rerun_shares_descriptors_and_order(self):
        r1, r2 = Resource("r1"), Resource("r2")
        self.issue((r1, r2))
        sim = Simulator([r1, r2])
        first, second = sim.run(), sim.run()
        assert second.ops is first.ops and second.order is first.order
        assert second.times is not first.times

    def test_rebuilt_graph_reuses_its_descriptors(self):
        r1, r2 = Resource("r1"), Resource("r2")
        self.issue((r1, r2))
        sim = Simulator([r1, r2])
        first = sim.run()
        sim.reset()
        Op("x", r1, 1.0)
        other = sim.run()
        assert [rec.label for rec in other] == ["x"]
        sim.reset()
        self.issue((r1, r2))
        again = sim.run()
        assert again.ops is first.ops and again == first
