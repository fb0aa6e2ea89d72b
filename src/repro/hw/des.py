"""Discrete-event simulation kernel.

The Video Coding Manager expresses one frame's work as a DAG of *ops*
(kernels and transfers), each bound to a *resource* (a device compute
engine or a copy engine). Resources execute their ops serially in issue
order — exactly the semantics of CUDA streams/copy queues the paper's
orchestration relies on — while ops on different resources overlap freely
subject to dependencies.

Because per-resource order is fixed at issue time, the schedule is fully
determined: every op starts at the maximum of its dependencies' end times
and the end of the previous op on its resource. An op's deps are issued
before it, so issue order is already a topological order and
:meth:`Simulator.run` is one forward pass in that order. Ops only take
time: the real NumPy computation of ``encode()`` runs outside the
simulator, from the same frame plan (:mod:`repro.core.frame_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter

#: Issue stamps: only their order matters, so every resource draws from
#: one counter and ops of different resources still compare.
_ISSUE_STAMP = count()


@dataclass
class Resource:
    """A serially-executing engine (device compute queue or copy engine).

    ``ops`` is the queue in issue order; ``stamps`` holds, per op, where
    it falls in the issue order across resources.
    """

    name: str
    ops: list["Op"] = field(default_factory=list, repr=False)
    stamps: list[int] = field(default_factory=list, repr=False)

    def reset(self) -> None:
        self.ops.clear()
        self.stamps.clear()


@dataclass(eq=False)
class Op:
    """One unit of simulated work.

    Parameters
    ----------
    label:
        Human-readable name (appears in timelines, e.g. ``"ME[gpu1]"``).
    resource:
        The engine this op occupies for ``duration`` simulated seconds.
    duration:
        Simulated execution time (from the rate models).
    deps:
        Ops that must complete before this op starts (in addition to the
        implicit previous-op-on-resource ordering). Each must be issued
        before this op is: deps are complete at construction, never
        appended later (:meth:`Simulator.run` rejects a later one).
    category:
        Coarse tag (``"compute"`` / ``"h2d"`` / ``"d2h"`` / ``"fault"``)
        for reporting. ``"fault"`` marks stall intervals injected when a
        device dies mid-frame (watchdog/detection time).
    """

    label: str
    resource: Resource
    duration: float
    deps: list["Op"] = field(default_factory=list)
    category: str = "compute"
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"op {self.label!r}: negative duration {self.duration}")
        self.resource.ops.append(self)
        self.resource.stamps.append(next(_ISSUE_STAMP))


@dataclass
class OpRecord:
    """Immutable record of one executed op (for timelines and tests)."""

    label: str
    resource: str
    category: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Simulator:
    """Evaluates an op DAG and produces the schedule.

    Typical use: create :class:`Resource` objects, build :class:`Op` objects
    against them (issue order per resource = creation order), then call
    :meth:`run`.
    """

    def __init__(self, resources: list[Resource]) -> None:
        names = [r.name for r in resources]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate resource names: {names}")
        self.resources = list(resources)

    def run(self) -> list[OpRecord]:
        """Schedule all issued ops.

        Contract: the deps of an op are issued before it. Returns op
        records sorted by start time; raises ``RuntimeError`` when an op
        depends on one issued after it (every dependency cycle does) or
        on one no resource of this simulator holds.

        One forward pass over the ops in issue order: every dep and the
        previous op on the resource have ended by the time an op is
        reached, so its start is the running max of their ends over
        native floats — the same floats, in the same record order, as
        the Kahn loop ``tests/oracles.py::reference_run`` evaluates.
        """
        issued: list[tuple[int, Op, Op | None]] = []
        for r in self.resources:
            ops = r.ops
            issued += zip(r.stamps, ops, [None, *ops[:-1]])
        issued.sort()  # stamps are unique: no tie reaches an Op
        done: set[Op] = set()
        records = []
        for _, op, prev in issued:
            t0 = 0.0
            for d in op.deps:
                if d not in done:
                    raise self._unissued(op, d)
                e = d.end
                if e > t0:
                    t0 = e
            if prev is not None:
                e = prev.end
                if e > t0:
                    t0 = e
            op.start = t0
            end = t0 + op.duration
            op.end = end
            done.add(op)
            records.append(OpRecord(op.label, op.resource.name, op.category, t0, end))
        records.sort(key=attrgetter("start", "resource", "label"))
        return records

    def _unissued(self, op: Op, dep: Op) -> RuntimeError:
        where = (
            "issued after it: a dependency cycle, or a dep added after issue"
            if any(dep in r.ops for r in self.resources)
            else "not issued on any resource of this simulator"
        )
        return RuntimeError(f"op {op.label!r} depends on {dep.label!r}, which is {where}")

    def makespan(self) -> float:
        """End time of the last op (valid after :meth:`run`)."""
        ends = [op.end for r in self.resources for op in r.ops if op.end is not None]
        return max(ends, default=0.0)

    def reset(self) -> None:
        """Discard all issued ops, keeping the resources."""
        for r in self.resources:
            r.reset()
