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

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import count
from typing import overload

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


@dataclass(frozen=True, slots=True)
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


#: What a schedule knows of an op besides its times: ``(label, resource,
#: category)``.
Descriptor = tuple[str, str, str]


@dataclass(frozen=True, slots=True, eq=False)
class Schedule(Sequence[OpRecord]):
    """One run's ops: a read-only sequence of :class:`OpRecord` values,
    sorted by start, stored as three arrays.

    ``ops`` describes every op in issue order; a simulator derives it once
    per issued graph, so the frames that re-time one graph share it.
    ``times`` holds the starts of ``ops`` and then their ends, as raw
    doubles. ``order`` is the record order: the indices of ``ops`` sorted
    by (start, resource, label), ties in issue order.

    ``len()`` builds nothing; indexing and iteration build each record as
    it is read. A schedule equals a list of the same records, as the list
    it replaces did.
    """

    ops: tuple[Descriptor, ...]
    order: tuple[int, ...]
    times: array

    @classmethod
    def of(cls, records: Iterable[OpRecord]) -> Schedule:
        """Pack records given in issue order (e.g. measured ones)."""
        recs = list(records)
        order = sorted(
            range(len(recs)), key=lambda i: (recs[i].start, recs[i].resource, recs[i].label)
        )
        return cls(
            tuple((r.label, r.resource, r.category) for r in recs),
            tuple(order),
            array("d", [r.start for r in recs] + [r.end for r in recs]),
        )

    def __len__(self) -> int:
        return len(self.order)

    def _record(self, i: int) -> OpRecord:
        label, resource, category = self.ops[i]
        return OpRecord(label, resource, category, self.times[i], self.times[len(self.ops) + i])

    @overload
    def __getitem__(self, k: int) -> OpRecord: ...
    @overload
    def __getitem__(self, k: slice) -> list[OpRecord]: ...
    def __getitem__(self, k: int | slice) -> OpRecord | list[OpRecord]:
        if isinstance(k, slice):
            return [self._record(i) for i in self.order[k]]
        return self._record(self.order[k])

    def __iter__(self) -> Iterator[OpRecord]:
        return map(self._record, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Schedule, list)):
            return NotImplemented
        return list(self) == list(other)


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
        #: The issued graph as last compiled (see :meth:`_compiled`), and
        #: the last record order, handed on while it repeats.
        self._issue_key: tuple[int, ...] | None = None
        self._issued: list[tuple[int, Op, Op | None]] = []
        self._ops: tuple[Descriptor, ...] = ()
        self._tie: list[int] = []
        self._order: tuple[int, ...] = ()
        #: Every descriptor tuple this simulator has issued, by value, with
        #: its (resource, label) order: a graph rebuilt with the structure
        #: of an earlier one shares both (labels name devices and phases,
        #: never sizes).
        self._descriptors: dict[
            tuple[Descriptor, ...], tuple[tuple[Descriptor, ...], list[int]]
        ] = {}

    def _compiled(
        self,
    ) -> tuple[list[tuple[int, Op, Op | None]], tuple[Descriptor, ...], list[int]]:
        """The issued ops in issue order, each after its stamp and before
        the op before it on its resource; their descriptors; and their
        indices sorted by (resource, label), ties in issue order.

        Derived once per issued graph: ops are only ever appended to a
        queue or cleared with it, and every issue draws a new stamp, so
        each queue's last stamp names what it holds.
        """
        key = tuple(r.stamps[-1] if r.stamps else -1 for r in self.resources)
        if key != self._issue_key:
            issued: list[tuple[int, Op, Op | None]] = []
            for r in self.resources:
                ops = r.ops
                issued += zip(r.stamps, ops, [None, *ops[:-1]])
            issued.sort()  # stamps are unique: no tie reaches an Op
            ops_ = tuple((op.label, op.resource.name, op.category) for _, op, _ in issued)
            known = self._descriptors.get(ops_)
            if known is None:
                tie = sorted(range(len(ops_)), key=lambda i: (ops_[i][1], ops_[i][0]))
                known = self._descriptors[ops_] = (ops_, tie)
            self._issued = issued
            self._ops, self._tie = known
            self._issue_key = key
        return self._issued, self._ops, self._tie

    def run(self) -> Schedule:
        """Schedule all issued ops.

        Contract: the deps of an op are issued before it. Returns the
        :class:`Schedule` (records sorted by start time); raises
        ``RuntimeError`` when an op depends on one issued after it (every
        dependency cycle does) or on one no resource of this simulator
        holds.

        One forward pass over the ops in issue order: every dep and the
        previous op on the resource have ended by the time an op is
        reached, so its start is the running max of their ends over
        native floats — the same floats, in the same record order, as
        the Kahn loop ``tests/oracles.py::reference_run`` evaluates.
        Sorting the (resource, label) order stably by start gives the
        (start, resource, label) record order.
        """
        issued, ops, tie = self._compiled()
        done: set[Op] = set()
        starts: list[float] = []
        ends: list[float] = []
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
            starts.append(t0)
            ends.append(end)
        order = tuple(sorted(tie, key=starts.__getitem__))
        if order == self._order:
            order = self._order
        else:
            self._order = order
        return Schedule(ops, order, array("d", starts + ends))

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
