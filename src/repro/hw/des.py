"""Discrete-event simulation kernel.

The Video Coding Manager expresses one frame's work as a DAG of *ops*
(kernels and transfers), each bound to a *resource* (a device compute
engine or a copy engine). Resources execute their ops serially in issue
order — exactly the semantics of CUDA streams/copy queues the paper's
orchestration relies on — while ops on different resources overlap freely
subject to dependencies.

Because per-resource order is fixed at issue time, the schedule is fully
determined: every op starts at the maximum of its dependencies' end times
and the end of the previous op on its resource. :meth:`Simulator.run`
evaluates the DAG in topological order. Ops only take time: the real
NumPy computation of ``encode()`` runs outside the simulator, from the
same frame plan (:mod:`repro.core.frame_plan`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class Resource:
    """A serially-executing engine (device compute queue or copy engine)."""

    name: str
    ops: list["Op"] = field(default_factory=list, repr=False)

    def reset(self) -> None:
        self.ops.clear()


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
        implicit previous-op-on-resource ordering).
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

        Returns op records sorted by start time. Raises ``RuntimeError`` on
        a dependency cycle (including cycles through resource ordering).

        Kahn's algorithm over integer adjacency lists with a FIFO ready
        queue, so evaluation order — and with it every start/end float —
        is deterministic. ``tests/oracles.py`` keeps a
        dict-based twin of this loop that the equivalence tests compare
        against bit for bit.
        """
        ops: list[Op] = [op for r in self.resources for op in r.ops]
        idx = {op: k for k, op in enumerate(ops)}
        n = len(ops)
        # Effective predecessors: explicit deps + previous op in the queue.
        preds: list[list[int]] = [[] for _ in range(n)]
        for r in self.resources:
            prev = -1
            for op in r.ops:
                k = idx[op]
                lst = preds[k]
                for d in op.deps:
                    j = idx.get(d)
                    if j is None:
                        raise RuntimeError(
                            f"op {op.label!r} depends on {d.label!r}, which is not "
                            "issued on any resource of this simulator"
                        )
                    lst.append(j)
                if prev >= 0:
                    lst.append(prev)
                prev = k

        indeg = [len(ps) for ps in preds]
        succs: list[list[int]] = [[] for _ in range(n)]
        for k, ps in enumerate(preds):
            for p in ps:
                succs[p].append(k)

        ends = [0.0] * n
        ready = deque(k for k in range(n) if indeg[k] == 0)
        done = 0
        while ready:
            k = ready.popleft()
            op = ops[k]
            t0 = 0.0
            for p in preds[k]:
                e = ends[p]
                if e > t0:
                    t0 = e
            op.start = t0
            end = t0 + op.duration
            op.end = end
            ends[k] = end
            done += 1
            for s in succs[k]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if done != n:
            stuck = [op.label for op in ops if op.start is None][:8]
            raise RuntimeError(f"dependency cycle involving ops: {stuck}")

        records = [
            OpRecord(
                label=op.label,
                resource=op.resource.name,
                category=op.category,
                start=op.start,  # type: ignore[arg-type]
                end=op.end,  # type: ignore[arg-type]
            )
            for op in ops
        ]
        records.sort(key=lambda rec: (rec.start, rec.resource, rec.label))
        return records

    def makespan(self) -> float:
        """End time of the last op (valid after :meth:`run`)."""
        ends = [op.end for r in self.resources for op in r.ops if op.end is not None]
        return max(ends, default=0.0)

    def reset(self) -> None:
        """Discard all issued ops, keeping the resources."""
        for r in self.resources:
            r.reset()
