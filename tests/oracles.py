"""Slow reference twins of the scheduling hot path, kept as test oracles.

Production has one DES loop and one solve path; these are the
straightforward versions the equivalence tests diff it against, bit for
bit:

- :func:`reference_run` — Kahn's algorithm over per-op dicts with a
  ``list.pop(0)`` ready queue, the textbook form of
  :meth:`Simulator.run`'s index-based loop;
- :func:`make_cold` — turns a framework into a *cold* scheduler: every
  LP reaches HiGHS (no solve memo), every frame re-solves (no exact
  decision reuse), every transfer K is re-derived (no version-keyed
  table), and the DES runs :func:`reference_run`.

Both are built only from what ``src/`` already exposes
(:meth:`LoadBalancer.use_lp_cache`, instance attributes); nothing in
``src/`` knows they exist.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.core.framework import FevesFramework
from repro.core.load_balancing import LPSolveCache
from repro.hw.des import Op, OpRecord, Simulator


def reference_run(sim: Simulator, execute_thunks: bool = True) -> list[OpRecord]:
    """Dict-based Kahn evaluation of ``sim``'s issued ops."""
    ops: list[Op] = [op for r in sim.resources for op in r.ops]
    # Effective predecessor sets: explicit deps + previous op in queue.
    preds: dict[Op, list[Op]] = {}
    for r in sim.resources:
        for i, op in enumerate(r.ops):
            p = list(op.deps)
            if i > 0:
                p.append(r.ops[i - 1])
            preds[op] = p
    for op in ops:
        for d in op.deps:
            if d not in preds:
                raise RuntimeError(
                    f"op {op.label!r} depends on {d.label!r}, which is not "
                    "issued on any resource of this simulator"
                )

    indeg = {op: len(preds[op]) for op in ops}
    succs: dict[Op, list[Op]] = {op: [] for op in ops}
    for op, ps in preds.items():
        for p in ps:
            succs[p].append(op)

    # FIFO keeps evaluation deterministic.
    ready = [op for op in ops if indeg[op] == 0]
    done = 0
    while ready:
        op = ready.pop(0)
        t0 = max((p.end for p in preds[op]), default=0.0)
        op.start = t0
        op.end = t0 + op.duration
        if execute_thunks and op.thunk is not None:
            try:
                op.result = op.thunk(op)
            except Exception as exc:
                if not op.fail_ok:
                    raise
                op.error = exc
        done += 1
        for s in succs[op]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if done != len(ops):
        stuck = [op.label for op in ops if op.start is None][:8]
        raise RuntimeError(f"dependency cycle involving ops: {stuck}")

    records = [
        OpRecord(
            label=op.label,
            resource=op.resource.name,
            category=op.category,
            start=op.start,
            end=op.end,
        )
        for op in ops
    ]
    records.sort(key=lambda rec: (rec.start, rec.resource, rec.label))
    return records


class PassThroughLPCache(LPSolveCache):
    """An :class:`LPSolveCache` that remembers nothing."""

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> np.ndarray | None:
        self.misses += 1
        res = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        return res.x if res.success else None


def make_cold(fw: FevesFramework) -> FevesFramework:
    """Strip every scheduling shortcut from ``fw`` (in place).

    The fixed-point seed is deliberately left alone: it is solver state,
    not a cache — a cold solver carries it from frame to frame too.
    """
    balancer = fw.balancer
    balancer.use_lp_cache(PassThroughLPCache())
    warm_solve = balancer.solve

    def cold_solve(*args, **kwargs):
        balancer._cache_decision = None  # no decision reuse, exact or rtol
        return warm_solve(*args, **kwargs)

    balancer.solve = cold_solve
    balancer._kt_lookup = lambda perf: (
        lambda name, buf, dr: perf.k_transfer(name, buf, dr, balancer.sizes)
    )
    sim = fw.manager.sim
    sim.run = lambda execute_thunks=True: reference_run(sim, execute_thunks)
    return fw
