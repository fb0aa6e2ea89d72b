"""Inter-procedural unit summaries.

REP101 resolves calls it cannot see into by *summary*: a per-module map
from function/method name to the unit of its return value.  Summaries
are inferred bottom-up one level deep — parameter units come from
naming conventions, calls inside the summarized body resolve against
the builtin signature table only — which is enough to type the
measurement API (``k_compute`` → s/row, ``transfer_s`` → s, …) without
a whole-program fixpoint.

Name collisions across modules with *different* units are dropped to
unknown — a wrong summary is worse than none.
"""

from __future__ import annotations

import ast

from repro.sanitizers.dataflow.engine import (
    Emitter,
    FunctionContext,
    FunctionNode,
    Module,
)
from repro.sanitizers.dataflow.units import (
    BUILTIN_SIGNATURES,
    UnitAnalysis,
    convention_unit,
    unit_str,
)


def _infer_return_unit(fn: FunctionNode, base: dict[str, str]) -> str | None:
    """Unit of a function's return value, if consistently inferable."""
    if fn.name in base:
        # Builtin signatures are ground truth; don't let a naming
        # convention re-derive (and contradict) them.
        return base[fn.name]
    named = convention_unit(fn.name)
    if named is not None:
        return unit_str(named)
    analysis = UnitAnalysis()
    ctx = FunctionContext(fn=fn, qualname=fn.name, summaries=base)
    env = analysis.initial_state(ctx)
    sink = Emitter(rule="REP101", display="<summary>")  # findings discarded
    units = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            units.add(analysis._infer(node.value, env, sink, ctx))
    units.discard(None)
    if len(units) == 1:
        unit = units.pop()
        if unit:  # dimensionless summaries add nothing
            return unit_str(unit)
    return None


def summarize_module(tree: ast.Module) -> dict[str, str]:
    """name -> unit repr for every consistently-typed function/method."""
    base = {name: unit_str(u) for name, u in BUILTIN_SIGNATURES.items()}
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unit = _infer_return_unit(node, base)
            if unit is not None:
                out[node.name] = unit
    return out


def build_summaries(modules: list[Module]) -> dict[str, str]:
    """Global name -> unit table: builtins + all modules, conflicts out."""
    builtins = {name: unit_str(u) for name, u in BUILTIN_SIGNATURES.items()}
    merged = dict(builtins)
    conflicted: set[str] = set()
    for module in sorted(modules, key=lambda m: m.display):
        for name, unit in summarize_module(module.tree).items():
            if name in conflicted or name in builtins:
                continue  # builtin signatures always win
            prior = merged.get(name)
            if prior is None:
                merged[name] = unit
            elif prior != unit:
                # Same name, different units across modules: a wrong
                # summary is worse than none.
                conflicted.add(name)
                del merged[name]
    return merged
