"""REP104 — measurement paths must not mutate framework/device state.

Performance Characterization (paper §III.C) is an *observer*: the
calibration fits and the report analysis read timelines and produce
models.  If a measurement path mutates the framework or a device —
resetting counters, applying faults, rescaling shares — the measurement
perturbs the system it measures and calibration stops being
reproducible.  This rule runs only over the characterization modules
(``hw/calibration.py``, ``core/analysis.py``).

It tracks *escape*: parameters, globals and anything reached through
them are FOREIGN; literals, fresh containers and copies are LOCAL.
Stores into a FOREIGN attribute/subscript, and known mutator calls
(``.append``/``.update``/``set_*``/``apply_fault``/``reset``…) on a
FOREIGN root, are findings.  Call results are treated as local so the
rule stays quiet on builder-style code; the mutants in the test suite
mutate reachable state directly, which is what the rule guards.
"""

from __future__ import annotations

import ast

from repro.sanitizers.dataflow.cfg import (
    Element,
    ExceptElem,
    IterElem,
    TestElem,
    WithElem,
)
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext

LOCAL = "local"
FOREIGN = "foreign"

State = tuple[tuple[str, str], ...]  # sorted (name, LOCAL|FOREIGN) pairs

_MUTATOR_NAMES = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "sort",
        "reverse",
        "apply_fault",
        "invalidate",
        "reset",
        "rescale",
        "shuffle",
    }
)

_MUTATOR_PREFIXES = ("set_", "observe_", "record_", "apply_", "inject_")

_LOCAL_MAKERS = frozenset(
    {
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "sorted",
        "copy",
        "deepcopy",
        "defaultdict",
        "Counter",
        "OrderedDict",
    }
)


def _pack(env: dict[str, str]) -> State:
    return tuple(sorted(env.items()))


def _root_name(node: ast.expr) -> str | None:
    """The base Name an attribute/subscript chain hangs off, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class PurityAnalysis:
    """REP104 dataflow rule (see module docstring)."""

    def initial_state(self, ctx: FunctionContext) -> State:
        env: dict[str, str] = {}
        fn = ctx.fn
        if fn is not None:
            args = (
                list(fn.args.posonlyargs)
                + list(fn.args.args)
                + list(fn.args.kwonlyargs)
            )
            if fn.args.vararg:
                args.append(fn.args.vararg)
            if fn.args.kwarg:
                args.append(fn.args.kwarg)
            for a in args:
                env[a.arg] = FOREIGN
        return _pack(env)

    def join(self, a: State, b: State) -> State:
        if a == b:
            return a
        ea, eb = dict(a), dict(b)
        out: dict[str, str] = {}
        for k in ea.keys() | eb.keys():
            va = ea.get(k, FOREIGN)
            vb = eb.get(k, FOREIGN)
            out[k] = va if va == vb else FOREIGN
        return _pack(out)

    def transfer(
        self, elem: Element, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        env = dict(state)
        if isinstance(elem, IterElem):
            # Elements of a foreign collection are foreign.
            esc = self._escape(elem.iterable, env)
            self._bind(elem.target, esc, env)
            self._scan_calls(elem.iterable, env, emit)
        elif isinstance(elem, TestElem):
            self._scan_calls(elem.expr, env, emit)
        elif isinstance(elem, WithElem):
            self._scan_calls(elem.context, env, emit)
            if elem.target is not None:
                self._bind(elem.target, LOCAL, env)
        elif isinstance(elem, ExceptElem):
            if elem.name:
                env[elem.name] = LOCAL
        elif isinstance(elem, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = elem.value
            if value is not None:
                self._scan_calls(value, env, emit)
            targets = (
                elem.targets if isinstance(elem, ast.Assign) else [elem.target]
            )
            for t in targets:
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    root = _root_name(t)
                    if root is not None and env.get(root, FOREIGN) == FOREIGN:
                        emit.emit(
                            elem,
                            f"measurement path stores into foreign state "
                            f"{ast.unparse(t)!r}; characterization must not "
                            "mutate framework/device state",
                        )
                elif value is not None:
                    esc = self._escape(value, env)
                    self._bind(t, esc, env)
        elif isinstance(elem, ast.Delete):
            for t in elem.targets:
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    root = _root_name(t)
                    if root is not None and env.get(root, FOREIGN) == FOREIGN:
                        emit.emit(
                            elem,
                            f"measurement path deletes foreign state "
                            f"{ast.unparse(t)!r}",
                        )
        elif isinstance(elem, ast.stmt):
            for sub in ast.iter_child_nodes(elem):
                if isinstance(sub, ast.expr):
                    self._scan_calls(sub, env, emit)
        return _pack(env)

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        return

    # ------------------------------------------------------------------

    def _bind(self, target: ast.expr, escape: str, env: dict[str, str]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = escape
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, escape, env)

    def _escape(self, expr: ast.expr, env: dict[str, str]) -> str:
        if isinstance(
            expr,
            (
                ast.Constant,
                ast.Dict,
                ast.List,
                ast.Set,
                ast.Tuple,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
                ast.JoinedStr,
            ),
        ):
            return LOCAL
        if isinstance(expr, ast.Name):
            return env.get(expr.id, FOREIGN)
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            return self._escape(expr.value, env)
        if isinstance(expr, ast.Call):
            # Call results are treated as fresh values; explicit copies
            # and container constructors obviously are.
            return LOCAL
        if isinstance(expr, ast.BinOp):
            return LOCAL  # arithmetic yields fresh values
        if isinstance(expr, ast.IfExp):
            a = self._escape(expr.body, env)
            b = self._escape(expr.orelse, env)
            return a if a == b else FOREIGN
        if isinstance(expr, ast.NamedExpr):
            return self._escape(expr.value, env)
        return LOCAL

    def _scan_calls(
        self, expr: ast.expr, env: dict[str, str], emit: Emitter
    ) -> None:
        """Flag mutator-method calls whose receiver is foreign."""
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute):
                continue
            name = func.attr
            if name not in _MUTATOR_NAMES and not name.startswith(
                _MUTATOR_PREFIXES
            ):
                continue
            # Only flag receivers we can resolve to a foreign root; a
            # call-result receiver (e.g. acc.setdefault(k, []).append)
            # is building local state.
            recv = func.value
            if isinstance(recv, ast.Call):
                continue
            root = _root_name(recv)
            if root is None:
                continue
            if env.get(root, FOREIGN) == FOREIGN:
                emit.emit(
                    sub,
                    f"measurement path calls mutator "
                    f"{ast.unparse(func)!r} on foreign state; "
                    "characterization must not mutate framework/device "
                    "state",
                )
