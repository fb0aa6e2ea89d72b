"""Per-line AST rules of ``repro lint`` (layer 2), plus what every layer
shares: the finding record, ``# noqa`` parsing and file discovery.

Four rules encode conventions of this simulator that generic linters
cannot know; one visitor pass serves whichever of them the driver
(:mod:`repro.sanitizers.runner`) selected for the file:

REP001
    No wall-clock reads (``time.time``/``perf_counter``/``monotonic``/
    ``process_time``) inside the simulation paths ``repro/hw/`` and
    ``repro/core/``. Simulated time must come from the DES clock;
    measuring real time belongs in ``repro/util/timing.py``.
REP002
    No ``==``/``!=`` against float literals. Simulated times, rates and
    shares are sums/products of floats — exact comparison is a latent
    bug (compare with a tolerance, or use ``<=`` for a zero guard).
REP003
    No mutation of a device's fault/share scaling state
    (``fault_compute_scale``/``fault_copy_scale``/``share_scale``)
    outside ``repro/hw/device.py``. Everyone else must go through the
    Device API (``apply_fault``/``set_capacity_share``/…), which keeps
    the derived rates consistent.
REP004
    No unguarded division by a name that looks like a rate/bandwidth/
    fps/speed. Under faults these legitimately reach zero (a dropped
    link has no bandwidth), so each such division needs a visible guard:
    a conditional or assert mentioning the name, a ``max(x, eps)``
    clamp, or an ``x or fallback``.

Suppression: a trailing ``# noqa`` comment silences every rule on that
line; ``# noqa: REP004`` (comma-separated list allowed) silences only
the named rules. Rules co-exist with ruff's — the namespaces are
disjoint, and ruff ignores unknown ``noqa`` codes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sanitizers.dataflow.engine import Emitter, Module

#: What each per-line rule reports — also its rule-table description.
MESSAGES: dict[str, str] = {
    "REP001": "wall-clock read inside simulation code (use the DES clock)",
    "REP002": "exact ==/!= comparison against a float literal",
    "REP003": "Device fault/share scaling mutated outside hw/device.py",
    "REP004": "unguarded division by a rate/bandwidth that can be zero",
}

_WALL_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
_PROTECTED_DEVICE_ATTRS = frozenset(
    {"fault_compute_scale", "fault_copy_scale", "share_scale"}
)
_RATE_NAME_RE = re.compile(r"(?:^|_)(bw|bandwidth|rate|rates|fps|speed|speeds)(?:_|$)")
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?", re.I)


@dataclass(frozen=True)
class LintViolation:
    """One static-lint finding, in ``path:line:col: RULE message`` form."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def noqa_codes(source: str) -> dict[int, frozenset[str] | None]:
    """Line → suppressed rule codes (``None`` = blanket ``# noqa``)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        codes = m.group("codes")
        out[lineno] = (
            None
            if codes is None
            else frozenset(c.strip().upper() for c in codes.split(","))
        )
    return out


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _names_in(node: ast.expr) -> set[str]:
    """Every dotted name (and each trailing attribute) under ``node``."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            dotted = _dotted(sub)
            if dotted:
                found.add(dotted)
                found.add(dotted.rsplit(".", 1)[-1])
    return found


class _LineRules(ast.NodeVisitor):
    def __init__(self, emitters: dict[str, Emitter]) -> None:
        self.emitters = emitters
        # Stack of per-function guard scopes for REP004: names that appear
        # in any conditional/assert test within the enclosing function are
        # considered guarded anywhere in it (control flow is not tracked —
        # the rule asks for a *visible* guard, not a proven one).
        self._guard_stack: list[set[str]] = [set()]

    def _emit(self, rule: str, node: ast.AST) -> None:
        self.emitters[rule].emit(node, MESSAGES[rule])

    # ----------------------------- REP001 -----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if "REP001" in self.emitters:
            dotted = _dotted(node.func)
            if (
                dotted
                and "." in dotted
                and dotted.split(".", 1)[0] == "time"
                and dotted.rsplit(".", 1)[-1] in _WALL_CLOCK_ATTRS
            ):
                self._emit("REP001", node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if "REP001" in self.emitters and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_ATTRS:
                    self._emit("REP001", node)
                    break
        self.generic_visit(node)

    # ----------------------------- REP002 -----------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, (_lhs, rhs) in zip(node.ops, zip(operands, operands[1:], strict=False), strict=False):
            if (
                "REP002" in self.emitters
                and isinstance(op, (ast.Eq, ast.NotEq))
                and any(
                    isinstance(x, ast.Constant) and isinstance(x.value, float)
                    for x in (_lhs, rhs)
                )
            ):
                self._emit("REP002", node)
                break
        self.generic_visit(node)

    # ----------------------------- REP003 -----------------------------

    def _check_protected_target(self, target: ast.expr) -> None:
        if (
            "REP003" in self.emitters
            and isinstance(target, ast.Attribute)
            and target.attr in _PROTECTED_DEVICE_ATTRS
        ):
            self._emit("REP003", target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._check_protected_target(elt)
            else:
                self._check_protected_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_protected_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_protected_target(node.target)
        self.generic_visit(node)

    # ----------------------------- REP004 -----------------------------

    def _enter_scope(self, node: ast.AST) -> None:
        guards: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.If, ast.While, ast.Assert, ast.IfExp)):
                guards |= _names_in(sub.test)
            elif isinstance(sub, ast.comprehension):
                for cond in sub.ifs:
                    guards |= _names_in(cond)
        self._guard_stack.append(guards)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)
        self.generic_visit(node)
        self._guard_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)
        self.generic_visit(node)
        self._guard_stack.pop()

    def _is_guarded(self, denom: ast.expr) -> bool:
        # Expression-level guards: max(x, eps) / (x or fallback) /
        # any computed denominator — the rule targets bare names only.
        if not isinstance(denom, (ast.Name, ast.Attribute)):
            return True
        dotted = _dotted(denom)
        if dotted is None:
            return True
        tail = dotted.rsplit(".", 1)[-1]
        for guards in self._guard_stack:
            if dotted in guards or tail in guards:
                return True
        return False

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if "REP004" in self.emitters and isinstance(
            node.op, (ast.Div, ast.FloorDiv, ast.Mod)
        ):
            dotted = _dotted(node.right)
            if dotted is not None:
                tail = dotted.rsplit(".", 1)[-1]
                if _RATE_NAME_RE.search(tail) and not self._is_guarded(node.right):
                    self._emit("REP004", node)
        self.generic_visit(node)


def check_lines(module: Module, emitters: dict[str, Emitter]) -> None:
    """One visitor pass serving every selected REP00x rule."""
    _LineRules(emitters).visit(module.tree)


def iter_python_files(target: Path) -> list[Path]:
    if target.is_file():
        return [target]
    return sorted(
        p
        for p in target.rglob("*.py")
        if "__pycache__" not in p.parts
        and not any(part.startswith(".") for part in p.parts)
    )


__all__ = [
    "MESSAGES",
    "LintViolation",
    "check_lines",
    "iter_python_files",
    "noqa_codes",
]
