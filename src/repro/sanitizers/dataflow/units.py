"""REP101 — unit/dimension inference over rates, times, rows and bytes.

The simulator mixes four families of quantities: simulated seconds
(``*_s``/``*_us``, τ windows, durations), MB rows (distribution vectors,
``mb_rows``), bytes (buffer sizes, ``nbytes``) and their rates (``bw``
bytes/s, characterization Ks in s/row, fps in 1/s).  Mixing them
incorrectly — ``seconds + rows``, ``rows / seconds`` stored into a
bytes-typed field — type-checks fine and produces silently wrong
distributions, so this rule infers dimensions and flags the mixes.

Dimensions are abstract: TIME, ROW and BYTE exponents (frames and MBs
are treated as dimensionless counts; scale prefixes like µs vs s are one
dimension — scale bugs are out of scope).  A value's unit comes from,
in order: the dataflow environment, the inter-procedural summary table
(seeded from the signatures in ``hw/rates.py``, ``hw/interconnect.py``
and ``core/perf_model.py``, then extended by per-module summaries), and
naming conventions.  Unknown units are
silent — only a *known-vs-known* disagreement between non-dimensionless
units is a finding, which keeps the rule quiet on untyped code.
"""

from __future__ import annotations

import ast
import re

from repro.sanitizers.dataflow.cfg import (
    Element,
    ExceptElem,
    IterElem,
    TestElem,
    WithElem,
)
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext

# ---------------------------------------------------------------------------
# Unit representation: mapping dimension -> exponent, canonicalized to a
# sorted tuple so units are hashable and comparable.  None = unknown (top).

Unit = tuple[tuple[str, int], ...]

DIMENSIONLESS: Unit = ()
TIME: Unit = (("time", 1),)
ROW: Unit = (("row", 1),)
BYTE: Unit = (("byte", 1),)


def _make(dims: dict[str, int]) -> Unit:
    return tuple(sorted((d, e) for d, e in dims.items() if e != 0))


def u_mul(a: Unit | None, b: Unit | None, sign: int = 1) -> Unit | None:
    if a is None or b is None:
        return None
    dims = dict(a)
    for d, e in b:
        dims[d] = dims.get(d, 0) + sign * e
    return _make(dims)


def u_div(a: Unit | None, b: Unit | None) -> Unit | None:
    return u_mul(a, b, sign=-1)


def u_pow(a: Unit | None, n: int) -> Unit | None:
    if a is None:
        return None
    return _make({d: e * n for d, e in a})


def u_inv(a: Unit | None) -> Unit | None:
    return u_pow(a, -1)


def unit_str(u: Unit | None) -> str:
    """Human-readable unit, e.g. ``s/row`` or ``bytes/s``."""
    if u is None:
        return "?"
    if u == DIMENSIONLESS:
        return "1"
    names = {"time": "s", "row": "rows", "byte": "bytes"}
    num = [names[d] for d, e in u if e > 0 for _ in range(e)]
    den = [names[d] for d, e in u if e < 0 for _ in range(-e)]
    top = "·".join(num) if num else "1"
    return f"{top}/{'·'.join(den)}" if den else top


def parse_unit(text: str) -> Unit | None:
    """Inverse of :func:`unit_str` (summaries carry units as strings)."""
    if text == "?":
        return None
    if text == "1":
        return DIMENSIONLESS
    names = {"s": "time", "rows": "row", "bytes": "byte"}
    dims: dict[str, int] = {}
    num, _, den = text.partition("/")
    for part, sign in ((num, 1), (den, -1)):
        if not part or part == "1":
            continue
        for tok in part.split("·"):
            if tok not in names:
                return None
            dims[names[tok]] = dims.get(names[tok], 0) + sign
    return _make(dims)


# ---------------------------------------------------------------------------
# Naming conventions. Order matters: the first matching pattern wins, so
# the more specific per-row forms come before the bare suffixes.

_CONVENTIONS: list[tuple[re.Pattern[str], Unit]] = [
    # seconds per MB row (the characterization's K constants)
    (re.compile(r"(^|_)(row_u?s|row_ms|row_ns)$"), u_div(TIME, ROW)),  # type: ignore[list-item]
    (re.compile(r"^(u?s|ms)_per_row$"), u_div(TIME, ROW)),  # type: ignore[list-item]
    (re.compile(r"^k_"), u_div(TIME, ROW)),  # type: ignore[list-item]
    # bytes per MB row (buffer geometry)
    (re.compile(r"(^|_)bytes_per_row$"), u_div(BYTE, ROW)),  # type: ignore[list-item]
    # plain seconds
    (re.compile(r"(?<=.)_(s|u?secs?|seconds|u?s|ms|ns)$"), TIME),
    (re.compile(r"^(seconds|secs|duration|latency)$"), TIME),
    (re.compile(r"^tau"), TIME),
    # MB rows
    (re.compile(r"(?<=.)_rows$"), ROW),
    (re.compile(r"^(rows|mb_rows|n_rows|nrows)$"), ROW),
    # bytes
    (re.compile(r"(?<=.)_bytes$"), BYTE),
    (re.compile(r"^(n?bytes|size_bytes)$"), BYTE),
    # inverse bandwidth (seconds per byte) — before the _bw suffix rule
    (re.compile(r"(^|_)inv_bw$"), u_div(TIME, BYTE)),  # type: ignore[list-item]
    # bandwidths (bytes per second)
    (re.compile(r"(?<=.)_(gbps|mbps|bps)$"), u_div(BYTE, TIME)),  # type: ignore[list-item]
    (re.compile(r"^(bw|bandwidth)$|(?<=.)_(bw|bandwidth)$"), u_div(BYTE, TIME)),  # type: ignore[list-item]
    # frame rates: frames are dimensionless counts, so fps is 1/s
    (re.compile(r"^fps$|(?<=.)_fps$|^fps_"), u_inv(TIME)),  # type: ignore[list-item]
]


def convention_unit(name: str) -> Unit | None:
    """Unit implied by an identifier's naming convention, if any."""
    for pattern, unit in _CONVENTIONS:
        if pattern.search(name):
            return unit
    return None


# ---------------------------------------------------------------------------
# Builtin signature seeds: the REP101 ground truth from the simulator's
# core measurement API (paper §III.C), keyed by unqualified callable /
# attribute name.  Per-module summaries extend this table.

BUILTIN_SIGNATURES: dict[str, Unit] = {
    # hw/rates.py — ModuleRates
    "me_row_s": u_div(TIME, ROW),  # type: ignore[dict-item]
    "int_row_s": u_div(TIME, ROW),  # type: ignore[dict-item]
    "sme_row_s": u_div(TIME, ROW),  # type: ignore[dict-item]
    "rstar_row_s": u_div(TIME, ROW),  # type: ignore[dict-item]
    "rstar_frame_s": TIME,
    # hw/interconnect.py — LinkSpec / BufferSizes
    "transfer_s": TIME,
    "cf_row": u_div(BYTE, ROW),  # type: ignore[dict-item]
    "cf_row_full": u_div(BYTE, ROW),  # type: ignore[dict-item]
    "rf_row": u_div(BYTE, ROW),  # type: ignore[dict-item]
    "sf_row": u_div(BYTE, ROW),  # type: ignore[dict-item]
    "mv_row": u_div(BYTE, ROW),  # type: ignore[dict-item]
    "rf_frame": BYTE,
    # core/perf_model.py — PerformanceCharacterization
    "k_compute": u_div(TIME, ROW),  # type: ignore[dict-item]
    "k_transfer": u_div(TIME, ROW),  # type: ignore[dict-item]
    "bandwidth": u_div(BYTE, TIME),  # type: ignore[dict-item]
    "buffer_row_bytes": u_div(BYTE, ROW),  # type: ignore[dict-item]
    # hw/timeline.py / hw/des.py observables
    "busy_time": TIME,
    "duration": TIME,
    "makespan": TIME,
}

#: Builtins whose result carries the unit of their (first) argument.
_PASSTHROUGH_CALLS = frozenset(
    {"abs", "float", "round", "int", "sum", "min", "max", "sorted"}
)

#: Builtins whose result is dimensionless regardless of argument units.
_DIMENSIONLESS_CALLS = frozenset({"len", "bool", "enumerate", "range", "id"})


def _lookup(name: str, env: dict[str, Unit | None]) -> Unit | None:
    if name in env:
        return env[name]
    return convention_unit(name)


class UnitAnalysis:
    """REP101 dataflow rule (see module docstring)."""

    # -- lattice --------------------------------------------------------

    def initial_state(self, ctx: FunctionContext) -> dict[str, Unit | None]:
        env: dict[str, Unit | None] = {}
        fn = ctx.fn
        if fn is not None:
            args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
                fn.args.kwonlyargs
            )
            for a in args:
                unit = convention_unit(a.arg)
                if unit is not None:
                    env[a.arg] = unit
        return env

    def join(
        self, a: dict[str, Unit | None], b: dict[str, Unit | None]
    ) -> dict[str, Unit | None]:
        if a == b:
            return a
        out: dict[str, Unit | None] = {}
        for k in a.keys() | b.keys():
            ua = a.get(k, _MISSING)
            ub = b.get(k, _MISSING)
            if ua is _MISSING:
                out[k] = ub  # type: ignore[assignment]
            elif ub is _MISSING:
                out[k] = ua  # type: ignore[assignment]
            else:
                out[k] = ua if ua == ub else None  # disagree -> unknown
        return out

    # -- transfer -------------------------------------------------------

    def transfer(
        self,
        elem: Element,
        state: dict[str, Unit | None],
        emit: Emitter,
        ctx: FunctionContext,
    ) -> dict[str, Unit | None]:
        env = dict(state)
        if isinstance(elem, TestElem):
            self._infer(elem.expr, env, emit, ctx)
        elif isinstance(elem, IterElem):
            unit = self._infer(elem.iterable, env, emit, ctx)
            # Iterating a homogeneous collection yields elements of the
            # same dimension (rows of a rows-vector are still rows).
            self._bind(elem.target, unit, env)
        elif isinstance(elem, WithElem):
            unit = self._infer(elem.context, env, emit, ctx)
            if elem.target is not None:
                self._bind(elem.target, unit, env)
        elif isinstance(elem, ExceptElem):
            if elem.name:
                env[elem.name] = None
        elif isinstance(elem, ast.Assign):
            unit = self._infer(elem.value, env, emit, ctx)
            for target in elem.targets:
                self._assign(target, unit, elem, env, emit, ctx)
        elif isinstance(elem, ast.AnnAssign):
            if elem.value is not None:
                unit = self._infer(elem.value, env, emit, ctx)
                self._assign(elem.target, unit, elem, env, emit, ctx)
        elif isinstance(elem, ast.AugAssign):
            cur = self._target_unit(elem.target, env)
            rhs = self._infer(elem.value, env, emit, ctx)
            if isinstance(elem.op, (ast.Add, ast.Sub)):
                res = self._combine_add(cur, rhs, elem, emit)
            elif isinstance(elem.op, ast.Mult):
                res = u_mul(cur, rhs)
            elif isinstance(elem.op, (ast.Div, ast.FloorDiv)):
                res = u_div(cur, rhs)
            else:
                res = None
            self._bind(elem.target, res, env)
        elif isinstance(elem, ast.Return):
            if elem.value is not None:
                unit = self._infer(elem.value, env, emit, ctx)
                declared = None
                if ctx.fn is not None:
                    # The summary table (builtin signatures first) beats
                    # the naming convention for the declared return unit.
                    sig = ctx.summaries.get(ctx.fn.name)
                    declared = parse_unit(sig) if sig is not None else None
                    if declared is None and sig is None:
                        declared = convention_unit(ctx.fn.name)
                self._check_mismatch(
                    declared,
                    unit,
                    elem,
                    emit,
                    f"returns {unit_str(unit)} from a function named for "
                    f"{unit_str(declared)}",
                )
        elif isinstance(elem, ast.stmt):
            for sub in ast.walk(elem):
                if isinstance(sub, ast.expr):
                    self._infer(sub, env, emit, ctx)
                    break  # _infer recurses; only evaluate top-level exprs
        return env

    def at_exit(
        self,
        state: dict[str, Unit | None],
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        return

    # -- helpers --------------------------------------------------------

    def _bind(
        self, target: ast.expr, unit: Unit | None, env: dict[str, Unit | None]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, env)

    def _target_unit(
        self, target: ast.expr, env: dict[str, Unit | None]
    ) -> Unit | None:
        """Declared/known unit of an assignment target, if any."""
        if isinstance(target, ast.Name):
            return _lookup(target.id, env)
        if isinstance(target, ast.Attribute):
            return convention_unit(target.attr)
        if isinstance(target, ast.Subscript):
            # A store into e.g. ``k_sf[name]`` inherits the collection's
            # element convention.
            return self._target_unit(target.value, env)
        return None

    def _assign(
        self,
        target: ast.expr,
        unit: Unit | None,
        node: ast.stmt,
        env: dict[str, Unit | None],
        emit: Emitter,
        ctx: FunctionContext,
    ) -> None:
        declared = self._target_unit(target, env)
        if isinstance(target, ast.Name) and target.id in env:
            declared = convention_unit(target.id)  # re-binding: convention only
        self._check_mismatch(
            declared,
            unit,
            node,
            emit,
            f"assigns {unit_str(unit)} into a target typed/named "
            f"{unit_str(declared)}",
        )
        if isinstance(target, ast.Name):
            # Trust the declaration when it exists (stops cascades).
            env[target.id] = declared if declared is not None else unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, env)

    def _check_mismatch(
        self,
        a: Unit | None,
        b: Unit | None,
        node: ast.AST,
        emit: Emitter,
        detail: str,
    ) -> None:
        if (
            a is not None
            and b is not None
            and a != b
            and a != DIMENSIONLESS
            and b != DIMENSIONLESS
        ):
            emit.emit(node, f"unit mismatch: {detail}")

    def _combine_add(
        self,
        a: Unit | None,
        b: Unit | None,
        node: ast.AST,
        emit: Emitter,
    ) -> Unit | None:
        """Addition/subtraction/comparison: units must agree."""
        if a is None:
            return b
        if b is None:
            return a
        if a == DIMENSIONLESS:
            return b
        if b == DIMENSIONLESS:
            return a
        if a != b:
            emit.emit(
                node,
                f"unit mismatch: {unit_str(a)} combined with {unit_str(b)} "
                "in +/-/comparison",
            )
            return None
        return a

    # -- expression inference ------------------------------------------

    def _infer(
        self,
        expr: ast.expr,
        env: dict[str, Unit | None],
        emit: Emitter,
        ctx: FunctionContext,
    ) -> Unit | None:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)
            ):
                return None
            return DIMENSIONLESS
        if isinstance(expr, ast.Name):
            return _lookup(expr.id, env)
        if isinstance(expr, ast.Attribute):
            self._infer(expr.value, env, emit, ctx)
            dotted = _dotted(expr)
            if dotted is not None and dotted in env:
                return env[dotted]
            sig = ctx.summaries.get(expr.attr)
            if sig is not None:
                parsed = parse_unit(sig)
                if parsed is not None:
                    return parsed
            return convention_unit(expr.attr)
        if isinstance(expr, ast.Subscript):
            # Element of a homogeneous collection keeps its unit.
            base = self._infer(expr.value, env, emit, ctx)
            self._infer(expr.slice, env, emit, ctx)
            return base
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand, env, emit, ctx)
        if isinstance(expr, ast.BinOp):
            left = self._infer(expr.left, env, emit, ctx)
            right = self._infer(expr.right, env, emit, ctx)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                return self._combine_add(left, right, expr, emit)
            if isinstance(expr.op, ast.Mult):
                return u_mul(left, right)
            if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
                return u_div(left, right)
            if isinstance(expr.op, ast.Mod):
                return left
            if isinstance(expr.op, ast.Pow):
                if (
                    isinstance(expr.right, ast.Constant)
                    and isinstance(expr.right.value, int)
                ):
                    return u_pow(left, expr.right.value)
                return None
            return None
        if isinstance(expr, ast.Compare):
            left = self._infer(expr.left, env, emit, ctx)
            for op, comparator in zip(expr.ops, expr.comparators, strict=True):
                right = self._infer(comparator, env, emit, ctx)
                if isinstance(
                    op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
                ):
                    self._combine_add(left, right, expr, emit)
                left = right
            return DIMENSIONLESS
        if isinstance(expr, ast.BoolOp):
            units = [self._infer(v, env, emit, ctx) for v in expr.values]
            known = [u for u in units if u is not None]
            return known[0] if len(set(known)) == 1 and known else None
        if isinstance(expr, ast.IfExp):
            self._infer(expr.test, env, emit, ctx)
            a = self._infer(expr.body, env, emit, ctx)
            b = self._infer(expr.orelse, env, emit, ctx)
            return a if a == b else None
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, env, emit, ctx)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            units = [self._infer(e, env, emit, ctx) for e in expr.elts]
            known = {u for u in units if u is not None}
            return known.pop() if len(known) == 1 else None
        if isinstance(expr, ast.Dict):
            for k in expr.keys:
                if k is not None:
                    self._infer(k, env, emit, ctx)
            units = [self._infer(v, env, emit, ctx) for v in expr.values]
            known = {u for u in units if u is not None}
            return known.pop() if len(known) == 1 else None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = dict(env)
            for gen in expr.generators:
                it = self._infer(gen.iter, inner, emit, ctx)
                self._bind(gen.target, it, inner)
            return self._infer(expr.elt, inner, emit, ctx)
        if isinstance(expr, ast.DictComp):
            inner = dict(env)
            for gen in expr.generators:
                it = self._infer(gen.iter, inner, emit, ctx)
                self._bind(gen.target, it, inner)
            self._infer(expr.key, inner, emit, ctx)
            return self._infer(expr.value, inner, emit, ctx)
        if isinstance(expr, ast.Starred):
            return self._infer(expr.value, env, emit, ctx)
        if isinstance(expr, (ast.Lambda, ast.Await, ast.NamedExpr)):
            if isinstance(expr, ast.NamedExpr):
                unit = self._infer(expr.value, env, emit, ctx)
                self._bind(expr.target, unit, env)
                return unit
            if isinstance(expr, ast.Await):
                return self._infer(expr.value, env, emit, ctx)
            return None
        return None

    def _infer_call(
        self,
        call: ast.Call,
        env: dict[str, Unit | None],
        emit: Emitter,
        ctx: FunctionContext,
    ) -> Unit | None:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            self._infer(func.value, env, emit, ctx)
            name = func.attr

        arg_units = [self._infer(a, env, emit, ctx) for a in call.args]
        for kw in call.keywords:
            kw_unit = self._infer(kw.value, env, emit, ctx)
            if kw.arg is not None:
                declared = convention_unit(kw.arg)
                self._check_mismatch(
                    declared,
                    kw_unit,
                    kw.value,
                    emit,
                    f"passes {unit_str(kw_unit)} as keyword "
                    f"{kw.arg!r} ({unit_str(declared)})",
                )

        if name is None:
            return None
        if name in _DIMENSIONLESS_CALLS:
            return DIMENSIONLESS
        if name in _PASSTHROUGH_CALLS:
            known = {u for u in arg_units if u not in (None, DIMENSIONLESS)}
            if len(known) > 1 and name in ("min", "max"):
                emit.emit(
                    call,
                    "unit mismatch: "
                    + " vs ".join(sorted(unit_str(u) for u in known))
                    + f" mixed in {name}()",
                )
                return None
            return known.pop() if len(known) == 1 else (
                DIMENSIONLESS
                if arg_units and all(u == DIMENSIONLESS for u in arg_units)
                else None
            )
        sig = ctx.summaries.get(name)
        if sig is not None:
            parsed = parse_unit(sig)
            if parsed is not None:
                return parsed
        return convention_unit(name)


_MISSING = object()


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
