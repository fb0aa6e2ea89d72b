"""The rule table and the one driver behind ``repro lint``.

Every static rule is one :class:`Rule` row of :data:`RULES`: its id, a
one-line description, the path scope it is meaningful in, whether it
reads the whole-scope call graph (``needs_graph``) and how it runs —
an ``analysis`` solved over every function's CFG by the layer-3 engine,
or a whole-module ``run`` pass.

:func:`run_lint` (files/directories) and :func:`analyze` (one source
string) share one driver: each file is read and parsed once, only the
artifacts the selected rows declare are built, and each module gets one
pass over its functions — one CFG and one :class:`FunctionContext` per
function, every applicable analysis solved over it. ``# noqa``
filtering, the crash-to-:class:`AnalyzerError` policy and the sort
order live here and nowhere else. Findings depend only on (sources,
selected rows), so the output is deterministic.
"""

from __future__ import annotations

import ast
import os
import re
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.sanitizers.concurrency.callgraph import CallGraph, build_graph
from repro.sanitizers.concurrency.forksafety import check_fork_safety
from repro.sanitizers.dataflow.cfg import build_cfg, build_module_cfg
from repro.sanitizers.dataflow.determinism import DeterminismAnalysis
from repro.sanitizers.dataflow.engine import (
    AnalyzerError,
    Emitter,
    FunctionAnalysis,
    FunctionContext,
    Module,
    iter_functions,
    run_analysis,
)
from repro.sanitizers.lint import (
    MESSAGES,
    LintViolation,
    check_lines,
    iter_python_files,
    noqa_codes,
)
from repro.sanitizers.protocols.clocks import ClockAnalysis
from repro.sanitizers.protocols.invalidation import InvalidationAnalysis

#: A whole-module pass: ``(module, graph, emitters of the selected rows)``.
ModulePass = Callable[[Module, CallGraph | None, dict[str, Emitter]], None]


@dataclass(frozen=True)
class Rule:
    """One row of the rule table."""

    id: str
    description: str
    scope: re.Pattern[str]  # searched in the posix display path
    needs_graph: bool = False  # built once over every parsed module
    analysis: Callable[[], FunctionAnalysis] | None = None
    run: ModulePass | None = None
    #: also solve ``analysis`` over the module's top-level statements
    toplevel: bool = False


def _in(*packages: str) -> re.Pattern[str]:
    return re.compile(rf"repro/({'|'.join(packages)})/")


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        # Layer 2, per-line AST rules: one visitor pass serves all four.
        Rule("REP001", MESSAGES["REP001"], _in("hw", "core"), run=check_lines),
        Rule("REP002", MESSAGES["REP002"], re.compile(""), run=check_lines),
        Rule(
            "REP003",
            MESSAGES["REP003"],
            re.compile(r"^(?!.*repro/hw/device\.py$)"),
            run=check_lines,
        ),
        Rule("REP004", MESSAGES["REP004"], re.compile(""), run=check_lines),
        # Layer 3, dataflow.
        Rule(
            "REP102",
            "unordered set iteration leaks into event/candidate ordering",
            _in("hw", "core", "service"),
            analysis=DeterminismAnalysis,
            toplevel=True,
        ),
        # Layer 4, concurrency: every module the pool machinery can
        # execute (fork inherits all of them).
        Rule(
            "REP201",
            "fork-unsafe primitive before/inside the pool initializer",
            _in("exec", "hw", "service"),
            needs_graph=True,
            run=check_fork_safety,
        ),
        # Layer 5, protocols: clocks in the DES tiers, cache
        # invalidation in the framework core.
        Rule(
            "REP302",
            "clock rewound or cross-assigned between clock domains",
            _in("service", "cluster", "core"),
            analysis=ClockAnalysis,
        ),
        Rule(
            "REP304",
            "live-set mutated without note_live_set_change before solve",
            _in("core"),
            needs_graph=True,
            analysis=InvalidationAnalysis,
        ),
    )
}


def rules_in_scope(display: str, rules: list[str] | None = None) -> list[str]:
    """Ids of ``rules`` (default: the whole table) whose scope matches."""
    posix = display.replace("\\", "/")
    return [
        rule
        for rule in (RULES if rules is None else rules)
        if RULES[rule].scope.search(posix)
    ]


@contextmanager
def _timed(timings: dict[str, float], key: str) -> Iterator[None]:
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _guarded(
    errors: list[AnalyzerError],
    where: tuple[str, str, str],
    call: Callable[..., None],
    *args: object,
) -> None:
    """The one crash policy: a rule that raises becomes an
    :class:`AnalyzerError` at ``where`` = (path, function, rule) and the
    remaining functions/rules still run."""
    try:
        call(*args)
    except RecursionError as exc:  # deep ASTs: report, don't crash the run
        errors.append(AnalyzerError(*where, f"recursion limit: {exc}"))
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 2
        errors.append(AnalyzerError(*where, f"{type(exc).__name__}: {exc}"))


def _check_module(
    module: Module,
    rows: list[Rule],
    graph: CallGraph | None,
    timings: dict[str, float],
    errors: list[AnalyzerError],
) -> list[LintViolation]:
    """Every selected row over one module; findings after ``# noqa``."""
    display = module.display
    emitters = {row.id: Emitter(row.id, display) for row in rows}

    # Whole-module passes; rows sharing one (the REP00x visitor) run it
    # once and are timed together (``REP00x``).
    passes: dict[ModulePass, list[str]] = {}
    for row in rows:
        if row.run is not None:
            passes.setdefault(row.run, []).append(row.id)
    for run, ids in passes.items():
        label = ids[0] if len(ids) == 1 else os.path.commonprefix(ids) + "x"
        with _timed(timings, label):
            _guarded(
                errors, (display, "<module>", label),
                run, module, graph, emitters,
            )

    # The per-function pass: one CFG, every applicable analysis.
    solvers = [
        (row, row.analysis()) for row in rows if row.analysis is not None
    ]
    units = list(module.functions) if solvers else []
    if any(row.toplevel for row, _ in solvers):
        units.insert(0, ("<module>", None))
    for qualname, fn in units:
        with _timed(timings, "cfg"):
            cfg = (
                build_module_cfg(module.tree, name=display)
                if fn is None
                else build_cfg(fn, qualname=qualname)
            )
        ctx = FunctionContext(fn, qualname, graph)
        for row, analysis in solvers:
            if fn is None and not row.toplevel:
                continue
            with _timed(timings, row.id):
                _guarded(
                    errors, (display, qualname, row.id),
                    run_analysis, cfg, analysis, ctx, emitters[row.id],
                )

    found = [v for emitter in emitters.values() for v in emitter.findings]
    if not found:
        return found
    noqa = noqa_codes(module.source)
    kept: list[LintViolation] = []
    for v in found:
        codes = noqa.get(v.line, frozenset())
        if codes is not None and v.rule not in codes:
            kept.append(v)
    return kept


def _lint(
    sources: list[tuple[str, str, list[str]]],
    timings: dict[str, float] | None = None,
    unreadable: list[LintViolation] | None = None,
) -> tuple[list[LintViolation], list[AnalyzerError]]:
    """The driver: ``(display, source, rule ids to run on it)`` triples
    in, sorted findings out. ``unreadable`` seeds the findings with the
    files that never became a source string.
    """
    timings = {} if timings is None else timings
    findings = list(unreadable or ())
    errors: list[AnalyzerError] = []
    work: list[tuple[Module, list[Rule]]] = []
    for display, source, rules in sources:
        with _timed(timings, "parse"):
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as exc:
                findings.append(LintViolation(
                    "REP000", display, exc.lineno or 0, exc.offset or 0,
                    f"syntax error: {exc.msg}",
                ))
                continue
            module = Module(display, source, tree, iter_functions(tree))
        work.append((module, [RULES[rule] for rule in rules]))

    # The call graph spans every parsed module (an edge may come from a
    # file no selected rule is scoped to), but is built only if some
    # selected row reads it.
    graph = None
    if any(row.needs_graph for _module, rows in work for row in rows):
        with _timed(timings, "graph"):
            graph = build_graph([module for module, _rows in work])

    for module, rows in work:
        findings += _check_module(module, rows, graph, timings, errors)
    findings.sort(key=lambda v: (v.path, v.line, v.rule, v.col))
    return findings, errors


def run_lint(
    targets: list[Path],
    rules: list[str] | None = None,
    timings: dict[str, float] | None = None,
) -> tuple[list[LintViolation], list[AnalyzerError]]:
    """Lint every ``.py`` under the targets (files or directories).

    ``rules`` names the table rows to run (default: all of them, the
    CLI's ``--select`` otherwise); each runs on the files its scope
    matches. Returns ``(findings, internal_errors)``, findings sorted by
    (path, line, rule, col). A file that cannot be read or parsed is a
    ``REP000`` finding, not a skipped file. Seconds per rule and per
    shared step (``parse``/``graph``/``cfg``) accumulate
    into ``timings`` when given.
    """
    sources: list[tuple[str, str, list[str]]] = []
    unreadable: list[LintViolation] = []
    for target in targets:
        for path in iter_python_files(target):
            display = str(path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                unreadable.append(LintViolation(
                    "REP000", display, 0, 0, f"unreadable file: {exc}"
                ))
                continue
            sources.append((display, source, rules_in_scope(display, rules)))
    return _lint(sources, timings, unreadable)


def analyze(
    source: str, display: str, rules: list[str] | None = None
) -> tuple[list[LintViolation], list[AnalyzerError]]:
    """Lint one module's source text under the display path ``display``.

    ``rules=None`` runs the rows whose scope matches the path; a list
    runs exactly those rows, in or out of scope. The call graph spans
    just this module.
    """
    picked = rules_in_scope(display) if rules is None else list(rules)
    return _lint([(display, source, picked)])


__all__ = ["RULES", "Rule", "analyze", "rules_in_scope", "run_lint"]
