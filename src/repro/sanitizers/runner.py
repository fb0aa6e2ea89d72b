"""Lint runner: every analysis layer over every file in scope.

``repro lint`` routes through :func:`run_lint`:

1. Collect the file list and build the whole-scope artifacts a single
   file cannot produce: the merged dataflow unit summaries (REP101's
   cross-module signatures) and the layer-4 call graph (REP201
   reachability, REP304 solve reachability).
2. Per file, run the per-line lint (REP0xx), the dataflow rules
   (REP1xx), the concurrency rules (REP2xx) and the protocol rules
   (REP3xx) against those artifacts.

Each file's findings depend only on (source, summaries, graph) and are
collected in input order, so the output is deterministic.
"""

from __future__ import annotations

from pathlib import Path

from repro.sanitizers.concurrency import (
    CONCURRENCY_RULES,
    analyze_source as analyze_concurrency,
)
from repro.sanitizers.concurrency.callgraph import CallGraph, build_graph
from repro.sanitizers.dataflow import (
    DATAFLOW_RULES,
    analyze_source as analyze_dataflow,
)
from repro.sanitizers.dataflow.engine import AnalyzerError
from repro.sanitizers.dataflow.summaries import SummaryStore
from repro.sanitizers.lint import (
    LINT_RULES,
    LintViolation,
    iter_python_files,
    lint_source,
)
from repro.sanitizers.protocols import (
    PROTOCOL_RULES,
    analyze_source as analyze_protocols,
)

#: (display, source) for every module in the lint scope.
Modules = list[tuple[str, str]]

#: One file's result: findings, internal errors, per-rule seconds.
FileResult = tuple[list[LintViolation], list[AnalyzerError], dict[str, float]]


def _layer_only(
    rules: dict[str, str], only: list[str] | None
) -> list[str] | None:
    return None if only is None else [r for r in rules if r in only]


def collect_modules(targets: list[Path]) -> Modules:
    modules: Modules = []
    for target in targets:
        for path in iter_python_files(target):
            try:
                source = path.read_text()
            except (OSError, UnicodeDecodeError):
                continue
            modules.append((str(path), source))
    return modules


def build_shared(
    modules: Modules, store: SummaryStore | None = None
) -> tuple[dict[str, str], CallGraph]:
    """The whole-scope artifacts every per-file task reads."""
    import ast

    store = store if store is not None else SummaryStore()
    trees: list[tuple[str, ast.Module]] = []
    for display, source in modules:
        store.add_module(display, source)
        try:
            trees.append((display, ast.parse(source, filename=display)))
        except SyntaxError:
            continue
    merged = store.merged()
    store.save()
    return merged, build_graph(trees)


def run_file(
    display: str,
    source: str,
    summaries: dict[str, str],
    graph: CallGraph,
    only: list[str] | None,
) -> FileResult:
    """All four analysis layers over one module."""
    import time

    timings: dict[str, float] = {}
    violations: list[LintViolation] = []
    errors: list[AnalyzerError] = []

    line_only = _layer_only(LINT_RULES, only)
    if line_only is None or line_only:
        t0 = time.perf_counter()
        found = lint_source(source, Path(display))
        if line_only is not None:
            found = [v for v in found if v.rule in line_only]
        violations.extend(found)
        timings["REP0xx"] = time.perf_counter() - t0

    for analyze, rules, kwargs in (
        (analyze_dataflow, DATAFLOW_RULES, {"summaries": summaries}),
        (analyze_concurrency, CONCURRENCY_RULES, {"graph": graph}),
        (analyze_protocols, PROTOCOL_RULES, {"graph": graph}),
    ):
        v, e = analyze(
            source,
            display,
            only=_layer_only(rules, only),
            timings=timings,
            **kwargs,
        )
        violations.extend(v)
        errors.extend(e)
    return violations, errors, timings


def run_lint(
    targets: list[Path],
    *,
    only: list[str] | None = None,
    timings: dict[str, float] | None = None,
    store: SummaryStore | None = None,
) -> tuple[list[LintViolation], list[AnalyzerError]]:
    """Every lint layer over the targets.

    ``only`` restricts to a rule subset (the CLI's ``--select``).
    Returns ``(violations, errors)`` in file order; the caller sorts and
    formats. Per-rule seconds accumulate into ``timings`` when given.
    """
    modules = collect_modules(targets)
    summaries, graph = build_shared(modules, store=store)
    violations: list[LintViolation] = []
    errors: list[AnalyzerError] = []
    for display, source in modules:
        file_violations, file_errors, file_timings = run_file(
            display, source, summaries, graph, only
        )
        violations.extend(file_violations)
        errors.extend(file_errors)
        if timings is not None:
            for rule, dt in file_timings.items():
                timings[rule] = timings.get(rule, 0.0) + dt
    return violations, errors


__all__ = ["collect_modules", "build_shared", "run_file", "run_lint"]
