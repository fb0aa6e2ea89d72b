"""Lint output formats: text and stable JSON.

Findings arrive already sorted by (path, line, rule, col) from the
driver (:mod:`repro.sanitizers.runner`), so JSON output — a top-level
list — diffs cleanly across runs.
"""

from __future__ import annotations

import json

from repro.sanitizers.lint import LintViolation


def format_text(violations: list[LintViolation]) -> str:
    return "\n".join(str(v) for v in violations)


def format_json(violations: list[LintViolation]) -> str:
    payload = [
        {
            "rule": v.rule,
            "path": v.path,
            "line": v.line,
            "col": v.col,
            "message": v.message,
        }
        for v in violations
    ]
    return json.dumps(payload, indent=1)
