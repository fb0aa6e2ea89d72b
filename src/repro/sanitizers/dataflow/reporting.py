"""Lint output formats: text, stable JSON, and SARIF 2.1.0.

Findings arrive already sorted by (path, line, rule, col) from the
driver (:mod:`repro.sanitizers.runner`), so JSON output — a top-level
list — and CI artifacts diff cleanly across runs.  SARIF is the minimal
subset GitHub code scanning ingests: one run, one driver, rule metadata
from the rule table, one result per finding.
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


def format_sarif(
    violations: list[LintViolation], rules: dict[str, str]
) -> str:
    """SARIF 2.1.0 log with rule metadata and one result per finding."""
    results = [
        {
            "ruleId": v.rule,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": v.path},
                        "region": {
                            "startLine": max(1, v.line),
                            "startColumn": max(1, v.col),
                        },
                    }
                }
            ],
        }
        for v in violations
    ]
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/sanitizers"
                        ),
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": desc},
                            }
                            for rule, desc in sorted(rules.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=1)
