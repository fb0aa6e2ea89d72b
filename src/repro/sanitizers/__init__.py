"""Five-layer analysis subsystem: one dynamic sanitizer, four static layers.

Layer 1 (:mod:`repro.sanitizers.timeline`) is the dynamic race/invariant
checker for DES timelines, LP outputs and the runtime journals (SAN-A…G).
Layers 2–5 are static and run under ``repro lint`` from one rule table
and one driver (:mod:`repro.sanitizers.runner`): per-line AST rules
(:mod:`repro.sanitizers.lint`, REP00x), CFG + abstract-interpretation
dataflow rules (:mod:`repro.sanitizers.dataflow`, REP1xx), concurrency
rules for the process backend (:mod:`repro.sanitizers.concurrency`,
REP2xx) and the clock and cache-invalidation rules REP302/REP304
(:mod:`repro.sanitizers.protocols`, which also holds the protocol specs
SAN-G replays). Importing this package loads only the dynamic layer.
"""

from repro.sanitizers.timeline import TimelineSanitizer
from repro.sanitizers.violations import (
    SCHED_RULES,
    SanitizerReport,
    ScheduleViolationError,
    Violation,
)

__all__ = [
    "SCHED_RULES",
    "SanitizerReport",
    "ScheduleViolationError",
    "TimelineSanitizer",
    "Violation",
]
