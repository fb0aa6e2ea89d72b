"""Five-layer analysis subsystem: two runtime checks, four static layers.

Layer 1 (:mod:`repro.sanitizers.cluster`) audits a fleet run's segment
bookkeeping (SAN-E1); the schedule invariants themselves are held by
plain tests (DESIGN.md "Layer 1 — the timeline sanitizer's verdict").
Layers 2–5 are static and run under ``repro lint`` from one rule table
and one driver (:mod:`repro.sanitizers.runner`): per-line AST rules
(:mod:`repro.sanitizers.lint`, REP00x), CFG + abstract-interpretation
dataflow rules (:mod:`repro.sanitizers.dataflow`, REP1xx), concurrency
rules for the process backend (:mod:`repro.sanitizers.concurrency`,
REP2xx) and the clock and cache-invalidation rules REP302/REP304
(:mod:`repro.sanitizers.protocols`, which also holds the protocol specs
and the SAN-G replay of the runtime journal, :func:`check_protocols`).
"""

from repro.sanitizers.cluster import check_cluster
from repro.sanitizers.protocols.monitor import check_protocols
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
    "Violation",
    "check_cluster",
    "check_protocols",
]
