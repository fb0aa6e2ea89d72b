"""Analysis subsystem: two runtime checks and seven static rules.

Layer 1 (:mod:`repro.sanitizers.cluster`) audits a fleet run's segment
bookkeeping (SAN-E1); the schedule invariants themselves are held by
plain tests (DESIGN.md "Layer 1 — the timeline sanitizer's verdict").
The static rules run under ``repro lint`` from one rule table and one
driver (:mod:`repro.sanitizers.runner`): per-line AST rules
(:mod:`repro.sanitizers.lint`, REP00x), the CFG + abstract-interpretation
rule REP102 (:mod:`repro.sanitizers.dataflow`), and the clock and
cache-invalidation rules REP302/REP304 (:mod:`repro.sanitizers.protocols`,
which also holds the protocol specs and the SAN-G replay of the runtime
journal, :func:`check_protocols`). The process backend's fork safety
(layer 4's REP201 once) is held by plain tests.
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
