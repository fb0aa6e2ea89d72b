"""Structured violation records shared by the dynamic and static layers.

Every check — dynamic (SAN-E1, SAN-G) or static (``repro lint``) — reports
:class:`Violation` objects instead of raising ad hoc, so callers can
collect, group, filter by rule, render for humans, or serialize to JSON.
Strict mode turns a non-empty report into a single
:class:`ScheduleViolationError` carrying the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Dynamic rule identifiers: E1 = one owner per stream
#: (:mod:`repro.sanitizers.cluster`), G = lifecycle protocols
#: (:mod:`repro.sanitizers.protocols.monitor`).
SCHED_RULES: dict[str, str] = {
    "SAN-E1": "stream owned by more than one node at a time",
    "SAN-G1": "lifecycle event illegal in the object's protocol state "
              "(or its clock ran backwards)",
    "SAN-G2": "protocol obligation unmet (missing disposition, "
              "invalidation, or shutdown)",
}


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by a sanitizer.

    ``where`` names the stream or object the violation is anchored to.
    """

    rule: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        at = f" at {self.where}" if self.where else ""
        return f"{self.rule}{at}: {self.message}"


class ScheduleViolationError(AssertionError):
    """Raised by :meth:`SanitizerReport.raise_if_dirty` on a dirty report.

    Subclasses ``AssertionError`` so pytest renders it as a test failure
    rather than an error.
    """

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} schedule invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        super().__init__("\n".join(lines))


@dataclass
class SanitizerReport:
    """Accumulated violations of one sanitization pass."""

    violations: list[Violation] = field(default_factory=list)

    def add(self, rule: str, message: str, where: str = "") -> None:
        self.violations.append(Violation(rule=rule, message=message, where=where))

    def extend(self, other: "SanitizerReport | list[Violation]") -> None:
        vs = other.violations if isinstance(other, SanitizerReport) else other
        self.violations.extend(vs)

    @property
    def clean(self) -> bool:
        return not self.violations

    def by_rule(self) -> dict[str, list[Violation]]:
        out: dict[str, list[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.rule, []).append(v)
        return out

    def raise_if_dirty(self) -> None:
        if self.violations:
            raise ScheduleViolationError(self.violations)

    def summary(self) -> str:
        if self.clean:
            return "schedule sanitizer: clean"
        parts = [
            f"{rule}×{len(vs)}" for rule, vs in sorted(self.by_rule().items())
        ]
        return f"schedule sanitizer: {len(self.violations)} violation(s) ({', '.join(parts)})"

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "count": len(self.violations),
            "violations": [
                {
                    "rule": v.rule,
                    "where": v.where,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }
