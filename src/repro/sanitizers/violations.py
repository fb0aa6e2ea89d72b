"""Structured violation records shared by both sanitizer layers.

Every check — dynamic (timeline/schedule) or static (AST lint) — reports
:class:`Violation` objects instead of raising ad hoc, so callers can
collect, group, filter by rule, render for humans, or serialize to JSON.
Strict mode turns a non-empty report into a single
:class:`ScheduleViolationError` carrying the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Dynamic (schedule) rule identifiers, by violation class of the design
#: doc: A = engine races, B = dependency/τ races, C = conservation,
#: D = service invariants, E = cluster invariants, G = lifecycle protocols.
SCHED_RULES: dict[str, str] = {
    "SAN-A1": "two ops overlap on one serially-executing engine",
    "SAN-A2": "concurrent copies exceed the device's copy-engine count",
    "SAN-B1": "τ synchronization points out of order (need τ1 ≤ τ2 ≤ τtot)",
    "SAN-B2": "op executes outside its synchronization window",
    "SAN-C1": "distribution vector does not exactly cover the MB rows",
    "SAN-C2": "Δm/Δl deltas disagree with MS_BOUNDS/LS_BOUNDS",
    "SAN-C3": "transfer bytes disagree with rows × bytes-per-row",
    "SAN-C4": "σ/σʳ deferrals do not conserve the missing SF rows",
    "SAN-D1": "per-round capacity shares sum above the whole platform",
    "SAN-D2": "work scheduled on a device that is down/evicted",
    "SAN-E1": "stream owned by more than one node at a time",
    "SAN-E2": "segment placed on a node outside its live window",
    "SAN-E3": "frames lost or duplicated across a cluster reroute",
    "SAN-G1": "lifecycle event illegal in the object's protocol state "
              "(or its clock ran backwards)",
    "SAN-G2": "protocol obligation unmet (missing disposition, "
              "invalidation, or shutdown)",
}


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by a sanitizer.

    ``frame`` is the 1-based inter-frame index (0 when not applicable,
    e.g. service-level checks keyed by round instead), ``where`` names the
    resource/device/stream the violation is anchored to.
    """

    rule: str
    message: str
    frame: int = 0
    where: str = ""

    def __str__(self) -> str:
        loc = f" frame={self.frame}" if self.frame else ""
        at = f" at {self.where}" if self.where else ""
        return f"{self.rule}{loc}{at}: {self.message}"


class ScheduleViolationError(AssertionError):
    """Raised in strict mode when a timeline fails sanitization.

    Subclasses ``AssertionError`` so pytest renders it as a test failure
    rather than an error, and existing ``validate_schedule`` callers can
    catch both uniformly.
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

    def add(self, rule: str, message: str, frame: int = 0, where: str = "") -> None:
        self.violations.append(
            Violation(rule=rule, message=message, frame=frame, where=where)
        )

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
                    "frame": v.frame,
                    "where": v.where,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }
