"""How well the LP's performance model predicts a run, on either backend.

The LP (Algorithm 2) predicts τ1/τ2/τtot for every frame it schedules;
the frame's :class:`~repro.core.coding_manager.FrameReport` holds those
predictions (its decision) beside the τs the DES simulated or the
process backend measured. The report folds the per-frame relative
errors so a single number — makespan error — says how well the
performance model predicts the run, and per-phase errors localize which
model (ME+INT rates, SME rates, or the R* residual) is off.

Frames the LP did not schedule (warm-up, equidistant fallback) carry no
prediction and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coding_manager import FrameReport


def _phase_errors(report: FrameReport) -> dict[str, float]:
    """Relative error ``|τ - predicted| / predicted`` per predicted phase."""
    d = report.decision
    pairs = (
        ("tau1", d.tau1_pred, report.tau1),
        ("tau2", d.tau2_pred, report.tau2),
        ("tau_tot", d.tau_tot_pred, report.tau_tot),
    )
    return {name: abs(tau - pred) / pred for name, pred, tau in pairs if pred > 0}


@dataclass(frozen=True)
class AccuracyReport:
    """The LP frames of a run's reports, scored against their predictions."""

    reports: tuple[FrameReport, ...]

    def summary(self) -> dict[str, object]:
        """JSON-ready aggregate: mean/max makespan error + per-phase means."""
        frames = [
            _phase_errors(r) for r in self.reports
            if r.decision.used_lp and r.decision.tau_tot_pred > 0
        ]
        if not frames:
            return {"frames": 0}
        cols: dict[str, list[float]] = {}
        for errs in frames:
            for name, err in errs.items():
                cols.setdefault(name, []).append(err)
        mk = cols["tau_tot"]
        return {
            "frames": len(frames),
            "makespan_error_mean": sum(mk) / len(mk),
            "makespan_error_max": max(mk),
            "phase_error_mean": {
                name: sum(col) / len(col) for name, col in sorted(cols.items())
            },
        }
