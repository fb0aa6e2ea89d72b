"""Fast-path equivalence property: the scheduler is bit-identical to its oracle.

The LP solve memo, the exact decision reuse, the version-keyed
characterization tables and the issue-order DES pass are pure performance
work — with the rtol decision cache disabled (``lb_cache_rtol=0.0``)
they must reproduce a cold scheduler's output *exactly*: same timeline
records (same floats), same distributions, same taus, same fault log.
This property drives random platforms × codecs × fault schedules through
the production framework and through the cold twin built by
``tests/oracles.py``, and diffs the full run digests.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform

from oracles import make_cold
from test_property import framework_scenarios


def run_digest(platform_name, codec, faults, frames, cold=False):
    """Full bit-level digest of a run (None if faults killed every device)."""
    fw = FevesFramework(
        get_platform(platform_name), codec,
        FrameworkConfig(faults=faults, lb_cache_rtol=0.0),
    )
    if cold:
        make_cold(fw)
    try:
        for _ in range(frames):
            fw.encode_next_inter()
    except RuntimeError:
        return None
    return {
        "records": [
            [(r.label, r.resource, r.category, r.start, r.end)
             for r in rep.timeline.records]
            for rep in fw.reports
        ],
        "taus": [
            (rep.timeline.tau1, rep.timeline.tau2, rep.timeline.tau_tot)
            for rep in fw.reports
        ],
        "distributions": [
            (rep.decision.m.rows, rep.decision.l.rows, rep.decision.s.rows)
            for rep in fw.reports
        ],
        "fault_log": list(fw.fault_log),
    }


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(framework_scenarios())
def test_each_optimization_is_bit_identical_to_cold(scenario):
    platform_name, codec, faults, frames = scenario
    cold = run_digest(platform_name, codec, faults, frames, cold=True)
    fast = run_digest(platform_name, codec, faults, frames)
    assert fast == cold, (
        f"fast path diverged from the cold oracle on {platform_name} "
        f"with faults={faults.events}"
    )
