"""Subset pruning is exact: the τtot floor is a floor, and skipping changes nothing.

``LoadBalancer.solve`` bounds each parked activity subset by a
closed-form floor on its LP optimum and skips the subsets whose floor
already exceeds the incumbent. Two properties make that a pure
performance change, checked here over a generator wider than
``framework_scenarios()`` (2–6 GPUs so both the full enumeration and the
leave-one-out branch run, links slow enough that parking wins, jittered
measurements, all three R* placements, 0–2 faults):

- every subset the exhaustive search solves has floor ≤ τtot — so a
  skipped subset could not have beaten the incumbent;
- a pruned run equals the exhaustive run (``oracles.solve_every_subset``:
  floor ≡ 0) in decisions, τ predictions, timeline records and fault log.

``PYTHONPATH=src:tests python tests/sanitizers/test_pruning_equivalence.py 220``
prints the scenarios / LP-solve-requests table EXPERIMENTS.md records.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import repro.core.framework as framework_module
import repro.core.load_balancing as lb_module
from repro.codec.config import CodecConfig
from repro.core.config import CENTRIC_MODES, FrameworkConfig
from repro.hw.device import DeviceSpec
from repro.hw.interconnect import LinkSpec
from repro.hw.noise import FaultSchedule, GaussianJitter, NoiseModel
from repro.hw.presets import CPU_N, GPU_K, get_platform, multi_gpu_platform
from repro.hw.topology import Platform

from oracles import log_subsets, solve_every_subset
from test_property import CODECS, fault_events

HD = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def slow_link_platform(gbps: float) -> Platform:
    """A fast GPU behind a link slow enough that parking it can win."""
    gpu = DeviceSpec(
        name="farGPU", kind="gpu", rates=GPU_K.rates,
        link=LinkSpec(h2d_gbps=gbps, d2h_gbps=gbps, latency_s=1e-3),
    )
    return Platform(name=f"link{gbps}", specs=[gpu, CPU_N])


@st.composite
def pruning_scenarios(draw):
    family = draw(st.sampled_from(("multi_gpu", "slow_link", "preset")))
    if family == "multi_gpu":
        build = partial(multi_gpu_platform, draw(st.integers(2, 6)))
    elif family == "slow_link":
        build = partial(slow_link_platform, draw(st.sampled_from((0.05, 0.2, 0.5, 2.0))))
    else:
        build = partial(get_platform, draw(st.sampled_from(("SysNF", "SysNFF", "SysHK"))))
    names = [d.name for d in build().devices]
    cfg = dict(
        centric=draw(st.sampled_from(CENTRIC_MODES)),
        sigma=draw(st.sampled_from((0.0, 0.05, 0.2))),
        events=tuple(fault_events(draw, names)),
    )
    codec = draw(st.sampled_from(CODECS + (HD,)))
    return build, codec, cfg, draw(st.integers(min_value=3, max_value=8))


def run_digest(build, codec, cfg, frames, prepare=None):
    """Everything a run decided and simulated (None if faults killed it)."""
    fw = framework_module.FevesFramework(
        build(), codec,
        FrameworkConfig(
            centric=cfg["centric"],
            noise=NoiseModel(jitter=GaussianJitter(sigma=cfg["sigma"])),
            faults=FaultSchedule(events=cfg["events"]),
        ),
    )
    if prepare is not None:
        prepare(fw.balancer)
    try:
        for _ in range(frames):
            fw.encode_next_inter()
    except RuntimeError:
        return None
    return {
        "decisions": [
            (rep.decision.m.rows, rep.decision.l.rows, rep.decision.s.rows,
             rep.decision.tau1_pred, rep.decision.tau2_pred,
             rep.decision.tau_tot_pred, rep.decision.used_lp)
            for rep in fw.reports
        ],
        "records": [
            [(r.label, r.resource, r.category, r.start, r.end)
             for r in rep.timeline.records]
            for rep in fw.reports
        ],
        "fault_log": list(fw.fault_log),
        "lp_solves": fw.balancer.lp_cache.misses + fw.balancer.lp_cache.hits,
    }


def check_pruning_is_exact(scenario, tally=None) -> None:
    """The property; ``tally`` (a Counter) collects the LP solves of both runs."""
    build, codec, cfg, frames = scenario
    solved: list = []

    def solve_and_log_every_subset(balancer):
        solve_every_subset(balancer)
        log_subsets(balancer, solved)

    exhaustive = run_digest(build, codec, cfg, frames, solve_and_log_every_subset)
    pruned = run_digest(build, codec, cfg, frames)
    for _, result, floor in solved:
        assert result is None or floor <= result[3][2] * (1 + 1e-9), (
            f"floor {floor!r} above the LP optimum {result[3][2]!r} on {build().name}"
        )
    if exhaustive is None or pruned is None:
        assert exhaustive is pruned
        return
    counts = {"exhaustive": exhaustive.pop("lp_solves"), "pruned": pruned.pop("lp_solves")}
    assert pruned == exhaustive, (
        f"pruned search diverged from the exhaustive one on {build().name}, {cfg}"
    )
    assert counts["pruned"] <= counts["exhaustive"]
    if tally is not None:
        tally.update(counts)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pruning_scenarios())
def test_floor_is_a_floor_and_pruning_changes_nothing(scenario):
    check_pruning_is_exact(scenario)


def test_sum_of_k_mutant_is_killed(mutant, monkeypatch):
    """n·ΣK is the serial time, an upper bound where 1/Σ(1/K) is the
    lower one: the property must notice a floor that is not a floor."""
    edits = {"sum(1.0 / k for _, _, k in ks)": "sum(k for _, _, k in ks)",
             "n / inv_sme": "n * inv_sme"}

    def edit(source: str) -> str:
        for old, new in edits.items():
            assert source.count(old) == 1
            source = source.replace(old, new)
        return source

    mutant(lb_module, "LoadBalancer", edit)
    monkeypatch.setattr(framework_module, "LoadBalancer", lb_module.LoadBalancer)
    run = settings(
        max_examples=25, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate],
    )(given(pruning_scenarios())(lambda scenario: check_pruning_is_exact(scenario)))
    with pytest.raises(AssertionError):
        run()


if __name__ == "__main__":  # the pruned-vs-exhaustive table of EXPERIMENTS.md
    import sys
    from collections import Counter

    tallies: dict[str, Counter] = {}

    @settings(
        max_examples=int(sys.argv[1]) if len(sys.argv) > 1 else 220,
        deadline=None, derandomize=True, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(pruning_scenarios())
    def tabulate(scenario):
        tally = tallies.setdefault(scenario[0].func.__name__, Counter())
        tally.update(scenarios=1, frames=scenario[3])
        check_pruning_is_exact(scenario, tally)  # raises on any difference

    tabulate()
    print("family | scenarios | frames | LP solve requests exhaustive | pruned")
    for family, tally in sorted(tallies.items()):
        print(family, *(tally[k] for k in ("scenarios", "frames", "exhaustive", "pruned")),
              sep=" | ")
