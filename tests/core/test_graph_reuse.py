"""The simulated frame is built on change and re-timed every frame.

A repeated frame times exactly as a rebuilt one (the digests in
``test_model_digest.py`` hold either way), so only a count shows that
reuse happens: the coding manager journals a ``des_build`` span per op
graph it builds, and the framework a ``plan`` span per transfer plan.
The graph's key is the frame's structure — rows by module, owner,
device, slot and redo, transfers by device, direction, label and phase —
not its bands or bytes: a frame that moves rows between devices that
all keep some re-times the graph from its own bands and bytes.
"""

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
FRAMES = 300


def run(journal, plans, sigma: float) -> tuple[FevesFramework, dict[str, int], int, int]:
    """The run, its span counts, its structure changes and the frames
    that repeat the structure with other bands or bytes."""
    fw = FevesFramework(
        get_platform("SysNFF"), CFG,
        FrameworkConfig(noise=NoiseModel(jitter=GaussianJitter(sigma=sigma, seed=11))),
    )
    watched = plans(fw)
    fw.run_model(FRAMES)
    spans: dict[str, int] = {}
    for e in journal.drain():
        spans[e.event] = spans.get(e.event, 0) + 1
    return fw, spans, *structure_changes(fw, watched)


def structure_changes(fw: FevesFramework, plans) -> tuple[int, int]:
    """Frames whose structure differs from the previous frame's (the first
    counts): which devices hold rows of which module, the R* device, the
    faulted devices and the transfers by device, direction, label and
    phase. And frames with the previous frame's structure but other rows
    or transfer bytes."""
    changes = moved = 0
    prev = prev_sizes = None
    for r in fw.reports:
        d = r.decision
        items = plans[r.frame_index].items
        key = (
            [[rows > 0 for rows in dist.rows] for dist in (d.m, d.l, d.s)],
            r.rstar_device, r.faulted,
            [(t.device, t.direction, t.label, t.phase) for t in items],
        )
        sizes = (d.m.rows, d.l.rows, d.s.rows, [t.nbytes for t in items])
        changes += key != prev
        moved += key == prev and sizes != prev_sizes
        prev, prev_sizes = key, sizes
    return changes, moved


def test_steady_run_builds_once_per_cold_solve(journal, transfer_plans):
    """σ = 0.002 is a tenth of the decision cache's tolerance: the
    balancer keeps its decision, and the frames keep their graph."""
    fw, spans, changes, _ = run(journal, transfer_plans, 0.002)
    cold = fw.balancer.lp_cache.misses
    assert spans["des_retime"] == FRAMES
    assert spans["des_build"] == changes
    assert 2 <= spans["des_build"] <= cold + 1
    assert spans["plan"] <= cold + 1
    assert spans["frame_plan"] == spans["plan"]


def test_jittered_run_builds_on_structure_changes_only(journal, transfer_plans):
    """σ = 0.05 re-solves nearly every frame, and nearly every frame moves
    rows: a graph is built only when the structure moved, and the frames
    that only moved bands or bytes re-time the last one."""
    fw, spans, changes, moved = run(journal, transfer_plans, 0.05)
    assert spans["plan"] == FRAMES
    assert spans["des_retime"] == FRAMES
    assert spans["des_build"] == changes
    assert moved >= FRAMES // 4
    assert spans["des_build"] + moved >= FRAMES - 3  # the rest repeat every byte


def test_a_retimed_graph_schedules_as_a_graph_built_fresh():
    """Two jittered runs, one keeping its graph across frames and one
    building a graph every frame: the same schedule, decision and
    measurements every frame, over frames whose bands moved."""
    def framework() -> FevesFramework:
        noise = NoiseModel(jitter=GaussianJitter(sigma=0.05, seed=11))
        return FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig(noise=noise))

    kept, fresh = framework(), framework()
    retimed = 0
    for _ in range(80):
        graph = kept.manager._graph
        kept.encode_next_inter()
        fresh.manager._graph = None  # nothing to re-time: built every frame
        fresh.encode_next_inter()
        a, b = kept.reports[-1], fresh.reports[-1]
        if kept.manager._graph is graph and len(kept.reports) > 1:
            before = kept.reports[-2].decision
            retimed += (a.decision.m, a.decision.l, a.decision.s) != (
                before.m, before.l, before.s
            )
        assert a.timeline.records == b.timeline.records
        assert (a.tau1, a.tau2, a.tau_tot) == (b.tau1, b.tau2, b.tau_tot)
        assert (a.h2d_bytes, a.d2h_bytes) == (b.h2d_bytes, b.d2h_bytes)
        assert a.decision == b.decision
    assert retimed >= 20
    assert kept.perf._devices == fresh.perf._devices  # the same harvest


def test_a_platform_shared_by_two_frameworks():
    """Two frameworks on one platform object share its engines: each
    build resets them, so the other's kept graph is rebuilt, not re-run."""
    shared = get_platform("SysNFF")
    a = FevesFramework(shared, CFG, FrameworkConfig())
    b = FevesFramework(shared, CFG, FrameworkConfig())
    alone = FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig())
    for _ in range(6):
        for fw in (a, b, alone):
            fw.encode_next_inter()
    expected = [r.timeline.records for r in alone.reports]
    assert [r.timeline.records for r in a.reports] == expected
    assert [r.timeline.records for r in b.reports] == expected
