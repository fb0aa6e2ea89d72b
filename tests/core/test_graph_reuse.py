"""The simulated frame is built on change and re-timed every frame.

A repeated frame times exactly as a rebuilt one (the digests in
``test_model_digest.py`` hold either way), so only a count shows that
reuse happens: the coding manager journals a ``des_build`` span per op
graph it builds, and the framework a ``plan`` span per transfer plan.
"""

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
FRAMES = 300


def run(journal, plans, sigma: float) -> tuple[FevesFramework, dict[str, int], int]:
    """The run, its span counts, and its structure changes."""
    fw = FevesFramework(
        get_platform("SysNFF"), CFG,
        FrameworkConfig(noise=NoiseModel(jitter=GaussianJitter(sigma=sigma, seed=11))),
    )
    watched = plans(fw)
    fw.run_model(FRAMES)
    spans: dict[str, int] = {}
    for e in journal.drain():
        spans[e.event] = spans.get(e.event, 0) + 1
    return fw, spans, structure_changes(fw, watched)


def structure_changes(fw: FevesFramework, plans) -> int:
    """Frames whose rows, R* device or transfers differ from the previous
    frame's (the first frame counts): the builds a graph kept while the
    structure repeats needs."""
    n, prev = 0, None
    for r in fw.reports:
        d = r.decision
        key = (d.m.rows, d.l.rows, d.s.rows, r.rstar_device, plans[r.frame_index].items)
        n += key != prev
        prev = key
    return n


def test_steady_run_builds_once_per_cold_solve(journal, transfer_plans):
    """σ = 0.002 is a tenth of the decision cache's tolerance: the
    balancer keeps its decision, and the frames keep their graph."""
    fw, spans, changes = run(journal, transfer_plans, 0.002)
    cold = fw.balancer.lp_cache.misses
    assert spans["des_retime"] == FRAMES
    assert spans["des_build"] == changes
    assert 2 <= spans["des_build"] <= cold + 1
    assert spans["plan"] <= cold + 1
    assert spans["frame_plan"] == spans["plan"]


def test_jittered_run_builds_on_every_moved_frame(journal, transfer_plans):
    """σ = 0.05 re-solves nearly every frame: a graph is built whenever
    the structure moved, which is (nearly) every frame."""
    fw, spans, changes = run(journal, transfer_plans, 0.05)
    assert spans["des_build"] == changes
    assert spans["des_build"] >= FRAMES - 3
    assert spans["plan"] == FRAMES



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
