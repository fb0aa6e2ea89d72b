"""What a simulated frame keeps: its schedule as arrays, not records.

A run keeps every frame's report, so what one frame retains is what a
long run, a service or a fleet grows by. The frame's schedule is the
descriptor tuple of the kept op graph (shared while the graph is
re-timed), a record order and one array of start and end times; its
``OpRecord`` values are built only when read.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import CodecConfig, FevesFramework, FrameworkConfig, get_platform
from repro.hw import des
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.util import journal

#: Bytes a steady model-mode frame may leave behind: its report, fault
#: log entry and schedule (≈ 4.7 KB when the schedule was 28 records).
RETAINED_PER_FRAME_B = 1536


@pytest.fixture(scope="module")
def steady_fw():
    """The ``sched_steady`` benchmark's setup: 1080p on SysNFF, jitter
    inside the decision cache's tolerance, so the op graph is re-timed."""
    cfg = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)
    noise = NoiseModel(jitter=GaussianJitter(sigma=0.002, seed=11))
    fw = FevesFramework(get_platform("SysNFF"), cfg, FrameworkConfig(noise=noise))
    for _ in range(100):
        fw.encode_next_inter()
    return fw


def test_steady_frame_retains_under_budget(steady_fw):
    frames = 400
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(frames):
            steady_fw.encode_next_inter()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Under $REPRO_SANITIZE the journal keeps each frame's events: the
    # sanitizer's memory, not the frame's.
    own = [tracemalloc.Filter(False, journal.__file__)]
    diff = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
    retained = sum(d.size_diff for d in diff)
    assert retained / frames <= RETAINED_PER_FRAME_B, f"{retained / frames:.0f} B/frame"


def test_repeated_graph_shares_descriptors(steady_fw):
    a, b = (r.timeline.records for r in steady_fw.reports[-2:])
    assert a.ops is b.ops


def test_len_builds_no_record(steady_fw, monkeypatch):
    built = []
    init = des.OpRecord.__init__

    def counting(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(des.OpRecord, "__init__", counting)
    records = steady_fw.reports[-1].timeline.records
    n = len(records)
    assert n > 0 and built == []
    assert len(list(records)) == n and len(built) == n  # reading builds them
