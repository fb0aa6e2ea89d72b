"""What a simulated frame keeps: its schedule as arrays, not records.

A run keeps every frame's report, so what one frame retains is what a
long run, a service or a fleet grows by. The frame's schedule is the
descriptor tuple of the kept op graph (shared while the graph is
re-timed), a record order and one array of start and end times; its
``OpRecord`` values are built only when read. A report keeps its
transfer plan's byte totals, not the plan, and a lone balancer keeps no
LP solve: only a service's shared ``RoundLPBatch`` memoizes. A service
session keeps one running total of its busy device-seconds, not one per
frame.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import CodecConfig, FevesFramework, FrameworkConfig, get_platform
from repro.hw import des
from repro.hw.noise import (
    FaultEvent, FaultSchedule, GaussianJitter, NoiseModel, PerturbationSchedule,
)
from repro.service.admission import CapacityModel
from repro.service.service import EncodingService, ServiceConfig
from repro.service.workload import StreamSpec, build_workload
from repro.util import journal

#: Bytes a steady model-mode frame may leave behind: its report, fault
#: log entry and schedule (≈ 4.7 KB when the schedule was 28 records).
RETAINED_PER_FRAME_B = 1536

#: Bytes a ``sched_jitter`` frame may leave behind. Its decision, plan
#: and graph move every frame, so it keeps its own (≈ 3.2 KB; 14.1 KB
#: when each balancer memoized every solve and each report its plan).
RETAINED_PER_JITTERED_FRAME_B = 4096

#: Bytes one 40-frame ``serve_poisson`` session may leave behind: its
#: framework, reports and frame records, and its part of the service's
#: shared LP cache (≈ 88.4 KiB; 103.7 KiB when each frame record kept a
#: busy-seconds dict and the cache keyed on dense matrices, 116.2 KiB when
#: each report kept its plan).
RETAINED_PER_SESSION_B = 92 * 1024

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def retained_bytes(work) -> int:
    """Bytes still allocated after ``work()`` that were not before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        work()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Under $REPRO_SANITIZE the journal keeps each frame's events: the
    # sanitizer's memory, not the frame's.
    own = [tracemalloc.Filter(False, journal.__file__)]
    diff = after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
    return sum(d.size_diff for d in diff)


@pytest.fixture(scope="module")
def steady_fw():
    """The ``sched_steady`` benchmark's setup: 1080p on SysNFF, jitter
    inside the decision cache's tolerance, so the op graph is re-timed."""
    noise = NoiseModel(jitter=GaussianJitter(sigma=0.002, seed=11))
    fw = FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig(noise=noise))
    for _ in range(100):
        fw.encode_next_inter()
    return fw


def frames_of(fw: FevesFramework, frames: int):
    def work() -> None:
        for _ in range(frames):
            fw.encode_next_inter()

    return work


def test_steady_frame_retains_under_budget(steady_fw):
    retained = retained_bytes(frames_of(steady_fw, 400))
    assert retained / 400 <= RETAINED_PER_FRAME_B, f"{retained / 400:.0f} B/frame"


def test_jittered_frame_retains_under_budget():
    """The ``sched_jitter`` benchmark's setup, frames 101–500: 5 % jitter,
    Fig. 7(b) spikes on GPU_F and a GPU_F2 hang at frame 300."""
    noise = NoiseModel(
        schedule=PerturbationSchedule.paper_fig7b("GPU_F", 1),
        jitter=GaussianJitter(sigma=0.05, seed=7),
    )
    faults = FaultSchedule([FaultEvent(frame=300, device="GPU_F2", kind="hang", duration=20)])
    fw = FevesFramework(
        get_platform("SysNFF"), CFG, FrameworkConfig(noise=noise, faults=faults)
    )
    for _ in range(100):
        fw.encode_next_inter()
    retained = retained_bytes(frames_of(fw, 400))
    assert fw.balancer.lp_cache.misses > 400  # it re-solved: nothing to reuse
    assert retained / 400 <= RETAINED_PER_JITTERED_FRAME_B, f"{retained / 400:.0f} B/frame"


def test_service_session_retains_under_budget():
    """One ``serve_poisson`` replica, cut to 16 realtime 1080p streams of
    40 frames at 0.4 of SysHK's nominal capacity; the service is kept."""
    probe = StreamSpec("probe", fps_target=25.0, n_frames=40, deadline_class="realtime")
    nominal = CapacityModel(get_platform("SysHK")).fps_capacity(
        probe.codec_config(), probe.num_ref_frames
    )
    specs = build_workload(
        16, n_frames=40, fps_target=25.0, deadline_class="realtime",
        arrival_rate=0.4 * nominal / 40, seed=11_000,
    )
    config = ServiceConfig(platform="SysHK", headroom=1.0, max_queue=16)
    EncodingService(config).run(specs[:2])  # first-use tables, not a session's

    def serve():
        service = EncodingService(config)
        service.run(specs)
        return service

    services = []
    retained = retained_bytes(lambda: services.append(serve()))
    [service] = services
    assert len(service.sessions) == 16 and service.lp_batch.hits > 0
    per_session = retained / len(service.sessions)
    assert per_session <= RETAINED_PER_SESSION_B, f"{per_session:.0f} B/session"


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
