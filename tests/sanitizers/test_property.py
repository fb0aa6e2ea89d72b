"""Property-style end-to-end check: random platforms × fault schedules ×
multi-stream workloads run to the end with well-formed schedules.

Every completed run has one report per frame, τ1 ≤ τ2 ≤ τtot, and no two
ops overlapping on one engine (``oracles.validate_schedule``); a service
encodes every frame of each stream it finishes and none of one it turns
away. Under ``REPRO_SANITIZE`` each example's lifecycle journal is
replayed as well (SAN-G, the suite's fixture).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from oracles import validate_schedule

PLATFORMS = ("SysNF", "SysNFF", "SysHK", "GPU_F", "CPU_N")
CODECS = (
    CodecConfig(width=704, height=576),
    CodecConfig(width=704, height=576, search_range=32, num_ref_frames=2),
    CodecConfig(width=352, height=288, search_range=8),
)

FAST_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fault_events(draw, device_names) -> list[FaultEvent]:
    """0–2 faults of any kind on frames 2–5, one per (frame, device)."""
    events = []
    n_faults = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_faults):
        device = draw(st.sampled_from(device_names))
        kind = draw(st.sampled_from(("dropout", "hang", "degrade", "copy_fail")))
        frame = draw(st.integers(min_value=2, max_value=5))
        if kind == "hang":
            events.append(FaultEvent(
                frame=frame, device=device, kind=kind,
                duration=draw(st.integers(min_value=1, max_value=2)),
            ))
        elif kind == "dropout":
            events.append(FaultEvent(frame=frame, device=device, kind=kind))
        else:
            events.append(FaultEvent(
                frame=frame, device=device, kind=kind,
                factor=draw(st.floats(min_value=1.5, max_value=8.0)),
            ))
        # A second fault on the same device/frame is rejected by the
        # schedule; keep one event per (frame, device).
        seen = {(e.frame, e.device) for e in events[:-1]}
        if (events[-1].frame, events[-1].device) in seen:
            events.pop()
    return events


@st.composite
def framework_scenarios(draw):
    platform_name = draw(st.sampled_from(PLATFORMS))
    codec = draw(st.sampled_from(CODECS))
    platform = get_platform(platform_name)
    events = fault_events(draw, [d.name for d in platform.devices])
    frames = draw(st.integers(min_value=3, max_value=7))
    return platform_name, codec, FaultSchedule(events=tuple(events)), frames


@FAST_SETTINGS
@given(framework_scenarios())
def test_random_runs_are_sanitizer_clean(scenario):
    platform_name, codec, faults, frames = scenario
    fw = FevesFramework(
        get_platform(platform_name), codec, FrameworkConfig(faults=faults)
    )
    try:
        for _ in range(frames):
            fw.encode_next_inter()
    except RuntimeError:
        # A fault schedule can legitimately kill every device; only
        # completed schedules are checked.
        return
    assert [r.frame_index for r in fw.reports] == list(range(1, frames + 1))
    for r in fw.reports:
        assert 0.0 <= r.tau1 <= r.tau2 <= r.tau_tot
        validate_schedule(r.timeline.records)


@st.composite
def service_scenarios(draw):
    platform_name = draw(st.sampled_from(("SysNF", "SysNFF", "SysHK")))
    platform = get_platform(platform_name)
    n_streams = draw(st.integers(min_value=1, max_value=3))
    streams = []
    for k in range(n_streams):
        streams.append(
            dict(
                stream_id=f"s{k}",
                fps_target=draw(st.sampled_from((12.5, 25.0))),
                n_frames=draw(st.integers(min_value=2, max_value=4)),
                deadline_class=draw(
                    st.sampled_from(("realtime", "standard", "background"))
                ),
                arrival_s=round(draw(st.floats(min_value=0.0, max_value=0.2)), 3),
            )
        )
    events = []
    if draw(st.booleans()) and len(platform.devices) > 1:
        device = draw(st.sampled_from([d.name for d in platform.devices]))
        events.append(FaultEvent(
            frame=draw(st.integers(min_value=2, max_value=4)),
            device=device,
            kind=draw(st.sampled_from(("dropout", "degrade"))),
        ))
    return platform_name, streams, FaultSchedule(events=tuple(events))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(service_scenarios())
def test_random_multistream_services_are_sanitizer_clean(scenario):
    from repro.service.service import EncodingService, ServiceConfig
    from repro.service.session import StreamSpec

    platform_name, streams, faults = scenario
    service = EncodingService(
        ServiceConfig(platform=platform_name, faults=faults)
    )
    try:
        metrics = service.run([StreamSpec(**kw) for kw in streams])
    except RuntimeError:
        return  # all devices faulted away mid-service
    submitted = {kw["stream_id"]: kw["n_frames"] for kw in streams}
    assert sorted(m.stream_id for m in metrics.streams) == sorted(submitted)
    for m in metrics.streams:
        want = submitted[m.stream_id] if m.state == "done" else 0
        assert m.frames == want, (m.stream_id, m.state)
