"""Service metrics: pinned percentile interpolation and the shared LP cache.

``latency_percentiles_ms`` historically relied on numpy's *default*
percentile method, which numpy has renamed/re-documented across versions
and which makes small-sample values (service smoke runs routinely have
n < 20) an implementation detail. It is now pinned to ``method="linear"``
(fractional order statistic ``(n-1)·q/100``, interpolated); these tests
fix the exact values so any drift — numpy's or ours — fails loudly.
"""

from __future__ import annotations

import pytest

import math

from repro.service.metrics import (
    frame_stats,
    latency_percentiles_ms,
    per_class_summary,
    percentiles,
)
from repro.service.scheduler import RoundLPBatch
from repro.service.service import EncodingService, ServiceConfig
from repro.service.session import FrameRecord, StreamSpec
from repro.service.workload import build_workload


class TestLatencyPercentiles:
    def test_empty_sample_is_all_zeros(self):
        assert latency_percentiles_ms([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_single_sample_reports_that_value(self):
        got = latency_percentiles_ms([0.040])
        assert got["p50"] == pytest.approx(40.0)
        assert got["p95"] == pytest.approx(40.0)
        assert got["p99"] == pytest.approx(40.0)

    def test_two_samples_interpolate_linearly(self):
        got = latency_percentiles_ms([0.010, 0.030])
        assert got["p50"] == pytest.approx(20.0)
        assert got["p95"] == pytest.approx(29.0)
        assert got["p99"] == pytest.approx(29.8)

    def test_four_samples_exact_linear_values(self):
        # n=4: order statistic index (n-1)·q/100 = 3·q/100.
        # p50 -> 1.5 -> 25.0; p95 -> 2.85 -> 38.5; p99 -> 2.97 -> 39.7.
        got = latency_percentiles_ms([0.010, 0.020, 0.030, 0.040])
        assert got["p50"] == pytest.approx(25.0)
        assert got["p95"] == pytest.approx(38.5)
        assert got["p99"] == pytest.approx(39.7)

    def test_order_invariant(self):
        a = latency_percentiles_ms([0.010, 0.040, 0.020, 0.030])
        b = latency_percentiles_ms([0.040, 0.030, 0.020, 0.010])
        assert a == b

    def test_identical_samples_degenerate(self):
        got = latency_percentiles_ms([0.025] * 7)
        assert got == {"p50": 25.0, "p95": 25.0, "p99": 25.0}


def frame(latency_s, deadline_s=math.inf):
    """A record captured at t=0 that completes after ``latency_s``."""
    return FrameRecord(
        index=1, round=1, capture_s=0.0, start_s=0.0, end_s=latency_s,
        deadline_s=deadline_s, share=1.0, tau_s=latency_s,
    )


class TestFrameStats:
    """The one latency/deadline fold behind ``StreamMetrics``,
    ``ServiceMetrics``, ``per_class_summary`` and ``ClusterMetrics``."""

    def test_empty_sample(self):
        assert frame_stats([]) == {
            "frames": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
            "deadline_miss_rate": 0.0,
        }

    def test_single_sample(self):
        got = frame_stats([frame(0.040, deadline_s=0.030)])
        assert got["frames"] == 1
        assert got["p50_ms"] == got["p99_ms"] == pytest.approx(40.0)
        assert got["deadline_miss_rate"] == 1.0

    def test_background_only_never_misses(self):
        got = frame_stats(frame(lat) for lat in (0.5, 1.5, 2.5))
        assert got["frames"] == 3
        assert got["p50_ms"] == pytest.approx(1500.0)
        assert got["deadline_miss_rate"] == 0.0   # nothing missable

    def test_miss_rate_is_over_frames_with_a_deadline(self):
        records = [
            frame(0.010, deadline_s=0.040), frame(0.050, deadline_s=0.040),
            frame(9.0),                       # background: not missable
        ]
        assert frame_stats(records)["deadline_miss_rate"] == 0.5

    def test_agrees_with_every_metrics_view(self):
        service = EncodingService(ServiceConfig(platform="SysHK", headroom=4.0))
        m = service.run([
            StreamSpec("rt", n_frames=4, deadline_class="realtime"),
            StreamSpec("bg", n_frames=3, deadline_class="background"),
        ])
        by_id = {s.stream_id: s for s in service.sessions}
        for sm in m.streams:
            want = frame_stats(by_id[sm.stream_id].records)
            assert (sm.frames, sm.p95_ms, sm.deadline_miss_rate) == (
                want["frames"], want["p95_ms"], want["deadline_miss_rate"]
            )
        everything = frame_stats(
            r for s in service.sessions for r in s.records
        )
        assert (m.p50_ms, m.p99_ms, m.deadline_miss_rate) == (
            everything["p50_ms"], everything["p99_ms"],
            everything["deadline_miss_rate"],
        )
        assert m.classes == per_class_summary(service.sessions) == {
            "background": frame_stats(by_id["bg"].records),
            "realtime": frame_stats(by_id["rt"].records),
        }

    def test_queue_waits_stay_in_seconds(self):
        # The unscaled call the cluster's queue-wait tails use: no
        # x1e3 / 1e3 round trip, so a wait comes back bit-exact.
        assert percentiles([0.1, 0.3]) == pytest.approx(
            {"p50": 0.2, "p95": 0.29, "p99": 0.298}
        )
        assert percentiles([0.123456789]) == {
            "p50": 0.123456789, "p95": 0.123456789, "p99": 0.123456789,
        }
        assert percentiles([]) == latency_percentiles_ms([])


class TestSharedLPCache:
    def test_sessions_share_one_solve_cache(self):
        service = EncodingService(ServiceConfig(platform="SysHK", headroom=4.0))
        workload = [
            StreamSpec(stream_id=f"s{k}", n_frames=4, width=704, height=576)
            for k in range(3)
        ]
        service.run(workload)
        for session in service.sessions:
            assert session.framework.balancer.lp_cache is service.lp_batch.cache
        # Equal shares of identical streams build byte-identical LPs:
        # the cross-session dedup must actually fire.
        assert service.lp_batch.hits > 0
        assert 0.0 < service.lp_batch.hit_rate <= 1.0

    def test_single_stream_unaffected_by_sharing(self):
        """One session at share 1.0 must stay bit-identical to a
        standalone run (the service's standing invariant)."""
        from repro.codec.config import CodecConfig
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.hw.presets import get_platform

        spec = StreamSpec(stream_id="solo", n_frames=5, width=704, height=576)
        service = EncodingService(ServiceConfig(platform="SysHK"))
        service.run([spec])

        fw = FevesFramework(
            get_platform("SysHK"),
            CodecConfig(width=704, height=576),
            FrameworkConfig(),
        )
        for _ in range(5):
            fw.encode_next_inter()
        [session] = service.sessions
        got = [r.timeline.tau_tot for r in session.framework.reports]
        want = [r.timeline.tau_tot for r in fw.reports]
        assert got == want


class TestServicePoints:
    @pytest.mark.parametrize(
        ("n", "workload", "rounds", "frames", "miss", "class_miss", "solves"),
        [
            (4, {"mix": "broadcast"}, 8, 32, 23 / 24,
             {"background": 0.0, "realtime": 7 / 8, "standard": 1.0}, 17),
            (2, {"fps_target": 12.0}, 8, 16, 0.0, {"standard": 0.0}, 3),
        ],
        ids=["saturated", "light"],
    )
    def test_pinned_points(
        self, n, workload, rounds, frames, miss, class_miss, solves
    ):
        """SysHK, 8 frames a stream: a broadcast mix that oversubscribes
        it, so the deadline classes miss apart, and a light uniform load
        that misses nothing. The run is simulated, so rounds, frames and
        miss rates are exact; the LP solves are a ceiling, counted over
        every cache a session solves through (with sharing, that is
        ``lp_batch.misses``)."""
        service = EncodingService(
            ServiceConfig(platform="SysHK", headroom=4.0, max_queue=2 * n)
        )
        metrics = service.run(build_workload(n, n_frames=8, **workload))
        assert metrics.rounds == rounds
        assert sum(m.frames for m in metrics.streams) == frames
        assert metrics.deadline_miss_rate == miss
        assert {
            name: c["deadline_miss_rate"] for name, c in metrics.classes.items()
        } == class_miss
        caches = {id(c): c for c in (
            s.framework.balancer.lp_cache for s in service.sessions
        )}
        assert sum(c.misses for c in caches.values()) <= solves


class TestRoundLPBatch:
    def test_counters_passthrough(self):
        batch = RoundLPBatch()
        assert batch.hits == 0
        assert batch.misses == 0
        assert batch.hit_rate == 0.0
