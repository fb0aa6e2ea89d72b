"""Deadline-slack weighted capacity partitioning."""

import pytest

from repro.service.scheduler import MIN_SHARE, CoScheduler
from repro.service.session import EncodingSession, StreamSpec


def admitted(sid, now=0.0, **kw):
    sess = EncodingSession(StreamSpec(sid, **kw), "SysHK")
    sess.admit(now)
    return sess


class TestBoost:
    def test_clamped_slack_curve(self):
        sched = CoScheduler()
        assert sched.boost(2.0) == 0.25   # comfortable → floor
        assert sched.boost(1.0) == 1.0    # one period of slack → neutral
        assert sched.boost(0.0) == 2.0    # deadline now → doubled
        assert sched.boost(-5.0) == 4.0   # hopelessly late → ceiling
        assert sched.boost(float("inf")) == 0.25  # no deadline


class TestPartition:
    def test_single_session_gets_exactly_one(self):
        sched = CoScheduler()
        shares = sched.partition([admitted("solo")], now=0.0)
        assert shares == {"solo": 1.0}  # exact, not approximately

    def test_shares_sum_to_one(self):
        sched = CoScheduler()
        sessions = [admitted(f"s{i}") for i in range(5)]
        shares = sched.partition(sessions, now=0.0)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(s > 0 for s in shares.values())

    def test_equal_streams_get_equal_shares(self):
        sched = CoScheduler()
        shares = sched.partition([admitted("a"), admitted("b")], now=0.0)
        assert shares["a"] == pytest.approx(shares["b"])

    def test_realtime_outweighs_background(self):
        sched = CoScheduler()
        shares = sched.partition(
            [
                admitted("rt", deadline_class="realtime"),
                admitted("bg", deadline_class="background"),
            ],
            now=0.0,
        )
        assert shares["rt"] > shares["bg"]

    def test_late_stream_is_boosted(self):
        sched = CoScheduler()
        early = admitted("early", now=0.0, fps_target=10)
        late = admitted("late", now=0.0, fps_target=10)
        # early has kept pace (3 frames done, next capture at t=0.3 with a
        # comfortable deadline); late is still on frame 1, whose deadline
        # (0.2) is already past at now=0.5
        for k in range(3):
            early.step(0.1 * k, 1.0, k + 1)
        shares = sched.partition([early, late], now=0.5)
        assert shares["late"] > shares["early"]

    def test_heavier_stream_gets_larger_share(self):
        sched = CoScheduler()
        shares = sched.partition(
            [
                admitted("hd", width=1920, height=1088),
                admitted("sd", width=640, height=368),
            ],
            now=0.0,
        )
        assert shares["hd"] > shares["sd"]

    def test_min_share_floor(self):
        sched = CoScheduler()
        big = admitted("big", fps_target=120.0)
        tiny = admitted("tiny", fps_target=1.0, deadline_class="background")
        # unfloored, the background trickle's weight earns it ~0.4 %
        assert sched.weight(tiny, 0.0) / sched.weight(big, 0.0) < MIN_SHARE / 4
        shares = sched.partition([big, tiny], now=0.0)
        # after one renormalization the floored share can dip slightly
        # below the nominal floor but must stay in its vicinity
        assert shares["tiny"] >= MIN_SHARE / (1 + MIN_SHARE)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty_returns_empty(self):
        assert CoScheduler().partition([], now=0.0) == {}
