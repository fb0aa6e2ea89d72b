"""The autoscaler's decision rule, driven tick by tick at its constants.

``Autoscaler.tick`` is pure decision logic over (queue depth, live
nodes, autoscaled nodes, load) plus the realtime latencies it was fed,
so every threshold can be pinned without running a fleet: scale-out on
sustained queue pressure or a sustained p99-SLO breach, scale-in after
a sustained idle spell, and the cooldown between any two actions.
"""

import pytest

from repro.cluster.autoscale import (
    COOLDOWN_TICKS,
    HOLD,
    IDLE_LOW,
    IDLE_TICKS,
    P99_WINDOW,
    QUEUE_HIGH,
    SCALE_DOWN,
    SCALE_UP,
    SUSTAIN_TICKS,
    AutoscaleConfig,
    Autoscaler,
)


def scaler(**kw):
    return Autoscaler(AutoscaleConfig(enabled=True, **kw))


def verdicts(auto, n, **tick):
    """Verdicts of ``n`` consecutive identical ticks."""
    args = {"queue_depth": 0, "n_nodes": 2, "n_scaled": 1, "load": 0.0}
    args.update(tick)
    return [auto.tick(**args)[0] for _ in range(n)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            AutoscaleConfig(max_nodes=0)
        with pytest.raises(ValueError, match="template"):
            AutoscaleConfig(template=())

    def test_disabled_holds(self):
        auto = Autoscaler(AutoscaleConfig())
        assert auto.tick(99, 1, 0, 1.0) == (HOLD, "disabled")


class TestScaleOut:
    def test_queue_pressure_must_be_sustained(self):
        auto = scaler()
        busy = {"queue_depth": QUEUE_HIGH, "load": 1.0}
        assert verdicts(auto, SUSTAIN_TICKS - 1, **busy) == (
            [HOLD] * (SUSTAIN_TICKS - 1)
        )
        verdict, reason = auto.tick(QUEUE_HIGH, 2, 1, 1.0)
        assert verdict == SCALE_UP
        assert reason == (
            f"queue depth >= {QUEUE_HIGH} for {SUSTAIN_TICKS} ticks"
        )

    def test_a_dip_restarts_the_count(self):
        auto = scaler()
        busy = {"queue_depth": QUEUE_HIGH, "load": 1.0}
        verdicts(auto, SUSTAIN_TICKS - 1, **busy)
        assert verdicts(auto, 1, queue_depth=QUEUE_HIGH - 1, load=1.0) == [HOLD]
        assert SCALE_UP not in verdicts(auto, SUSTAIN_TICKS - 1, **busy)

    def test_ceiling_is_respected(self):
        auto = scaler(max_nodes=2)
        assert SCALE_UP not in verdicts(
            auto, 4 * SUSTAIN_TICKS, queue_depth=QUEUE_HIGH, load=1.0
        )

    def test_sustained_p99_breach_scales_out_with_the_slo_reason(self):
        auto = scaler(p99_slo_ms=50.0)
        for _ in range(8):
            auto.observe_frame("realtime", 0.080)       # 80 ms > 50 ms SLO
        auto.observe_frame("standard", 9.0)             # not the SLO class
        assert auto.realtime_p99_ms() == pytest.approx(80.0)
        idle_queue = {"queue_depth": 0, "load": 1.0}
        assert verdicts(auto, SUSTAIN_TICKS - 1, **idle_queue) == (
            [HOLD] * (SUSTAIN_TICKS - 1)
        )
        assert auto.tick(0, 2, 1, 1.0) == (
            SCALE_UP, "realtime p99 80.0 ms > SLO 50.0 ms"
        )

    def test_p99_inside_the_slo_holds(self):
        auto = scaler(p99_slo_ms=50.0)
        for _ in range(8):
            auto.observe_frame("realtime", 0.030)       # 30 ms, in budget
        assert verdicts(auto, 4 * SUSTAIN_TICKS, load=1.0) == (
            [HOLD] * (4 * SUSTAIN_TICKS)
        )

    def test_p99_is_rolling(self):
        auto = scaler(p99_slo_ms=50.0)
        for _ in range(P99_WINDOW):
            auto.observe_frame("realtime", 0.080)
        for _ in range(P99_WINDOW):
            auto.observe_frame("realtime", 0.010)       # pushes the 80s out
        assert auto.realtime_p99_ms() == pytest.approx(10.0)


class TestScaleIn:
    IDLE = {"queue_depth": 0, "load": IDLE_LOW / 2}

    def test_fires_after_exactly_idle_ticks(self):
        auto = scaler()
        assert verdicts(auto, IDLE_TICKS - 1, **self.IDLE) == (
            [HOLD] * (IDLE_TICKS - 1)
        )
        verdict, reason = auto.tick(0, 2, 1, IDLE_LOW / 2)
        assert verdict == SCALE_DOWN
        assert reason == (
            f"queue empty and load < {IDLE_LOW:g} for {IDLE_TICKS} ticks"
        )

    def test_load_at_the_threshold_is_not_idle(self):
        auto = scaler()
        assert SCALE_DOWN not in verdicts(
            auto, 2 * IDLE_TICKS, queue_depth=0, load=IDLE_LOW
        )

    def test_baseline_nodes_are_never_drained(self):
        auto = scaler()
        assert SCALE_DOWN not in verdicts(
            auto, 2 * IDLE_TICKS, n_nodes=3, n_scaled=0, **self.IDLE
        )

    def test_the_last_live_node_is_never_drained(self):
        auto = scaler()
        assert SCALE_DOWN not in verdicts(
            auto, 2 * IDLE_TICKS, n_nodes=1, n_scaled=1, **self.IDLE
        )


class TestCooldown:
    def test_suppresses_a_second_scale_out(self):
        auto = scaler()
        busy = {"queue_depth": QUEUE_HIGH, "load": 1.0}
        assert verdicts(auto, SUSTAIN_TICKS, **busy)[-1] == SCALE_UP
        # Pressure never lets up, yet nothing fires while cooling down.
        assert verdicts(auto, COOLDOWN_TICKS - 1, **busy) == (
            [HOLD] * (COOLDOWN_TICKS - 1)
        )
        assert verdicts(auto, 1, **busy) == [SCALE_UP]

    def test_suppresses_scale_in_after_scale_out(self):
        auto = scaler()
        assert verdicts(
            auto, SUSTAIN_TICKS, queue_depth=QUEUE_HIGH, load=1.0
        )[-1] == SCALE_UP
        # IDLE_TICKS > COOLDOWN_TICKS, so an idle spell that starts after
        # the action always outlasts the cooldown; prime the count to
        # show the guard itself holds scale-in back.
        auto._idle_ticks = IDLE_TICKS
        assert verdicts(auto, COOLDOWN_TICKS - 1, **TestScaleIn.IDLE) == (
            [HOLD] * (COOLDOWN_TICKS - 1)
        )
        assert verdicts(auto, 1, **TestScaleIn.IDLE) == [SCALE_DOWN]
