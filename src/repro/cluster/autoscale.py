"""Reactive fleet autoscaling on queue depth and per-class p99 breaches.

The autoscaler observes the cluster at every dispatch tick (simulated
time only — no wall clock) and reacts:

**Scale out** when pressure is *sustained*: the global dispatch queue
has been at or above :data:`QUEUE_HIGH` for :data:`SUSTAIN_TICKS`
consecutive ticks, or the realtime-class p99 frame latency over the last
:data:`P99_WINDOW` frames has exceeded ``p99_slo_ms`` for that long. A
new node is provisioned from the cyclic ``template`` platform list and
joins on the fleet clock.

**Scale in** when the fleet has been *sustainedly idle*: the global
queue empty and aggregate normalized load below :data:`IDLE_LOW` for
:data:`IDLE_TICKS` consecutive ticks. Only nodes the autoscaler itself
added are drained, so an operator's baseline fleet is never shrunk and
the last live node never goes; draining re-routes any sessions through
the usual node-drain fault path.

Both directions honor a :data:`COOLDOWN_TICKS` refractory period so one
burst cannot thrash the fleet, and the fleet never grows past
``max_nodes``. All decisions read deterministic cluster state, so
autoscaled runs stay bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.service.metrics import latency_percentiles_ms

#: The thresholds of the module docstring. Constants, not options: the
#: scaler is one reactive policy, and only what ``repro fleet`` exposes
#: (:class:`AutoscaleConfig`) is an operator's decision.
QUEUE_HIGH, SUSTAIN_TICKS = 4, 3
P99_WINDOW = 64
IDLE_LOW, IDLE_TICKS = 0.25, 50
COOLDOWN_TICKS = 10


@dataclass(frozen=True)
class AutoscaleConfig:
    """What an operator decides: on/off, ceiling, template, SLO."""

    enabled: bool = False
    max_nodes: int = 8
    template: tuple[str, ...] = ("SysHK",)
    p99_slo_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if not self.template:
            raise ValueError("template must name at least one platform")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, for the metrics/audit log."""

    at_s: float
    action: str          # "add" | "drain"
    node_id: str
    platform: str
    reason: str


#: Autoscaler verdicts returned by :meth:`Autoscaler.tick`.
SCALE_UP, SCALE_DOWN, HOLD = "up", "down", "hold"


class Autoscaler:
    """Sustained-pressure reactive scaler (decisions only, no mutation).

    The cluster driver owns node creation/draining; the scaler just
    answers "what should happen now" from the observed queue depth,
    load, and recent realtime frame latencies it is fed.
    """

    def __init__(self, cfg: AutoscaleConfig) -> None:
        self.cfg = cfg
        self._pressure_ticks = 0
        self._idle_ticks = 0
        self._cooldown = 0
        self._template_i = 0
        self._recent_rt_s: deque[float] = deque(maxlen=P99_WINDOW)
        self.events: list[ScaleEvent] = []

    # ------------------------------------------------------------------

    def observe_frame(self, deadline_class: str, latency_s: float) -> None:
        """Feed one completed frame into the rolling p99 window."""
        if deadline_class == "realtime":
            self._recent_rt_s.append(latency_s)

    def realtime_p99_ms(self) -> float | None:
        if not self._recent_rt_s:
            return None
        return latency_percentiles_ms(list(self._recent_rt_s))["p99"]

    def next_platform(self) -> str:
        """Cyclic pick from the provisioning template."""
        name = self.cfg.template[self._template_i % len(self.cfg.template)]
        self._template_i += 1
        return name

    # ------------------------------------------------------------------

    def tick(
        self, queue_depth: int, n_nodes: int, n_scaled: int, load: float
    ) -> tuple[str, str]:
        """One decision step; returns ``(verdict, reason)``.

        ``n_scaled`` is how many currently-live nodes the autoscaler
        added (the only ones it may drain); ``load`` is the aggregate
        committed fraction over aggregate headroom of live nodes.
        """
        cfg = self.cfg
        if not cfg.enabled:
            return HOLD, "disabled"
        if self._cooldown > 0:
            self._cooldown -= 1

        p99 = self.realtime_p99_ms()
        breach = (
            cfg.p99_slo_ms is not None
            and p99 is not None
            and p99 > cfg.p99_slo_ms
        )
        pressured = queue_depth >= QUEUE_HIGH or breach
        if pressured:
            self._pressure_ticks += 1
            self._idle_ticks = 0
        else:
            self._pressure_ticks = 0

        idle = queue_depth == 0 and load < IDLE_LOW
        if idle:
            self._idle_ticks += 1
        else:
            self._idle_ticks = 0

        if (
            self._pressure_ticks >= SUSTAIN_TICKS
            and n_nodes < cfg.max_nodes
            and self._cooldown == 0
        ):
            self._pressure_ticks = 0
            self._cooldown = COOLDOWN_TICKS
            reason = (
                f"realtime p99 {p99:.1f} ms > SLO {cfg.p99_slo_ms:.1f} ms"
                if breach and p99 is not None and cfg.p99_slo_ms is not None
                else f"queue depth >= {QUEUE_HIGH} for {SUSTAIN_TICKS} ticks"
            )
            return SCALE_UP, reason

        if (
            self._idle_ticks >= IDLE_TICKS
            and n_scaled > 0
            and n_nodes > 1
            and self._cooldown == 0
        ):
            self._idle_ticks = 0
            self._cooldown = COOLDOWN_TICKS
            return SCALE_DOWN, (
                f"queue empty and load < {IDLE_LOW:g} for {IDLE_TICKS} ticks"
            )
        return HOLD, "steady"


__all__ = [
    "AutoscaleConfig",
    "Autoscaler",
    "HOLD",
    "SCALE_DOWN",
    "SCALE_UP",
    "ScaleEvent",
]
