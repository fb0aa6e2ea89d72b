"""The multi-stream encoding service: event loop and platform sharing.

The service multiplexes N concurrent encoding sessions onto one shared
simulated platform:

1. **Arrivals** — an open-loop workload (:mod:`repro.service.workload`)
   delivers :class:`~repro.service.session.StreamSpec` submissions at
   their arrival times.
2. **Admission** — :class:`~repro.service.admission.AdmissionController`
   accepts a stream while the platform has uncommitted capacity, parks it
   in a bounded wait queue under pressure, and rejects it when the queue
   overflows.
3. **Co-scheduling** — each round, every admitted session with a captured
   frame receives a deadline-slack-weighted share of the platform
   (:class:`~repro.service.scheduler.CoScheduler`); the session encodes
   one frame through its own FEVES framework at that share, composing the
   paper's intra-frame LP distribution with inter-stream sharing.
4. **Faults** — the service-level :class:`~repro.hw.noise.FaultSchedule`
   is indexed by *service round*. Every session observes the same
   dropout/hang/degradation in the same round through its
   :class:`~repro.service.session.SessionFaultView`, and each session's
   framework evicts, rebalances onto survivors, and later re-admits
   exactly as in single-stream operation — service-wide rebalancing for
   free. Admission capacity shrinks with the live set, throttling new
   streams while the platform is degraded.

Rounds are variable-length: a round starts at the service clock ``now``,
all active sessions encode concurrently (processor sharing), and the
clock advances by the slowest session's frame time. With a single active
session (share exactly 1.0) the schedule and all encoder decisions are
bit-identical to a standalone ``repro run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import FrameworkConfig
from repro.hw.noise import FaultSchedule
from repro.hw.presets import get_platform
from repro.hw.trace_export import StreamTrace, export_stream_traces
from repro.service.admission import AdmissionController, CapacityModel
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import CoScheduler, RoundLPBatch
from repro.service.session import EncodingSession, StreamSpec

#: Safety valve against a runaway event loop.
MAX_ROUNDS = 100_000


@dataclass
class ServiceConfig:
    """Tunables of the encoding service (not of individual streams).

    Parameters
    ----------
    platform:
        Shared platform preset name (each session gets a fresh instance
        of it; capacity shares model the time-sharing).
    headroom:
        Admission ceiling on the committed platform fraction (1.0 =
        commit up to nominal capacity; < 1 keeps slack for load spikes,
        > 1 oversubscribes deliberately).
    max_queue:
        Bounded wait-queue length; arrivals beyond it are rejected
        (backpressure).
    faults:
        Device-fault schedule indexed by *service round* (not per-stream
        frame index). All sessions observe each fault simultaneously.
    backend, exec_workers:
        ``"process"`` makes every session really encode on a worker pool
        (``exec_workers`` processes) that the service owns and releases.
        Both are judged, with ``faults``, as
        :class:`~repro.core.config.FrameworkConfig` judges them.
    """

    platform: str = "SysHK"
    headroom: float = 1.0
    max_queue: int = 8
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    backend: str = "sim"
    exec_workers: int = 0

    def __post_init__(self) -> None:
        if self.headroom <= 0:
            raise ValueError(f"headroom must be > 0, got {self.headroom}")
        FrameworkConfig(
            backend=self.backend, exec_workers=self.exec_workers, faults=self.faults
        )


#: ``step_round`` outcomes (see its docstring).
ENCODED, IDLE, DONE = "encoded", "idle", "done"


class EncodingService:
    """Event-driven multi-stream encoding service on one shared platform.

    The public surface has two shapes:

    - :meth:`run` serves a complete workload to completion — the
      ``repro serve`` path;
    - the stepping primitives :meth:`begin_round`, :meth:`submit` and
      :meth:`step_round` expose one scheduling round at a time, so an
      outer driver (the cluster layer's :class:`~repro.cluster.node.Node`)
      can interleave many services on one simulated clock. ``run`` is
      built from exactly those primitives, which is what makes a
      single-node cluster bit-identical to ``repro serve``.
    """

    def __init__(
        self,
        cfg: ServiceConfig | None = None,
        lp_batch: RoundLPBatch | None = None,
    ) -> None:
        self.cfg = cfg or ServiceConfig()
        self.template = get_platform(self.cfg.platform)
        for name in self.cfg.faults.devices():
            self.template.device(name)  # raises on unknown device
        self.capacity = CapacityModel(self.template)
        self.admission = AdmissionController(
            self.capacity,
            headroom=self.cfg.headroom,
            max_queue=self.cfg.max_queue,
        )
        self.scheduler = CoScheduler()
        # The LP solve cache may be shared across services (cluster nodes
        # of the same platform class hand every node one batch).
        self.lp_batch = lp_batch if lp_batch is not None else RoundLPBatch()
        self.sessions: list[EncodingSession] = []
        self.now = 0.0
        self.rounds = 0
        self._metrics: ServiceMetrics | None = None

    # ------------------------------------------------------------------

    def live_devices(self, round_idx: int) -> frozenset[str]:
        """Devices not held down by a fault at a service round."""
        return frozenset(
            d.name
            for d in self.template.devices
            if self.cfg.faults.down(round_idx, d.name) is None
        )

    def begin_round(self) -> frozenset[str]:
        """Guard the round budget and return the live device set."""
        round_idx = self.rounds + 1
        if round_idx > MAX_ROUNDS:
            raise RuntimeError(f"service exceeded {MAX_ROUNDS} rounds")
        return self.live_devices(round_idx)

    def submit(self, spec: StreamSpec, live: frozenset[str]) -> EncodingSession:
        """Create a session for a newly arrived stream and offer it."""
        session = EncodingSession(
            spec,
            self.cfg.platform,
            faults=self.cfg.faults,
            backend=self.cfg.backend,
            exec_workers=self.cfg.exec_workers,
        )
        self.lp_batch.attach(session)
        self.sessions.append(session)
        self.admission.offer(session, self.now, live)
        return session

    def step_round(
        self, live: frozenset[str], next_arrival_s: float | None = None
    ) -> str:
        """One scheduling round after due arrivals have been submitted.

        Drains the admission queue, then either encodes one co-scheduled
        round (returns ``ENCODED``), jumps the clock to the next internal
        event or to ``next_arrival_s`` when nothing is encodable yet
        (``IDLE``), or reports the workload fully served (``DONE`` —
        nothing running and no arrival hint left).
        """
        self.admission.drain(self.now, live)

        active = [
            s for s in self.admission.running if s.has_pending(self.now)
        ]
        if not active:
            # Idle: jump the clock to the next event (frame capture of
            # a running session, or the next arrival).
            events = [
                s.next_capture_s()
                for s in self.admission.running
                if not s.done
            ]
            if next_arrival_s is not None:
                events.append(next_arrival_s)
            if not events:
                return DONE
            self.now = max(self.now, min(events))
            return IDLE

        round_idx = self.rounds + 1
        shares = self.scheduler.partition(active, self.now)
        round_dur = 0.0
        for s in active:
            rec = s.step(self.now, shares[s.stream_id], round_idx)
            round_dur = max(round_dur, rec.tau_s)
        for s in active:
            if s.done:
                self.admission.release(s)
        self.now += round_dur
        self.rounds += 1
        return ENCODED

    def close(self) -> None:
        """Release every session's backend resources (idempotent).

        Only process-backed sessions hold anything (worker pools, shared
        memory); they already self-close on completion, so this catches
        sessions abandoned mid-stream (rejected, or a crashed run).
        """
        for session in self.sessions:
            session.close()

    def finalize(self) -> ServiceMetrics:
        """Collect (and cache) the metrics of everything served so far."""
        self.close()
        self._metrics = ServiceMetrics.collect(
            platform=self.cfg.platform,
            duration_s=self.now,
            rounds=self.rounds,
            sessions=self.sessions,
            admission_counts=self.admission.counts,
        )
        return self._metrics

    # ------------------------------------------------------------------

    def run(self, workload: list[StreamSpec]) -> ServiceMetrics:
        """Serve a complete workload to completion; returns the metrics."""
        pending = sorted(workload, key=lambda s: (s.arrival_s, s.stream_id))
        i = 0
        while True:
            live = self.begin_round()

            # Arrivals due by now, then queue drain against current capacity.
            while i < len(pending) and pending[i].arrival_s <= self.now + 1e-12:
                self.submit(pending[i], live)
                i += 1
            next_arrival = pending[i].arrival_s if i < len(pending) else None
            if self.step_round(live, next_arrival) == DONE:
                break

        return self.finalize()

    # ------------------------------------------------------------------

    @property
    def metrics(self) -> ServiceMetrics:
        if self._metrics is None:
            raise RuntimeError("nothing served yet; call run() first")
        return self._metrics

    def export_metrics(self, path: str | Path) -> None:
        """Write the service metrics as JSON."""
        import json

        Path(path).write_text(json.dumps(self.metrics.to_dict(), indent=1))

    def export_trace(self, path: str | Path) -> int:
        """Write a Chrome trace with one process (pid) per stream.

        Each session's frame timelines land at their absolute service
        start times, and the session's fault log contributes per-stream
        instant events — a device dropout is visible simultaneously in
        every stream's row. Returns the number of duration events.
        """
        return export_stream_traces(stream_traces(self.sessions), path)


def stream_traces(
    sessions: list[EncodingSession], pid0: int = 0, prefix: str = ""
) -> list[StreamTrace]:
    """Trace material of ``sessions``: pids ``pid0 + 1 …``, names
    ``prefix`` + stream id (the cluster namespaces both per node)."""
    return [
        StreamTrace(
            pid=pid0 + j,
            name=(
                f"{prefix}{s.stream_id} "
                f"({s.spec.deadline_class}, {s.spec.fps_target:g} fps)"
            ),
            frames=[
                (s.framework.reports[r.index - 1].timeline, r.start_s)
                for r in s.records
            ],
            fault_log=s.framework.fault_log,
        )
        for j, s in enumerate(sessions, start=1)
    ]
