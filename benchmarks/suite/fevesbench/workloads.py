"""Child-side workload runners.

Each runner's ``__init__`` is the workload's set-up (inputs made from the
seed, objects built) and ``measure`` runs time-boxed units of fixed,
host-independent size, checks the outputs and derives the metrics. The
program is only ever driven through public calls and read through public
results; with a :class:`~fevesbench.spans.Recorder` the same units run
under spans and the per-layer rows are added.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster import (
    Cluster,
    ClusterConfig,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.node import Node
from repro.cluster.routing import RoutingPolicy
from repro.codec.config import CodecConfig
from repro.codec.encoder import EncodedFrame, ReferenceEncoder
from repro.core.coding_manager import VideoCodingManager
from repro.core.config import FrameworkConfig
from repro.core.data_access import DataAccessManager
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LoadBalancer
from repro.exec.backend import ProcessBackend
from repro.exec.pool import KernelPool
from repro.exec.shm import SharedFrameStore, slot_specs
from repro.hw.des import Simulator
from repro.hw.noise import (
    FaultEvent,
    FaultSchedule,
    GaussianJitter,
    NoiseModel,
    PerturbationSchedule,
)
from repro.hw.presets import get_platform
from repro.service import (
    AdmissionController,
    CapacityModel,
    CoScheduler,
    EncodingService,
    EncodingSession,
    ServiceConfig,
    StreamSpec,
    build_workload,
)
from repro.video.generator import SyntheticSequence

from fevesbench.calib import Calibrator, at_reference_speed
from fevesbench.spans import Recorder, median_of, percentile, timed
from fevesbench.spec import ENC, FLEET, SCHED, SERVE, Workload, host_cores
from fevesbench.staged import StagedEncoder

#: Simulated frames excluded from ``sim_fps`` (equidistant init + LP warm-up).
SIM_WARMUP_FRAMES = 3

#: Round trips of the ``exec.dispatch.us`` probe.
DISPATCH_PROBES = 40

#: (np, py) kernel calls per host-slowness reading (``fevesbench.calib``):
#: ~35 ms beside an ``enc_*`` frame (0.2-1.1 s), ~11 ms beside a
#: ``sched_*`` block (~100 ms), ~65 ms beside a serving unit (~2 s).
FRAME_READING = (9, 15)
BLOCK_READING = (3, 5)
UNIT_READING = (15, 31)

#: Public methods the traced pass times, as (class, method, span name).
#: ``run_frame`` of either backend lands on one name: a workload uses one.
TRACE_TARGETS: list[tuple[type, str, str]] = [
    (FevesFramework, "encode_next_inter", "core.framework.frame"),
    (FevesFramework, "encode_frame_at", "core.framework.frame"),
    (LoadBalancer, "solve", "core.load_balancing.solve"),
    (LoadBalancer, "equidistant", "core.load_balancing.equidistant"),
    (DataAccessManager, "plan", "core.data_access.plan"),
    (DataAccessManager, "commit", "core.data_access.commit"),
    (VideoCodingManager, "run_frame", "core.coding_manager.run_frame"),
    (ProcessBackend, "run_frame", "exec.backend.run_frame"),
    (Simulator, "run", "hw.des.run"),
    (AdmissionController, "offer", "service.admission.offer"),
    (AdmissionController, "drain", "service.admission.drain"),
    (CoScheduler, "partition", "service.scheduler.partition"),
    (EncodingSession, "step", "service.session.step"),
    (EncodingService, "step_round", "service.round"),
    (EncodingService, "run", "service.run"),
    (Dispatcher, "submit", "cluster.dispatcher.submit"),
    (Dispatcher, "drain", "cluster.dispatcher.drain"),
    (RoutingPolicy, "choose", "cluster.routing.choose"),
    (Node, "step", "cluster.node.step"),
    (Cluster, "run", "cluster.run"),
]


def build(cls: type, **wanted: Any) -> Any:
    """Construct a config dataclass from the fields it (still) has.

    Later PRs delete config knobs; passing only live fields keeps the
    benchmark source unchanged across them.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in wanted.items() if k in names})


def timebox(
    unit: Callable[[int], Any], seconds: float, min_units: int = 1
) -> list[Any]:
    """Run ``unit(k)`` for k = 0, 1, … while another one fits the budget.

    Units have a fixed size, so a faster host fits more of them; the
    minimum always runs, whatever it takes.
    """
    t_start = time.perf_counter()
    out: list[Any] = []
    while True:
        t0 = time.perf_counter()
        out.append(unit(len(out)))
        now = time.perf_counter()
        if len(out) >= min_units and (now - t_start) + (now - t0) > seconds:
            return out


@dataclass
class Outcome:
    """What one pass of one workload produced."""

    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = float(value)
        self.samples[name] = n

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(why)


def _span(rec: Recorder | None, name: str, ident: Any = None) -> Any:
    if rec is None:
        return nullcontext()
    rec.current_ident = ident
    return rec.span(name)


def _reading(calib: Calibrator, rec: Recorder | None) -> float:
    """One host-slowness reading, under its own span on a traced pass."""
    with _span(rec, "bench.calib"):
        return calib()


def _host_speed_row(calib: Calibrator, out: Outcome) -> None:
    out.put("bench.host_speed", calib.host_speed(), len(calib.readings))


def _medians(out: Outcome, groups: dict[str, list[float]],
             rows: dict[str, tuple[str, float]]) -> None:
    """``rows``: metric name -> (span name, unit scale), per-call medians."""
    for metric, (span, scale) in rows.items():
        out.put(metric, median_of(groups, span, scale), len(groups.get(span, ())))


def _layer_medians(rec: Recorder, out: Outcome, rows: dict[str, tuple[str, float]]) -> None:
    _medians(out, rec.durations_by_name(), rows)


def _self_medians(rec: Recorder, out: Outcome, rows: dict[str, tuple[str, float]]) -> None:
    _medians(out, rec.self_times_by_name(), rows)


def _core_layers(rec: Recorder, out: Outcome, sim_backend: bool = True) -> None:
    """Rows of the scheduling core, shared by every family.

    ``run_frame`` of the process backend is mostly waiting for workers;
    ``exec.*`` rows describe it better than a self time would.
    """
    _layer_medians(rec, out, {
        "core.framework.frame.ms": ("core.framework.frame", 1e3),
        "core.load_balancing.solve.ms": ("core.load_balancing.solve", 1e3),
        "core.data_access.plan.ms": ("core.data_access.plan", 1e3),
        "core.data_access.commit.ms": ("core.data_access.commit", 1e3),
        "hw.des.run.ms": ("hw.des.run", 1e3),
    })
    groups = rec.durations_by_name()
    solves = groups.get("core.load_balancing.solve", [])
    out.put("core.load_balancing.solve_p99.ms", percentile(solves, 99) * 1e3, len(solves))
    _self_medians(rec, out, {
        "core.framework.self.ms": ("core.framework.frame", 1e3),
    })
    if sim_backend:
        _self_medians(rec, out, {
            "core.coding_manager.run_frame.ms":
                ("core.coding_manager.run_frame", 1e3),
        })


def _coverage(rec: Recorder, out: Outcome) -> None:
    """Share of the traced wall attributed to a program layer's span.

    The units run under ``bench.*`` root spans; their self time is the
    benchmark's own loop plus whatever the program did outside every
    wrapped method. Calibration readings are the benchmark's, not the
    run's: they are taken out of both sides.
    """
    selfs = rec.self_times_by_name()
    unattributed = sum(
        sum(v) for name, v in selfs.items()
        if name.startswith("bench.") and name != "bench.calib"
    )
    total = rec.root_total() - sum(
        rec.durations_by_name().get("bench.calib", ())
    )
    out.put("bench.self_time_coverage", 1.0 - unattributed / total if total else 0.0)


def _lp_cache_rows(hits: int, misses: int, out: Outcome) -> float:
    """LP solve counts (``LPSolveCache.hits/misses``); returns the hit rate."""
    rate = hits / (hits + misses) if hits + misses else 0.0
    out.put("core.load_balancing.lp_solves", misses)
    out.put("core.load_balancing.cache_hit_rate", rate, hits + misses)
    return rate


# --------------------------------------------------------------------- enc


def _same_frame(a: EncodedFrame, b: EncodedFrame) -> bool:
    return (
        a.bits == b.bits
        and a.mode_histogram == b.mode_histogram
        and np.array_equal(a.recon.y, b.recon.y)
        and np.array_equal(a.recon.u, b.recon.u)
        and np.array_equal(a.recon.v, b.recon.v)
    )


@dataclass
class _Clip:
    wall_s: float
    frame_walls: list[float]
    #: ``frame_walls`` at reference host speed.
    frame_norm: list[float]
    encoded: list[EncodedFrame]
    reports: list[Any]
    makespan_err: float


class EncRunner:
    """Real encode: serial reference, then the process backend."""

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 workers: int | None = None) -> None:
        p = workload.params
        self.cfg = CodecConfig(
            width=p["width"], height=p["height"],
            search_range=p["search_range"], num_ref_frames=p["num_ref_frames"],
        )
        self.platform = p["platform"]
        self.workers = workers or min(2, host_cores())
        n_p = max(2, p["p_frames"] // 4) if quick else p["p_frames"]
        seq = SyntheticSequence(width=p["width"], height=p["height"], seed=seed)
        timed_frames = [timed(lambda i=i: seq.frame(i)) for i in range(1 + n_p)]
        self.frames = [f for f, _ in timed_frames]
        self.generate_s = [dt for _, dt in timed_frames]
        self.calib = Calibrator(p["np_share"], *FRAME_READING)
        #: Hook for the self-tests: corrupt the backend's output.
        self.tamper: Callable[[list[EncodedFrame]], None] | None = None

    def _clip(self, rec: Recorder | None, k: int) -> _Clip:
        with _span(rec, "bench.clip", k):
            t0 = time.perf_counter()
            calib_s0 = self.calib.spent_s
            fw = FevesFramework(
                get_platform(self.platform), self.cfg,
                build(FrameworkConfig, compute="real", backend="process",
                      exec_workers=self.workers),
            )
            fw.manager.sanitize = False  # never journal on a timed path
            walls: list[float] = []
            outcomes = []
            try:
                # Readings between frames: the workers are idle then.
                readings = [_reading(self.calib, rec)]
                for i, cur in enumerate(self.frames):
                    if rec is not None:
                        rec.current_ident = i
                    t = time.perf_counter()
                    outcomes.append(fw.encode_frame_at(cur, i))
                    walls.append(time.perf_counter() - t)
                    readings.append(_reading(self.calib, rec))
                acc = fw.accuracy_report().summary()
            finally:
                fw.close()
            wall = time.perf_counter() - t0 - (self.calib.spent_s - calib_s0)
        return _Clip(
            wall_s=wall,
            frame_walls=walls,
            frame_norm=at_reference_speed(walls, readings),
            encoded=[o.encoded for o in outcomes],
            reports=[o.report for o in outcomes],
            makespan_err=float(acc.get("makespan_error_mean", 0.0)),
        )

    def measure(self, seconds: float, rec: Recorder | None = None) -> Outcome:
        out = Outcome()
        t_start = time.perf_counter()
        ref = ReferenceEncoder(self.cfg)
        readings = [_reading(self.calib, rec)]
        serial = []
        for f in self.frames:
            serial.append(timed(lambda f=f: ref.encode_frame(f)))
            readings.append(_reading(self.calib, rec))
        ref_out = [e for e, _ in serial]
        serial_p = [dt for _, dt in serial[1:]]
        serial_norm = at_reference_speed([dt for _, dt in serial], readings)[1:]

        if rec is not None:
            staged = StagedEncoder(self.cfg, rec)
            with rec.span("bench.staged"):
                staged_out = [staged.encode_frame(f) for f in self.frames]
            self._check(out, ref_out, staged_out, "staged encoder")

        left = seconds - (time.perf_counter() - t_start)
        clips: list[_Clip] = timebox(lambda k: self._clip(rec, k), left)
        for k, clip in enumerate(clips):
            if self.tamper is not None:
                self.tamper(clip.encoded)
            self._check(out, ref_out, clip.encoded, f"process backend clip {k}")

        inter_p = [dt for c in clips for dt in c.frame_walls[1:]]
        inter_norm = [dt for c in clips for dt in c.frame_norm[1:]]
        inter_fps = 1.0 / statistics.median(inter_p)
        serial_fps = 1.0 / statistics.median(serial_p)
        out.put("inter_fps", inter_fps, len(inter_p))
        out.put("serial_inter_fps", serial_fps, len(serial_p))
        out.put("delivered_fps", 1.0 / statistics.median(inter_norm), len(inter_p))
        out.put("host_ms_per_frame",
                statistics.median(serial_norm) * 1e3, len(serial_p))
        out.put("raw_host_ms_per_frame", 1e3 / serial_fps, len(serial_p))
        out.put("clip_s", statistics.median(c.wall_s for c in clips), len(clips))
        _host_speed_row(self.calib, out)
        if rec is not None:
            self._layers(rec, out, clips, inter_fps, serial_fps)
        return out

    @staticmethod
    def _check(out: Outcome, ref: list[EncodedFrame],
               got: list[EncodedFrame | None], who: str) -> None:
        for i, (r, g) in enumerate(zip(ref, got, strict=True)):
            out.attempted += 1
            if g is None or not _same_frame(r, g):
                out.fail(1, f"{who}: frame {i} differs from the serial reference")

    # ------------------------------ per-layer ---------------------------

    def _layers(self, rec: Recorder, out: Outcome, clips: list[_Clip],
                inter_fps: float, serial_fps: float) -> None:
        cfg = self.cfg
        _layer_medians(rec, out, {
            "codec.me.ms": ("codec.me", 1e3),
            "codec.sme.ms": ("codec.sme", 1e3),
            "codec.interpolation.ms": ("codec.interpolation", 1e3),
            "codec.mc.ms": ("codec.mc", 1e3),
            "codec.residual.ms": ("codec.residual", 1e3),
            "codec.deblock.ms": ("codec.deblock", 1e3),
            "codec.intra.ms": ("codec.intra", 1e3),
        })
        me_s = rec.durations_by_name().get("codec.me", [])
        # Computed, not counted: candidates x pixels x active references.
        sads = sum(
            cfg.width * cfg.height * (2 * cfg.search_range) ** 2
            * min(i, cfg.num_ref_frames)
            for i in range(1, len(me_s) + 1)
        )
        out.put("codec.me.gsad_per_s", sads / sum(me_s) / 1e9, len(me_s))
        out.put("video.generate.ms",
                statistics.median(self.generate_s) * 1e3, len(self.generate_s))

        reports = [r for c in clips for r in c.reports[1:]]
        n = len(reports)
        out.put("exec.phase1.ms", statistics.median(r.tau1 for r in reports) * 1e3, n)
        out.put("exec.phase2.ms",
                statistics.median(r.tau2 - r.tau1 for r in reports) * 1e3, n)
        out.put("exec.rstar.ms",
                statistics.median(r.tau_tot - r.tau2 for r in reports) * 1e3, n)
        busy, idle, chunks = [], [], []
        for r in reports:
            p1, p2 = _chunks(r.timeline.records)
            chunks.append(len(p1) + len(p2))
            busy.append(
                sum(c.duration for c in p1 + p2) / (self.workers * r.tau2)
            )
            idle.append(
                _barrier_wait(p1, r.tau1, self.workers)
                + _barrier_wait(p2, r.tau2, self.workers)
            )
        out.put("exec.worker_busy_frac", statistics.median(busy), n)
        out.put("exec.barrier_idle.ms", statistics.median(idle) * 1e3, n)
        out.put("exec.chunks_per_frame", statistics.median(chunks), n)
        out.put("exec.makespan_err", clips[-1].makespan_err)
        out.put("exec.parallel_eff", inter_fps / (self.workers * serial_fps))
        # Computed from slot_specs: what the host stages per frame once
        # every reference is active (cur, padded refs, carried-over SFs).
        out.put("exec.staged_bytes", sum(
            s.nbytes for s in slot_specs(cfg) if s.key != "sf0"
        ))
        start_s, dispatch_s = _dispatch_probe(cfg, self.workers)
        out.put("exec.pool_start.ms", start_s * 1e3)
        out.put("exec.dispatch.us",
                statistics.median(dispatch_s) * 1e6, len(dispatch_s))
        _core_layers(rec, out, sim_backend=False)
        lp = sum(1 for r in reports if r.decision.used_lp)
        out.put("core.load_balancing.used_lp_frac", lp / n, n)
        _coverage(rec, out)


def _chunks(records: list[Any]) -> tuple[list[Any], list[Any]]:
    """Worker chunks of a measured timeline, split at the tau1 barrier."""
    p1 = [r for r in records if r.label.startswith(("ME[", "INT["))]
    p2 = [r for r in records if r.label.startswith("SME[")]
    return p1, p2


def _barrier_wait(chunks: list[Any], barrier: float, workers: int) -> float:
    """Wait of the ``workers`` latest-finishing chunks for the barrier.

    The timeline does not name the worker that ran a chunk; with FIFO
    dispatch the last chunk of each worker is among the latest finishers.
    """
    ends = sorted(c.end for c in chunks)[-workers:]
    return sum(max(0.0, barrier - e) for e in ends)


def _dispatch_probe(cfg: CodecConfig, workers: int) -> tuple[float, list[float]]:
    """Pool start-up time and per-task round trip minus in-worker time.

    Runs on a store and pool the benchmark owns, so no frame of the
    workload pays for it. Start-up includes the first task, because the
    executor forks its workers on first submit.
    """
    store = SharedFrameStore(cfg)
    try:
        t0 = time.perf_counter()
        pool = KernelPool(workers, store.layout(), cfg)
        try:
            pool.submit_int(0, 1).result()
            start_s = time.perf_counter() - t0
            overheads = []
            for _ in range(DISPATCH_PROBES):
                t = time.perf_counter()
                _none, w0, w1, _journal = pool.submit_int(0, 1).result()
                overheads.append((time.perf_counter() - t) - (w1 - w0))
        finally:
            pool.close()
    finally:
        store.close()
    return start_s, overheads


# ------------------------------------------------------------------- sched


class SchedRunner:
    """Model mode: host cost of scheduling one simulated frame."""

    CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 workers: int | None = None) -> None:
        self.p = workload.params
        self.seed = seed
        # Quick runs still reach the hang at frame 300 and its recovery.
        self.frames = max(350, self.p["frames"] // 8) if quick else self.p["frames"]
        self.platform = self.p["platform"]
        self.calib = Calibrator(self.p["np_share"], *BLOCK_READING)

    def _framework(self) -> FevesFramework:
        p = self.p
        spikes = (
            PerturbationSchedule.paper_fig7b(p["spikes_device"], 1)
            if "spikes_device" in p else PerturbationSchedule()
        )
        faults = FaultSchedule()
        if "hang" in p:
            device, frame, duration = p["hang"]
            faults = FaultSchedule(
                [FaultEvent(frame=frame, device=device, kind="hang",
                            duration=duration)]
            )
        noise = NoiseModel(
            schedule=spikes,
            jitter=GaussianJitter(sigma=p["jitter_sigma"], seed=self.seed),
        )
        return FevesFramework(
            get_platform(self.platform), self.CFG,
            build(FrameworkConfig, noise=noise, faults=faults),
        )

    def _unit(self, rec: Recorder | None, k: int) -> dict[str, Any]:
        block = self.p["block"]
        with _span(rec, "bench.clip", k):
            t0 = time.perf_counter()
            calib_s0 = self.calib.spent_s
            fw = self._framework()
            walls = []
            readings = [_reading(self.calib, rec)]
            for i in range(self.frames):
                if rec is not None:
                    rec.current_ident = i + 1
                t = time.perf_counter()
                fw.encode_next_inter()
                walls.append(time.perf_counter() - t)
                if (i + 1) % block == 0 or i + 1 == self.frames:
                    readings.append(_reading(self.calib, rec))
            wall = time.perf_counter() - t0 - (self.calib.spent_s - calib_s0)
        # One value per block of frames: its median frame, at reference
        # host speed by the readings on either side of the block.
        block_norm = at_reference_speed(
            [statistics.median(walls[i:i + block])
             for i in range(0, self.frames, block)],
            readings,
        )
        mb_rows = self.CFG.mb_rows
        bad_rows = sum(
            1 for r in fw.reports
            if any(sum(d.rows) != mb_rows
                   for d in (r.decision.m, r.decision.l, r.decision.s))
        )
        return dict(
            wall_s=wall, walls=walls, block_norm=block_norm,
            times_ms=fw.frame_times_ms(),
            bad_rows=bad_rows,
            used_lp=sum(1 for r in fw.reports if r.decision.used_lp),
            ops=statistics.median(len(r.timeline.records) for r in fw.reports),
            lp_hits=fw.balancer.lp_cache.hits,
            lp_misses=fw.balancer.lp_cache.misses,
        )

    def measure(self, seconds: float, rec: Recorder | None = None) -> Outcome:
        out = Outcome()
        # Two units at least: the second one is the determinism check.
        units = timebox(lambda k: self._unit(rec, k), seconds, min_units=2)
        first = units[0]
        for k, u in enumerate(units):
            out.attempted += self.frames
            if u["bad_rows"]:
                out.fail(u["bad_rows"],
                         f"unit {k}: m/l/s rows do not sum to mb_rows")
            differing = sum(
                1 for a, b in zip(first["times_ms"], u["times_ms"], strict=True)
                if a != b
            )
            if differing:
                out.fail(differing,
                         f"unit {k}: simulated frame times differ from unit 0")
        tail = first["times_ms"][SIM_WARMUP_FRAMES:]
        sim_fps = len(tail) / (sum(tail) / 1e3)
        walls = [w for u in units for w in u["walls"]]
        blocks = [b for u in units for b in u["block_norm"]]
        out.put("sim_fps", sim_fps, len(tail))
        out.put("delivered_fps", sim_fps, len(tail))
        out.put("host_ms_per_frame", statistics.median(blocks) * 1e3, len(walls))
        out.put("raw_host_ms_per_frame", statistics.median(walls) * 1e3, len(walls))
        out.put("clip_s", statistics.median(u["wall_s"] for u in units), len(units))
        _host_speed_row(self.calib, out)
        if rec is not None:
            _core_layers(rec, out)
            _lp_cache_rows(first["lp_hits"], first["lp_misses"], out)
            out.put("core.load_balancing.used_lp_frac",
                    first["used_lp"] / self.frames, self.frames)
            out.put("hw.des.ops_per_frame", first["ops"], self.frames)
            _coverage(rec, out)
        return out


# ----------------------------------------------------------------- serving


def _sim_metrics(out: Outcome, units: list[dict[str, Any]]) -> None:
    """Simulated end-to-end metrics over every frame *offered*.

    A frame of a rejected or unfinished stream was never delivered, so it
    counts as missed and adds nothing to goodput.
    """
    records = [r for u in units for r in u["records"]]
    offered = sum(
        s.n_frames for u in units for s in u["specs"]
        if not math.isinf(s.klass.budget_factor)
    )
    duration_s = sum(u["duration_s"] for u in units)
    on_time_missable = sum(
        1 for _lat, missable, missed in records if missable and not missed
    )
    on_time = sum(1 for _lat, _missable, missed in records if not missed)
    latencies = [lat for lat, _missable, _missed in records]
    n = len(records)
    out.put("miss_rate", 1.0 - on_time_missable / offered, offered)
    out.put("goodput_fps", on_time / duration_s, n)
    out.put("delivered_fps", on_time / duration_s, n)
    out.put("sim_latency_p50_ms", percentile(latencies, 50) * 1e3, n)
    out.put("sim_latency_p99_ms", percentile(latencies, 99) * 1e3, n)


class _ServingRunner:
    """Shared unit loop of the two open-loop serving workloads.

    One run serves ``REPLICAS`` independent arrival sequences (sub-seeds
    of ``--seed``) through a fresh system each; simulated metrics and
    host time pool them. Extra units a fast host fits re-run the
    sequences in order and must reproduce them exactly.
    """

    REPLICAS = 4

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 workers: int | None = None) -> None:
        self.p = workload.params
        self.quick = quick
        self.workloads = [
            self._arrivals(seed * 1000 + k) for k in range(self.REPLICAS)
        ]
        self.calib = Calibrator(self.p["np_share"], *UNIT_READING)
        #: Hook for the self-tests: tamper with a finished unit's system.
        self.tamper: Callable[[Any], None] | None = None

    def _arrivals(self, seed: int) -> list[StreamSpec]:
        raise NotImplementedError

    def _serve(self, specs: list[StreamSpec]) -> tuple[Any, float]:
        """Build a fresh system, serve ``specs``; (system, run wall)."""
        raise NotImplementedError

    def _services(self, system: Any) -> list[EncodingService]:
        raise NotImplementedError

    def _duration_s(self, system: Any) -> float:
        raise NotImplementedError

    def _stream_states(self, system: Any) -> dict[str, str]:
        """Final state per stream id (``done`` / ``rejected`` / other)."""
        raise NotImplementedError

    def _unit(self, rec: Recorder | None, out: Outcome, k: int) -> dict[str, Any]:
        specs = self.workloads[k % self.REPLICAS]
        with _span(rec, "bench.clip", k):
            before = _reading(self.calib, rec)
            t0 = time.perf_counter()
            system, run_s = self._serve(specs)
            wall = time.perf_counter() - t0
            after = _reading(self.calib, rec)
        if self.tamper is not None:
            self.tamper(system)
        sessions = [s for svc in self._services(system) for s in svc.sessions]
        self._check(out, specs, self._stream_states(system), sessions, k)
        # Only these facts outlive the unit: with the system gone a run's
        # peak memory does not depend on how many units the host fits.
        unit = dict(
            specs=specs, wall_s=wall, run_s=run_s,
            run_norm_s=at_reference_speed([run_s], [before, after])[0],
            duration_s=self._duration_s(system),
            # (latency, has a deadline, missed it) per encoded frame.
            records=[
                (r.latency_s, not math.isinf(r.deadline_s), r.missed)
                for s in sessions for r in s.records
            ],
            digest=[
                (s.stream_id, len(s.records),
                 s.records[-1].end_s if s.records else 0.0)
                for s in sessions
            ],
        )
        if rec is not None:
            unit["facts"] = self._facts(system, sessions)
        return unit

    @staticmethod
    def _check(out: Outcome, specs: list[StreamSpec], states: dict[str, str],
               sessions: list[EncodingSession], k: int) -> None:
        out.attempted += len(specs)
        lost = [s.stream_id for s in specs
                if states.get(s.stream_id) not in ("done", "rejected")]
        if lost:
            out.fail(len(lost), f"unit {k}: streams neither done nor "
                                f"rejected: {lost[:4]}")
            return
        owed = sum(s.n_frames for s in specs
                   if states[s.stream_id] != "rejected")
        got = sum(len(s.records) for s in sessions)
        if got != owed:
            out.fail(1, f"unit {k}: {got} frames encoded, {owed} owed")

    def measure(self, seconds: float, rec: Recorder | None = None) -> Outcome:
        out = Outcome()
        units = timebox(lambda k: self._unit(rec, out, k), seconds,
                        min_units=self.REPLICAS)
        for k, u in enumerate(units[self.REPLICAS:], start=self.REPLICAS):
            if units[k % self.REPLICAS]["digest"] != u["digest"]:
                out.fail(len(u["specs"]),
                         f"unit {k}: a re-run of the same arrivals differs")
        pooled = units[: self.REPLICAS]
        _sim_metrics(out, pooled)
        # Host time of all replicas over all their frames (a replica's
        # cost follows its arrivals: LP solves per frame differ by a third
        # between sequences); a replica served again counts its median.
        runs = [units[k::self.REPLICAS] for k in range(self.REPLICAS)]
        frames = sum(len(u["records"]) for u in pooled)
        for metric, key in (("host_ms_per_frame", "run_norm_s"),
                            ("raw_host_ms_per_frame", "run_s")):
            out.put(metric, sum(
                statistics.median(u[key] for u in again) for again in runs
            ) / frames * 1e3, len(units))
        out.put("clip_s", statistics.median(u["wall_s"] for u in units), len(units))
        _host_speed_row(self.calib, out)
        if rec is not None:
            self._layers(rec, out, [u["facts"] for u in pooled])
            _coverage(rec, out)
        return out

    # ------------------------------ per-layer ---------------------------

    def _facts(self, system: Any, sessions: list[EncodingSession]) -> dict[str, Any]:
        """Counts read from a finished system's public results."""
        services = self._services(system)
        # Nodes of one platform share a cache object: count each once.
        caches = {id(s.lp_batch.cache): s.lp_batch.cache for s in services}.values()
        reports = [r for s in sessions for r in s.framework.reports]
        return dict(
            admission=[svc.metrics.admission for svc in services],
            waits=[s.wait_s for s in sessions],
            rounds=sum(svc.metrics.rounds for svc in services),
            lp_hits=sum(c.hits for c in caches),
            lp_misses=sum(c.misses for c in caches),
            used_lp=sum(1 for r in reports if r.decision.used_lp),
            ops=[len(r.timeline.records) for r in reports],
        )

    def _layers(self, rec: Recorder, out: Outcome, facts: list[dict[str, Any]]) -> None:
        _layer_medians(rec, out, {
            "service.admission.offer.us": ("service.admission.offer", 1e6),
            "service.admission.drain.us": ("service.admission.drain", 1e6),
            "service.scheduler.partition.us": ("service.scheduler.partition", 1e6),
            "service.session.step.ms": ("service.session.step", 1e3),
        })
        _self_medians(rec, out, {
            "service.round.self.us": ("service.round", 1e6),
            "service.run.self.ms": ("service.run", 1e3),
        })
        for key in ("admitted", "queued", "rejected"):
            out.put(f"service.admission.{key}", sum(
                counts.get(key, 0) for f in facts for counts in f["admission"]
            ))
        waits = [w for f in facts for w in f["waits"]]
        out.put("service.admission.queue_wait_p75_s", percentile(waits, 75), len(waits))
        out.put("service.rounds", sum(f["rounds"] for f in facts))
        out.put("service.lp_batch.hit_rate", _lp_cache_rows(
            sum(f["lp_hits"] for f in facts), sum(f["lp_misses"] for f in facts), out
        ))
        _core_layers(rec, out)
        ops = [n for f in facts for n in f["ops"]]
        out.put("core.load_balancing.used_lp_frac",
                sum(f["used_lp"] for f in facts) / len(ops), len(ops))
        out.put("hw.des.ops_per_frame", statistics.median(ops), len(ops))


class ServeRunner(_ServingRunner):
    """One ``EncodingService`` under Poisson arrivals."""

    def _arrivals(self, seed: int) -> list[StreamSpec]:
        p = self.p
        n = max(8, p["streams"] // 8) if self.quick else p["streams"]
        probe = StreamSpec("probe", fps_target=p["fps"], n_frames=p["frames"],
                           deadline_class="realtime")
        nominal_fps = CapacityModel(get_platform(p["platform"])).fps_capacity(
            probe.codec_config(), probe.num_ref_frames
        )
        # Offered load = `load` x the platform's nominal frame rate.
        rate = p["load"] * nominal_fps / p["frames"]
        return build_workload(
            n, n_frames=p["frames"], fps_target=p["fps"],
            deadline_class="realtime", arrival_rate=rate, seed=seed,
        )

    def _serve(self, specs: list[StreamSpec]) -> tuple[EncodingService, float]:
        p = self.p
        service = EncodingService(build(
            ServiceConfig, platform=p["platform"], headroom=p["headroom"],
            max_queue=p["max_queue"],
        ))
        _metrics, run_s = timed(lambda: service.run(specs))
        return service, run_s

    def _services(self, system: EncodingService) -> list[EncodingService]:
        return [system]

    def _duration_s(self, system: EncodingService) -> float:
        return system.metrics.duration_s

    def _stream_states(self, system: EncodingService) -> dict[str, str]:
        return {s.stream_id: s.state for s in system.sessions}


class FleetRunner(_ServingRunner):
    """A three-node ``Cluster`` that loses a node mid-run."""

    def _arrivals(self, seed: int) -> list[StreamSpec]:
        p = self.p
        n = max(8, p["streams"] // 4) if self.quick else p["streams"]
        return build_workload(
            n, n_frames=p["frames"], mix="broadcast",
            arrival_rate=p["rate"], seed=seed,
        )

    def _serve(self, specs: list[StreamSpec]) -> tuple[Cluster, float]:
        p = self.p
        node, at_s = p["down"]
        cluster = Cluster(build(
            ClusterConfig,
            nodes=tuple(
                build(NodeSpec, node_id=f"n{i}", platform=name,
                      headroom=p["headroom"])
                for i, name in enumerate(p["platforms"])
            ),
            policy=p["policy"],
            # The schedule is consumed by a run: a fresh one per unit.
            node_faults=NodeFaultSchedule(
                [NodeFaultEvent(node_id=node, at_s=at_s, kind="down")]
            ),
        ))
        _metrics, run_s = timed(lambda: cluster.run(specs))
        return cluster, run_s

    def _services(self, system: Cluster) -> list[EncodingService]:
        return [node.service for node in system.nodes]

    def _duration_s(self, system: Cluster) -> float:
        return system.metrics.duration_s

    def _stream_states(self, system: Cluster) -> dict[str, str]:
        return {
            sid: "done" if st.done else st.state
            for sid, st in system.dispatcher.streams.items()
        }

    def _facts(self, system: Cluster, sessions: list[EncodingSession]) -> dict[str, Any]:
        facts = super()._facts(system, sessions)
        facts.update(
            queue_waits=[
                st.queue_wait_s for st in system.dispatcher.streams.values()
            ],
            reroutes=system.metrics.reroutes,
            peak_concurrent=system.metrics.peak_concurrent,
        )
        return facts

    def _layers(self, rec: Recorder, out: Outcome, facts: list[dict[str, Any]]) -> None:
        super()._layers(rec, out, facts)
        _layer_medians(rec, out, {
            "cluster.dispatcher.submit.us": ("cluster.dispatcher.submit", 1e6),
            "cluster.dispatcher.drain.us": ("cluster.dispatcher.drain", 1e6),
            "cluster.routing.choose.us": ("cluster.routing.choose", 1e6),
            "cluster.node.step.ms": ("cluster.node.step", 1e3),
        })
        _self_medians(rec, out, {"cluster.run.self.ms": ("cluster.run", 1e3)})
        waits = [w for f in facts for w in f["queue_waits"]]
        out.put("cluster.queue_wait_p75_s", percentile(waits, 75), len(waits))
        out.put("cluster.reroutes", sum(f["reroutes"] for f in facts))
        out.put("cluster.peak_concurrent",
                max(f["peak_concurrent"] for f in facts))


RUNNERS: dict[str, type] = {
    ENC: EncRunner, SCHED: SchedRunner, SERVE: ServeRunner, FLEET: FleetRunner,
}
