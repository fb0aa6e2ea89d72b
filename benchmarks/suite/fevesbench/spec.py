"""Names fixed by the benchmark: workloads, metrics, units, bounds.

Everything else in the suite (the runner's tables, ``--compare``, the
self-tests that pin ``BENCHMARK.json`` and the README glossary) reads
these tuples, so a metric is defined in exactly one place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

#: Workload families; all workloads of a family share one runner class.
ENC, SCHED, SERVE, FLEET = "enc", "sched", "serve", "fleet"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 7

#: How long one run measures when ``--seconds`` is not given; equals
#: ``run_seconds`` in BENCHMARK.json (pinned by the self-tests).
RUN_SECONDS = 12


def host_cores() -> int:
    """Cores this process may run on; ``enc_*`` uses min(2, that) workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    """One set of inputs the suite runs (see README → Workloads)."""

    name: str
    kind: str
    why: str
    params: dict[str, Any] = field(default_factory=dict)


#: ``np_share`` in every ``params``: the share of the workload's measured
#: work that is array-bound rather than interpreter-bound, by which a
#: host-speed reading blends its two kernels (fevesbench/calib.py).
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "enc_sa32", ENC,
        "Real CIF encode, 32x32 search area, 1 reference: full-search ME is "
        "~83% of a frame, so codec.me must show here and pool or R* changes "
        "should show little.",
        # 1 I + 4 P: the contract's run budget holds one serial pass and
        # one process-backend clip of this size (issue sizing was 9 P).
        dict(width=352, height=288, search_range=16, num_ref_frames=1,
             p_frames=4, platform="SysHK", np_share=0.75),
    ),
    Workload(
        "enc_sa8_rf2", ENC,
        "Same layers, 8x8 search area, 2 references: ME ~ SME ~ 2x R*, 5x "
        "smaller chunks, so serial R*, SME, barriers and submit overhead "
        "dominate; a large-SA-only ME trick predicts no change here.",
        dict(width=352, height=288, search_range=4, num_ref_frames=2,
             p_frames=10, platform="SysHK", np_share=0.5),
    ),
    Workload(
        "sched_steady", SCHED,
        "Model mode, 1080p on SysNFF, measurements wobble inside the "
        "decision cache's tolerance: the cache-hit path plus the DES, which "
        "every simulated frame of serve and fleet pays.",
        # sigma = lb_cache_rtol / 10: every frame's Ks stay inside the
        # reuse tolerance (8 LP solves per 3000 frames, as with no noise)
        # while every seed still yields its own simulated times.
        # block: frames between two host-speed readings (~100 ms of work).
        dict(platform="SysNFF", frames=3000, jitter_sigma=0.002, block=300,
             np_share=0.25),
    ),
    Workload(
        "sched_jitter", SCHED,
        "Same platform under 5% jitter, Fig. 7(b) load spikes and a GPU "
        "hang: the LP is re-solved nearly every frame and the fault path "
        "runs; an LP optimisation shows here, a cache-only change on "
        "sched_steady.",
        dict(platform="SysNFF", frames=500, jitter_sigma=0.05,
             spikes_device="GPU_F", hang=("GPU_F2", 300, 20), block=10,
             np_share=0.75),
    ),
    Workload(
        "serve_poisson", SERVE,
        "One SysHK service under open-loop Poisson arrivals of 1080p "
        "realtime streams at a load where admission, co-scheduler shares "
        "and the shared LP cache all act.",
        # Per replica; a run pools 4 (see _ServingRunner). Issue sizing was
        # 64 x 300 frames in one sequence: one such run swings +-10% with
        # the seed, 4 x 80 short streams halve that in the same host time.
        dict(platform="SysHK", headroom=1.0, max_queue=16, streams=80,
             frames=40, fps=25.0, load=0.4, np_share=0.5),
    ),
    Workload(
        "fleet_fault", FLEET,
        "Three unlike nodes behind the slack router, broadcast mix, one "
        "node lost mid-run: dispatcher queue, routing and reroute do work; "
        "a routing change shows here and not on serve_poisson.",
        # Per replica, as above. Issue sizing was 48 x 200 frames at 0.5
        # streams/s, node down at 40 s: 4x shorter streams arrive 4x as
        # often (same offered load) and the node goes at 10 s.
        dict(platforms=("SysHK", "SysNF", "SysNFF"), headroom=1.0,
             policy="slack", streams=64, frames=50, rate=2.0,
             down=("n0", 10.0), np_share=0.5),
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the parent's median by which the metric may
    worsen; only end-to-end metrics carry one into BENCHMARK.json, the
    bound of a class metric is used by ``--compare`` alone. ``moves``
    names the end-to-end metric a per-layer metric should move and
    ``on`` the workload(s) where it should.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""
    on: str = ""
    #: The bound is an absolute difference, not a share of the median.
    absolute: bool = False


#: Reported by every workload with tracing off; BENCHMARK.json
#: ``end_to_end``. What each means per family is tabulated in the README.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("delivered_fps", "frames/s", "higher", 0.25),
    Metric("host_ms_per_frame", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

_ENC = "enc_*"
_SCHED = "sched_*"
_SERVING = "serve_poisson, fleet_fault"

#: End-to-end metrics the driver cannot bound: the contract wants every
#: ``end_to_end`` metric from every workload and steady within 25%, so
#: these ride in BENCHMARK.json ``per_layer`` (zero where they do not
#: apply) and their bounds are enforced by ``--compare`` instead.
CLASS_METRICS: tuple[Metric, ...] = (
    # Reported by every family, but one cold job per run swung +-30%
    # between two sets of runs on the 2-core shared host: more than any
    # bound the contract allows, so the driver only tracks it.
    Metric("clip_s", "s", "lower", 0.08, on="all"),
    Metric("inter_fps", "frames/s", "higher", 0.08, on=_ENC),
    Metric("serial_inter_fps", "frames/s", "higher", 0.08, on=_ENC),
    Metric("sim_fps", "frames/s", "higher", 0.001, on=_SCHED),
    Metric("miss_rate", "fraction", "lower", 0.005, on=_SERVING, absolute=True),
    Metric("goodput_fps", "frames/s", "higher", 0.005, on=_SERVING),
    Metric("sim_latency_p50_ms", "ms", "lower", 0.005, on=_SERVING),
    Metric("sim_latency_p99_ms", "ms", "lower", 0.005, on=_SERVING),
    # The wall-clock end-to-end metrics are reported at reference host
    # speed (see fevesbench/calib.py); these two say what the stopwatch
    # read and how fast the host was while it did.
    Metric("raw_host_ms_per_frame", "ms", "lower", on="all"),
    Metric("bench.host_speed", "fraction", "higher", on="all"),
)

_FPS = "serial_inter_fps, inter_fps"
_HOST = "host_ms_per_frame"

LAYER_METRICS: tuple[Metric, ...] = (
    # codec / video (staged serial encoder, traced pass)
    Metric("codec.me.ms", "ms", "lower", moves=_FPS, on="enc_sa32 >> enc_sa8_rf2"),
    Metric("codec.me.gsad_per_s", "Gsad/s", "higher", moves=_FPS, on="enc_sa32"),
    Metric("codec.sme.ms", "ms", "lower", moves=_FPS, on="enc_sa8_rf2"),
    Metric("codec.interpolation.ms", "ms", "lower", moves=_FPS, on="enc_sa8_rf2"),
    Metric("codec.mc.ms", "ms", "lower", moves="serial_inter_fps; inter_fps via exec.rstar.ms", on="enc_sa8_rf2"),
    Metric("codec.residual.ms", "ms", "lower", moves="serial_inter_fps; inter_fps via exec.rstar.ms", on="enc_sa8_rf2"),
    Metric("codec.deblock.ms", "ms", "lower", moves="serial_inter_fps; inter_fps via exec.rstar.ms", on="enc_sa8_rf2"),
    Metric("codec.intra.ms", "ms", "lower", moves="clip_s only", on=_ENC),
    Metric("video.generate.ms", "ms", "lower", moves="setup_s", on=_ENC),
    # exec (process backend, from FrameReport and its measured timeline)
    Metric("exec.phase1.ms", "ms", "lower", moves="inter_fps", on=_ENC),
    Metric("exec.phase2.ms", "ms", "lower", moves="inter_fps", on=_ENC),
    Metric("exec.rstar.ms", "ms", "lower", moves="inter_fps", on=_ENC),
    Metric("exec.worker_busy_frac", "fraction", "higher", moves="inter_fps", on="enc_sa8_rf2 first"),
    Metric("exec.barrier_idle.ms", "ms", "lower", moves="inter_fps", on="enc_sa8_rf2 first"),
    Metric("exec.chunks_per_frame", "count", "lower", moves="inter_fps", on="enc_sa8_rf2 first"),
    Metric("exec.dispatch.us", "us", "lower", moves="inter_fps, clip_s", on="enc_sa8_rf2"),
    Metric("exec.pool_start.ms", "ms", "lower", moves="clip_s", on="enc_sa8_rf2"),
    Metric("exec.staged_bytes", "bytes", "lower", moves="inter_fps", on="enc_sa8_rf2"),
    Metric("exec.makespan_err", "fraction", "lower", moves="explains inter_fps", on=_ENC),
    Metric("exec.parallel_eff", "fraction", "higher", moves="explains inter_fps", on=_ENC),
    # core / hw (span recorder around public methods)
    Metric("core.framework.frame.ms", "ms", "lower", moves=_HOST, on=_SCHED),
    Metric("core.framework.self.ms", "ms", "lower", moves=_HOST, on=_SCHED),
    Metric("core.load_balancing.solve.ms", "ms", "lower", moves=_HOST, on="sched_jitter, serve_poisson; none on sched_steady"),
    Metric("core.load_balancing.solve_p99.ms", "ms", "lower", moves=_HOST, on="sched_jitter"),
    Metric("core.load_balancing.lp_solves", "count", "lower", moves=_HOST, on="sched_jitter, serve_poisson"),
    Metric("core.load_balancing.cache_hit_rate", "fraction", "higher", moves=_HOST, on="serve_poisson"),
    Metric("core.load_balancing.used_lp_frac", "fraction", "higher", moves=_HOST, on=_SCHED),
    Metric("core.data_access.plan.ms", "ms", "lower", moves=_HOST, on="sched_steady"),
    Metric("core.data_access.commit.ms", "ms", "lower", moves=_HOST, on="sched_steady"),
    Metric("core.coding_manager.run_frame.ms", "ms", "lower", moves=_HOST, on="sched_steady"),
    Metric("hw.des.run.ms", "ms", "lower", moves=_HOST, on="sched_steady"),
    Metric("hw.des.ops_per_frame", "count", "lower", moves=_HOST, on="sched_steady"),
    # service
    Metric("service.admission.offer.us", "us", "lower", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.admission.drain.us", "us", "lower", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.admission.admitted", "count", "higher", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.admission.queued", "count", "lower", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.admission.rejected", "count", "lower", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.admission.queue_wait_p75_s", "s", "lower", moves="miss_rate, goodput_fps", on="serve_poisson"),
    Metric("service.scheduler.partition.us", "us", "lower", moves=_HOST + "; shares -> sim_latency_p99_ms", on=_SERVING),
    Metric("service.session.step.ms", "ms", "lower", moves=_HOST, on=_SERVING),
    Metric("service.round.self.us", "us", "lower", moves=_HOST, on=_SERVING),
    Metric("service.run.self.ms", "ms", "lower", moves=_HOST, on="serve_poisson"),
    Metric("service.rounds", "count", "lower", moves=_HOST, on=_SERVING),
    Metric("service.lp_batch.hit_rate", "fraction", "higher", moves=_HOST, on=_SERVING),
    # cluster
    Metric("cluster.dispatcher.submit.us", "us", "lower", moves="miss_rate, sim_latency_p99_ms, " + _HOST, on="fleet_fault only"),
    Metric("cluster.dispatcher.drain.us", "us", "lower", moves="miss_rate, sim_latency_p99_ms, " + _HOST, on="fleet_fault only"),
    Metric("cluster.routing.choose.us", "us", "lower", moves="miss_rate, sim_latency_p99_ms, " + _HOST, on="fleet_fault only"),
    Metric("cluster.node.step.ms", "ms", "lower", moves=_HOST, on="fleet_fault only"),
    Metric("cluster.run.self.ms", "ms", "lower", moves=_HOST, on="fleet_fault only"),
    Metric("cluster.queue_wait_p75_s", "s", "lower", moves="miss_rate, sim_latency_p99_ms", on="fleet_fault only"),
    Metric("cluster.reroutes", "count", "lower", moves="miss_rate, sim_latency_p99_ms", on="fleet_fault only"),
    Metric("cluster.peak_concurrent", "count", "higher", moves="miss_rate, sim_latency_p99_ms", on="fleet_fault only"),
    # the benchmark itself
    Metric("bench.trace_overhead_frac", "fraction", "lower", on="all"),
    Metric("bench.self_time_coverage", "fraction", "higher", on="all"),
)

#: BENCHMARK.json ``per_layer``: what ``--trace 1`` reports.
PER_LAYER: tuple[Metric, ...] = CLASS_METRICS + LAYER_METRICS

METRIC_BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}

#: Simulated metrics: deterministic for a seed, so two runs of one commit
#: must agree exactly (``--compare`` flags any difference).
SIMULATED = frozenset(
    {"sim_fps", "miss_rate", "goodput_fps", "sim_latency_p50_ms",
     "sim_latency_p99_ms"}
)


def benchmark_json() -> dict[str, Any]:
    """The contract file's content, derived from the tuples above."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
