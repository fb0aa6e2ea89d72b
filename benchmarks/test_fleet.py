"""Fleet smoke: sweep fleet size x arrival rate, gate vs BENCH_FLEET.json.

Serves the same mixed-class workload through growing fleets (1, 2 and 4
nodes cycling SysHK/SysNF/SysNFF) at two arrival regimes (one burst, one
Poisson trickle) and records, per point: aggregate and per-class tails,
deadline-miss rate, global queue wait, peak concurrency, reroutes and
the shared per-platform LP-cache hit rate. Results land in the usual
``benchmarks/results`` pair *and* as the committed root-level
``BENCH_FLEET.json`` snapshot that CI uploads.

The regression gate is machine-normalized:
every gated metric is *simulated* (frame counts, stream outcomes, p99
milliseconds of simulated latency — all deterministic, so they must
match the snapshot exactly) or a host-independent ratio (LP-cache hit
rate, allowed to drift 25% down). Host wall time is recorded for
context but never gated.
"""

import json
from pathlib import Path

import pytest

from conftest import RESULTS_DIR
from repro.cluster import Cluster, ClusterConfig, NodeSpec
from repro.report import format_table
from repro.sanitizers import check_cluster, check_protocols
from repro.service import build_workload
from repro.util.journal import sanitize_from_env

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_FLEET.json"

PLATFORM_CYCLE = ("SysHK", "SysNF", "SysNFF")
FLEET_SIZES = (1, 2, 4)
ARRIVAL_RATES = (0.0, 20.0)     # burst vs Poisson trickle
N_STREAMS = 8
N_FRAMES = 4
REGRESSION_TOL = 0.25

#: Metrics that are pure simulated state: bit-deterministic, gated exact.
DETERMINISTIC = (
    "frames_encoded", "streams_done", "p99_ms", "deadline_miss_rate",
    "peak_concurrent", "reroutes",
)


def fleet_point(n_nodes: int, arrival_rate: float) -> dict:
    import time

    wl = build_workload(
        N_STREAMS, n_frames=N_FRAMES, mix="broadcast",
        arrival_rate=arrival_rate, seed=7,
    )
    cluster = Cluster(ClusterConfig(
        nodes=tuple(
            NodeSpec(f"n{i}", platform=PLATFORM_CYCLE[i % len(PLATFORM_CYCLE)],
                     headroom=2.0)
            for i in range(n_nodes)
        ),
        policy="slack",
    ))
    t0 = time.perf_counter()
    m = cluster.run(wl)
    wall_s = time.perf_counter() - t0
    if sanitize_from_env():
        # The runtime only journals; under $REPRO_SANITIZE (CI's
        # fleet-smoke job) this sweep is who raises on a dirty fleet:
        # the segment audit (SAN-E) and the point's lifecycle journal
        # (SAN-G).
        report = check_cluster(cluster)
        report.extend(check_protocols())
        report.raise_if_dirty()
    hit_rates = [c["hit_rate"] for c in m.lp_cache.values()]
    return {
        "nodes": n_nodes,
        "arrival_rate": arrival_rate,
        "frames_encoded": m.frames_encoded,
        "streams_done": m.streams.get("done", 0),
        "p50_ms": round(m.p50_ms, 3),
        "p99_ms": round(m.p99_ms, 3),
        "deadline_miss_rate": round(m.deadline_miss_rate, 4),
        "class_miss_rates": {
            name: round(c["deadline_miss_rate"], 4)
            for name, c in m.classes.items()
        },
        "queue_wait_p95_s": round(m.queue_wait_p95_s, 4),
        "duration_s": round(m.duration_s, 4),
        "peak_concurrent": m.peak_concurrent,
        "reroutes": m.reroutes,
        "lp_cache_hit_rate": round(
            sum(hit_rates) / len(hit_rates), 4
        ) if hit_rates else 0.0,
        "wall_s": round(wall_s, 3),
    }


@pytest.fixture(scope="module")
def committed():
    """The snapshot as committed, captured before any test rewrites it."""
    if not SNAPSHOT.exists():
        return None
    return json.loads(SNAPSHOT.read_text())


@pytest.fixture(scope="module")
def sweep(committed):
    return [
        fleet_point(n, rate)
        for rate in ARRIVAL_RATES
        for n in FLEET_SIZES
    ]


def test_fleet_table_and_snapshot(sweep, emit):
    rows = [
        [
            p["nodes"],
            f"{p['arrival_rate']:g}",
            p["frames_encoded"],
            p["streams_done"],
            f"{p['p99_ms']:.1f}",
            f"{100 * p['deadline_miss_rate']:.0f}%",
            f"{p['queue_wait_p95_s'] * 1e3:.1f}",
            p["peak_concurrent"],
        ]
        for p in sweep
    ]
    table = format_table(
        ["nodes", "arr/s", "frames", "done", "p99 ms", "miss",
         "qwait ms", "peak"],
        rows,
        title=f"fleet sweep — {N_STREAMS} broadcast streams x {N_FRAMES} frames",
    )
    emit("fleet_sweep", table)
    blob = {
        "benchmark": "fleet sweep (size x arrival rate, slack routing)",
        "platforms": list(PLATFORM_CYCLE),
        "streams": N_STREAMS,
        "frames_per_stream": N_FRAMES,
        "points": sweep,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fleet_sweep.json").write_text(
        json.dumps(blob, indent=1) + "\n"
    )
    SNAPSHOT.write_text(json.dumps(blob, indent=1) + "\n")


def test_every_stream_lands_somewhere(sweep):
    for p in sweep:
        assert p["streams_done"] == N_STREAMS, p
        assert p["frames_encoded"] == N_STREAMS * N_FRAMES, p


def test_bigger_fleets_parallelize(sweep):
    # More nodes must shorten the fleet makespan (the burst is served in
    # parallel instead of trickling through one admission queue) and
    # raise how many streams run at once. Per-frame p99 is *not* gated
    # here: a mixed fleet trades queue wait for slower-node service, so
    # the tail can legitimately move either way.
    for rate in ARRIVAL_RATES:
        points = {p["nodes"]: p for p in sweep if p["arrival_rate"] == rate}
        assert points[4]["duration_s"] <= points[1]["duration_s"]
        assert points[4]["peak_concurrent"] >= points[1]["peak_concurrent"]


def test_no_regression_vs_committed_snapshot(sweep, committed):
    """The 25% machine-normalized gate (exact for simulated metrics)."""
    if committed is None:
        pytest.skip("no committed BENCH_FLEET.json yet (run once and commit)")
    by_key = {
        (p["nodes"], p["arrival_rate"]): p
        for p in committed.get("points", [])
    }
    failures = []
    for cur in sweep:
        ref = by_key.get((cur["nodes"], cur["arrival_rate"]))
        if ref is None:
            continue
        for key in DETERMINISTIC:
            if cur[key] != ref[key]:
                failures.append(
                    f"nodes={cur['nodes']} arr={cur['arrival_rate']:g}: "
                    f"{key} {ref[key]} -> {cur[key]} (deterministic "
                    "simulated metric moved without a model change)"
                )
        if ref["lp_cache_hit_rate"] and (
            cur["lp_cache_hit_rate"]
            < ref["lp_cache_hit_rate"] * (1 - REGRESSION_TOL)
        ):
            failures.append(
                f"nodes={cur['nodes']} arr={cur['arrival_rate']:g}: "
                f"LP-cache hit rate {cur['lp_cache_hit_rate']:.4f} fell "
                f">{REGRESSION_TOL:.0%} below snapshot "
                f"{ref['lp_cache_hit_rate']:.4f}"
            )
    assert not failures, "\n".join(failures)
