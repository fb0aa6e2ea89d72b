"""Perf smoke: measure the service and process-backend smokes, gate regressions.

Produces two of the root-level snapshots the repository commits:

- ``BENCH_SERVICE.json`` — a small multi-stream service run on SysHK
  with the shared cross-session LP cache, recording round/frame counts,
  cache hit rate, and host-side wall time;
- ``BENCH_PARALLEL.json`` — the true-parallel process backend vs the
  serial reference encoder: encode fps at 1/2/4/8 workers, bitstream
  bit-identity, and the calibrated LP's predicted-vs-measured makespan
  error.

(Per-frame scheduling overhead is gated by ``BENCHMARK.json``'s
``sched_steady`` / ``sched_jitter`` ``host_ms_per_frame``, normalised to
host speed; see ``benchmarks/suite/``.)

Usage::

    python benchmarks/perf_smoke.py --write   # refresh the snapshots
    python benchmarks/perf_smoke.py --check   # CI gate, exit 1 on regression
    python benchmarks/perf_smoke.py --check --only parallel --workers 2

``--check`` compares fresh measurements against the committed snapshots
and fails on a regression of more than ``REGRESSION_TOL`` (25%).
Absolute milliseconds vary across machines, so the gated metrics are
machine-normalized:

- the service LP-cache ``hit_rate`` and the deterministic ``rounds`` /
  ``frames`` counts, which must not degrade at all;
- the process backend's ``bit_identical`` flags (always), its speedup
  vs the snapshot (same-core-count hosts only, 25% tolerance), the
  ≥2x-at-4-workers floor (hosts with ≥4 cores only), and a loose sanity
  bound on the calibrated makespan error (catches a broken calibration
  loop, not machine noise).

``--check`` also rewrites the snapshot files afterwards so CI can upload
the fresh measurements as an artifact without a second run. ``--only``
restricts the run to one section; ``--workers N`` caps the parallel
sweep so 2-vCPU CI runners measure only what they can host.

Every snapshot is stamped with the host that produced it (``host_cores``,
``python``, ``numpy``). ``--write`` refuses to record a parallel point
with more workers than the host has cores: such workers time-slice, so
the "speedup" would measure the OS scheduler, not the backend — cap the
sweep with ``--workers``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.service import EncodingService, ServiceConfig, build_workload
from repro.util.journal import JOURNAL

REPO_ROOT = Path(__file__).resolve().parent.parent
SERVICE_PATH = REPO_ROOT / "BENCH_SERVICE.json"
PARALLEL_PATH = REPO_ROOT / "BENCH_PARALLEL.json"

SERVICE_STREAMS = 4
SERVICE_FRAMES = 8

REGRESSION_TOL = 0.25

# Process-backend smoke: a clip small enough that the full worker sweep
# stays under a minute on one core, big enough that every device's band
# splits into several MB-row chunks per worker.
PARALLEL_CFG = CodecConfig(
    width=256, height=144, search_range=16, num_ref_frames=1
)
PARALLEL_FRAMES = 6
PARALLEL_WORKERS = (1, 2, 4, 8)
#: Acceptance floor: 4 workers must be ≥2x the serial encoder — only
#: enforceable on hosts that actually have ≥4 cores to run them on.
SPEEDUP_FLOOR_AT_4 = 2.0
#: Calibrated LP predictions that miss the measured makespan by >300%
#: mean the calibration loop is feeding garbage (wrong units, wrong
#: spans), not that the host is noisy: steady-state error is measured
#: in single-digit percent, and even the worst first-LP-frame
#: misprediction on an oversubscribed 1-core host stays under ~1x.
MAKESPAN_ERROR_CEILING = 3.0


def _service_point(n_streams: int, workload: list) -> dict:
    service = EncodingService(
        ServiceConfig(platform="SysHK", headroom=4.0, max_queue=2 * n_streams)
    )
    t0 = time.perf_counter()
    metrics = service.run(workload)
    wall_s = time.perf_counter() - t0
    return {
        "streams": n_streams,
        "frames_per_stream": SERVICE_FRAMES,
        "rounds": metrics.rounds,
        "frames": sum(m.frames for m in metrics.streams),
        "lp_cache_hits": service.lp_batch.hits,
        "lp_cache_misses": service.lp_batch.misses,
        "lp_cache_hit_rate": round(service.lp_batch.hit_rate, 4),
        "p95_ms": round(metrics.p95_ms, 3),
        "deadline_miss_rate": round(metrics.deadline_miss_rate, 4),
        "class_miss_rates": {
            name: round(c["deadline_miss_rate"], 4)
            for name, c in metrics.classes.items()
        },
        "wall_s": round(wall_s, 3),
    }


def measure_service() -> dict:
    # Two operating points: a saturated mixed-class load (the broadcast
    # mix oversubscribes SysHK, so per-class miss rates separate the
    # deadline tiers) and a light uniform load below the platform's
    # sustainable throughput, which must stay miss-free.
    saturated = _service_point(SERVICE_STREAMS, build_workload(
        SERVICE_STREAMS, n_frames=SERVICE_FRAMES, mix="broadcast"
    ))
    light = _service_point(2, build_workload(
        2, n_frames=SERVICE_FRAMES, fps_target=12.0
    ))
    return {
        "benchmark": "multi-stream service smoke (shared LP cache)",
        "platform": "SysHK",
        **host_stamp(),
        "workloads": {"saturated": saturated, "light": light},
    }


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_stamp() -> dict:
    """What a reader needs to judge a snapshot's wall-clock numbers."""
    return {
        "host_cores": host_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _encoded_identical(ref_out: list, outcomes: list) -> bool:
    if len(ref_out) != len(outcomes):
        return False
    for r, o in zip(ref_out, outcomes, strict=True):
        e = o.encoded
        if e is None or r.bits != e.bits or r.mode_histogram != e.mode_histogram:
            return False
        if not (
            np.array_equal(r.recon.y, e.recon.y)
            and np.array_equal(r.recon.u, e.recon.u)
            and np.array_equal(r.recon.v, e.recon.v)
        ):
            return False
    return True


@contextlib.contextmanager
def unsanitized():
    """Clear ``$REPRO_SANITIZE`` for a measured block.

    Store and pool workers read the variable when they start, the event
    journal when it is reset; journaling on a timed path would skew the
    points.
    """
    saved = os.environ.pop("REPRO_SANITIZE", None)
    JOURNAL.reset()
    try:
        yield
    finally:
        if saved is not None:
            os.environ["REPRO_SANITIZE"] = saved
        JOURNAL.reset()


def measure_parallel(
    worker_counts: tuple[int, ...] = PARALLEL_WORKERS
) -> dict:
    """Serial encoder vs the process backend across worker counts."""
    from repro.codec.encoder import ReferenceEncoder
    from repro.video.generator import SyntheticSequence

    cfg = PARALLEL_CFG
    frames = SyntheticSequence(
        width=cfg.width, height=cfg.height, seed=7
    ).frames(PARALLEL_FRAMES)

    t0 = time.perf_counter()
    ref_out = ReferenceEncoder(cfg).encode_sequence(frames)
    serial_s = time.perf_counter() - t0

    points: dict[str, dict] = {}
    for workers in worker_counts:
        fw = FevesFramework(
            get_platform("SysHK"), cfg,
            FrameworkConfig(backend="process", exec_workers=workers),
        )
        with unsanitized(), fw:
            t0 = time.perf_counter()
            outcomes = fw.encode(frames)
            wall_s = time.perf_counter() - t0
            acc = fw.accuracy_report().summary()
        points[str(workers)] = {
            "fps": round(len(frames) / wall_s, 3),
            "wall_s": round(wall_s, 3),
            "speedup": round(serial_s / wall_s, 3),
            "bit_identical": _encoded_identical(ref_out, outcomes),
            "lp_frames": acc.get("frames", 0),
            "makespan_error_mean": round(
                acc.get("makespan_error_mean", 0.0), 4
            ),
            "makespan_error_max": round(acc.get("makespan_error_max", 0.0), 4),
        }
    return {
        "benchmark": "true-parallel process backend vs serial encoder",
        "platform": "SysHK",
        "config": (
            f"{cfg.width}x{cfg.height}, "
            f"{2 * cfg.search_range}x{2 * cfg.search_range} SA, "
            f"{cfg.num_ref_frames} RF"
        ),
        "n_frames": PARALLEL_FRAMES,
        **host_stamp(),
        "serial_fps": round(PARALLEL_FRAMES / serial_s, 3),
        "serial_wall_s": round(serial_s, 3),
        "workers": points,
    }


def check_parallel(parallel: dict, snap: dict | None = None) -> list[str]:
    """Gate the process-backend smoke (machine-normalized, see module doc).

    ``snap`` overrides the committed ``BENCH_PARALLEL.json`` (the pytest
    sweep captures the snapshot before rewriting it).
    """
    failures: list[str] = []
    cores = parallel["host_cores"]
    for w, cur in parallel["workers"].items():
        if not cur["bit_identical"]:
            failures.append(
                f"parallel[{w} workers]: encoded output diverged from the "
                "serial reference encoder"
            )
        if cur["lp_frames"] and cur["makespan_error_mean"] > MAKESPAN_ERROR_CEILING:
            failures.append(
                f"parallel[{w} workers]: calibrated makespan error "
                f"{cur['makespan_error_mean']:.0%} exceeds the "
                f"{MAKESPAN_ERROR_CEILING:.0%} sanity ceiling "
                "(calibration loop feeding bad rates?)"
            )
    at4 = parallel["workers"].get("4")
    if at4 is not None and cores >= 4 and at4["speedup"] < SPEEDUP_FLOOR_AT_4:
        failures.append(
            f"parallel[4 workers]: speedup {at4['speedup']:.2f}x is below "
            f"the {SPEEDUP_FLOOR_AT_4:.1f}x floor on a {cores}-core host"
        )
    if snap is None:
        if not PARALLEL_PATH.exists():
            return failures
        snap = json.loads(PARALLEL_PATH.read_text())
    if snap.get("host_cores") != cores:
        return failures  # speedups are only comparable core-for-core
    for w, cur in parallel["workers"].items():
        ref = snap.get("workers", {}).get(w)
        if ref is None:
            continue
        if cur["speedup"] < ref["speedup"] * (1 - REGRESSION_TOL):
            failures.append(
                f"parallel[{w} workers]: speedup {cur['speedup']:.2f}x "
                f"regressed >{REGRESSION_TOL:.0%} vs snapshot "
                f"{ref['speedup']:.2f}x"
            )
    return failures


def write(service: dict | None, parallel: dict | None) -> None:
    wrote = []
    for blob, path in ((service, SERVICE_PATH), (parallel, PARALLEL_PATH)):
        if blob is not None:
            path.write_text(json.dumps(blob, indent=1) + "\n")
            wrote.append(path.name)
    print(f"wrote {', '.join(wrote)}")


def check(service: dict | None) -> list[str]:
    """Compare a fresh service measurement against the committed snapshot."""
    failures: list[str] = []
    if service is None:
        return failures
    if not SERVICE_PATH.exists():
        return ["missing committed BENCH_SERVICE.json "
                "(run with --write and commit the output)"]
    snap_s = json.loads(SERVICE_PATH.read_text())

    for point, cur in service["workloads"].items():
        snap = snap_s.get("workloads", {}).get(point)
        if snap is None:
            continue
        for key in ("rounds", "frames", "deadline_miss_rate"):
            if key in snap and cur[key] != snap[key]:
                failures.append(
                    f"service[{point}] {key} changed: {snap[key]} -> "
                    f"{cur[key]} (deterministic metric should not move "
                    "without a model change)"
                )
        snap_hr = snap.get("lp_cache_hit_rate")
        if snap_hr:
            if cur["lp_cache_hit_rate"] < snap_hr * (1 - REGRESSION_TOL):
                failures.append(
                    f"service[{point}] LP-cache hit rate "
                    f"{cur['lp_cache_hit_rate']:.4f} regressed "
                    f">{REGRESSION_TOL:.0%} vs snapshot {snap_hr:.4f}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and write the root-level snapshots")
    mode.add_argument("--check", action="store_true",
                      help="measure, compare vs committed snapshots "
                           "(exit 1 on regression), then rewrite them")
    ap.add_argument("--only", choices=("service", "parallel"),
                    help="run a single section instead of both")
    ap.add_argument("--workers", type=int, metavar="N",
                    help="cap the parallel sweep at N workers (pin to the "
                         "runner's vCPU count for reproducible CI numbers)")
    args = ap.parse_args(argv)

    run_all = args.only is None
    counts: tuple[int, ...] = ()
    if run_all or args.only == "parallel":
        counts = PARALLEL_WORKERS
        if args.workers:
            counts = tuple(w for w in PARALLEL_WORKERS if w <= args.workers)
            if not counts:
                counts = (args.workers,)
        cores = host_cores()
        oversubscribed = [w for w in counts if w > cores]
        if args.write and oversubscribed:
            print(
                f"error: refusing to record workers={oversubscribed} on a "
                f"{cores}-core host: more workers than cores time-slice, so "
                "their speedup would measure the OS scheduler, not the "
                f"backend. Re-run with --workers {cores}.",
                file=sys.stderr,
            )
            return 2
    service = measure_service() if run_all or args.only == "service" else None
    parallel = measure_parallel(counts) if counts else None

    for point, v in (service or {"workloads": {}})["workloads"].items():
        misses = ", ".join(
            f"{cls}={rate:.0%}" for cls, rate in v["class_miss_rates"].items()
        )
        print(f"service[{point}]: {v['frames']} frames / {v['rounds']} "
              f"rounds, LP-cache hit rate {v['lp_cache_hit_rate']:.2%}, "
              f"miss {misses or 'n/a'}, wall {v['wall_s']:.2f} s")
    if parallel is not None:
        print(f"parallel: serial {parallel['serial_fps']:.2f} fps on "
              f"{parallel['host_cores']} cores")
        for w, v in parallel["workers"].items():
            print(f"parallel[{w} workers]: {v['fps']:.2f} fps "
                  f"({v['speedup']:.2f}x), identical={v['bit_identical']}, "
                  f"makespan err mean {v['makespan_error_mean']:.1%} over "
                  f"{v['lp_frames']} LP frames")

    if args.check:
        failures = check(service)
        if parallel is not None:
            failures += check_parallel(parallel)
        write(service, parallel)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print("perf smoke: no regression vs committed snapshots")
        return 0
    write(service, parallel)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
