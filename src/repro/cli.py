"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro platforms
    python -m repro run --platform SysHK --sa 64 --refs 2 --frames 100
    python -m repro run --platform SysHK --frames 5 --trace trace.json
    python -m repro serve --platform SysHK --streams 4
    python -m repro fleet --nodes 3 --platforms SysHK,SysNF,SysNFF
    python -m repro profile --platform SysHK --frames 50
    python -m repro sweep --what sa|refs
    python -m repro encode in.yuv --size 352x288 --out clip.fevs
    python -m repro decode clip.fevs --out recon.yuv
    python -m repro lint src
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections.abc import Sequence

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform, list_platforms
from repro.report import ascii_series, format_table
from repro.util.journal import HOST_CLOCK, JOURNAL, SANITIZE_ENV, sanitize_from_env, span


def _parse_fault_spec(flag: str, spec: str, kind: str, want_param: bool):
    """Validate one ``DEV@FRAME[:X]`` token eagerly.

    Every malformed field — missing separator, empty device, non-numeric
    frame/parameter, or a value the fault model rejects (frame < 1,
    factor < 1, hang without a positive duration) — exits with a message
    naming the offending flag and token, never a bare traceback.
    """
    from repro.hw.noise import FaultEvent

    expected = "DEV@FRAME" + (":PARAM" if want_param else "")

    def bad(why: str) -> SystemExit:
        return SystemExit(
            f"error: bad {flag} spec {spec!r}: {why} (expected {expected})"
        )

    dev, at, rest = spec.partition("@")
    if not at:
        raise bad("missing '@'")
    if not dev:
        raise bad("empty device name")
    param = None
    if want_param:
        frame_text, colon, param_text = rest.partition(":")
        if not colon:
            raise bad("missing ':PARAM'")
        try:
            param = float(param_text)
        except ValueError:
            raise bad(f"non-numeric parameter {param_text!r}") from None
    else:
        frame_text = rest
        if ":" in frame_text:
            raise bad("unexpected ':PARAM' (this fault takes none)")
    try:
        frame = int(frame_text)
    except ValueError:
        raise bad(f"non-integer frame {frame_text!r}") from None
    kwargs: dict = {}
    if kind == "hang":
        kwargs["duration"] = int(param)
    elif kind in ("degrade", "copy_fail"):
        kwargs["factor"] = param
    try:
        return FaultEvent(frame=frame, device=dev, kind=kind, **kwargs)
    except ValueError as exc:
        raise bad(str(exc)) from None


#: (argparse attribute, flag, fault kind, takes a :PARAM field)
_FAULT_FLAGS = (
    ("drop", "--drop", "dropout", False),
    ("hang", "--hang", "hang", True),
    ("degrade", "--degrade", "degrade", True),
    ("copy_fail", "--copy-fail", "copy_fail", True),
)


def _fault_schedule(args: argparse.Namespace):
    """Build a FaultSchedule from the repeatable --drop/--hang/... flags.

    Formats: ``--drop DEV@FRAME``, ``--hang DEV@FRAME:DURATION``,
    ``--degrade DEV@FRAME:FACTOR``, ``--copy-fail DEV@FRAME:FACTOR``.
    Specs are validated eagerly, before anything is constructed or run.
    """
    from repro.hw.noise import FaultSchedule

    events = [
        _parse_fault_spec(flag, spec, kind, want_param)
        for attr, flag, kind, want_param in _FAULT_FLAGS
        for spec in getattr(args, attr, None) or []
    ]
    return FaultSchedule(events)


def _add_fault_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--drop", action="append", metavar="DEV@FRAME",
                     help="permanently drop a device at an inter frame")
    sub.add_argument("--hang", action="append", metavar="DEV@FRAME:DUR",
                     help="hang a device for DUR frames, then recover")
    sub.add_argument("--degrade", action="append", metavar="DEV@FRAME:FACTOR",
                     help="slow a device's compute by FACTOR from a frame on")
    sub.add_argument("--copy-fail", action="append", metavar="DEV@FRAME:FACTOR",
                     help="slow a device's copy engines by FACTOR")


def _add_workload_args(sub: argparse.ArgumentParser) -> None:
    """Stream-workload flags shared by ``serve`` and ``fleet``.

    ``--streams``/``--arrival-rate`` default to None so a clash with
    ``--submit`` (which replaces the generated workload entirely) can be
    detected and rejected instead of silently ignored.
    """
    sub.add_argument("--streams", type=int, default=None,
                     help="number of generated streams (default 4; "
                          "cannot be combined with --submit)")
    sub.add_argument("--frames", type=int, default=30,
                     help="inter frames per stream")
    sub.add_argument("--fps", type=float, default=25.0,
                     help="per-stream target fps (uniform mix)")
    sub.add_argument("--deadline-class", default="standard",
                     choices=("realtime", "standard", "background"))
    sub.add_argument("--mix", default="uniform",
                     choices=("uniform", "broadcast", "conference"),
                     help="stream-mix preset cycled over the workload")
    sub.add_argument("--arrival-rate", type=float, default=None,
                     help="Poisson arrival rate in streams/s (default 0 = "
                          "burst; cannot be combined with --submit)")
    sub.add_argument("--seed", type=int, default=0,
                     help="arrival-process RNG seed")
    sub.add_argument("--sa", type=int, default=32, help="search-area side")
    sub.add_argument("--refs", type=int, default=1)
    sub.add_argument("--submit", action="append",
                     metavar="AT:FPS:FRAMES[:CLASS]",
                     help="scripted submission (repeatable); takes the "
                          "place of the generated workload, so --streams "
                          "and --arrival-rate are rejected alongside it")


def _codec_cfg(args: argparse.Namespace) -> CodecConfig:
    slices = getattr(args, "slices", 1)
    width, height = getattr(args, "size", None) or (1920, 1088)
    return CodecConfig(
        width=width,
        height=height,
        search_range=args.sa // 2,
        num_ref_frames=args.refs,
        num_slices=slices,
        deblock_across_slices=slices == 1,
    )


def cmd_platforms(_args: argparse.Namespace) -> int:
    rows = []
    for name in list_platforms():
        p = get_platform(name)
        kinds = "+".join(d.spec.kind for d in p.devices)
        fw = FevesFramework(p, CodecConfig(width=1920, height=1088, search_range=16))
        fw.run_model(8)
        rows.append([name, kinds, len(p.devices), f"{fw.steady_state_fps():.1f}"])
    print(format_table(
        ["platform", "devices", "n", "fps @1080p 32x32 1RF"], rows,
        title="Available platform presets (simulated)",
    ))
    return 0


def _sanitize_exit(cluster=None) -> int:
    """The sanitizer epilogue of every command: 0 if off or clean.

    Runs under ``$REPRO_SANITIZE`` (which is all ``--sanitize`` sets, see
    :func:`main`): the SAN-G replay of the run's lifecycle journal, plus
    the SAN-E1 audit of a fleet run's ``cluster``. The summary and the
    first 20 violations are printed, and a dirty report exits 1.
    """
    if not sanitize_from_env():
        return 0
    from repro.sanitizers import SanitizerReport, check_cluster, check_protocols

    report = SanitizerReport() if cluster is None else check_cluster(cluster)
    report.extend(check_protocols())
    print(report.summary())
    for v in report.violations[:20]:
        print(f"  {v}")
    return 0 if report.clean else 1


def _or_exit(build):
    """``build()``, with what the user got wrong as a one-line error.

    An unknown platform or device, ``--headroom 0``, ``--max-nodes 0``, a
    malformed ``--submit``, a degrade or copy-fail fault on the process
    backend (it has no modelled durations to scale), a typo'd
    ``$REPRO_EXEC_START_METHOD``/``$REPRO_EXEC_TIMEOUT_S``, ``encode --qp
    99`` — each is the ``KeyError``/``ValueError`` of a parser or
    constructor; a missing or unwritable file is an ``OSError``; a
    truncated or garbage ``.fevs`` is the decoder's ``ValueError`` or
    ``EOFError``. None may reach the user as a traceback.
    """
    try:
        return build()
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (ValueError, OSError, EOFError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _framework_from_args(args: argparse.Namespace) -> FevesFramework:
    """The framework ``run``/``profile`` drive, on either backend."""
    return _or_exit(lambda: FevesFramework(
        get_platform(args.platform),
        _codec_cfg(args),
        FrameworkConfig(
            backend=getattr(args, "backend", "sim"),
            exec_workers=getattr(args, "workers", 0),
            centric=getattr(args, "centric", "auto"),
            rstar_parallel=getattr(args, "rstar_parallel", False),
            faults=_fault_schedule(args),
        ),
    ))


def _synthetic_clip(cfg: CodecConfig, n_frames: int) -> list:
    """The fixed-seed clip the process backend really encodes."""
    from repro.video.generator import SyntheticSequence

    return SyntheticSequence(
        width=cfg.width, height=cfg.height, seed=7
    ).frames(n_frames)


def cmd_run(args: argparse.Namespace) -> int:
    fw = _framework_from_args(args)
    drive = _run_process if fw.fw_cfg.backend == "process" else _run_model
    with fw:
        ok = drive(args, fw)
    _print_accuracy(fw.accuracy_report().summary())
    _print_faults(args, fw)
    if args.trace:
        from repro.hw.trace_export import StreamTrace, export_stream_traces

        run = StreamTrace.back_to_back(
            [r.timeline for r in fw.reports], fw.platform.name,
            fault_log=fw.fault_log,
        )
        n = _or_exit(lambda: export_stream_traces([run], args.trace))
        print(f"wrote {n} trace events ({len(fw.reports)} inter frames) "
              f"to {args.trace}")
    return _sanitize_exit() or (0 if ok else 1)


def _run_model(args: argparse.Namespace, fw: FevesFramework) -> bool:
    """``run`` on the DES: per-frame times, steady state, distributions."""
    fw.run_model(args.frames)
    times = fw.frame_times_ms()
    print(ascii_series(
        {"ms/frame": times},
        hline=40.0,
        hline_label="real-time (40ms)",
        y_label=(
            f"{args.platform}, 1080p, {args.sa}x{args.sa} SA, "
            f"{args.refs} RF — per-frame encoding time"
        ),
    ))
    print(f"\nsteady-state: {fw.steady_state_fps():.1f} fps   "
          f"R* device: {fw.rstar_device}   "
          f"LB overhead: {fw.scheduling_overhead_ms:.2f} ms/frame")
    last = fw.reports[-1].decision
    names = [d.name for d in fw.platform.devices]
    print(f"final distributions over {names}:")
    print(f"  ME={last.m.rows}  INT={last.l.rows}  SME={last.s.rows}")
    return True


def _print_faults(args: argparse.Namespace, fw: FevesFramework) -> None:
    """``run``'s epilogue on either backend: the fault log, and its file."""
    if not fw.fw_cfg.faults.empty:
        lost_s = sum(e.time_lost_s for e in fw.fault_log)
        print(f"live devices at end: {fw.live_devices}   "
              f"fault time lost: {lost_s * 1e3:.1f} ms")
        for entry in fw.fault_log:
            if not entry.eventful:
                continue
            what = []
            if entry.evicted:
                what.append("evicted " + ",".join(entry.evicted))
            if entry.readmitted:
                what.append("readmitted " + ",".join(entry.readmitted))
            print(f"  frame {entry.frame_index}: {'; '.join(what)} "
                  f"(lost {entry.time_lost_s * 1e3:.1f} ms)")
    if getattr(args, "fault_log", None):
        from repro.hw.trace_export import export_fault_log

        n = export_fault_log(fw.fault_log, args.fault_log)
        print(f"wrote {n} fault-log entries to {args.fault_log}")


def _encoded_equal(a, b) -> bool:
    """Bit-identity of two encoded frames (bits, recon planes, modes)."""
    import numpy as np

    return (
        a.index == b.index
        and a.is_intra == b.is_intra
        and a.bits == b.bits
        and a.mode_histogram == b.mode_histogram
        and np.array_equal(a.recon.y, b.recon.y)
        and np.array_equal(a.recon.u, b.recon.u)
        and np.array_equal(a.recon.v, b.recon.v)
    )


def _print_accuracy(accuracy: dict) -> None:
    """The LP's predicted τs against the run's (simulated or measured)."""
    if accuracy["frames"]:
        phase_err = ", ".join(
            f"{k} {100 * v:.1f}%"
            for k, v in accuracy["phase_error_mean"].items()
        )
        print(f"  LP makespan error (predicted vs run, "
              f"{accuracy['frames']} LP frames): "
              f"mean {100 * accuracy['makespan_error_mean']:.1f}%, "
              f"max {100 * accuracy['makespan_error_max']:.1f}% ({phase_err})")
    else:
        print("  LP makespan error: n/a (no LP-scheduled frames; "
              "encode more frames)")


def _run_process(args: argparse.Namespace, fw: FevesFramework) -> bool:
    """``run`` on the worker pool: really encode, diff vs the serial encoder.

    Every frame is timed on both paths, so the P frames' speedup prints
    beside the clip's: an I frame is coded on the host on either path, so
    it weighs on the clip's speedup without being parallel on either.
    """
    import time

    from repro.codec.encoder import ReferenceEncoder

    def timed(encode) -> tuple[list, list[float]]:
        out, walls = [], []
        for index, frame in enumerate(frames):
            t0 = time.perf_counter()
            out.append(encode(frame, index))
            walls.append(time.perf_counter() - t0)
        return out, walls

    cfg = fw.codec_cfg
    frames = _synthetic_clip(cfg, args.frames)
    ref = ReferenceEncoder(cfg)
    serial, serial_walls = timed(lambda frame, _: ref.encode_frame(frame))
    outcomes, process_walls = timed(fw.encode_frame_at)

    identical = all(
        o.encoded is not None and _encoded_equal(s, o.encoded)
        for s, o in zip(serial, outcomes)
    )
    n = len(frames)
    serial_s, process_s = sum(serial_walls), sum(process_walls)
    n_intra = sum(s.is_intra for s in serial)
    inter = [(a, b) for s, a, b in zip(serial, serial_walls, process_walls)
             if not s.is_intra]
    print(f"{args.platform}, {cfg.width}x{cfg.height}, {n} frames, "
          f"{fw.manager.workers} workers (process backend)")
    print(f"  serial encoder : {n / serial_s:7.2f} fps  ({serial_s:.2f} s)")
    print(f"  process backend: {n / process_s:7.2f} fps  ({process_s:.2f} s)  "
          f"-> {serial_s / process_s:.2f}x clip speedup, "
          f"{n_intra} I frame{'s' if n_intra != 1 else ''} included")
    if inter:
        inter_serial, inter_process = (sum(t) for t in zip(*inter))
        print(f"  inter frames   : serial {len(inter) / inter_serial:.2f} fps, "
              f"process {len(inter) / inter_process:.2f} fps  "
              f"-> {inter_serial / inter_process:.2f}x inter-frame speedup "
              f"({len(inter)} P frames)")
    else:
        print("  inter frames   : none (no inter-frame speedup)")
    print(f"  bit-identical to serial: {'yes' if identical else 'NO'}")
    return identical


def _serve_workload(args: argparse.Namespace) -> list:
    """Build the stream workload for ``serve``/``fleet``.

    ``--submit`` replaces the generated workload entirely, so combining
    it with the generator's shape flags would silently ignore them —
    that clash is rejected eagerly, naming the offending flag.
    """
    from repro.service import build_workload, parse_submit_specs

    if args.submit:
        clash = [
            flag
            for flag, value in (
                ("--streams", args.streams),
                ("--arrival-rate", args.arrival_rate),
            )
            if value is not None
        ]
        if clash:
            raise SystemExit(
                f"error: {' and '.join(clash)} cannot be combined with "
                f"--submit: scripted submissions define their own stream "
                f"count and arrival times"
            )
        return _or_exit(lambda: parse_submit_specs(args.submit))
    return _or_exit(lambda: build_workload(
        n_streams=args.streams if args.streams is not None else 4,
        n_frames=args.frames,
        fps_target=args.fps,
        deadline_class=args.deadline_class,
        mix=args.mix,
        arrival_rate=(
            args.arrival_rate if args.arrival_rate is not None else 0.0
        ),
        seed=args.seed,
        search_range=args.sa // 2,
        num_ref_frames=args.refs,
    ))


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import EncodingService, ServiceConfig

    faults = _fault_schedule(args)
    workload = _serve_workload(args)
    service = _or_exit(lambda: EncodingService(ServiceConfig(
        platform=args.platform,
        headroom=args.headroom,
        max_queue=args.max_queue,
        faults=faults,
    )))
    metrics = service.run(workload)

    rows = []
    for m in metrics.streams:
        rows.append([
            m.stream_id,
            m.deadline_class,
            f"{m.fps_target:g}",
            m.state,
            m.frames,
            f"{m.p50_ms:.1f}",
            f"{m.p95_ms:.1f}",
            f"{m.p99_ms:.1f}",
            f"{100 * m.deadline_miss_rate:.1f}%",
            f"{m.achieved_fps:.1f}",
            f"{m.wait_s:.2f}",
        ])
    print(format_table(
        ["stream", "class", "fps", "state", "frames",
         "p50 ms", "p95 ms", "p99 ms", "miss", "ach fps", "wait s"],
        rows,
        title=(
            f"{args.platform} — {len(metrics.streams)} streams, "
            f"{metrics.rounds} rounds, {metrics.duration_s:.2f} s served"
        ),
    ))
    adm = metrics.admission
    print(
        f"\naggregate: p50={metrics.p50_ms:.1f} ms  p95={metrics.p95_ms:.1f} ms  "
        f"p99={metrics.p99_ms:.1f} ms  deadline-miss="
        f"{100 * metrics.deadline_miss_rate:.1f}%"
    )
    print(
        f"admission: {adm.get('admitted', 0)} admitted, "
        f"{adm.get('queued', 0)} queued, {adm.get('rejected', 0)} rejected, "
        f"{adm.get('completed', 0)} completed"
    )
    util = "  ".join(
        f"{name.split('.')[0]}={100 * u:.0f}%"
        for name, u in metrics.device_utilization.items()
    )
    print(f"device utilization: {util}")
    if metrics.fault_events:
        print(f"fault events observed across streams: {metrics.fault_events}")
    if args.json:
        service.export_metrics(args.json)
        print(f"wrote metrics JSON to {args.json}")
    if args.trace:
        n = service.export_trace(args.trace)
        print(f"wrote {n} trace events ({len(metrics.streams)} stream pids) "
              f"to {args.trace}")
    return _sanitize_exit()


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.cluster import (
        AutoscaleConfig,
        Cluster,
        ClusterConfig,
        NodeSpec,
        parse_node_fault_specs,
    )

    workload = _serve_workload(args)
    node_faults = _or_exit(
        lambda: parse_node_fault_specs(args.node_fault or [])
    )
    platforms = [p.strip() for p in args.platforms.split(",") if p.strip()]
    if not platforms:
        raise SystemExit("error: --platforms must name at least one platform")
    for name in platforms:
        if name not in list_platforms():
            raise SystemExit(
                f"error: unknown platform {name!r} in --platforms "
                f"(available: {', '.join(list_platforms())})"
            )
    if args.nodes < 1:
        raise SystemExit(f"error: --nodes must be >= 1, got {args.nodes}")
    specs = tuple(
        NodeSpec(
            node_id=f"n{i}",
            platform=platforms[i % len(platforms)],
            headroom=args.headroom,
            max_queue=args.max_queue,
        )
        for i in range(args.nodes)
    )
    known = {s.node_id for s in specs}
    unknown = sorted(node_faults.node_ids() - known)
    if unknown and not args.autoscale:
        raise SystemExit(
            f"error: --node-fault names unknown node(s) "
            f"{', '.join(unknown)}; the fleet has {', '.join(sorted(known))}"
        )
    cluster = _or_exit(lambda: Cluster(ClusterConfig(
        nodes=specs,
        policy=args.policy,
        global_queue=args.global_queue,
        node_faults=node_faults,
        autoscale=AutoscaleConfig(
            enabled=args.autoscale,
            max_nodes=args.max_nodes,
            template=tuple(platforms),
            p99_slo_ms=args.p99_slo,
        ),
    )))
    metrics = cluster.run(workload)

    rows = []
    for n in metrics.nodes:
        rows.append([
            n.node_id,
            n.platform,
            n.state,
            n.sessions,
            n.frames,
            n.rounds,
            f"{n.p99_ms:.1f}" if n.frames else "-",
            f"{100 * n.deadline_miss_rate:.1f}%" if n.frames else "-",
        ])
    print(format_table(
        ["node", "platform", "state", "sessions", "frames", "rounds",
         "p99 ms", "miss"],
        rows,
        title=(
            f"{metrics.n_nodes}-node fleet ({args.policy}) — "
            f"{sum(metrics.streams.values())} streams, "
            f"{metrics.duration_s:.2f} s served"
        ),
    ))
    if metrics.classes:
        crows = [
            [name, c["frames"], f"{c['p50_ms']:.1f}", f"{c['p95_ms']:.1f}",
             f"{c['p99_ms']:.1f}", f"{100 * c['deadline_miss_rate']:.1f}%"]
            for name, c in metrics.classes.items()
        ]
        print()
        print(format_table(
            ["class", "frames", "p50 ms", "p95 ms", "p99 ms", "miss"],
            crows,
        ))
    print(
        f"\naggregate: p50={metrics.p50_ms:.1f} ms  p95={metrics.p95_ms:.1f} ms  "
        f"p99={metrics.p99_ms:.1f} ms  deadline-miss="
        f"{100 * metrics.deadline_miss_rate:.1f}%"
    )
    outcomes = "  ".join(f"{k}={v}" for k, v in sorted(metrics.streams.items()))
    print(f"streams: {outcomes}  peak-concurrent={metrics.peak_concurrent}")
    print(
        f"dispatch: queue-wait p95={metrics.queue_wait_p95_s * 1e3:.1f} ms  "
        f"reroutes={metrics.reroutes}  evicted={metrics.evicted_sessions}  "
        f"node-faults={metrics.node_faults}"
    )
    if metrics.lp_cache:
        cache = "  ".join(
            f"{plat}={100 * c['hit_rate']:.0f}%"
            for plat, c in metrics.lp_cache.items()
        )
        print(f"lp-cache hit rate: {cache}")
    for e in metrics.autoscale_events:
        print(
            f"autoscale: t={e['at_s']:.2f}s {e['action']} {e['node_id']} "
            f"({e['platform']}): {e['reason']}"
        )
    if args.json:
        cluster.export_metrics(args.json)
        print(f"wrote metrics JSON to {args.json}")
    if args.trace:
        n = cluster.export_trace(args.trace)
        print(f"wrote {n} trace events (node-namespaced pids) to {args.trace}")
    return _sanitize_exit(cluster)


def _phase_rows(events: list, n_frames: int) -> list[dict]:
    """One row per span name in ``events``, by total time: calls, total
    ms, ms per frame over ``n_frames``, share of all spanned time."""
    stats: dict[str, list] = {}
    for e in events:
        if e.domain == HOST_CLOCK:
            st = stats.setdefault(e.event, [0, 0.0])
            st[0] += 1
            st[1] += e.end - e.clock
    total = sum(s for _, s in stats.values())
    return [
        {"phase": name, "calls": n, "total_ms": s * 1e3,
         "ms_per_frame": s * 1e3 / max(1, n_frames),
         "share": s / total if total > 0 else 0.0}
        for name, (n, s) in sorted(stats.items(), key=lambda kv: -kv[1][1])
    ]


def cmd_profile(args: argparse.Namespace) -> int:
    # The phase table is the run's spans: the journal is on for this
    # command whether or not it sanitizes, and off again after it.
    JOURNAL.reset(on=True)
    try:
        return _profile(args)
    finally:
        JOURNAL.reset()


def _profile(args: argparse.Namespace) -> int:
    fw = _framework_from_args(args)
    cfg = fw.codec_cfg
    process = fw.fw_cfg.backend == "process"
    with fw:
        if process:
            fw.encode(_synthetic_clip(cfg, args.frames))
        else:
            fw.run_model(args.frames)
    accuracy = fw.accuracy_report().summary()
    workers = fw.manager.workers if process else 0
    # The SAN-G replay drains the journal: keep the run's events first.
    events = JOURNAL.snapshot()
    rc = 0
    if sanitize_from_env():
        with span(fw, "sanitizer"):
            rc = _sanitize_exit()
        events += JOURNAL.drain()
    # Per inter frame, the frames scheduling_overhead_ms averages over
    # (the process backend's I frame is encoded untimed).
    n_frames = len(fw.reports)
    phases = _phase_rows(events, n_frames)

    rows = [
        [r["phase"], r["calls"], f"{r['total_ms']:.2f}",
         f"{r['ms_per_frame']:.3f}", f"{100 * r['share']:.1f}%"]
        for r in phases
    ]
    print(format_table(
        ["phase", "calls", "total ms", "ms/frame", "share"], rows,
        title=(
            f"{fw.fw_cfg.backend} backend: {args.platform}, "
            f"{cfg.width}x{cfg.height}, {args.frames} frames"
            + (f", {workers} workers" if process else "")
            + f" — LB overhead {fw.scheduling_overhead_ms:.3f} ms/frame"
        ),
    ))
    # A repeated plan re-times the last op graph: what a repeat frame
    # spends is des_retime + des + observe, what a change adds des_build.
    builds = sum(1 for e in events if e.event == "des_build")
    if not process:
        print(f"DES graph builds: {builds} over {n_frames} frames "
              f"({builds / max(1, n_frames):.3f} per frame)")
    _print_accuracy(accuracy)
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps({
            "platform": args.platform,
            "backend": fw.fw_cfg.backend,
            "width": cfg.width,
            "height": cfg.height,
            "sa": args.sa,
            "refs": args.refs,
            "workers": workers,
            "overhead_ms_per_frame": fw.scheduling_overhead_ms,
            "accuracy": accuracy,
            "total_ms": sum(r["total_ms"] for r in phases),
            "frames": n_frames,
            "graph_builds": builds,
            "phases": phases,
        }, indent=1))
        print(f"wrote profile JSON to {args.json}")
    return rc


def cmd_sweep(args: argparse.Namespace) -> int:
    configs = ("CPU_N", "CPU_H", "GPU_F", "GPU_K", "SysNF", "SysNFF", "SysHK")

    def fps(name: str, sa: int, refs: int) -> float:
        cfg = CodecConfig(
            width=1920, height=1088, search_range=sa // 2, num_ref_frames=refs
        )
        fw = FevesFramework(get_platform(name), cfg, FrameworkConfig())
        fw.run_model(refs + 10)
        return fw.steady_state_fps(warmup=refs + 1)

    if args.what == "sa":
        xs = (32, 64, 128, 256)
        rows = [
            [n] + [f"{fps(n, sa, 1):.1f}" for sa in xs] for n in configs
        ]
        print(format_table(
            ["config"] + [f"{x}x{x}" for x in xs], rows,
            title="fps vs search-area size (1 RF, 1080p) — paper Fig. 6(a)",
        ))
    else:
        xs = tuple(range(1, 9))
        rows = [
            [n] + [f"{fps(n, 32, rf):.1f}" for rf in xs] for n in configs
        ]
        print(format_table(
            ["config"] + [f"{x}RF" for x in xs], rows,
            title="fps vs reference frames (32x32 SA, 1080p) — paper Fig. 6(b)",
        ))
    return 0


def _at_least_one(text: str) -> int:
    """``--frames``: an integer >= 1, checked while parsing (0 encodes nothing)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size {text!r}, expected WxH") from exc


def cmd_encode(args: argparse.Namespace) -> int:
    from repro.codec.stats import summarize
    from repro.codec.stream import write_stream
    from repro.video.yuv import read_yuv420

    w, h = args.size
    # The config before the pixels: a bad --size/--sa/--refs/--qp is named
    # by the validator, not by a NumPy reshape inside the reader.
    cfg = _or_exit(lambda: CodecConfig(
        width=w, height=h, search_range=args.sa // 2, num_ref_frames=args.refs,
        entropy_coder=args.coder,
    ).with_qp(args.qp))
    frames = _or_exit(lambda: read_yuv420(args.input, w, h, args.frames))
    if not frames:
        print(f"error: no complete {w}x{h} frames in {args.input}", file=sys.stderr)
        return 1
    stats = _or_exit(lambda: write_stream(args.out, frames, cfg))
    s = summarize(stats)
    print(f"encoded {s.n_frames} frames -> {args.out}")
    print(f"  total {s.total_bits / 8000:.1f} kB, "
          f"mean PSNR-Y {s.mean_psnr_y:.2f} dB, "
          f"{s.kbps(25.0):.0f} kbit/s @25fps")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.codec.stream import read_stream
    from repro.video.yuv import write_yuv420

    cfg, frames = _or_exit(lambda: read_stream(args.input))
    _or_exit(lambda: write_yuv420(args.out, frames))
    print(f"decoded {len(frames)} frames of {cfg.width}x{cfg.height} "
          f"-> {args.out}")
    return 0


def _lint_usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sanitizers.dataflow.reporting import format_json, format_text
    from repro.sanitizers.runner import RULES, run_lint

    # Exit codes: 0 clean, 1 findings, 2 usage or internal analyzer
    # error — so CI can tell "code has findings" from "the linter broke
    # or was called wrong".
    targets = [Path(p) for p in args.paths]
    for t in targets:
        if not t.exists():
            return _lint_usage_error(f"no such file or directory: {t}")

    selected = list(RULES)
    if args.select:
        prefixes = tuple(
            p.strip().upper() for p in args.select.split(",") if p.strip()
        )
        selected = [r for r in RULES if r.startswith(prefixes)]
        if not selected:
            return _lint_usage_error(
                f"--select {args.select!r} matches no rule "
                f"(known: {', '.join(RULES)})"
            )

    timings: dict[str, float] = {}
    try:
        violations, errors = run_lint(targets, selected, timings)
    except Exception as exc:  # noqa: BLE001 - any crash is exit code 2
        print(f"internal analyzer error: {exc}", file=sys.stderr)
        return 2
    if errors:
        for err in errors:
            print(f"internal analyzer error: {err}", file=sys.stderr)
        return 2

    if args.summary:
        # Rule rows (a shared pass is one row, e.g. REP00x) count their
        # findings; the shared steps (parse/cfg) have none.
        print("step      time        findings", file=sys.stderr)
        for step in sorted(timings):
            n = sum(v.rule.startswith(step.rstrip("x")) for v in violations)
            print(
                f"{step:<9} {timings[step] * 1e3:>8.1f} ms  "
                f"{n if step.startswith('REP') else '':>6}",
                file=sys.stderr,
            )

    if args.format == "json":
        print(format_json(violations))
    else:
        text = format_text(violations)
        if text:
            print(text)
        if violations:
            by_rule: dict[str, int] = {}
            for v in violations:
                by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
            parts = ", ".join(f"{r}×{n}" for r, n in sorted(by_rule.items()))
            print(f"{len(violations)} violation(s) ({parts})", file=sys.stderr)
        else:
            print(f"clean ({', '.join(selected)})")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.sanitizers.runner import RULES

    ap = argparse.ArgumentParser(
        prog="repro", description="FEVES reproduction toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list platform presets").set_defaults(
        func=cmd_platforms
    )

    run = sub.add_parser("run", help="encode on a preset: a DES model run (--backend "
                         "sim) or a real worker-pool encode (process)")
    run.add_argument("--platform", default="SysHK", choices=list_platforms())
    run.add_argument("--sa", type=int, default=32, help="search-area side")
    run.add_argument("--refs", type=int, default=1)
    run.add_argument("--frames", type=_at_least_one, default=50)
    run.add_argument("--backend", default="sim", choices=("sim", "process"),
                     help="sim = DES model run; process = really encode a "
                          "synthetic clip on a multiprocessing worker pool "
                          "and compare against the serial encoder")
    run.add_argument("--workers", type=int, default=0,
                     help="process backend pool size (0 = one per usable CPU)")
    run.add_argument("--size", type=_parse_size, default=None, metavar="WxH",
                     help="frame size (default 1920x1088; use a small size "
                          "like 256x144 for quick process-backend runs)")
    run.add_argument("--centric", default="auto", choices=("auto", "gpu", "cpu"))
    run.add_argument("--slices", type=int, default=1,
                     help="slices per frame (cross-slice DBL off when >1)")
    run.add_argument("--rstar-parallel", action="store_true",
                     help="distribute R* per slice (needs --slices > 1)")
    _add_fault_args(run)
    run.add_argument("--fault-log", metavar="PATH",
                     help="write the per-frame fault/decision log as JSON")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome trace, one lane per engine (sim) "
                          "or worker (process)")
    run.add_argument("--sanitize", action="store_true",
                     help="replay the run's lifecycle journal against the "
                          "protocol specs (SAN-G; exit 1 on violations)")
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="multi-stream encoding service on a shared platform",
        description=(
            "Serve N concurrent streams on one simulated platform: "
            "admission control with a bounded wait queue, deadline-aware "
            "capacity partitioning, and per-stream latency/deadline "
            "metrics. Fault flags are indexed by service ROUND (one "
            "co-scheduled frame across all active streams)."
        ),
    )
    serve.add_argument("--platform", default="SysHK", choices=list_platforms())
    _add_workload_args(serve)
    serve.add_argument("--headroom", type=float, default=1.0,
                       help="admission ceiling on committed capacity fraction")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="bounded wait-queue length (beyond = reject)")
    serve.add_argument("--json", metavar="PATH",
                       help="write per-stream + aggregate metrics as JSON")
    serve.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace, one pid per stream")
    _add_fault_args(serve)
    serve.add_argument("--sanitize", action="store_true",
                       help="replay the service's lifecycle journal "
                            "(SAN-G; exit 1 on violations)")
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="multi-node fleet simulation with a dispatch tier",
        description=(
            "Simulate a fleet of encoding nodes behind a cluster "
            "dispatcher: a bounded global work queue feeds per-node "
            "admission control through a pluggable routing policy "
            "(least-loaded, deadline-slack-aware, or class-affinity "
            "packing). Node faults evict and re-route sessions through "
            "the global queue; --autoscale adds/drains nodes on "
            "sustained queue depth or realtime-p99 SLO breach. A "
            "single-node fleet is bit-identical to `repro serve`."
        ),
    )
    fleet.add_argument("--nodes", type=int, default=2,
                       help="fleet size (node ids n0..n{N-1})")
    fleet.add_argument("--platforms", default="SysHK",
                       help="comma-separated platform cycle assigned to "
                            "nodes in order (e.g. SysHK,SysNF,SysNFF)")
    fleet.add_argument("--policy", default="least-loaded",
                       choices=("least-loaded", "slack", "affinity"),
                       help="routing policy for placing queued streams")
    fleet.add_argument("--global-queue", type=int, default=64,
                       help="bounded global dispatch queue (beyond = reject)")
    _add_workload_args(fleet)
    fleet.add_argument("--headroom", type=float, default=1.0,
                       help="per-node admission ceiling on committed "
                            "capacity fraction")
    fleet.add_argument("--max-queue", type=int, default=8,
                       help="per-node bounded wait-queue length")
    fleet.add_argument("--node-fault", action="append",
                       metavar="NODE@T[:down|drain]",
                       help="schedule a whole-node dropout or drain at a "
                            "simulated time (repeatable)")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the reactive autoscaler (provisions "
                            "from the --platforms cycle)")
    fleet.add_argument("--max-nodes", type=int, default=8,
                       help="autoscaler fleet-size ceiling")
    fleet.add_argument("--p99-slo", type=float, default=None,
                       help="realtime p99 SLO in ms that triggers scale-out")
    fleet.add_argument("--json", metavar="PATH",
                       help="write per-node + aggregate metrics as JSON")
    fleet.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace, one pid per "
                            "node/stream segment")
    fleet.add_argument("--sanitize", action="store_true",
                       help="audit the fleet's stream segments (SAN-E1) "
                            "and replay the lifecycle journal (SAN-G); "
                            "exit 1 on violations")
    fleet.set_defaults(func=cmd_fleet)

    prof = sub.add_parser(
        "profile",
        help="per-phase breakdown of the host-side time per frame",
        description=(
            "Run one encode and attribute its host-side wall time to "
            "phases. On the sim backend that is the scheduling overhead "
            "of a model-mode run: Δ-bounds, LP build, LP solve, "
            "distribution, transfer planning, and DES. On the process "
            "backend it is a real parallel encode of a synthetic clip, "
            "so the measured exec phases (ME+INT, SME, R*) join the "
            "table. Either table is followed by the LP's makespan error "
            "against the run."
        ),
    )
    prof.add_argument("--platform", default="SysHK", choices=list_platforms())
    prof.add_argument("--sa", type=int, default=32, help="search-area side")
    prof.add_argument("--refs", type=int, default=1)
    prof.add_argument("--frames", type=_at_least_one, default=50)
    prof.add_argument("--backend", default="sim", choices=("sim", "process"),
                     help="process = profile a real parallel encode, exec "
                          "phases included")
    prof.add_argument("--workers", type=int, default=0,
                     help="process backend pool size (0 = one per usable CPU)")
    prof.add_argument("--size", type=_parse_size, default=None, metavar="WxH",
                     help="frame size (default 1920x1088)")
    prof.add_argument("--sanitize", action="store_true",
                      help="also run (and time) the sanitizer; exit 1 on "
                           "violations")
    prof.add_argument("--json", metavar="PATH",
                      help="write the per-phase breakdown as JSON")
    prof.set_defaults(func=cmd_profile)

    sweep = sub.add_parser("sweep", help="regenerate a Fig. 6 table")
    sweep.add_argument("--what", choices=("sa", "refs"), default="sa")
    sweep.set_defaults(func=cmd_sweep)

    enc = sub.add_parser("encode", help="encode a raw YUV420 file")
    enc.add_argument("input")
    enc.add_argument("--size", type=_parse_size, required=True, metavar="WxH")
    enc.add_argument("--out", required=True)
    enc.add_argument("--frames", type=int, default=None)
    enc.add_argument("--sa", type=int, default=16)
    enc.add_argument("--refs", type=int, default=1)
    enc.add_argument("--qp", type=int, default=28)
    enc.add_argument("--coder", default="lite", choices=("lite", "cavlc"))
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a .fevs stream to YUV420")
    dec.add_argument("input")
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=cmd_decode)

    lint = sub.add_parser(
        "lint",
        help=f"repo-specific static checks ({', '.join(RULES)})",
        description=(
            "Repo-specific static rules, one table and one driver "
            "(repro.sanitizers.runner): "
            + "; ".join(f"{r.id} {r.description}" for r in RULES.values())
            + ". Suppress per line with '# noqa: REPxxx'. Exit codes: "
            "0 clean, 1 findings, 2 usage or internal analyzer error."
        ),
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"))
    lint.add_argument("--select", default=None, metavar="PREFIXES",
                      help="comma-separated rule prefixes to run (e.g. "
                           "'REP3' or 'REP102,REP3'); other rules are "
                           "skipped entirely")
    lint.add_argument("--summary", action="store_true",
                      help="print a per-step timing/finding table to stderr")
    lint.set_defaults(func=cmd_lint)

    return ap


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_profile and args.backend == "process" and args.frames < 2:
        # Its first frame is the I frame, encoded untimed: one frame would
        # leave the phase table empty.
        parser.error("profile --backend process needs --frames >= 2 "
                     "(frame 1 is the untimed I frame)")
    # SIGTERM unwinds like Ctrl-C, so `with fw:` closes the pool and
    # unlinks the shared-memory segments; an in-process caller gets its
    # own handler back. --sanitize is REPRO_SANITIZE=1 for this one
    # command: the variable is what every layer asks, and the journal
    # reads it when reset. Restoring it before the last reset keeps an
    # in-process caller's later runs unjournaled and releases the objects
    # the journal pins.
    prior_term = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sanitize = getattr(args, "sanitize", False)
    prior = os.environ.get(SANITIZE_ENV)
    if sanitize:
        os.environ[SANITIZE_ENV] = "1"
        JOURNAL.reset()
    try:
        return args.func(args)
    finally:
        signal.signal(signal.SIGTERM, prior_term)
        if sanitize:
            if prior is None:
                del os.environ[SANITIZE_ENV]
            else:
                os.environ[SANITIZE_ENV] = prior
            JOURNAL.reset()


if __name__ == "__main__":
    raise SystemExit(main())
