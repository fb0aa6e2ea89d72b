"""Parent side of the suite: spawn workload children, gather, print.

Three ways in (see ``benchmarks/suite/README.md``):

- ``run.py --workload W --seed N --seconds S --trace 0|1`` — the driver's
  contract: one pass of one workload, last stdout line is the result.
- ``run.py [--workload W] [--seeds 7,8] [--out FILE]`` — every workload,
  an untraced then a traced pass each, tables on stdout and all runs in
  one JSON file for ``--compare``.
- ``run.py --compare A.json B.json``.

Every pass runs in a fresh child process, one at a time, so a workload
never inherits another's caches, pools or peak memory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from fevesbench.spec import (
    CLASS_METRICS,
    DEFAULT_SEED,
    END_TO_END,
    ENC,
    METRIC_BY_NAME,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
    host_cores,
)

SUITE_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
RUN_PY = SUITE_DIR / "run.py"

#: Fresh children whose set-up time is sampled per untraced pass.
SETUP_SAMPLES = 5

#: Host-slowness reading taken right after set-up (imports and input
#: generation: mostly interpreter-bound): np share, np calls, py calls.
SETUP_READING = (0.25, 15, 31)

#: A child that has not answered by then is killed (the contract allows
#: 180 s for the whole command).
CHILD_TIMEOUT_S = 150

#: ``enc_*`` numbers that mean nothing when workers outnumber cores.
ENC_WALL_METRICS = frozenset(
    {"delivered_fps", "inter_fps", "clip_s", "exec.parallel_eff",
     "exec.worker_busy_frac", "exec.barrier_idle.ms", "exec.phase1.ms",
     "exec.phase2.ms", "exec.rstar.ms", "exec.makespan_err"}
)


class ChildFailed(RuntimeError):
    pass


# ------------------------------------------------------------------ child


def child_main(args: argparse.Namespace) -> int:
    """Run one pass in this process; print one JSON line."""
    # Imported here so that importing the program counts as set-up.
    from fevesbench.calib import Calibrator
    from fevesbench.spans import Recorder
    from fevesbench.workloads import RUNNERS, TRACE_TARGETS

    workload = WORKLOAD_BY_NAME[args.workload]
    runner = RUNNERS[workload.kind](
        workload, args.seed, args.quick, args.workers or None
    )
    setup_s = time.perf_counter() - args.t_spawn
    setup_s /= Calibrator(*SETUP_READING)()  # at reference host speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        rec = Recorder()
        with rec.installed(TRACE_TARGETS):
            out = runner.measure(args.seconds, rec)
        rec.write(OUT_DIR / f"trace_{workload.name}.json")
    else:
        out = runner.measure(args.seconds)

    # Largest resident set of this process plus that of its largest
    # reaped descendant (the pool workers), in MB (ru_maxrss is KB).
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    out.put("setup_s", setup_s)
    out.put("peak_rss_mb", rss_kb / 1024.0)
    workers = getattr(runner, "workers", 0)
    print(json.dumps({
        "values": out.values,
        "samples": out.samples,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "workers": workers,
        "oversubscribed": workers > host_cores(),
    }))
    return 0


# ----------------------------------------------------------------- parent


def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           quick: bool, workers: int, setup_only: bool = False) -> dict[str, Any]:
    if not (SRC_DIR / "repro").is_dir():
        raise ChildFailed(f"no program to measure: {SRC_DIR / 'repro'} is missing")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(RUN_PY), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--workers", str(workers),
    ]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    # perf_counter is CLOCK_MONOTONIC, machine-wide on Linux: the child
    # subtracts this stamp from its own reading at the first timed call.
    cmd += ["--t-spawn", repr(time.perf_counter())]
    # Own session, so that a stuck child's pool workers die with it.
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(
            f"{workload}: no result within {CHILD_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload}: child exited {proc.returncode}\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def host_stamp(seed: int, workers: int) -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy
    import scipy

    cores = host_cores()
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "host_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": os.environ.get("REPRO_EXEC_START_METHOD") or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_start_method()
        ),
        "workers": workers or min(2, cores),
        "seed": seed,
        "commit": commit,
    }


def run_pass(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool = False, workers: int = 0,
             untraced: dict[str, Any] | None = None,
             setup_samples: int = SETUP_SAMPLES) -> dict[str, Any]:
    """One pass of one workload, as a record of the results file.

    An untraced pass samples set-up time in ``setup_samples`` fresh
    children (its own included) and reports the median. A traced pass
    needs the untraced record of the same workload to state the tracing
    overhead.
    """
    res = _spawn(workload, seed, seconds, trace, quick, workers)
    values, samples = res["values"], res["samples"]
    if trace:
        assert untraced is not None
        # Both at reference host speed: the two passes ran minutes apart.
        key = "delivered_fps" if WORKLOAD_BY_NAME[workload].kind == ENC else "host_ms_per_frame"
        a, b = untraced["values"][key], values[key]
        ratio = a / b if key == "delivered_fps" else b / a
        values["bench.trace_overhead_frac"] = ratio - 1.0
        samples["bench.trace_overhead_frac"] = 1
        names = [m.name for m in PER_LAYER]
    else:
        setups = [values["setup_s"]] + [
            _spawn(workload, seed, seconds, False, quick, workers,
                   setup_only=True)["setup_s"]
            for _ in range(setup_samples - 1)
        ]
        values["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        names = [m.name for m in END_TO_END + CLASS_METRICS if m.name in values]
    unknown = set(values) - set(METRIC_BY_NAME)
    if unknown:
        raise ChildFailed(f"{workload}: metrics not in spec: {sorted(unknown)}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "values": {n: values.get(n, 0.0) for n in names},
        "samples": {n: samples.get(n, 0) for n in names},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "oversubscribed": res["oversubscribed"],
    }


def contract_line(record: dict[str, Any]) -> str:
    """The driver's result object for one pass."""
    names = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m.name: {"value": record["values"][m.name], "unit": m.unit}
            for m in names
        },
    })


# --------------------------------------------------------------- printing


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_record(record: dict[str, Any]) -> None:
    trace = record["trace"]
    title = (
        "per-layer (traced pass)" if trace else "end-to-end (tracing off)"
    )
    print(f"  {title:<38}{'value':>12}  {'unit':<9}{'n':>7}  "
          + ("moves -> on" if trace else "may worsen by"))
    for name, value in record["values"].items():
        m = METRIC_BY_NAME[name]
        if trace and value == 0:
            continue  # a layer this workload never enters
        shown = _fmt(value)
        if record["oversubscribed"] and name in ENC_WALL_METRICS:
            shown = "invalid"
        if trace:
            note = f"{m.moves} -> {m.on}" if m.moves else m.on
        elif m.bound is None:
            note = ""
        else:
            note = f"{m.bound:.1%}"
        print(f"  {name:<38}{shown:>12}  {m.unit:<9}"
              f"{record['samples'][name]:>7}  {note}")
    print(f"  failed/attempted: {record['failed']}/{record['attempted']}")
    for why in record["failures"]:
        print(f"    FAILED: {why}")
    if record["oversubscribed"]:
        print("  invalid: more workers than cores; wall-clock numbers of "
              "the process backend are time-slicing, only counts hold")


# ------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="run.py", description="FEVES benchmark suite (see README.md)"
    )
    ap.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seeds", help="comma-separated seeds (suite mode)")
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract mode: one pass, result as last line")
    ap.add_argument("--quick", action="store_true",
                    help="~10x smaller inputs (self-tests)")
    ap.add_argument("--workers", type=int, default=0,
                    help="process-backend workers (default min(2, cores))")
    ap.add_argument("--out", type=Path, help="results file (suite mode)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # child protocol (internal)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t-spawn", type=float, default=0.0, help=argparse.SUPPRESS)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        from fevesbench.compare import compare_files

        return compare_files(Path(args.compare[0]), Path(args.compare[1]))
    try:
        if args.trace is not None:
            return _contract(args)
        return _suite(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _contract(args: argparse.Namespace) -> int:
    if args.workload is None:
        print("error: --trace needs --workload", file=sys.stderr)
        return 2
    record = run_pass(args.workload, args.seed, args.seconds, False,
                      args.quick, args.workers,
                      setup_samples=1 if args.trace else SETUP_SAMPLES)
    if args.trace:
        # The untraced pass above is only the base of the overhead row.
        record = run_pass(args.workload, args.seed, args.seconds, True,
                          args.quick, args.workers, untraced=record)
    print_record(record)
    print(contract_line(record))
    return 0 if record["failed"] == 0 else 1


def _suite(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    )
    stamp = host_stamp(seeds[0], args.workers)
    print("host: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    runs: list[dict[str, Any]] = []
    for seed in seeds:
        for name in names:
            print(f"\n== {name}  seed {seed}, {args.seconds:g} s"
                  f"{', quick' if args.quick else ''}")
            print(f"  {WORKLOAD_BY_NAME[name].why}")
            plain = run_pass(name, seed, args.seconds, False,
                             args.quick, args.workers)
            print_record(plain)
            traced = run_pass(name, seed, args.seconds, True,
                              args.quick, args.workers, untraced=plain)
            print_record(traced)
            runs += [plain, traced]
    out = args.out or OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"stamp": stamp, "quick": args.quick,
                               "seconds": args.seconds, "runs": runs}, indent=1))
    failed = sum(r["failed"] for r in runs)
    print(f"\nwrote {out}; {failed} failed operation(s)")
    return 0 if failed == 0 else 1
