"""Determinism regression: runs must be bit-identical across hash seeds.

Python's string hashing (and therefore every ``set``/``dict``-of-names
iteration order) changes with ``PYTHONHASHSEED``; the DES, the LP and
the fault-rebalancing path must not let that order leak into results.
REP102 flagged three such order-fragile sites (survivor frozensets
feeding the R* fallback's estimates dict, LP parked-device iteration,
utilization-summary accumulation); all were hardened to canonical
iteration orders, and this test pins the end-to-end property so a
future regression — any set order reaching event insertion, candidate
ordering or serialization — fails loudly.

The runner below encodes the same platform/config (with a mid-run
dropout of the R* device and identical surviving GPUs so the R*
re-placement faces a genuine tie, plus a shuffled device-spec
insertion order) in a fresh interpreter per hash seed, then digests
timelines, distributions, fault log and the chrome trace export.  All
digests must be byte-identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

# The runner prints a sha256 over every order-sensitive artifact:
# serialized per-frame timelines (records in execution order), final
# distributions, the fault log, the run summary (dict order included),
# and the chrome trace file bytes.
RUNNER = r"""
import hashlib, json, random, sys, tempfile
from pathlib import Path

shuffle_seed = int(sys.argv[1])

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import CPU_N, GPU_F
from repro.hw.topology import Platform
from repro.hw.trace_export import StreamTrace, export_stream_traces

# Shuffle the insertion order of the name->spec table the platform is
# assembled from; the canonical device order itself is part of the
# configuration (paper convention: accelerators first, then CPU).
from repro.hw.presets import _gpu_variant  # same-silicon rename helper

entries = [
    ("GPU_F", GPU_F),
    ("GPU_F2", _gpu_variant(GPU_F, "GPU_F2")),
    ("GPU_F3", _gpu_variant(GPU_F, "GPU_F3")),
    ("CPU_N", CPU_N),
]
shuffled = list(entries)
random.Random(shuffle_seed).shuffle(shuffled)
by_name = dict(shuffled)  # insertion order perturbed
specs = [by_name[n] for n, _ in entries]
platform = Platform(name="SysNFF", specs=specs)

# Dropping the R* device leaves two *identical* GPUs as candidates:
# the re-placement tie must resolve by canonical device order, never
# by survivor-set iteration order.
faults = FaultSchedule([
    FaultEvent(frame=4, device="GPU_F", kind="dropout"),
])
fw = FevesFramework(
    platform,
    CodecConfig(width=1280, height=720, search_range=16),
    FrameworkConfig(faults=faults),
)
fw.run_model(10)

blob = {
    "timelines": [
        [
            [r.label, r.resource, r.category, repr(r.start), repr(r.end)]
            for r in rep.timeline.records
        ]
        for rep in fw.reports
    ],
    "taus": [
        [repr(rep.tau1), repr(rep.tau2), repr(rep.tau_tot)]
        for rep in fw.reports
    ],
    "distribution": fw.summary()["distribution"],
    "fault_log": [e.to_dict() for e in fw.fault_log],
    "summary_keys_in_order": list(fw.summary()),
    "rstar": fw.rstar_device,
}
with tempfile.TemporaryDirectory() as td:
    trace = Path(td) / "trace.json"
    export_stream_traces(
        [StreamTrace.back_to_back([rep.timeline for rep in fw.reports], "run")], trace
    )
    trace_bytes = trace.read_bytes()

digest = hashlib.sha256(
    json.dumps(blob, sort_keys=False).encode() + trace_bytes
).hexdigest()
print(digest)
"""


def _run(hash_seed: str, shuffle_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", RUNNER, str(shuffle_seed)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_bit_identical_across_hash_seeds_and_insertion_order():
    digests = {
        _run(hash_seed, shuffle_seed)
        for hash_seed, shuffle_seed in [
            ("0", 0),
            ("1", 1),
            ("4242", 2),
        ]
    }
    assert len(digests) == 1, (
        "timelines/distributions/trace exports differ across "
        f"PYTHONHASHSEED or insertion order: {digests}"
    )


def test_repeat_run_same_seed_is_identical():
    assert _run("7", 0) == _run("7", 0)


# The fleet layer adds its own order-sensitive surfaces: routing
# tie-breaks, the global FIFO queue, fault-eviction survivor ordering
# and the per-platform LP-cache registry. The runner shuffles the
# insertion order of the node-spec table (canonical fleet order itself
# is configuration, exactly like device order above), serves a Poisson
# workload through a mixed fleet with a mid-run node dropout, and
# digests every order-sensitive artifact: per-session timelines per
# node, segment bookkeeping, and the full metrics dict (key order
# included).
CLUSTER_RUNNER = r"""
import hashlib, json, random, sys

shuffle_seed = int(sys.argv[1])

from repro.cluster import (
    Cluster, ClusterConfig, NodeFaultEvent, NodeFaultSchedule, NodeSpec,
)
from repro.service import build_workload

entries = [
    ("n0", "SysHK"),
    ("n1", "SysNF"),
    ("n2", "SysNFF"),
]
shuffled = list(entries)
random.Random(shuffle_seed).shuffle(shuffled)
by_id = {nid: NodeSpec(node_id=nid, platform=p) for nid, p in shuffled}
specs = tuple(by_id[nid] for nid, _ in entries)  # canonical fleet order

wl = build_workload(
    6, n_frames=4, mix="conference", arrival_rate=25.0, seed=9
)
cluster = Cluster(ClusterConfig(
    nodes=specs,
    policy="slack",
    node_faults=NodeFaultSchedule(
        [NodeFaultEvent("n0", at_s=0.12, kind="down")]
    ),
))
metrics = cluster.run(wl)

blob = {
    "metrics": metrics.to_dict(),
    "timelines": [
        [
            session.stream_id,
            [
                [r.label, r.resource, repr(r.start), repr(r.end)]
                for rep in session.framework.reports
                for r in rep.timeline.records
            ],
        ]
        for node in cluster.nodes
        for session in node.service.sessions
    ],
    "segments": [
        [
            st.stream_id,
            [
                [seg.node_id, seg.offset, repr(seg.t_routed),
                 repr(seg.t_evicted), len(seg.session.records)]
                for seg in st.segments
            ],
        ]
        for st in cluster.dispatcher.streams.values()
    ],
}
print(hashlib.sha256(json.dumps(blob, sort_keys=False).encode()).hexdigest())
"""


def _run_cluster(hash_seed: str, shuffle_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", CLUSTER_RUNNER, str(shuffle_seed)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_cluster_bit_identical_across_hash_seeds_and_insertion_order():
    digests = {
        _run_cluster(hash_seed, shuffle_seed)
        for hash_seed, shuffle_seed in [
            ("0", 0),
            ("1", 1),
            ("4242", 2),
        ]
    }
    assert len(digests) == 1, (
        "fleet runs differ across PYTHONHASHSEED or node-spec insertion "
        f"order: {digests}"
    )


# The process execution backend adds one more determinism surface: the
# *encoded output* of a really-parallel run. Wall-clock timelines are
# measured and legitimately vary run to run — but everything the encoder
# emits (bitstream bits, reconstructions, distortion stats, mode
# decisions, reference-window state) must be byte-identical across
# worker counts AND hash seeds, because chunk results are stitched by
# row coordinate, never by completion order. The runner digests every
# encoded artifact plus the final reference window; the measured τs are
# deliberately excluded.
PROCESS_RUNNER = r"""
import hashlib, json, sys

workers = int(sys.argv[1])

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence

cfg = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)
frames = SyntheticSequence(width=128, height=96, seed=13,
                           noise_sigma=1.5).frames(4)
fw = FevesFramework(
    get_platform("SysHK"), cfg,
    FrameworkConfig(backend="process", exec_workers=workers),
)
with fw:
    outcomes = fw.encode(frames)

h = hashlib.sha256()
for o in outcomes:
    e = o.encoded
    h.update(json.dumps({
        "index": e.index,
        "is_intra": e.is_intra,
        "bits": e.bits,
        "psnr": repr(e.psnr),
        "modes": sorted((repr(k), v) for k, v in e.mode_histogram.items()),
    }, sort_keys=False).encode())
    for plane in (e.recon.y, e.recon.u, e.recon.v):
        h.update(plane.tobytes())
print(h.hexdigest())
"""


def _run_process_backend(hash_seed: str, workers: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", PROCESS_RUNNER, str(workers)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_process_backend_output_identical_across_seeds_and_workers():
    digests = {
        _run_process_backend(hash_seed, workers)
        for hash_seed, workers in [
            ("0", 1),
            ("1", 2),
            ("4242", 3),
        ]
    }
    assert len(digests) == 1, (
        "process-backend encoded output differs across PYTHONHASHSEED "
        f"or worker count: {digests}"
    )


# The static analyzers are part of the determinism contract too: REP102
# solves over name-keyed taint sets and the other rules walk the AST, so
# a stray set/dict iteration would reorder (or flip) findings with the
# hash seed. Lint JSON of the whole table over the real src/ must be
# byte-identical across seeds (and clean).
REPO_ROOT = str(Path(__file__).resolve().parents[2])


def _run_lint(hash_seed: str) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json", "src/repro"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    return out.returncode, out.stdout


def test_lint_output_identical_across_hash_seeds():
    results = {_run_lint(seed) for seed in ("0", "1", "4242")}
    assert len(results) == 1, (
        f"lint output varies with PYTHONHASHSEED: {results}"
    )
    ((rc, stdout),) = results
    assert rc == 0, f"src/ must lint clean, got:\n{stdout}"
    assert json.loads(stdout) == []


# The SAN-G journal of a real fleet run: labels are assigned in
# first-record order, sequence numbers are dense, and event details are
# stream/node ids — none of which may leak hash-seed-dependent order.
PROTOCOL_RUNNER = r"""
import dataclasses, hashlib, json

from repro.cluster import (
    Cluster, ClusterConfig, NodeFaultEvent, NodeFaultSchedule, NodeSpec,
)
from repro.sanitizers import check_protocols
from repro.service import build_workload
from repro.util.journal import JOURNAL, OBJECT_CLOCK

wl = build_workload(
    5, n_frames=3, mix="conference", arrival_rate=25.0, seed=9
)
cluster = Cluster(ClusterConfig(
    nodes=(NodeSpec("n0", platform="SysHK"), NodeSpec("n1", platform="SysNF")),
    node_faults=NodeFaultSchedule(
        [NodeFaultEvent("n0", at_s=0.1, kind="down")]
    ),
))
cluster.run(wl)
events = JOURNAL.snapshot()
report = check_protocols(JOURNAL.drain())
assert report.clean, report.summary()
# The lifecycle view: spans carry host wall times.
lifecycle = [e for e in events if e.domain == OBJECT_CLOCK]
assert lifecycle and len(lifecycle) < len(events)
blob = [dataclasses.asdict(e) for e in lifecycle]
print(hashlib.sha256(json.dumps(blob, sort_keys=False).encode()).hexdigest())
"""


def _run_protocol_journal(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    env["REPRO_SANITIZE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", PROTOCOL_RUNNER],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_protocol_journal_identical_across_hash_seeds():
    digests = {_run_protocol_journal(seed) for seed in ("0", "1", "4242")}
    assert len(digests) == 1, (
        f"SAN-G lifecycle journal varies with PYTHONHASHSEED: {digests}"
    )
