"""The process execution backend: bit-exactness, lifecycle, calibration.

The backend's contract is brutal and simple: *really* executing the
LP-assigned schedule on a multiprocessing worker pool must produce the
exact bitstream the sequential reference encoder produces — same bits,
same reconstruction, same mode decisions — for every worker count, while
the measured timeline and the calibration loop carry real wall-clock
signal instead of simulated times.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.codec.frames import pad_plane
from repro.codec.me import MotionField, motion_estimate_rows
from repro.core.config import BACKENDS, MODELLED_FAULTS, FrameworkConfig
from repro.core.framework import FevesFramework
from repro.exec.backend import ProcessBackend
from repro.exec import pool as pool_mod
from repro.exec.pool import KernelPool
from repro.exec.shm import SharedFrameStore, slot_specs
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence

pytestmark = pytest.mark.timeout_guarded

CFG = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)
N_FRAMES = 5


@pytest.fixture(scope="module")
def frames():
    seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=1.5)
    return seq.frames(N_FRAMES)


@pytest.fixture(scope="module")
def reference(frames):
    return ReferenceEncoder(CFG).encode_sequence(frames)


def encode_process(frames, workers, platform="SysHK", cfg=CFG, **fw_kwargs):
    fw = FevesFramework(
        get_platform(platform),
        cfg,
        FrameworkConfig(backend="process", exec_workers=workers, **fw_kwargs),
    )
    with fw:
        out = fw.encode(frames)
        summary = fw.accuracy_report().summary()
    return out, fw, summary


def assert_identical(ref_out, fev_out):
    assert len(ref_out) == len(fev_out)
    for r, o in zip(ref_out, fev_out, strict=True):
        e = o.encoded
        assert e is not None
        assert r.bits == e.bits, f"frame {r.index}: bits differ"
        assert r.mode_histogram == e.mode_histogram
        np.testing.assert_array_equal(r.recon.y, e.recon.y)
        np.testing.assert_array_equal(r.recon.u, e.recon.u)
        np.testing.assert_array_equal(r.recon.v, e.recon.v)


# ---------------------------------------------------------------------------
# bit-exactness


@pytest.mark.usefixtures("checked_me_fields", "checked_sme_fields")
class TestBitExactness:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_reference_across_worker_counts(
        self, frames, reference, workers
    ):
        out, _fw, _acc = encode_process(frames, workers)
        assert_identical(reference, out)

    @pytest.mark.parametrize("platform", ["SysNF", "SysNFF"])
    def test_matches_reference_across_platforms(
        self, frames, reference, platform
    ):
        # Different platforms → different LP row splits → different chunk
        # sets; the stitched result must not care.
        out, _fw, _acc = encode_process(frames, 2, platform=platform)
        assert_identical(reference, out)

    def test_matches_simulated_real_mode(self, frames):
        # The sim backend in real mode is itself reference-exact; the two
        # backends must agree with each other frame for frame.
        sim_fw = FevesFramework(get_platform("SysHK"), CFG)
        sim_out = sim_fw.encode(frames)
        out, _fw, _acc = encode_process(frames, 2)
        for s, p in zip(sim_out, out, strict=True):
            assert s.encoded.bits == p.encoded.bits
            np.testing.assert_array_equal(s.encoded.recon.y, p.encoded.recon.y)

    def test_gop_refresh_stays_identical(self):
        seq = SyntheticSequence(width=128, height=96, seed=21, noise_sigma=1.0)
        frames = seq.frames(7)
        ref = ReferenceEncoder(CFG, gop_size=3).encode_sequence(frames)
        out, _fw, _acc = encode_process(frames, 2, gop_size=3)
        assert_identical(ref, out)


class TestMeTaskBands:
    def test_bands_stitch_to_the_full_frame(self):
        """``me_task`` builds its box-sum tables per band: bands of 1, 2 and
        5 MB rows, stitched, are the field of one full-frame search."""
        cfg = CodecConfig(width=64, height=128, search_range=4, num_ref_frames=2)
        cur, *refs = (f.y for f in SyntheticSequence(
            width=64, height=128, seed=5, noise_sigma=1.5).frames(3))
        full = motion_estimate_rows(cur, refs, 0, cfg.mb_rows, cfg)
        with SharedFrameStore(cfg) as store, KernelPool(2, store.layout(), cfg) as pool:
            store.view("cur")[:] = cur
            for k, ref in enumerate(refs):
                store.view(f"ref{k}")[:] = pad_plane(ref, cfg.search_range)
            futures = [pool.submit_me(row0, nrows, 2) for row0, nrows in
                       ((0, 1), (1, 2), (3, 5))]
            bands = [f.result(timeout=60)[0] for f in futures]
        stitched = MotionField.merge(bands)
        stitched.check_consistent()
        assert (stitched.row0, stitched.nrows) == (0, cfg.mb_rows)
        for shape in full.mode_shapes:
            for name in ("sads", "refs", "mvs"):
                np.testing.assert_array_equal(
                    getattr(stitched, name)[shape], getattr(full, name)[shape]
                )


# ---------------------------------------------------------------------------
# measured timelines + calibration loop


class TestMeasurement:
    def test_timeline_is_measured_and_ordered(self, frames):
        out, _fw, _acc = encode_process(frames, 2)
        rep = out[-1].report
        assert rep.tau1 > 0
        assert rep.tau1 <= rep.tau2 <= rep.tau_tot
        recs = rep.timeline.records
        assert recs, "measured timeline must carry op records"
        by_cat = {}
        for r in recs:
            by_cat.setdefault(r.category, []).append(r)
            assert 0.0 <= r.start <= r.end
        labels = " ".join(r.label for r in by_cat["compute"])
        for tag in ("ME[", "INT[", "SME[", "R*["):
            assert tag in labels
        # phase-1 work ends by the measured τ1 barrier, SME by τ2.
        for r in by_cat["compute"]:
            if r.label.startswith(("ME[", "INT[")):
                assert r.end <= rep.tau1 + 1e-9
            elif r.label.startswith("SME["):
                assert r.end <= rep.tau2 + 1e-9

    def test_a_lane_is_one_worker(self, frames):
        """A chunk's lane is ``<device>.w<slot>``, the worker that ran it:
        at 2 workers on SysHK's 2 devices, device k's INT, ME and SME
        chunks all sit on ``.w<k>`` (not one lane per chunk), and one
        worker's chunks never overlap."""
        out, fw, _acc = encode_process(frames, 2)
        names = [d.name for d in fw.platform.devices]
        own = {f"{name}.w{k}" for k, name in enumerate(names)}
        inter = [o.report for o in out if o.report is not None and o.report.frame_index]
        assert len(inter) == N_FRAMES - 1
        for rep in inter:
            lanes: dict[str, list] = {}
            for r in rep.timeline.records:
                if not r.label.startswith(("R*", "tau")):
                    lanes.setdefault(r.resource, []).append(r)
            assert lanes and set(lanes) <= own, sorted(lanes)
            for recs in lanes.values():
                recs.sort(key=lambda r: r.start)
                for a, b in zip(recs, recs[1:]):
                    assert a.end <= b.start, (a, b)

    def test_calibration_feeds_characterization(self, frames):
        _out, fw, _acc = encode_process(frames, 2)
        perf = fw.perf
        # Every device that got ME rows last frame holds a *measured*
        # (non-prior) per-row rate estimate.
        dist = fw.reports[-1].decision
        for i, dev in enumerate(fw.platform.devices):
            if dist.m.rows[i] > 0:
                assert perf.k_compute(dev.name, "me") is not None, dev.name
                assert not perf.is_prior(dev.name, "me"), dev.name

    def test_accuracy_report_covers_lp_frames(self, frames):
        _out, fw, acc = encode_process(frames, 2)
        lp_frames = sum(1 for rep in fw.reports if rep.decision.used_lp)
        assert acc["frames"] == lp_frames > 0
        # A calibration loop fed wrong units or spans misses by multiples
        # of the makespan; even a first LP frame on a busy host stays
        # under 1x, so a mean above 3x is a broken loop, not noise.
        assert 0.0 <= acc["makespan_error_mean"] <= 3.0
        assert acc["makespan_error_max"] >= acc["makespan_error_mean"]
        assert set(acc["phase_error_mean"]) <= {"tau1", "tau2", "tau_tot"}


# ---------------------------------------------------------------------------
# lifecycle: shared memory + pool + config guards


class TestLifecycle:
    def test_store_slots_cover_schedule(self):
        keys = {s.key for s in slot_specs(CFG)}
        assert keys == {"cur", "ref0", "ref1", "sf0", "sf1"}

    def test_view_after_close_raises(self):
        store = SharedFrameStore(CFG)
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.view("cur")
        # The deliberate use-after-close above is exactly what SAN-G1
        # exists to catch; keep it out of the strict-mode teardown check
        # (tests/exec/test_protocols_exec.py pins that it IS caught).
        from repro.util.journal import JOURNAL

        JOURNAL.drain()

    def test_framework_close_is_idempotent(self, frames):
        fw = FevesFramework(
            get_platform("SysHK"), CFG,
            FrameworkConfig(backend="process", exec_workers=1),
        )
        fw.encode(frames[:2])
        assert isinstance(fw.manager, ProcessBackend)
        fw.close()
        fw.close()

    def test_default_pool_is_as_wide_as_the_usable_cpus(self, monkeypatch):
        # Under `taskset -c 0` on a 2-CPU machine: one worker, not two
        # stacked on CPU 0.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        be = ProcessBackend(get_platform("SysHK"), CFG, FrameworkConfig(backend="process"))
        assert be.workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        be = ProcessBackend(get_platform("SysHK"), CFG, FrameworkConfig(backend="process"))
        assert be.workers == 2

    @pytest.mark.parametrize("kind", MODELLED_FAULTS)
    def test_backend_rejects_modelled_faults_naming_the_kind(self, kind):
        faults = FaultSchedule([FaultEvent(frame=1, device="GPU_K", kind=kind)])
        with pytest.raises(ValueError, match=f"'{kind}' fault"):
            FrameworkConfig(backend="process", faults=faults)

    @pytest.mark.parametrize("kind,duration", [("dropout", 0), ("hang", 2)])
    def test_backend_accepts_dropout_and_hang(self, kind, duration):
        faults = FaultSchedule(
            [FaultEvent(frame=1, device="GPU_K", kind=kind, duration=duration)]
        )
        assert FrameworkConfig(backend="process", faults=faults).faults is faults

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            FrameworkConfig(backend="gpu-cluster")

    def test_run_frame_requires_context(self):
        be = ProcessBackend(
            get_platform("SysHK"), CFG,
            FrameworkConfig(backend="process", exec_workers=1),
        )
        with be, pytest.raises(ValueError, match="RealContext"):
            be.run_frame(plan=None, transfers=None, perf=None, ctx=None)


# ---------------------------------------------------------------------------
# worker placement: a pool as wide as the machine takes one CPU per worker


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
)
class TestWorkerPlacement:
    @pytest.fixture
    def two_cpus(self):
        """Confine the test to two CPUs, so the pool sizes below mean the
        same on every host."""
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("needs two CPUs")
        pair = sorted(allowed)[:2]
        os.sched_setaffinity(0, pair)
        try:
            yield pair
        finally:
            os.sched_setaffinity(0, allowed)

    @staticmethod
    def placement(workers: int) -> list[list[int]]:
        """CPUs each worker may run on, by worker index, read from the host."""
        with SharedFrameStore(CFG) as store, KernelPool(
            workers, store.layout(), CFG
        ) as pool:
            # A result is back only after the worker has attached and pinned.
            for k in range(workers):
                pool.submit_int(0, 1, k).result(timeout=60)
            return [sorted(os.sched_getaffinity(pid)) for pid in pool.pids]

    def test_full_width_pool_gives_each_worker_its_own_cpu(self, two_cpus):
        assert self.placement(2) == [[c] for c in two_cpus]

    def test_wider_pool_wraps_around(self, two_cpus):
        a, b = two_cpus
        assert self.placement(3) == [[a], [b], [a]]

    def test_narrower_pool_is_left_to_the_scheduler(self, two_cpus):
        assert self.placement(1) == [two_cpus]

    @pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH")
    def test_workers_are_batch_tasks(self):
        """Waking a worker must not preempt the thread handing out work."""
        with SharedFrameStore(CFG) as store, KernelPool(
            2, store.layout(), CFG
        ) as pool:
            for k in range(2):
                pool.submit_int(0, 1, k).result(timeout=60)
            policies = [os.sched_getscheduler(pid) for pid in pool.pids]
        assert policies == [os.SCHED_BATCH] * 2
        assert os.sched_getscheduler(0) != os.SCHED_BATCH  # the host is not


# ---------------------------------------------------------------------------
# dispatch: nothing between the host and a worker, devices own their workers


def _spy_on_submits(monkeypatch):
    """Record every handle the pool's three submit methods return."""
    handles = []
    for name in ("submit_int", "submit_me", "submit_sme"):
        original = getattr(KernelPool, name)

        def spy(self, *args, _original=original):
            handles.append(_original(self, *args))
            return handles[-1]

        monkeypatch.setattr(KernelPool, name, spy)
    return handles


class TestDispatch:
    def test_the_pool_starts_no_thread(self, frames):
        before = threading.active_count()
        fw = FevesFramework(
            get_platform("SysHK"), CFG,
            FrameworkConfig(backend="process", exec_workers=2),
        )
        with fw:
            fw.encode(frames[:2])
            assert fw.manager._pool is not None
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_exec_imports_no_executor(self):
        import repro.exec

        for path in Path(repro.exec.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "concurrent.futures" not in text, path.name
            assert "ProcessPoolExecutor" not in text, path.name

    def test_a_device_owns_its_worker(self, frames, monkeypatch):
        """One worker per device: every chunk of device d ran on worker d,
        in the order it was given — INT[d] ends before ME[d] starts."""
        handles = _spy_on_submits(monkeypatch)
        out, fw, _acc = encode_process(frames, 2)
        worker_of = {d.name: i for i, d in enumerate(fw.platform.devices)}
        pending = iter(handles)
        for rep in (o.report for o in out if o.report is not None):
            chunks = [
                (r, *re.fullmatch(r"(INT|ME|SME)\[(\w+)\] (rows .+)", r.label).groups())
                for r in rep.timeline.records  # sorted by start
                if not r.label.startswith(("R*", "tau"))
            ]
            sent_to = {h.task: h.worker for h in islice(pending, len(chunks))}
            ends: dict[str, float] = {}
            for r, module, dev, rows in chunks:
                assert sent_to[f"{module.lower()} {rows}"] == worker_of[dev]
                if module == "INT":
                    ends[dev] = r.end
                elif module == "ME":
                    assert ends.get(dev, 0.0) <= r.start
        assert next(pending, None) is None
        assert len(handles) >= 3 * (len(frames) - 1)

    def test_fewer_workers_than_devices_share_in_device_order(
        self, frames, monkeypatch
    ):
        handles = _spy_on_submits(monkeypatch)
        encode_process(frames[:3], 1)
        assert handles and {h.worker for h in handles} == {0}

    def test_megabyte_tasks_queued_on_one_worker_cannot_fill_a_pipe(self):
        """Three SME tasks, ≈ 1 MB each way, for one worker: a pipe holds
        ≈ 200 KB, so written back to back the third send would block on a
        worker that is itself blocked sending its first result."""
        cfg = CodecConfig(width=640, height=480, search_range=4, num_ref_frames=1)
        ref, cur = SyntheticSequence(width=640, height=480, seed=3).frames(2)
        with SharedFrameStore(cfg) as store, KernelPool(
            1, store.layout(), cfg
        ) as pool:
            store.view("cur")[:] = cur.y
            store.view("ref0")[:] = pad_plane(ref.y, cfg.search_range)
            pool.submit_int(0, cfg.mb_rows).result(timeout=60)
            field = pool.submit_me(0, cfg.mb_rows, 1).result(timeout=60)[0]
            assert len(pickle.dumps(field)) > 4 * 212_992
            handles = [pool.submit_sme(0, cfg.mb_rows, 1, field) for _ in range(3)]
            first, *rest = [h.result(timeout=60)[0] for h in handles]
        for other in rest:
            for shape in first.mode_shapes:
                np.testing.assert_array_equal(other.qmvs[shape], first.qmvs[shape])

    def test_a_task_error_is_itself_and_the_pool_lives(self):
        with SharedFrameStore(CFG) as store, KernelPool(
            1, store.layout(), CFG
        ) as pool:
            bad = pool.submit_me(0, 1, 5)  # CFG has two reference slots
            good = pool.submit_int(0, 1)
            with pytest.raises(KeyError, match="ref2"):
                bad.result(timeout=60)
            assert good.result(timeout=60)[0] is None


def _dying_sme_task(row0, nrows, n_sfs, me_band):
    """Runs in a worker: the second device's SME chunk is SIGKILLed mid-task."""
    if row0 > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_SME_TASK(row0, nrows, n_sfs, me_band)


def _sleeping_int_task(row0, nrows):
    time.sleep(30)


_REAL_SME_TASK = pool_mod.sme_task

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched task reaches the workers by fork",
)


@needs_fork
class TestWorkerFailure:
    @staticmethod
    def encode_and_fail(frames, match):
        """Encode until the backend raises; return its segment names."""
        fw = FevesFramework(
            get_platform("SysHK"), CFG,
            FrameworkConfig(backend="process", exec_workers=2),
        )
        names = []
        with pytest.raises(RuntimeError, match=match), fw:
            try:
                fw.encode(frames)
            finally:
                names += [s.name for s in fw.manager._store._segments.values()]
        assert names
        return names

    def test_a_killed_worker_is_one_named_error(self, frames, monkeypatch):
        monkeypatch.setenv(pool_mod.START_METHOD_ENV, "fork")
        monkeypatch.setattr(pool_mod, "sme_task", _dying_sme_task)
        names = self.encode_and_fail(
            frames,
            r"kernel worker 1 \(pid \d+\) died with exit code -9 while it "
            r"held 'sme rows \d+\+\d+'; the pool is closed",
        )
        for n in names:
            assert not glob.glob(f"/dev/shm/*{n.lstrip('/')}*"), n

    def test_a_stalled_worker_trips_the_timeout(self, frames, monkeypatch):
        monkeypatch.setenv(pool_mod.START_METHOD_ENV, "fork")
        monkeypatch.setenv(pool_mod.TASK_TIMEOUT_ENV, "0.3")
        monkeypatch.setattr(pool_mod, "int_task", _sleeping_int_task)
        t0 = time.perf_counter()
        names = self.encode_and_fail(frames, r"stalled.*REPRO_EXEC_TIMEOUT_S")
        assert time.perf_counter() - t0 < 20  # close() did not wait it out
        for n in names:
            assert not glob.glob(f"/dev/shm/*{n.lstrip('/')}*"), n


# ---------------------------------------------------------------------------
# the worker loop, run in a thread against a stand-in host


class TestWorkerLoop:
    """``_worker_loop`` on a real pipe, with the host's sentinel played
    by the read end of an ``os.pipe`` (closing the write end makes it
    ready, as a process sentinel is once its process exits)."""

    @pytest.fixture
    def worker(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_attach_worker", lambda *args: None)
        alive_r, alive_w = os.pipe()
        host = type("Host", (), {"sentinel": alive_r})()
        monkeypatch.setattr(pool_mod.multiprocessing, "parent_process", lambda: host)
        host_end, worker_end = multiprocessing.Pipe()
        loop = threading.Thread(
            target=pool_mod._worker_loop, args=(worker_end, {}, CFG, None),
            daemon=True,
        )
        loop.start()
        state = {"alive_w": alive_w}

        def host_exits():
            os.close(state.pop("alive_w"))

        try:
            yield loop, host_end, host_exits
        finally:
            if loop.is_alive():
                host_end.send(None)
                loop.join(5.0)
            host_end.close()
            worker_end.close()
            if "alive_w" in state:
                os.close(state["alive_w"])
            os.close(alive_r)

    def test_tasks_run_in_order(self, worker):
        loop, host_end, _ = worker
        for args in [(7, 2), (9, 4), (1, 1)]:
            host_end.send((divmod, args))
        assert [host_end.recv() for _ in range(3)] == [
            (True, (3, 1)), (True, (2, 1)), (True, (1, 0)),
        ]
        assert loop.is_alive()

    def test_task_exception_goes_back_as_its_result(self, worker):
        loop, host_end, _ = worker
        host_end.send((int, ("seven",)))
        ok, exc = host_end.recv()
        assert not ok and isinstance(exc, ValueError)
        host_end.send((abs, (-3,)))
        assert host_end.recv() == (True, 3)

    def test_none_ends_the_loop(self, worker):
        loop, host_end, _ = worker
        host_end.send(None)
        loop.join(5.0)
        assert not loop.is_alive()

    def test_closed_host_end_ends_the_loop(self, worker):
        loop, host_end, _ = worker
        host_end.close()
        loop.join(5.0)
        assert not loop.is_alive()

    def test_host_exit_ends_the_loop(self, worker):
        """No task, no EOF on the pipe: only the host's sentinel fires."""
        loop, host_end, host_exits = worker
        host_exits()
        loop.join(5.0)
        assert not loop.is_alive(), "the worker outlived its host"


# ---------------------------------------------------------------------------
# a killed host: its workers exit and its segments go with them

#: A host that starts a 2-worker backend, prints its worker pids and
#: segment names, then waits to be killed.
_HOST = """\
import time
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.exec.backend import ProcessBackend
from repro.hw.presets import get_platform

backend = ProcessBackend(
    get_platform("SysHK"), CodecConfig(width=64, height=48, search_range=4),
    FrameworkConfig(backend="process", exec_workers=2),
)
store, pool = backend._ensure_started()
print(*pool.pids, *(seg.name for seg in store._segments.values()), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Is ``pid`` a live process (a zombie nobody has reaped is not)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
class TestHostDeath:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_and_segments_go_with_a_killed_host(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"platform has no {method} start method")
        env = dict(os.environ, PYTHONPATH=str(Path(pool_mod.__file__).parents[2]))
        env[pool_mod.START_METHOD_ENV] = method
        host = subprocess.Popen(
            [sys.executable, "-c", _HOST], env=env, stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        names: list[str] = []
        try:
            fields = host.stdout.readline().split()
            pids, names = [int(p) for p in fields[:2]], fields[2:]
            assert len(pids) == 2 and names, fields
            host.kill()
            host.wait()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (
                any(map(_alive, pids))
                or any(Path("/dev/shm", n).exists() for n in names)
            ):
                time.sleep(0.05)
            assert not [p for p in pids if _alive(p)], "workers outlived the host"
            assert not [n for n in names if Path("/dev/shm", n).exists()]
        finally:
            host.kill()
            host.wait()
            host.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            for name in names:
                Path("/dev/shm", name).unlink(missing_ok=True)


def _segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("psm_*")}


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid``: its workers and resource tracker."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(stat.parent.name))
    return kids


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
class TestSignalledHost:
    """A real ``repro profile --backend process`` encode, signalled mid-run.

    SIGTERM (``kill``) goes to the host alone, and ``cli.main`` turns it
    into ``SystemExit(143)``. SIGINT goes to the whole process group, as a
    terminal's Ctrl-C does, and the host raises ``KeyboardInterrupt``.
    Either way the host leaves ``with fw:``, which closes the pool and
    unlinks the segments itself, so the resource tracker finds no leaked
    ``shared_memory`` to warn about. Within 5 s no process of the run is
    left and ``/dev/shm`` holds no new ``psm_*`` segment.
    """

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
    def test_no_worker_and_no_segment_outlive_the_signal(self, sig):
        before = _segments()
        env = dict(os.environ, PYTHONPATH=str(Path(pool_mod.__file__).parents[2]))
        host = subprocess.Popen(
            [sys.executable, "-m", "repro", "profile", "--backend", "process",
             "--workers", "2", "--size", "128x96", "--frames", "500"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        kids: list[int] = []
        ours: set[str] = set()
        try:
            # Two workers and the resource tracker, the store's segments,
            # then a few inter frames.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not (
                _segments() - before and len(_children(host.pid)) >= 3
            ):
                time.sleep(0.05)
            kids, ours = _children(host.pid), _segments() - before
            assert len(kids) >= 3 and ours, "the encode never started"
            time.sleep(0.5)
            if sig == signal.SIGINT:
                os.killpg(host.pid, sig)
            else:
                host.send_signal(sig)
            want = 128 + sig if sig == signal.SIGTERM else -sig
            assert host.wait(timeout=5.0) == want
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (
                any(map(_alive, kids)) or _segments() - before
            ):
                time.sleep(0.05)
            assert not [k for k in kids if _alive(k)], "a process outlived the host"
            assert not _segments() - before, "a segment outlived the host"
            # The tracker writes its warning as it exits, after the host.
            assert "leaked shared_memory" not in host.stderr.read().decode()
        finally:
            host.kill()
            host.wait()
            host.stderr.close()
            for pid in kids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            for name in ours:
                Path("/dev/shm", name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# service integration: a process-backed session really encodes


class TestServiceIntegration:
    def test_process_session_round_trip(self):
        from repro.service import EncodingService, ServiceConfig, StreamSpec

        service = EncodingService(ServiceConfig(
            platform="SysHK", headroom=8.0,
            backend="process", exec_workers=1,
        ))
        metrics = service.run([StreamSpec(
            stream_id="s0", width=64, height=48, n_frames=2,
            fps_target=1.0, search_range=4, num_ref_frames=1,
        )])
        assert metrics.streams[0].frames == 2
        # Measured latencies are real wall milliseconds, not simulated.
        assert metrics.streams[0].p50_ms > 0
        for session in service.sessions:
            assert session.framework.manager._pool is None  # closed

    def test_process_session_survives_a_hang(self):
        from repro.service import EncodingService, ServiceConfig, StreamSpec

        def serve(faults):
            service = EncodingService(ServiceConfig(
                platform="SysHK", headroom=8.0, backend="process",
                exec_workers=1, faults=faults,
            ))
            metrics = service.run([StreamSpec(
                stream_id="s0", width=64, height=48, n_frames=4,
                fps_target=1.0, search_range=4, num_ref_frames=1,
            )])
            assert metrics.streams[0].frames == 4
            return service.sessions[0].framework

        clean = serve(FaultSchedule())
        # Service round 2: the GPU hangs for one round, then comes back.
        hung = serve(FaultSchedule(
            [FaultEvent(frame=2, device="GPU_K", kind="hang", duration=1)]
        ))
        log = {e.frame_index: e for e in hung.fault_log}
        assert log[2].evicted == ("GPU_K",) and log[2].time_lost_s > 0
        assert log[3].readmitted == ("GPU_K",)
        assert not any(e.eventful for e in clean.fault_log)
        assert_identical([r.encoded for r in clean.reports], hung.reports)

    def test_service_config_defers_to_the_framework_check(self):
        import inspect

        from repro.service import ServiceConfig
        from repro.service import service as service_mod

        degrade = FaultSchedule([FaultEvent(frame=1, device="GPU_K", kind="degrade")])
        with pytest.raises(ValueError, match="'degrade' fault"):
            ServiceConfig(platform="SysHK", backend="process", faults=degrade)
        hang = FaultSchedule(
            [FaultEvent(frame=1, device="GPU_K", kind="hang", duration=1)]
        )
        ServiceConfig(platform="SysHK", backend="process", faults=hang)
        # The backend names are core.config.BACKENDS, not a restatement.
        with pytest.raises(ValueError, match=re.escape(str(BACKENDS))):
            ServiceConfig(backend="gpu-cluster")
        assert '("sim", "process")' not in inspect.getsource(service_mod)
