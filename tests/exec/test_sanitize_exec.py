"""The process backend's shared-memory discipline, held by plain tests.

INT workers fill ``sf0`` in place, each in its own ``(row0, nrows)`` band
of MB rows, and the τ1 barrier orders those writes before any SME read;
every task is coordinates, and every segment the host creates is unlinked
whatever fails. The tests below hold that discipline on the real path:

* **partition**: at 1, 2 and 4 workers, each phase's chunks (as the host
  submits them, grouped by frame) cover the frame's MB rows exactly once,
  and the output is bit-identical to the serial encoder. ME and SME bands
  are also held contiguous by their ``merge``; INT's in-place writes are
  held by nothing else — an overlap writes the same bytes twice and stays
  bit-identical;
* **order**: within a frame every staging ``view()`` comes before the
  first submit, and the ``sf0`` read and every SME submit come after the
  last phase-1 ``result()``;
* **band**: an ``int_task`` run in-process over a sentinel-filled ``sf0``
  changes its own band and nothing else;
* **payload**: ME and INT tasks carry only ints, and an SME task carries
  only its own rows' ``MotionField`` slice;
* **segments**: a ``SharedMemory`` failure midway through building the
  store, or a ``KernelPool`` failure after it, leaves no segment behind.

``test_exec_mutants.py`` puts a bug of each kind into the real method and
shows which of these kills it. The rest of the file pins eager
environment validation and bit-identity under both start methods.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.codec.frames import pad_plane
from repro.codec.interpolation import interpolate_rows
from repro.codec.me import MotionField
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.exec import backend as backend_mod
from repro.exec import pool as pool_mod
from repro.exec.backend import ProcessBackend
from repro.exec.pool import (
    KernelPool,
    TaskHandle,
    resolve_start_method,
    task_timeout_from_env,
)
from repro.exec.shm import SharedFrameStore, slot_specs
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence

pytestmark = pytest.mark.timeout_guarded

CFG = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)
N_FRAMES = 3


@pytest.fixture(scope="module")
def frames():
    seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=1.5)
    return seq.frames(N_FRAMES)


@pytest.fixture(scope="module")
def reference(frames):
    return ReferenceEncoder(CFG).encode_sequence(frames)


def encode(frames, workers, **fw_kwargs):
    fw = FevesFramework(
        get_platform("SysHK"), CFG,
        FrameworkConfig(backend="process", exec_workers=workers, **fw_kwargs),
    )
    with fw:
        return fw.encode(frames)


def assert_identical(ref_out, fev_out):
    for r, o in zip(ref_out, fev_out, strict=True):
        assert o.encoded is not None
        assert r.bits == o.encoded.bits, f"frame {r.index}: bits differ"
        np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)


def record_host_calls(monkeypatch) -> list[list[tuple]]:
    """Per inter frame, in order, every store ``view(key)``, pool
    ``submit_<module>(row0, nrows, …)`` and task ``result()`` the host
    makes, as ``("view", key)``, ``("submit", module, row0, nrows)`` and
    ``("result", module)`` (wraps whatever ``run_frame`` is installed)."""
    calls: list[list[tuple]] = []
    run_frame = ProcessBackend.run_frame
    view = SharedFrameStore.view
    result = TaskHandle.result

    def per_frame(self, *args, **kwargs):
        calls.append([])
        return run_frame(self, *args, **kwargs)

    def recorded_view(self, key):
        calls[-1].append(("view", key))
        return view(self, key)

    def recorded_result(self, timeout=None):
        calls[-1].append(("result", self.task.split()[0]))
        return result(self, timeout)

    monkeypatch.setattr(ProcessBackend, "run_frame", per_frame)
    monkeypatch.setattr(SharedFrameStore, "view", recorded_view)
    monkeypatch.setattr(TaskHandle, "result", recorded_result)
    for module in ("me", "int", "sme"):
        submit = getattr(KernelPool, f"submit_{module}")

        def recorded(self, row0, nrows, *args, _submit=submit, _module=module):
            calls[-1].append(("submit", _module, row0, nrows))
            return _submit(self, row0, nrows, *args)

        monkeypatch.setattr(KernelPool, f"submit_{module}", recorded)
    return calls


def assert_partitions(calls: list[list[tuple]]) -> None:
    """Each phase's chunks cover every MB row of its frame exactly once."""
    assert len(calls) == N_FRAMES - 1  # frame 0 is intra: no parallel phase
    for k, frame in enumerate(calls, start=1):
        for module in ("me", "int", "sme"):
            bands = [c[2:] for c in frame if c[:2] == ("submit", module)]
            rows = sorted(r for row0, n in bands for r in range(row0, row0 + n))
            assert rows == list(range(CFG.mb_rows)), (
                f"inter frame {k}: {module} chunks {bands} do not partition "
                f"{CFG.mb_rows} MB rows"
            )


def assert_ordered(calls: list[list[tuple]]) -> None:
    """Staging before the first submit; the ``sf0`` read and every SME
    submit after the last phase-1 ``result()``."""
    assert len(calls) == N_FRAMES - 1
    for k, frame in enumerate(calls, start=1):
        staged = [i for i, c in enumerate(frame) if c[0] == "view" and c[1] != "sf0"]
        submits = [i for i, c in enumerate(frame) if c[0] == "submit"]
        p1_results = [i for i, c in enumerate(frame) if c in (("result", "me"), ("result", "int"))]
        after_tau1 = [
            i for i, c in enumerate(frame)
            if c == ("view", "sf0") or c[:2] == ("submit", "sme")
        ]
        assert staged and submits and p1_results and after_tau1, frame
        assert staged[-1] < submits[0], (
            f"inter frame {k}: a staging write after the first submit: {frame}"
        )
        assert after_tau1[0] > p1_results[-1], (
            f"inter frame {k}: sf0 read or SME submit before the τ1 barrier: {frame}"
        )


# ---------------------------------------------------------------------------
# clean runs: chunks partition the rows in barrier order, output bit-exact


class TestPartition:
    @pytest.mark.usefixtures("checked_me_fields", "checked_sme_fields")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_at_worker_counts(self, frames, reference, workers,
                                    monkeypatch):
        calls = record_host_calls(monkeypatch)
        assert_identical(reference, encode(frames, workers))
        assert_partitions(calls)
        assert_ordered(calls)

    @pytest.mark.parametrize("frame", [1, 2])
    def test_order_holds_through_a_dropout(self, frames, reference, frame,
                                           monkeypatch):
        """The dropped device's rows are redone on the fallback's workers;
        their results are phase-1 results like any other."""
        calls = record_host_calls(monkeypatch)
        faults = FaultSchedule([FaultEvent(frame=frame, device="GPU_K", kind="dropout")])
        assert_identical(reference, encode(frames, 2, faults=faults))
        assert_partitions(calls)
        assert_ordered(calls)


# ---------------------------------------------------------------------------
# band: an INT task writes its own rows of sf0 and nothing else

#: What ``sf0`` holds before the task runs; no interpolated plane of
#: :data:`BAND_REF` is this constant over a whole band.
SENTINEL = 0xA5
BAND_CFG = CodecConfig(width=64, height=48, search_range=4, num_ref_frames=1)
BAND_REF = np.random.default_rng(7).integers(0, 256, (48, 64), dtype=np.uint8)


def assert_int_task_writes_only_its_band(monkeypatch, row0=1, nrows=1):
    """Run ``pool.int_task`` in-process over a sentinel-filled ``sf0``."""
    sf0 = np.full((4 * 48, 4 * 64), SENTINEL, dtype=np.uint8)
    monkeypatch.setattr(pool_mod, "_CFG", BAND_CFG)
    monkeypatch.setitem(pool_mod._VIEWS, "ref0", pad_plane(BAND_REF, 4))
    monkeypatch.setitem(pool_mod._VIEWS, "sf0", sf0)
    pool_mod.int_task(row0, nrows)
    px = 4 * MB_SIZE
    expected = np.full_like(sf0, SENTINEL)
    expected[px * row0:px * (row0 + nrows)] = interpolate_rows(BAND_REF, row0, nrows)
    np.testing.assert_array_equal(sf0, expected)


class TestIntBand:
    @pytest.mark.parametrize("row0,nrows", [(0, 1), (1, 1), (2, 1), (1, 2), (0, 3)])
    def test_int_task_writes_only_its_band(self, monkeypatch, row0, nrows):
        assert_int_task_writes_only_its_band(monkeypatch, row0, nrows)


# ---------------------------------------------------------------------------
# payload: coordinates cross the process boundary, pixels do not


def check_payloads(monkeypatch) -> list[str]:
    """Assert, at each submit, that the task carries coordinates only;
    returns the names of the tasks checked."""
    checked: list[str] = []
    submit = KernelPool._submit

    def checked_submit(self, worker, task, fn, *args):
        if fn.__name__ == "sme_task":
            row0, nrows, n_sfs, me_band = args
            scalars = (row0, nrows, n_sfs)
            assert isinstance(me_band, MotionField), task
            assert (me_band.row0, me_band.nrows) == (row0, nrows), (
                f"{task} carries MB rows {me_band.row0}+{me_band.nrows}"
            )
        else:
            scalars = args
        assert all(type(a) is int for a in scalars), (
            f"{task} carries {[type(a).__name__ for a in scalars]}"
        )
        checked.append(fn.__name__)
        return submit(self, worker, task, fn, *args)

    monkeypatch.setattr(KernelPool, "_submit", checked_submit)
    return checked


class TestPayload:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_tasks_carry_coordinates_only(self, frames, reference, monkeypatch,
                                          workers):
        checked = check_payloads(monkeypatch)
        assert_identical(reference, encode(frames, workers))
        assert set(checked) == {"me_task", "int_task", "sme_task"}


# ---------------------------------------------------------------------------
# segments: a failed start leaves nothing in /dev/shm


def created_segments(monkeypatch, fail_at: int | None = None):
    """Record every segment the store creates; the ``fail_at``-th
    creation (0-based) raises ``OSError`` instead."""
    made: list[shared_memory.SharedMemory] = []
    real = shared_memory.SharedMemory

    def create(*args, **kwargs):
        if len(made) == fail_at:
            raise OSError("no space left for a segment")
        seg = real(*args, **kwargs)
        made.append(seg)
        return seg

    monkeypatch.setattr(shared_memory, "SharedMemory", create)
    return made


def assert_no_segment_left(made) -> None:
    """No recorded segment is still in /dev/shm; unlinks any that is."""
    left = [seg.name for seg in made if Path("/dev/shm", seg.name).exists()]
    for seg in made:
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass
    assert made and not left, f"segments left behind: {left}"


def assert_store_failure_leaves_no_segment(monkeypatch, fail_at=3) -> None:
    made = created_segments(monkeypatch, fail_at=fail_at)
    with pytest.raises(OSError, match="no space"):
        SharedFrameStore(CFG)
    assert_no_segment_left(made)


def assert_pool_failure_leaves_no_segment(monkeypatch) -> None:
    made = created_segments(monkeypatch)

    def no_pool(*args, **kwargs):
        raise RuntimeError("no worker could start")

    monkeypatch.setattr(backend_mod, "KernelPool", no_pool)
    backend = ProcessBackend(
        get_platform("SysHK"), CFG, FrameworkConfig(backend="process")
    )
    with pytest.raises(RuntimeError, match="no worker"):
        backend._ensure_started()
    assert_no_segment_left(made)


def assert_store_close_unlinks(monkeypatch) -> None:
    made = created_segments(monkeypatch)
    store = SharedFrameStore(CFG)
    store.close()
    store.close()  # idempotent
    assert_no_segment_left(made)


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
class TestSegments:
    @pytest.mark.parametrize("fail_at", range(1, len(slot_specs(CFG))))
    def test_store_failure_leaves_no_segment(self, monkeypatch, fail_at):
        """Whichever segment fails to allocate, the ones before it go."""
        assert_store_failure_leaves_no_segment(monkeypatch, fail_at)

    def test_pool_failure_leaves_no_segment(self, monkeypatch):
        assert_pool_failure_leaves_no_segment(monkeypatch)

    def test_store_close_unlinks(self, monkeypatch):
        assert_store_close_unlinks(monkeypatch)


# ---------------------------------------------------------------------------
# eager environment validation (satellite: fail at construction, named)


class TestEnvValidation:
    def test_invalid_start_method_named_eagerly(self, monkeypatch):
        monkeypatch.setenv(pool_mod.START_METHOD_ENV, "warp-drive")
        with pytest.raises(ValueError) as exc:
            KernelPool(1, {}, CFG)
        assert "$REPRO_EXEC_START_METHOD" in str(exc.value)
        assert "'warp-drive'" in str(exc.value)

    def test_invalid_arg_start_method_names_the_arg(self):
        with pytest.raises(ValueError, match="start_method"):
            resolve_start_method("warp-drive")

    @pytest.mark.parametrize("bad", ["soon", "-5", "0", "inf", "nan"])
    def test_invalid_timeout_named_eagerly(self, monkeypatch, bad):
        monkeypatch.setenv(pool_mod.TASK_TIMEOUT_ENV, bad)
        with pytest.raises(ValueError) as exc:
            ProcessBackend(
                get_platform("SysHK"), CFG, FrameworkConfig(backend="process")
            )
        assert "$REPRO_EXEC_TIMEOUT_S" in str(exc.value)
        assert repr(bad) in str(exc.value)

    def test_valid_overrides_are_applied(self, monkeypatch):
        monkeypatch.setenv(pool_mod.TASK_TIMEOUT_ENV, "2.5")
        assert task_timeout_from_env() == 2.5
        backend = ProcessBackend(
            get_platform("SysHK"), CFG, FrameworkConfig(backend="process")
        )
        assert backend.task_timeout_s == 2.5
        with KernelPool(1, {}, CFG) as pool:
            assert pool.start_method == resolve_start_method()


# ---------------------------------------------------------------------------
# start methods (satellite: bit-identity under fork and under spawn)


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.usefixtures("checked_me_fields", "checked_sme_fields")
    def test_backend_is_bit_identical(self, frames, reference, monkeypatch,
                                      method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"platform has no {method} start method")
        monkeypatch.setenv(pool_mod.START_METHOD_ENV, method)
        fw = FevesFramework(
            get_platform("SysHK"),
            CFG,
            FrameworkConfig(
                backend="process", exec_workers=2,
            ),
        )
        with fw:
            out = fw.encode(frames)
            assert fw.manager._pool is not None
            assert fw.manager._pool.start_method == method
        assert_identical(reference, out)
