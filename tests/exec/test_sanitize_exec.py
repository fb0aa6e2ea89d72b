"""The process backend's shared-memory discipline, held without a journal.

INT workers fill ``sf0`` in place, each in its own ``(row0, nrows)`` band
of MB rows, and the τ1 barrier orders those writes before any SME read.
Three checks hold that discipline between them:

* the partition test below: at 1, 2 and 4 workers, each phase's chunks
  (as the host submits them, grouped by frame) cover the frame's MB rows
  exactly once, and the output is bit-identical to the serial encoder.
  ME and SME bands are also held contiguous by their ``merge``; INT's
  in-place writes are held by nothing else — an overlap writes the same
  bytes twice and stays bit-identical;
* REP203 on the worker side: ``int_task`` writes inside its band, and a
  seeded twin that writes one band too far is flagged;
* REP203/REP204 on the host side: the staging, τ1 and SME ordering of
  ``ProcessBackend.run_frame`` (its transplanted mutants are in
  ``test_exec_mutants.py``, with the chunk mutants this test kills).

The rest of the file pins eager environment validation and bit-identity
under both start methods.
"""

from __future__ import annotations

import inspect
import multiprocessing
import textwrap
import time

import pytest

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.codec.interpolation import interpolate_rows
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.exec import pool as pool_mod
from repro.exec.backend import ProcessBackend
from repro.exec.pool import KernelPool, resolve_start_method, task_timeout_from_env
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


def encode(frames, workers):
    fw = FevesFramework(
        get_platform("SysHK"), CFG,
        FrameworkConfig(backend="process", exec_workers=workers),
    )
    with fw:
        return fw.encode(frames)


def assert_identical(ref_out, fev_out):
    import numpy as np

    for r, o in zip(ref_out, fev_out, strict=True):
        assert o.encoded is not None
        assert r.bits == o.encoded.bits, f"frame {r.index}: bits differ"
        np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)


def record_chunks(monkeypatch) -> list[dict[str, list[tuple[int, int]]]]:
    """Per inter frame, the ``(row0, nrows)`` of every ME, INT and SME
    chunk the host submits (wraps whatever ``run_frame`` is installed)."""
    chunks: list[dict[str, list[tuple[int, int]]]] = []
    run_frame = ProcessBackend.run_frame

    def per_frame(self, *args, **kwargs):
        chunks.append({"me": [], "int": [], "sme": []})
        return run_frame(self, *args, **kwargs)

    monkeypatch.setattr(ProcessBackend, "run_frame", per_frame)
    for module in ("me", "int", "sme"):
        submit = getattr(KernelPool, f"submit_{module}")

        def recorded(self, row0, nrows, *args, _submit=submit, _module=module):
            chunks[-1][_module].append((row0, nrows))
            return _submit(self, row0, nrows, *args)

        monkeypatch.setattr(KernelPool, f"submit_{module}", recorded)
    return chunks


def assert_partitions(chunks) -> None:
    """Each phase's chunks cover every MB row of its frame exactly once."""
    assert len(chunks) == N_FRAMES - 1  # frame 0 is intra: no parallel phase
    for k, frame in enumerate(chunks, start=1):
        for module, bands in frame.items():
            rows = sorted(r for row0, n in bands for r in range(row0, row0 + n))
            assert rows == list(range(CFG.mb_rows)), (
                f"inter frame {k}: {module} chunks {bands} do not partition "
                f"{CFG.mb_rows} MB rows"
            )


# ---------------------------------------------------------------------------
# clean runs: chunks partition the rows, output bit-exact


class TestPartition:
    @pytest.mark.usefixtures("checked_me_fields", "checked_sme_fields")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_at_worker_counts(self, frames, reference, workers,
                                    monkeypatch):
        chunks = record_chunks(monkeypatch)
        assert_identical(reference, encode(frames, workers))
        assert_partitions(chunks)


# ---------------------------------------------------------------------------
# the seeded mutant: one extra px band past the task's own write window


def _overlapping_int_task(row0, nrows):
    """``int_task`` writing one extra SF band past ``(row0, nrows)``."""
    t0 = time.perf_counter()
    band = interpolate_rows(pool_mod._rf_view(), row0, nrows)
    px = 4 * MB_SIZE
    view = pool_mod._VIEWS["sf0"]
    lo = px * row0
    hi = px * (row0 + nrows)
    stop = min(hi + px, view.shape[0])
    view[lo:hi, :] = band
    view[hi:stop, :] = band[: stop - hi, :]
    return None, t0, time.perf_counter(), ()


class TestIntBandConfinement:
    def test_static_twin_agrees(self):
        # The mutant fails REP203: the extended write's upper bound is
        # not provably inside the (row0, nrows) band.
        from repro.sanitizers.runner import analyze

        src = textwrap.dedent(inspect.getsource(_overlapping_int_task))
        violations, errors = analyze(
            src, "src/repro/exec/mutant.py", rules=["REP203"]
        )
        assert not errors
        assert any(v.rule == "REP203" for v in violations)

    def test_clean_int_task_source_passes(self):
        from repro.sanitizers.runner import analyze

        src = textwrap.dedent(inspect.getsource(pool_mod.int_task))
        violations, errors = analyze(
            src, "src/repro/exec/pool.py", rules=["REP203"]
        )
        assert not errors
        assert not violations, [str(v) for v in violations]


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
