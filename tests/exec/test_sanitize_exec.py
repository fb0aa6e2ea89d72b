"""SAN-F: the shared-memory access journal and its sanitizer.

The static layer (REP201-REP204) proves the *shape* of the process
backend is race-free; SAN-F verifies the *actual interleavings*: under
``$REPRO_SANITIZE`` every worker task journals the byte-row intervals it read
and wrote (built from the same bounds the accesses use), and
``TimelineSanitizer.check_exec`` proves concurrent writes are pairwise
disjoint and every read is covered by strictly-earlier-phase writes.

The overlapping-band mutant at the bottom is the agreement test: the
same seeded bug is caught dynamically (SAN-F1, from the journal of a
real run) and statically (REP203, from the mutant's own source).
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
from repro.exec.shm import PHASE_P1
from repro.hw.presets import get_platform
from repro.sanitizers import TimelineSanitizer
from repro.sanitizers.violations import ScheduleViolationError
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


def encode_sanitized(frames, workers, monkeypatch, **fw_kwargs):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    fw = FevesFramework(
        get_platform("SysHK"),
        CFG,
        FrameworkConfig(
            backend="process", exec_workers=workers,
            **fw_kwargs,
        ),
    )
    with fw:
        out = fw.encode(frames)
    return out, dict(fw.manager.exec_journal)


def assert_identical(ref_out, fev_out):
    import numpy as np

    for r, o in zip(ref_out, fev_out, strict=True):
        assert o.encoded is not None
        assert r.bits == o.encoded.bits, f"frame {r.index}: bits differ"
        np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)


# ---------------------------------------------------------------------------
# clean runs: journal populated, sanitizer clean, output still bit-exact


class TestSanFClean:
    @pytest.mark.usefixtures("checked_me_fields", "checked_sme_fields")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_at_worker_counts(self, frames, reference, workers,
                                    monkeypatch):
        out, journal = encode_sanitized(frames, workers, monkeypatch)
        assert_identical(reference, out)
        # Frame 0 is intra (no parallel phase); every inter frame must
        # have journaled its staging, phase-1 and phase-2 accesses.
        assert sorted(journal) == list(range(1, N_FRAMES))
        for frame, entries in sorted(journal.items()):
            assert entries, f"frame {frame} journaled nothing"
            assert {e.kind for e in entries} == {"r", "w"}
            TimelineSanitizer.check_exec(entries, frame=frame).raise_if_dirty()

    def test_journal_off_by_default(self, frames, monkeypatch):
        # Neutralize a strict-mode suite run: off means env unset too.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        fw = FevesFramework(
            get_platform("SysHK"),
            CFG,
            FrameworkConfig(
                backend="process", exec_workers=2,
            ),
        )
        with fw:
            fw.encode(frames)
        assert fw.manager.exec_journal == {}


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
    entries = pool_mod._journal(
        f"int rows {row0}+{nrows}", PHASE_P1,
        [("ref0", 0, pool_mod._VIEWS["ref0"].shape[0], "r"),
         ("sf0", lo, stop, "w")],
    )
    return None, t0, time.perf_counter(), entries


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mutant injection relies on fork inheriting the patched module",
)


class TestSanFCatchesMutant:
    @needs_fork
    def test_dynamic_overlap_is_caught(self, frames, monkeypatch):
        # Patch before the pool exists: forked workers inherit the
        # mutant, and submit_int picks it up via the module global.
        monkeypatch.setenv(pool_mod.START_METHOD_ENV, "fork")
        monkeypatch.setattr(pool_mod, "int_task", _overlapping_int_task)
        try:
            _, journal = encode_sanitized(frames, 4, monkeypatch)
        except ScheduleViolationError as exc:
            # Under REPRO_SANITIZE=strict the autouse fixture checks the
            # journal per frame and flags the overlap before we can.
            assert any(v.rule == "SAN-F1" for v in exc.violations)
            return
        hits = []
        for frame, entries in sorted(journal.items()):
            report = TimelineSanitizer.check_exec(entries, frame=frame)
            hits += [v for v in report.violations if v.rule == "SAN-F1"]
        assert hits, "overlapping writes escaped the sanitizer"
        assert all(v.where == "sf0" for v in hits)

    def test_static_twin_agrees(self):
        # The *same* mutant source fails REP203: the extended write's
        # upper bound is not provably inside the (row0, nrows) band.
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
