"""Shared guards for the process-backend tests.

A deadlocked worker pool (a worker that never attaches, a lost task, a
barrier that never fills) would otherwise hang the whole suite, so every
test in this package runs under a hard wall-clock alarm. The repo
deliberately has no pytest-timeout dependency; ``SIGALRM`` gives the
same fail-fast behavior on POSIX, and on platforms without it the guard
degrades to a no-op (the backend's own per-task timeout still applies,
see ``ProcessBackend.task_timeout_s``).
"""

from __future__ import annotations

import multiprocessing
import signal
from collections.abc import Iterator

import pytest

from repro.codec.me import MotionField
from repro.codec.sme import SubpelField
from repro.exec.pool import START_METHOD_ENV

#: Hard per-test wall-clock ceiling. Generous: the slowest test here
#: encodes a few 128x96 frames per worker count, well under a minute
#: even on a loaded single-core CI runner.
GUARD_S = 300


@pytest.fixture(autouse=True)
def _wallclock_guard() -> Iterator[None]:
    sigalrm = getattr(signal, "SIGALRM", None)
    if sigalrm is None:  # non-POSIX: rely on the backend task timeout
        yield
        return

    def _fire(signum: int, frame: object) -> None:
        raise RuntimeError(
            f"test exceeded the {GUARD_S}s wall-clock guard "
            "(deadlocked worker pool?)"
        )

    previous = signal.signal(sigalrm, _fire)
    signal.alarm(GUARD_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(sigalrm, previous)


def _check_every_merge(
    monkeypatch: pytest.MonkeyPatch, field_cls: type
) -> list[object]:
    """Self-check every band ``field_cls.merge`` receives and what it returns."""
    merge = field_cls.merge
    stitched: list[object] = []

    def checked_merge(parts):
        for part in parts:
            part.check_consistent()
        field = merge(parts)
        field.check_consistent()
        stitched.append(field)
        return field

    monkeypatch.setattr(field_cls, "merge", staticmethod(checked_merge))
    return stitched


@pytest.fixture
def checked_me_fields(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """Self-check every ME field the backend handles in a bit-identity test.

    Each band a worker pickles back, and the field the host stitches from
    them, must pass :meth:`MotionField.check_consistent` — shapes *and*
    the public dtypes (``sads`` int64, ``mvs``/``refs`` int32) — so a
    narrow kernel-internal dtype cannot reach SME or the bitstream.
    """
    stitched = _check_every_merge(monkeypatch, MotionField)
    yield
    assert stitched, "no ME band went through MotionField.merge"


@pytest.fixture
def checked_sme_fields(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """The SME twin of :func:`checked_me_fields`.

    Every worker-returned band and the stitched field must pass
    :meth:`SubpelField.check_consistent` (``sads`` int64, ``qmvs``/``refs``
    int32), so the kernel's uint16 costs cannot reach MC or the bitstream.
    """
    stitched = _check_every_merge(monkeypatch, SubpelField)
    yield
    assert stitched, "no SME band went through SubpelField.merge"


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch: pytest.MonkeyPatch) -> str:
    """The kernel pool's start method, set the way a user sets it."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform has no {request.param} start method")
    monkeypatch.setenv(START_METHOD_ENV, request.param)
    return request.param
