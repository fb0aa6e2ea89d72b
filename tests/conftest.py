"""Shared fixtures for the test suite."""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.frames import YuvFrame
from repro.video.generator import SyntheticSequence


@pytest.fixture(autouse=True)
def _schedule_sanitizer(monkeypatch):
    """The runtime checks, on every test (opt-in via env var).

    With ``REPRO_SANITIZE=1`` (or ``strict``; see
    :func:`sanitize_from_env` for the spellings) in the environment,
    every :meth:`Cluster.run` gets its segment audit (SAN-E) and each
    test's lifecycle journal is replayed at teardown (SAN-G); the first
    violation fails the test. The runtime only journals, so raising is
    this fixture's job. Unset, this fixture is a no-op, so the plain
    tier-1 run is unaffected.
    """
    from repro.util.journal import JOURNAL, sanitize_from_env

    if not sanitize_from_env():
        yield
        return

    from repro.cluster import Cluster
    from repro.sanitizers import check_cluster, check_protocols

    cluster_original = Cluster.run

    def cluster_sanitized(self, workload):
        metrics = cluster_original(self, workload)
        check_cluster(self).raise_if_dirty()
        return metrics

    cluster_sanitized.__wrapped__ = cluster_original  # the unaudited run
    monkeypatch.setattr(Cluster, "run", cluster_sanitized)

    # SAN-G: the env var switches the lifecycle journal on; replay each
    # test's journal against the protocol specs at teardown. The reset
    # keeps one test's objects from leaking obligations into the next.
    JOURNAL.reset()
    yield
    check_protocols().raise_if_dirty()


@pytest.fixture
def journal(monkeypatch):
    """Switch the lifecycle journal on for one test, dropped at exit
    (the variable is restored first: the last reset reads it)."""
    from repro.util.journal import JOURNAL

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    JOURNAL.reset()
    yield JOURNAL
    monkeypatch.undo()
    JOURNAL.reset()


@pytest.fixture
def small_cfg() -> CodecConfig:
    """A fast codec configuration for real-compute tests."""
    return CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)


@pytest.fixture
def tiny_cfg() -> CodecConfig:
    """The smallest sensible configuration (single-MB-row edge cases)."""
    return CodecConfig(width=64, height=48, search_range=4, num_ref_frames=1)


@pytest.fixture
def small_sequence(small_cfg) -> list[YuvFrame]:
    seq = SyntheticSequence(
        width=small_cfg.width, height=small_cfg.height, seed=11, noise_sigma=1.5
    )
    return seq.frames(5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def random_frame(rng: np.random.Generator, width: int, height: int) -> YuvFrame:
    """Uniform-noise frame (worst case for prediction, good for coverage)."""
    return YuvFrame(
        y=rng.integers(0, 256, (height, width), dtype=np.uint8),
        u=rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
        v=rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
    )


@pytest.fixture
def mutant(monkeypatch):
    """Install a seeded mutant: ``mutant(module, name, edit)`` swaps
    ``module.name`` for the function its source defines after ``edit``
    (``str -> str``, which asserts that what it edits is still there), so a
    kernel needs no seam for the test that shows its property kills one."""

    def install(module, name: str, edit) -> None:
        source = inspect.getsource(getattr(module, name))
        mutated = edit(source)
        assert mutated != source
        namespace: dict = {}
        exec(mutated, vars(module), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return install


@pytest.fixture
def transplant(mutant, monkeypatch):
    """``transplant(cls, method, old, new)``: ``cls.method`` with ``old``
    replaced by ``new``, seen by every module that imported ``cls``."""

    def install(cls, method: str, old: str, new: str) -> None:
        module = sys.modules[cls.__module__]
        mutant(module, cls.__name__, lambda source: source.replace(old, new))
        mutated = getattr(module, cls.__name__)
        monkeypatch.setattr(module, cls.__name__, cls)
        monkeypatch.setattr(cls, method, mutated.__dict__[method])

    return install


@pytest.fixture
def transfer_plans():
    """``watch(fw)``: from then on, ``watch(fw)[i]`` is the transfer plan
    inter frame ``i`` ran with, as ``fw``'s Data Access Manager built it.

    A frame that repeats the last plan's inputs reuses that plan rather
    than building one, so frame ``i``'s plan is the last one built at or
    before it. Reports keep only the plan's byte totals.
    """

    class Watched:
        def __init__(self, fw) -> None:
            self.built: list = []  # (inter frame index, TransferPlan)
            plan = fw.dam.plan

            def recording(*args, **kwargs):
                out = plan(*args, **kwargs)
                self.built.append((fw._inter_frames_done, out))
                return out

            fw.dam.plan = recording

        def __getitem__(self, frame_index: int):
            return next(p for f, p in reversed(self.built) if f <= frame_index)

    return Watched
