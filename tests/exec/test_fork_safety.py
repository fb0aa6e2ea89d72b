"""Fork safety of the process backend, held by plain tests.

A kernel worker is forked from the host or spawned fresh, and either way
it imports or inherits the modules the pool can run. A lock, thread,
event or open file such a module holds at import is copied into every
forked worker (a lock copied while some host thread held it never opens
there), and a worker that runs a second thread, or blocks before it
serves its pipe, is not the one-task-at-a-time worker ``KernelPool``
assumes. Two tests hold that, each at ``fork`` and at ``spawn``:

* **module state**: after import, no module of ``repro.exec``,
  ``repro.hw`` or ``repro.service`` holds a lock, thread, event or open
  file at module level, in the host or in a worker;
* **worker threads**: a probe sent to every worker through
  ``KernelPool._submit`` answers within :data:`PROBE_TIMEOUT_S` and finds
  one thread there.

``test_exec_mutants.py`` puts the static rule REP201's hoisted mutants
into ``pool.py`` and shows which of these kills each of them.
"""

from __future__ import annotations

import importlib
import io
import pkgutil
import sys
import threading
from types import ModuleType

import pytest

from repro.codec.config import CodecConfig
from repro.exec import pool as pool_mod
from repro.exec.shm import SharedFrameStore

pytestmark = pytest.mark.timeout_guarded

#: The packages whose modules a kernel worker can run.
SCOPE = ("repro.exec", "repro.hw", "repro.service")

#: What no module may hold at module level.
HAZARDS = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
    threading.Semaphore,
    threading.Event,
    threading.Thread,
    io.IOBase,
)

#: How long a worker gets to answer a probe, spawn start-up included
#: (≈ 0.5 s on a 2-core host).
PROBE_TIMEOUT_S = 10.0

CFG = CodecConfig(width=64, height=48, search_range=4)


def module_state(names: tuple[str, ...]) -> list[str]:
    """``module.attr (type)`` of every hazard held at module level by an
    imported module named in ``names`` or under one of them."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not any(
            name == n or name.startswith(n + ".") for n in names
        ):
            continue
        for attr, value in sorted(vars(module).items()):
            if isinstance(value, HAZARDS):
                found.append(f"{name}.{attr} ({type(value).__name__})")
    return found


def _probe(names: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """Runs in a worker: its threads' names and its module state."""
    return [t.name for t in threading.enumerate()], module_state(names)


def probe_workers(pool_module: ModuleType, workers: int = 2):
    """Every worker's :func:`_probe` answer, from a pool built by
    ``pool_module`` (``repro.exec.pool`` or a transplanted copy)."""
    names = (*SCOPE, pool_module.__name__)
    with SharedFrameStore(CFG) as store, pool_module.KernelPool(
        workers, store.layout(), CFG
    ) as pool:
        handles = [pool._submit(k, "probe", _probe, names) for k in range(workers)]
        answers = []
        for handle in handles:
            try:
                answers.append(handle.result(timeout=PROBE_TIMEOUT_S))
            except TimeoutError:
                raise AssertionError(
                    f"worker {handle.worker} did not answer a probe within "
                    f"{PROBE_TIMEOUT_S} s"
                ) from None
    return answers


def assert_no_module_state(pool_module: ModuleType) -> None:
    for pkg in SCOPE:
        for info in pkgutil.walk_packages(
            importlib.import_module(pkg).__path__, pkg + "."
        ):
            importlib.import_module(info.name)
    for k, (_threads, state) in enumerate(probe_workers(pool_module)):
        assert state == [], f"module state in worker {k}"
    assert module_state((*SCOPE, pool_module.__name__)) == [], (
        "module state in the host"
    )


def assert_one_thread_per_worker(pool_module: ModuleType) -> None:
    for k, (threads, _state) in enumerate(probe_workers(pool_module)):
        assert len(threads) == 1, f"worker {k} runs threads {threads}"


def test_no_module_holds_a_lock_thread_event_or_file(start_method):
    assert_no_module_state(pool_mod)


def test_every_worker_answers_a_probe_on_one_thread(start_method):
    assert_one_thread_per_worker(pool_mod)
