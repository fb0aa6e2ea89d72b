"""Layer-4 concurrency lint: REP201's seeded mutants vs clean twins.

Each mutant must be caught and its clean twin (the same shape, correctly
placed) must pass. Snippets are analyzed under an ``exec/``-scoped
display path so the rule actually runs; the clean gate at the bottom
proves the real ``src/repro`` code passes with an empty baseline.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.sanitizers.runner import RULES, analyze, rules_in_scope, run_lint

CONCURRENCY_RULES = [r for r in RULES if r.startswith("REP2")]

REPO = Path(__file__).resolve().parents[2]
EXEC_PATH = "src/repro/exec/fake_module.py"

# Seeded mutants as (display path, source); test_kill_matrix.py runs each
# of them under every rule in the table.
MUTANTS = {
    "rep201_module_level_lock": (EXEC_PATH, """\
import threading

_LOCK = threading.Lock()
"""),
    "rep201_initializer_reaches_thread": (EXEC_PATH, """\
import threading
from concurrent.futures import ProcessPoolExecutor

def _helper():
    t = threading.Thread(target=print)
    t.start()

def _attach_worker(layout):
    _helper()

def build_pool():
    return ProcessPoolExecutor(
        max_workers=2, initializer=_attach_worker
    )
"""),
    "rep201_lock_before_fork": (EXEC_PATH, """\
import threading
from concurrent.futures import ProcessPoolExecutor

def _attach_worker(layout):
    pass

def build_pool():
    lock = threading.Lock()
    return ProcessPoolExecutor(
        max_workers=2, initializer=_attach_worker
    )
"""),
    "rep201_process_target_reaches_lock": (EXEC_PATH, """\
import multiprocessing
import threading

def _attach_worker(layout):
    lock = threading.Lock()

def _worker_loop(conn, layout):
    _attach_worker(layout)
    while True:
        conn.send(conn.recv())

def build_pool(layout):
    host_end, worker_end = multiprocessing.Pipe()
    return multiprocessing.Process(
        target=_worker_loop, args=(worker_end, layout)
    )
"""),
}


def rules_for_path(path: str) -> list[str]:
    return rules_in_scope(path, CONCURRENCY_RULES)


def run(source: str, *, only=None, path: str = EXEC_PATH):
    """The concurrency rules in scope for ``path``, or just ``only``."""
    violations, errors = analyze(
        textwrap.dedent(source), path, rules=only or rules_for_path(path)
    )
    assert not errors, errors
    return violations


def rules_hit(source: str, **kw) -> list[str]:
    return [v.rule for v in run(source, **kw)]


def mutant_hits(name: str, **kw) -> list[str]:
    path, source = MUTANTS[name]
    return rules_hit(source, path=path, **kw)


# ---------------------------------------------------------------------------
# REP201 — fork safety


class TestForkSafety:
    def test_module_level_lock_is_flagged(self):
        assert "REP201" in mutant_hits("rep201_module_level_lock")

    def test_initializer_reachable_thread_is_flagged(self):
        # The Thread lives two calls away from the initializer; only the
        # interprocedural call graph can see it.
        assert "REP201" in mutant_hits("rep201_initializer_reaches_thread")

    def test_lock_in_unreachable_helper_is_clean(self):
        assert not rules_hit(
            """\
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def _attach_worker(layout):
                pass

            def unrelated_host_side():
                lock = threading.Lock()
                with lock:
                    pass

            def build_pool():
                return ProcessPoolExecutor(
                    max_workers=2, initializer=_attach_worker
                )
            """,
            only=["REP201"],
        )

    def test_lock_created_before_fork_is_flagged(self):
        assert "REP201" in mutant_hits("rep201_lock_before_fork")

    def test_lock_created_after_pool_is_clean(self):
        assert not rules_hit(
            """\
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def _attach_worker(layout):
                pass

            def build_pool():
                pool = ProcessPoolExecutor(
                    max_workers=2, initializer=_attach_worker
                )
                lock = threading.Lock()
                return pool
            """,
            only=["REP201"],
        )


    def test_process_target_reachable_lock_is_flagged(self):
        # ``Process(target=...)`` is a root like ``initializer=``: the
        # Lock is one call below the worker loop.
        assert "REP201" in mutant_hits("rep201_process_target_reaches_lock")

    def test_process_target_that_only_serves_its_pipe_is_clean(self):
        assert not rules_hit(
            """\
            import multiprocessing

            def _attach_worker(layout):
                pass

            def _worker_loop(conn, layout):
                _attach_worker(layout)
                while True:
                    conn.send(conn.recv())

            def build_pool(layout):
                host_end, worker_end = multiprocessing.Pipe()
                return multiprocessing.Process(
                    target=_worker_loop, args=(worker_end, layout)
                )
            """,
            only=["REP201"],
        )

    WAITING_TARGET = """\
        {imports}

        def _worker_loop(conn, host):
            while conn in {call}([conn, host.sentinel]):
                conn.send(conn.recv())

        def build_pool(conn, host):
            return multiprocessing.Process(target=_worker_loop, args=(conn, host))
        """

    @pytest.mark.parametrize("imports, call", [
        ("import multiprocessing\n        from multiprocessing.connection import wait", "wait"),
        ("import multiprocessing\n        from multiprocessing import connection", "connection.wait"),
        ("import multiprocessing\n        import multiprocessing.connection as mpc", "mpc.wait"),
        ("import multiprocessing.connection", "multiprocessing.connection.wait"),
    ])
    def test_a_select_over_own_descriptors_is_clean(self, imports, call):
        # ``multiprocessing.connection.wait`` waits on no lock fork copied,
        # however the module names it.
        source = self.WAITING_TARGET.format(imports=imports, call=call)
        assert not rules_hit(source, only=["REP201"])

    @pytest.mark.parametrize("imports, call", [
        ("import multiprocessing\n        import threading", "threading.Event().wait"),
        ("import multiprocessing\n        from threading import Event", "Event().wait"),
        ("import multiprocessing\n        from somewhere import wait", "wait"),
    ])
    def test_any_other_wait_is_flagged(self, imports, call):
        source = self.WAITING_TARGET.format(imports=imports, call=call)
        assert "REP201" in rules_hit(source, only=["REP201"])


# ---------------------------------------------------------------------------
# shared machinery: scoping, noqa, cross-module graph, clean gate


class TestMachinery:
    def test_scoping(self):
        assert rules_for_path("src/repro/exec/pool.py") == ["REP201"]
        assert rules_for_path("src/repro/hw/devices.py") == ["REP201"]
        assert rules_for_path("src/repro/core/scheduler.py") == []

    def test_noqa_suppresses(self):
        src = """\
            import threading

            _LOCK = threading.Lock()  # noqa: REP201
            """
        assert not rules_hit(src, only=["REP201"])

    def test_cross_module_call_graph(self, tmp_path):
        # The initializer lives in a.py, the hazard it reaches in b.py:
        # only the graph spanning both modules connects them.
        pkg = tmp_path / "src" / "repro" / "exec"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(textwrap.dedent(
            """\
            from concurrent.futures import ProcessPoolExecutor
            from b import shared_helper

            def _attach_worker(layout):
                shared_helper()

            def build_pool():
                return ProcessPoolExecutor(
                    max_workers=2, initializer=_attach_worker
                )
            """
        ))
        (pkg / "b.py").write_text(textwrap.dedent(
            """\
            import threading

            def shared_helper():
                t = threading.Thread(target=print)
                t.start()
            """
        ))
        violations, errors = run_lint([tmp_path], CONCURRENCY_RULES)
        assert not errors
        assert any(
            v.rule == "REP201" and v.path.endswith("b.py")
            for v in violations
        )

    def test_crash_free_over_the_repo(self):
        # Every rule must run to completion on every module we ship —
        # forced out of scope so e.g. hw/ code meets the exec/ rules.
        for root in (REPO / "src", REPO / "tests"):
            for path in sorted(root.rglob("*.py")):
                _, errors = analyze(
                    path.read_text(), str(path), rules=CONCURRENCY_RULES
                )
                assert not errors, (path, errors)

    def test_src_tree_is_clean(self):
        violations, errors = run_lint([REPO / "src"], CONCURRENCY_RULES)
        assert not errors, errors
        assert not violations, [str(v) for v in violations]
