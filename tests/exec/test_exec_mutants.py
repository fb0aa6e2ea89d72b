"""Bugs put into the process backend's real methods die on plain tests.

Four static rules once guarded the process backend: REP103 (every
segment released on every path), REP202 (tasks carry coordinates, not
bulk data), REP203 (a worker writes only its band; no host write while
work is out) and REP204 (staging → τ1 → SME order). Each of their hoisted
mutants is put here into the real method it guards — ``SharedFrameStore.
__init__``/``close``, ``ProcessBackend._ensure_started``/``run_frame``,
``pool.int_task`` — and a plain test of ``test_sanitize_exec.py`` kills
it. The rules saw few of them: REP103 none, REP202 none, REP203 and REP204
only the ``run_frame`` ones (EXPERIMENTS.md "The process backend's static
rules, transplanted" has the table). They were removed on this evidence.

REP201 (fork safety) went the same way. Its five hoisted mutants go into
``pool.py`` as modules of their own, which a spawned worker imports by
name too, and at ``fork`` and ``spawn`` alike the plain checks of
``test_fork_safety.py`` kill the module-level lock and the worker loop
that waits on an event; the other three are equivalent, and
:data:`REP201_TRANSPLANTS` says why.

Two INT chunking mutants, installed on the host, fail the partition
test — the overlap one while the output stays bit-identical, so nothing
else sees it. ME and SME chunks need no such mutant: their bands are
stitched by ``merge``, which refuses a gap or an overlap.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import test_fork_safety as fork_safety
import test_sanitize_exec as exec_tests
from repro.exec import pool as pool_mod
from repro.exec.backend import ProcessBackend
from repro.exec.shm import SharedFrameStore

# The clip and its serial encoding, shared with the plain tests.
frames = exec_tests.frames
reference = exec_tests.reference

BACKEND = inspect.getsource(ProcessBackend)
STAGE_CUR = '            store.view("cur")[:] = ctx.cur.y\n'
P1_COLLECT = "            p1_results = self._collect(p1_futs)\n"
SF0_READ = '            ctx.sf_new = np.array(store.view("sf0"), copy=True)\n'
SME_COLLECT = "            sme_results = self._collect(sme_futs)\n"


def moved(line: str, anchor: str) -> tuple[str, str]:
    """``(old, new)`` of ``run_frame``'s source: ``line`` cut out and
    pasted right before ``anchor``."""
    i, j = BACKEND.index(line), BACKEND.index(anchor)
    if i < j:
        old = BACKEND[i:j + len(anchor)]
        return old, old[len(line):-len(anchor)] + line + anchor
    old = BACKEND[j:i + len(line)]
    return old, line + anchor + old[len(anchor):-len(line)]


def sme_before_tau1() -> tuple[str, str]:
    """Phase 1 waits for its ME rows only; the INT rows are collected
    after the SME rows are submitted (so SME may read a half-written SF)."""
    old = BACKEND[BACKEND.index(P1_COLLECT):BACKEND.index(SME_COLLECT) + len(SME_COLLECT)]
    me_only = (
        "            p1_results = [\n"
        '                fut.result() if row.module == "me" else (None, 0.0, 0.0, ())\n'
        "                for row, fut in zip(plan.phase1, p1_futs)\n"
        "            ]\n"
    )
    return old, old.replace(P1_COLLECT, me_only).replace(
        SME_COLLECT, P1_COLLECT + SME_COLLECT
    )


def order(monkeypatch, frames):
    calls = exec_tests.record_host_calls(monkeypatch)
    exec_tests.encode(frames, 2)
    exec_tests.assert_ordered(calls)


def payload(monkeypatch, frames):
    exec_tests.check_payloads(monkeypatch)
    exec_tests.encode(frames, 2)


#: Plain check -> (how it runs, what its failure says).
CHECKS = {
    "order": (order, "after the first submit|before the τ1 barrier"),
    "payload": (payload, "carries"),
    "band": (
        lambda monkeypatch, frames:
            exec_tests.assert_int_task_writes_only_its_band(monkeypatch),
        "Arrays are not equal",
    ),
    "store failure": (
        lambda monkeypatch, frames:
            exec_tests.assert_store_failure_leaves_no_segment(monkeypatch),
        "segments left behind",
    ),
    "pool failure": (
        lambda monkeypatch, frames:
            exec_tests.assert_pool_failure_leaves_no_segment(monkeypatch),
        "segments left behind",
    ),
    "store close": (
        lambda monkeypatch, frames:
            exec_tests.assert_store_close_unlinks(monkeypatch),
        "segments left behind",
    ),
}


BAND_WRITE = '    _VIEWS["sf0"][lo:hi, :] = band\n'
STORE_ACQUIRE = """\
        try:
            for spec in slot_specs(cfg):
                seg = shared_memory.SharedMemory(create=True, size=spec.nbytes)
                self._segments[spec.key] = seg
                self._shapes[spec.key] = spec.shape
        except BaseException:
            self.close()
            raise
"""
STORE_ACQUIRE_BARE = """\
        for spec in slot_specs(cfg):
            seg = shared_memory.SharedMemory(create=True, size=spec.nbytes)
            self._segments[spec.key] = seg
            self._shapes[spec.key] = spec.shape
"""
POOL_START = """\
                try:
                    pool = KernelPool(self.workers, store.layout(), self.codec_cfg)
                except BaseException:
                    store.close()
                    raise
"""

#: Transplant -> (rules whose hoisted mutant it is, (owner, function),
#: (old, new) source edit, the plain check of :data:`CHECKS` that kills it).
TRANSPLANTS = {
    "store_init_without_cleanup": (
        "REP103", (SharedFrameStore, "__init__"),
        (STORE_ACQUIRE, STORE_ACQUIRE_BARE),
        "store failure",
    ),
    "close_without_unlink": (
        "REP103", (SharedFrameStore, "close"),
        ("seg.close()\n                seg.unlink()", "seg.close()"),
        "store close",
    ),
    "close_releases_nothing": (
        "REP103", (SharedFrameStore, "close"),
        ("seg.close()\n                seg.unlink()", "pass"),
        "store close",
    ),
    "ensure_started_without_store_close": (
        "REP103", (ProcessBackend, "_ensure_started"),
        (POOL_START, "                pool = KernelPool(self.workers, "
                     "store.layout(), self.codec_cfg)\n"),
        "pool failure",
    ),
    "sme_carries_the_whole_field": (
        "REP202", (ProcessBackend, "run_frame"),
        ("ctx.me_field.slice_rows(row0, nrows)", "ctx.me_field"),
        "payload",
    ),
    "me_carries_the_reference_planes": (
        "REP202", (ProcessBackend, "run_frame"),
        ("pool.submit_me(row0, nrows, n_refs, row.slot)",
         "pool.submit_me(row0, nrows, ctx.refs_y[:n_refs], row.slot)"),
        "payload",
    ),
    "int_writes_past_its_band": (
        "REP203", (pool_mod, "int_task"),
        (BAND_WRITE, BAND_WRITE + '    _VIEWS["sf0"][hi:hi + px, :] = band[-1]\n'),
        "band",
    ),
    "int_clears_the_whole_plane": (
        "REP203", (pool_mod, "int_task"),
        (BAND_WRITE, '    _VIEWS["sf0"][:, :] = 0\n' + BAND_WRITE),
        "band",
    ),
    "cur_staged_after_phase1_submits": (
        "REP203 REP204", (ProcessBackend, "run_frame"),
        moved(STAGE_CUR, P1_COLLECT),
        "order",
    ),
    "sme_submitted_before_tau1": (
        "REP204", (ProcessBackend, "run_frame"),
        sme_before_tau1(),
        "order",
    ),
    "sf0_read_before_tau1": (
        "REP204", (ProcessBackend, "run_frame"),
        moved(SF0_READ, P1_COLLECT),
        "order",
    ),
}


@pytest.fixture
def install(transplant, mutant):
    """Put one of :data:`TRANSPLANTS` into the code the backend runs."""

    def put(name: str) -> None:
        _rules, (owner, function), (old, new), _killer = TRANSPLANTS[name]
        if isinstance(owner, type):
            transplant(owner, function, old, new)
        else:
            mutant(owner, function, lambda source: source.replace(old, new))

    return put


class TestTransplantsDie:
    @pytest.mark.parametrize("name", list(TRANSPLANTS))
    def test_plain_check_kills_it(self, install, monkeypatch, frames, name):
        check, match = CHECKS[TRANSPLANTS[name][3]]
        install(name)
        with pytest.raises(AssertionError, match=match):
            check(monkeypatch, frames)

    def test_table_names_every_transplant(self):
        experiments = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
        text = experiments.read_text(encoding="utf-8")
        for name in [*TRANSPLANTS, *REP201_TRANSPLANTS]:
            assert f"`{name}`" in text, name


#: Where REP201's hoisted mutants go in ``pool.py``: (anchor, what goes
#: right after it, the check of ``test_fork_safety.py`` that kills it or,
#: where no run can tell the difference, why the transplant is equivalent).
REP201_TRANSPLANTS = {
    "module_level_lock": (
        'T = TypeVar("T")\n', "_LOCK = threading.Lock()\n", "module state",
    ),
    "attach_starts_a_thread": (
        "    global _CFG\n", "    threading.Thread(target=_cfg).start()\n",
        "equivalent: a worker never forks, so its threads are copied "
        "nowhere, and this one ends by itself at once (`_cfg` raises or "
        "returns); the thread probe sees it alive in 16 of 20 fork runs "
        "and 0 of 20 spawn runs, so it is no reliable killer",
    ),
    "lock_before_the_fork": (
        "        self._closed = False\n", "        lock = threading.Lock()\n",
        "equivalent: an unheld local lock that nobody shares; a forked "
        "worker's copy is unreachable",
    ),
    "worker_loop_takes_a_lock": (
        "    _attach_worker(layout, cfg, cpu)\n", "    lock = threading.Lock()\n",
        "equivalent: an unheld local lock in the worker, never acquired",
    ),
    "worker_loop_waits_on_an_event": (
        "    _attach_worker(layout, cfg, cpu)\n", "    threading.Event().wait()\n",
        "worker threads",
    ),
}

#: The checks of ``test_fork_safety.py`` -> (how it runs, its failure).
FORK_CHECKS = {
    "module state": (fork_safety.assert_no_module_state, "module state in worker"),
    "worker threads": (
        fork_safety.assert_one_thread_per_worker, "did not answer a probe",
    ),
}


def rep201_transplanted(name: str) -> str:
    """``pool.py``'s source with one of :data:`REP201_TRANSPLANTS` in it."""
    anchor, line, _verdict = REP201_TRANSPLANTS[name]
    source = inspect.getsource(pool_mod)
    assert source.count(anchor) == 1 and source.count("import os\n") == 1
    return source.replace(anchor, anchor + line).replace(
        "import os\n", "import os\nimport threading\n"
    )


@pytest.fixture
def transplanted_pool(tmp_path, monkeypatch):
    """``load(name)``: ``pool.py`` with one REP201 transplant, as a module
    a spawned worker imports by name too."""
    loaded = []

    def load(name: str):
        module = f"pool_{name}"
        (tmp_path / f"{module}.py").write_text(rep201_transplanted(name))
        monkeypatch.syspath_prepend(str(tmp_path))
        loaded.append(module)
        return importlib.import_module(module)

    yield load
    for module in loaded:
        sys.modules.pop(module, None)


class TestRep201Transplants:
    @pytest.mark.parametrize("name", [
        name for name, (*_, verdict) in REP201_TRANSPLANTS.items()
        if verdict in FORK_CHECKS
    ])
    def test_plain_check_kills_it(self, transplanted_pool, start_method, name):
        check, match = FORK_CHECKS[REP201_TRANSPLANTS[name][2]]
        with pytest.raises(AssertionError, match=match):
            check(transplanted_pool(name))

    def test_every_transplant_is_killed_or_equivalent(self):
        for name, (*_, verdict) in REP201_TRANSPLANTS.items():
            assert verdict in FORK_CHECKS or verdict.startswith("equivalent: "), name


#: Where the pool submits a plan's INT row.
SUBMIT_INT = "pool.submit_int(row0, nrows, row.slot)"

#: Chunking mutant -> (INT submit it installs, output still bit-identical).
CHUNKING = {
    # Every chunk but the frame's first starts one MB row early.
    "int_chunks_overlap": (
        "pool.submit_int(max(row0 - 1, 0), nrows + (row0 > 0), row.slot)", True,
    ),
    # Every chunk of two or more MB rows leaves its last row unwritten.
    "int_chunks_gap": (
        "pool.submit_int(row0, nrows - (nrows > 1), row.slot)", False,
    ),
}


@pytest.mark.parametrize("name", list(CHUNKING))
def test_chunk_mutant_fails_partition(transplant, monkeypatch, frames,
                                      reference, name):
    submit, identical = CHUNKING[name]
    transplant(ProcessBackend, "run_frame", SUBMIT_INT, submit)
    calls = exec_tests.record_host_calls(monkeypatch)
    out = exec_tests.encode(frames, 4)
    with pytest.raises(AssertionError, match="int chunks"):
        exec_tests.assert_partitions(calls)
    if identical:
        exec_tests.assert_identical(reference, out)
    else:
        with pytest.raises(AssertionError):
            exec_tests.assert_identical(reference, out)
