"""The event journal: one switch, read on reset; off is off.

Off, a 200-frame model run journals nothing and never asks the
environment; the load balancer hands its live set over unformatted. On,
a set detail is formatted and a span lands in the host clock domain.
"""

import pytest

from repro.codec.config import CodecConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.util import journal
from repro.util.journal import HOST_CLOCK, JOURNAL, OBJECT_CLOCK, record, span

CFG = CodecConfig(width=1920, height=1088, search_range=16)


@pytest.fixture
def journal_off(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    JOURNAL.reset()
    assert not JOURNAL.on
    yield JOURNAL
    monkeypatch.undo()
    JOURNAL.reset()


def test_off_run_journals_nothing_and_never_reads_the_env(
    journal_off, monkeypatch
):
    def env_read():
        raise AssertionError("the environment was read on a record")

    monkeypatch.setattr(journal, "sanitize_from_env", env_read)
    fw = FevesFramework(get_platform("SysNFF"), CFG)
    fw.run_model(200)
    assert len(fw.reports) == 200
    assert len(journal_off) == 0 and not journal_off._keep


def test_solve_hands_the_journal_its_live_set(journal_off, monkeypatch):
    import repro.core.load_balancing as lb

    details = []
    monkeypatch.setattr(
        lb, "_journal", lambda obj, event, clock=0.0, detail="": details.append(detail)
    )
    FevesFramework(get_platform("SysNFF"), CFG).run_model(5)
    assert details and all(isinstance(d, frozenset) for d in details)


def test_off_span_is_one_shared_null_context(journal_off):
    assert span(object(), "a") is span(object(), "b")


def test_on_formats_sets_and_times_spans():
    owner = object()
    JOURNAL.reset(on=True)
    try:
        record(owner, "solve", 1.5, detail=frozenset({"GPU_F", "CPU_N"}))
        with span(owner, "lp_solve"):
            pass
        instant, timed = JOURNAL.drain()
    finally:
        JOURNAL.reset()
    assert (instant.detail, instant.clock, instant.end) == ("CPU_N,GPU_F", 1.5, None)
    assert instant.domain == OBJECT_CLOCK
    assert (timed.event, timed.domain, timed.obj) == ("lp_solve", HOST_CLOCK, instant.obj)
    assert timed.end >= timed.clock
