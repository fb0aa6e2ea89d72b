"""SAN-G on the real execution backend: lifecycle journals from live runs.

The protocol monitor's exec-side guarantees: a use-after-close on the
shared frame store is caught from the journal of the *real* failing
call, a store that never reaches ``close()`` is flagged at teardown
(``require_terminal``), and a clean two-worker process-backend encode
journals a full pool/store lifecycle that replays clean.
"""

from __future__ import annotations

import pytest

from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.exec.shm import SharedFrameStore
from repro.hw.presets import get_platform
from repro.sanitizers import check_protocols
from repro.sanitizers.protocols.monitor import check_events
from repro.video.generator import SyntheticSequence

pytestmark = pytest.mark.timeout_guarded

CFG = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)


class TestStoreLifecycle:
    def test_view_after_close_caught(self, journal):
        store = SharedFrameStore(CFG)
        store.view("cur")
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.view("cur")
        report = check_events(journal.drain())
        assert any(
            v.rule == "SAN-G1" and "view()" in v.message
            for v in report.violations
        )

    def test_double_close_is_legal(self, journal):
        store = SharedFrameStore(CFG)
        store.close()
        store.close()  # idempotent by spec: closed -> closed
        report = check_events(journal.drain())
        assert report.clean, report.summary()

    def test_leaked_store_caught_at_teardown(self, journal):
        store = SharedFrameStore(CFG)
        store.view("cur")
        # ... and the owner forgets to close it.
        report = check_events(journal.drain())
        try:
            assert any(
                v.rule == "SAN-G2" and "never shut down" in v.message
                for v in report.violations
            )
        finally:
            store.close()  # release the real segments either way

    def test_closed_store_satisfies_teardown(self, journal):
        store = SharedFrameStore(CFG)
        store.view("cur")
        store.close()
        report = check_events(journal.drain())
        assert report.clean, report.summary()


class TestProcessBackendClean:
    def test_two_worker_encode_journals_clean(self, journal):
        seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=1.5)
        frames = seq.frames(3)
        fw = FevesFramework(
            get_platform("SysHK"),
            CFG,
            FrameworkConfig(
                backend="process", exec_workers=2
            ),
        )
        with fw:
            out = fw.encode(frames)
        assert all(o.encoded is not None for o in out)
        events = journal.drain()
        # The run must have journaled the full lifecycle of both
        # process-backend owners: the segment store and the kernel pool.
        classes = {e.cls for e in events}
        assert {"SharedFrameStore", "KernelPool"} <= classes
        report = check_events(events)
        assert report.clean, report.summary()

    def test_check_protocols_drains_global_journal(self, journal):
        store = SharedFrameStore(CFG)
        store.close()
        # Without events, the SAN-G entry point reads (and drains) the
        # module-level journal.
        report = check_protocols()
        assert report.clean, report.summary()
        assert len(journal) == 0
