"""Device-fault injection: eviction, rebalancing, re-admission, logging."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.core.load_balancing import WARMUP_ROWS
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)


def run_with_faults(platform: str, events, frames: int, **fw_kwargs):
    fw = FevesFramework(
        get_platform(platform),
        CFG,
        FrameworkConfig(faults=FaultSchedule(events), **fw_kwargs),
    )
    outcomes = fw.run_model(frames)
    return fw, outcomes


class TestDropout:
    def test_acceptance_dropout_matches_reduced_platform(self):
        """ISSUE acceptance: mid-encode permanent dropout of one GPU.

        The encoder completes all frames with no exception, the LP is
        re-solved over the survivors within one frame of the fault, and
        the steady-state frame time lands within 10% of a from-scratch
        run on the reduced platform.
        """
        fw, outcomes = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=5, device="GPU_F2", kind="dropout")],
            15,
        )
        assert len(outcomes) == 15  # completed every frame

        # The fault frame still charges the dying device with its planned
        # rows; the very next frame's decision excludes it and is LP-based.
        fault_report = fw.reports[4]
        assert fault_report.faulted == ("GPU_F2",)
        next_dec = fw.reports[5].decision
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        assert next_dec.used_lp
        assert next_dec.m.rows[idx] == 0
        assert next_dec.l.rows[idx] == 0
        assert next_dec.s.rows[idx] == 0

        oracle = FevesFramework(get_platform("SysNF"), CFG, FrameworkConfig())
        oracle.run_model(15)
        post = fw.reports[-1].tau_tot
        ref = oracle.reports[-1].tau_tot
        assert post == pytest.approx(ref, rel=0.10)

    def test_fault_frame_absorbs_stall_and_redo(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="dropout")],
            6,
        )
        rep = fw.reports[3]
        assert rep.fault_time_lost_s > 0
        # the stall op shows up on the dead device's engine as "fault"
        labels = [r.label for r in rep.timeline.records if r.category == "fault"]
        assert labels == ["FAULT[GPU_F2]"]
        # the fault frame is slower than its neighbours
        assert rep.tau_tot > fw.reports[2].tau_tot

    def test_dropped_device_never_returns(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=3, device="GPU_F2", kind="dropout")],
            12,
        )
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        for rep in fw.reports[3:]:
            assert rep.decision.m.rows[idx] == 0
            assert rep.decision.s.rows[idx] == 0
        assert fw.summary()["live_devices"] == ["CPU_N", "GPU_F"]

    def test_cpu_dropout_leaves_gpus_running(self):
        fw, outcomes = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="CPU_N", kind="dropout")],
            10,
        )
        assert len(outcomes) == 10
        idx = [d.name for d in fw.platform.devices].index("CPU_N")
        assert fw.reports[-1].decision.m.rows[idx] == 0

    def test_all_devices_down_raises(self):
        with pytest.raises(RuntimeError, match="all devices faulted"):
            run_with_faults(
                "SysNF",
                [
                    FaultEvent(frame=3, device="GPU_F", kind="dropout"),
                    FaultEvent(frame=3, device="CPU_N", kind="dropout"),
                ],
                6,
            )

    def test_unknown_fault_device_rejected_at_construction(self):
        with pytest.raises(KeyError):
            FevesFramework(
                get_platform("SysNF"),
                CFG,
                FrameworkConfig(
                    faults=FaultSchedule(
                        [FaultEvent(frame=2, device="nope", kind="dropout")]
                    )
                ),
            )


class TestRstarDeviceDropout:
    def test_rstar_moves_to_survivor_on_fault_frame(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=5, device="GPU_F", kind="dropout")],
            10,
        )
        # GPU_F hosts R* in steady state on SysNFF; after its death every
        # frame (including the fault frame itself) runs R* elsewhere.
        assert fw.reports[3].rstar_device == "GPU_F"
        for rep in fw.reports[4:]:
            assert rep.rstar_device != "GPU_F"

    def test_forced_centric_overridden_by_survival(self):
        fw, outcomes = run_with_faults(
            "SysNF",
            [FaultEvent(frame=4, device="GPU_F", kind="dropout")],
            8,
            centric="gpu",
        )
        assert len(outcomes) == 8
        assert fw.reports[-1].rstar_device == "CPU_N"


class TestHangRecovery:
    def test_hang_evicts_then_readmits(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="hang", duration=3)],
            12,
        )
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        # down during frames 5..6 (evicted after the frame-4 stall)
        for f in (5, 6):
            assert fw.reports[f - 1].decision.m.rows[idx] == 0
        readmit = [e for e in fw.fault_log if e.readmitted]
        assert len(readmit) == 1 and readmit[0].frame_index == 7
        # priors give a one-frame re-warm: the LP uses it again immediately
        rep7 = fw.reports[6]
        assert rep7.decision.used_lp
        assert rep7.decision.m.rows[idx] + rep7.decision.l.rows[idx] > 0
        # steady state returns to the pre-fault optimum
        assert fw.reports[-1].tau_tot == pytest.approx(
            fw.reports[2].tau_tot, rel=0.05
        )

    def test_cleared_characterization_warms_up(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [
                FaultEvent(
                    frame=4,
                    device="GPU_F2",
                    kind="hang",
                    duration=2,
                    clear_characterization=True,
                )
            ],
            12,
        )
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        # re-admitted at frame 6 with no characterization: the decision
        # grants exactly the configured warm-up rows per module
        rep6 = fw.reports[5]
        assert rep6.decision.m.rows[idx] == WARMUP_ROWS
        assert rep6.decision.s.rows[idx] == WARMUP_ROWS
        # measured again, the device earns a real share afterwards
        assert fw.reports[-1].decision.m.rows[idx] > WARMUP_ROWS
        assert fw.reports[-1].tau_tot == pytest.approx(
            fw.reports[2].tau_tot, rel=0.05
        )


class TestReadmissionSteadyState:
    """A recovered device must rejoin and converge to the clean optimum."""

    def test_recovery_mid_gop_restores_clean_distribution(self):
        """Warm-up grant on re-admission, then clean steady state.

        A device hangs mid-GOP with its characterization cleared — the
        worst-case recovery (no priors). On the re-admission frame the
        decision grants exactly the configured warm-up rows; once
        re-measured, the steady-state work distribution matches a
        never-faulted run row for row.
        """
        frames = 16
        fw, outcomes = run_with_faults(
            "SysNFF",
            [
                FaultEvent(
                    frame=5,
                    device="GPU_F2",
                    kind="hang",
                    duration=2,
                    clear_characterization=True,
                )
            ],
            frames,
        )
        assert len(outcomes) == frames

        # re-admission is logged mid-GOP, and that frame's decision is the
        # warm-up grant for the un-characterized device
        readmit = [e for e in fw.fault_log if e.readmitted]
        assert len(readmit) == 1
        r = readmit[0].frame_index
        assert 1 < r < frames
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        grant = fw.reports[r - 1].decision
        assert grant.m.rows[idx] == WARMUP_ROWS
        assert grant.s.rows[idx] == WARMUP_ROWS

        clean = FevesFramework(get_platform("SysNFF"), CFG, FrameworkConfig())
        clean.run_model(frames)
        recovered = fw.reports[-1].decision
        reference = clean.reports[-1].decision
        for module in ("m", "l", "s"):
            got = getattr(recovered, module).rows
            want = getattr(reference, module).rows
            assert got == want, f"{module} rows diverged: {got} != {want}"
        assert fw.reports[-1].tau_tot == pytest.approx(
            clean.reports[-1].tau_tot, rel=0.02
        )


class TestDegradation:
    def test_degrade_shifts_rows_off_device(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="degrade", factor=3.0)],
            10,
        )
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        before = fw.reports[2].decision.m.rows[idx]
        after = fw.reports[-1].decision.m.rows[idx]
        assert after < before
        # the device is degraded, not evicted
        assert fw.summary()["live_devices"] == ["CPU_N", "GPU_F", "GPU_F2"]
        assert not any(e.evicted for e in fw.fault_log)

    def test_copy_fail_slows_transfers_and_rebalances(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="copy_fail", factor=8.0)],
            10,
        )
        idx = [d.name for d in fw.platform.devices].index("GPU_F2")
        before = (
            fw.reports[2].decision.m.rows[idx] + fw.reports[2].decision.l.rows[idx]
        )
        after = (
            fw.reports[-1].decision.m.rows[idx]
            + fw.reports[-1].decision.l.rows[idx]
        )
        assert after < before


class TestFaultLog:
    def test_every_frame_logged(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="hang", duration=2)],
            8,
        )
        assert [e.frame_index for e in fw.fault_log] == list(range(1, 9))

    def test_log_records_eviction_and_readmission(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=4, device="GPU_F2", kind="hang", duration=2)],
            8,
        )
        ev4 = fw.fault_log[3]
        assert ev4.evicted == ("GPU_F2",)
        assert "hang at frame 4" in dict(ev4.reasons).get("GPU_F2", "")
        assert ev4.time_lost_s > 0
        ev6 = fw.fault_log[5]
        assert ev6.readmitted == ("GPU_F2",)
        quiet = fw.fault_log[1]
        assert not quiet.eventful

    def test_log_live_set_shrinks(self):
        fw, _ = run_with_faults(
            "SysNFF",
            [FaultEvent(frame=3, device="GPU_F2", kind="dropout")],
            6,
        )
        assert fw.fault_log[2].live == ("CPU_N", "GPU_F", "GPU_F2")
        assert fw.fault_log[3].live == ("CPU_N", "GPU_F")


REAL_CFG = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)
#: Inter frame the fault hits (a hang lasts two frames, then re-admits).
FAULT_FRAME = 3
#: (backend, exec_workers) the real path runs on.
EXECUTORS = [("sim", 0), ("process", 1), ("process", 2), ("process", 4)]


@pytest.fixture(scope="module")
def real_frames():
    return SyntheticSequence(width=128, height=96, seed=11, noise_sigma=1.5).frames(7)


@pytest.fixture(scope="module")
def reference(real_frames):
    return ReferenceEncoder(REAL_CFG).encode_sequence(real_frames)


@pytest.fixture(scope="module")
def clean_runs():
    """(backend, workers) -> the fault-free encode, made once per module."""
    return {}


def real_encode(frames, backend, workers, events=()):
    fw = FevesFramework(
        get_platform("SysNFF"),
        REAL_CFG,
        FrameworkConfig(
            backend=backend, exec_workers=workers, faults=FaultSchedule(list(events))
        ),
    )
    with fw:
        return fw.encode(frames), fw


def assert_same(a, b) -> None:
    assert a.bits == b.bits
    assert a.mode_histogram == b.mode_histogram
    for plane in ("y", "u", "v"):
        assert np.array_equal(getattr(a.recon, plane), getattr(b.recon, plane))


def covered_s(records) -> float:
    """Seconds during which at least one of ``records`` was running."""
    total, end = 0.0, 0.0
    for r in sorted(records, key=lambda r: r.start):
        total += max(0.0, r.end - max(r.start, end))
        end = max(end, r.end)
    return total


class TestRealModeBitExact:
    """Redo-on-survivor keeps the collaborative output bit-exact, on the
    DES's in-process executor and on the worker pool alike."""

    @pytest.mark.parametrize("backend,workers", EXECUTORS)
    @pytest.mark.parametrize("target", ["rstar", "other"])
    @pytest.mark.parametrize("kind,duration", [("dropout", 0), ("hang", 2)])
    def test_fault_does_not_change_the_bitstream(
        self, real_frames, reference, clean_runs, backend, workers, target, kind,
        duration,
    ):
        key = (backend, workers)
        if key not in clean_runs:
            clean_runs[key] = real_encode(real_frames, backend, workers)
        clean, clean_fw = clean_runs[key]
        # The R* host of the fault frame, or the last device that is not.
        rstar = clean_fw.reports[FAULT_FRAME - 1].rstar_device
        names = [d.name for d in clean_fw.platform.devices]
        device = rstar if target == "rstar" else [n for n in names if n != rstar][-1]
        faulty, fw = real_encode(
            real_frames, backend, workers,
            [FaultEvent(frame=FAULT_FRAME, device=device, kind=kind,
                        duration=duration)],
        )
        entry = fw.fault_log[FAULT_FRAME - 1]
        report = fw.reports[FAULT_FRAME - 1]
        assert entry.evicted == (device,)
        assert entry.time_lost_s > 0
        assert report.faulted == (device,)
        if backend == "process":
            # Wall time, not worker-seconds: redo rows running side by side
            # on the fallback's workers count once.
            redo = [r for r in report.timeline.records if "-redo[" in r.label]
            assert redo
            assert entry.time_lost_s == pytest.approx(covered_s(redo), abs=1e-9)
        for ref, a, b in zip(reference, clean, faulty, strict=True):
            assert_same(ref, a.encoded)
            assert_same(ref, b.encoded)
