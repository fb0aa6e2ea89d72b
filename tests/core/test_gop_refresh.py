"""Periodic intra refresh (GOP) in the framework and reference encoder."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence


@pytest.fixture(scope="module")
def clip():
    return SyntheticSequence(width=128, height=96, seed=29, noise_sigma=1.0).frames(8)


@pytest.fixture(scope="module")
def cfg():
    return CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)


class TestReferenceEncoderGop:
    def test_intra_cadence(self, cfg, clip):
        enc = ReferenceEncoder(cfg, gop_size=3)
        out = enc.encode_sequence(clip)
        assert [f.is_intra for f in out] == [
            True, False, False, True, False, False, True, False
        ]

    def test_gop_zero_single_intra(self, cfg, clip):
        out = ReferenceEncoder(cfg, gop_size=0).encode_sequence(clip)
        assert sum(f.is_intra for f in out) == 1

    def test_negative_gop_rejected(self, cfg):
        with pytest.raises(ValueError):
            ReferenceEncoder(cfg, gop_size=-1)

    def test_reference_window_resets(self, cfg, clip):
        enc = ReferenceEncoder(cfg, gop_size=4)
        for f in clip[:4]:
            enc.encode_frame(f)
        assert enc.store.num_active == 2  # window filled during GOP 1
        enc.encode_frame(clip[4])         # frame 4: intra refresh
        assert enc.store.num_active == 1  # window reset to the new I frame
        enc.encode_frame(clip[5])         # first P of GOP 2
        assert enc.store.num_active == 2  # refilled by the P reconstruction


class TestFrameworkGop:
    def test_framework_matches_reference_with_gop(self, cfg, clip):
        ref = ReferenceEncoder(cfg, gop_size=4).encode_sequence(clip)
        fw = FevesFramework(
            get_platform("SysNFF"), cfg,
            FrameworkConfig(gop_size=4),
        )
        out = fw.encode(clip)
        for r, o in zip(ref, out, strict=True):
            assert o.encoded is not None
            assert r.is_intra == o.encoded.is_intra
            assert r.bits == o.encoded.bits
            np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)
            np.testing.assert_array_equal(r.recon.u, o.encoded.recon.u)

    def test_accelerators_refetch_rf_after_refresh(self, cfg, clip, transfer_plans):
        fw = FevesFramework(
            get_platform("SysHK"), cfg,
            FrameworkConfig(gop_size=4),
        )
        plans = transfer_plans(fw)
        fw.encode(clip)
        # Reports are inter frames in order: GOP1 has 3 P frames, then the
        # intra refresh, then GOP2's P frames. The first P frame of GOP 2
        # (report index 3) must re-upload the RF to every accelerator —
        # including the R* GPU that normally keeps it resident.
        first_p_gop2 = plans[fw.reports[3].frame_index]
        rf_in = [
            t for t in first_p_gop2.items
            if t.buffer == "rf" and t.direction == "h2d"
        ]
        assert {t.device for t in rf_in} == {"GPU_K"}
        # Whereas in steady state the R* GPU holds the newest RF locally.
        steady = plans[fw.reports[2].frame_index]
        assert not any(
            t.buffer == "rf" and t.direction == "h2d"
            for t in steady.items
        )

    def test_active_refs_ramp_restarts(self, cfg, clip):
        fw = FevesFramework(
            get_platform("SysHK"), cfg,
            FrameworkConfig(gop_size=4),
        )
        out = fw.encode(clip)
        # ME durations: first P of each GOP uses 1 ref; second uses 2.
        # Compare simulated times of report 3 (1 ref) vs report 4 (2 refs).
        t_first = fw.reports[3].tau_tot
        t_second = fw.reports[4].tau_tot
        assert t_second > t_first
