"""Encoder features: scene-cut detection, loss concealment, motion stats,
thread-parallel real-mode execution."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.decoder import SequenceDecoder
from repro.codec.encoder import ReferenceEncoder
from repro.codec.stream import StreamEncoder
from repro.video.generator import SyntheticSequence

CFG = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)


def spliced_clip():
    """Two scenes with a hard cut at frame 3.

    Low-motion content (no objects, gentle pan: inter-frame MAD ~2-4)
    spliced against its luma inverse (MAD ~80 at the cut) — a clean
    separation for the MAD-based detector.
    """
    from repro.codec.frames import YuvFrame

    a = SyntheticSequence(width=128, height=96, seed=1, noise_sigma=0.5,
                          n_objects=0, pan=(0.5, 1.0))
    scene_a = a.frames(3)
    scene_b = [YuvFrame((255 - f.y), f.u, f.v) for f in a.frames(4, start=3)]
    return scene_a + scene_b


class TestSceneCut:
    def test_cut_triggers_intra(self):
        enc = ReferenceEncoder(CFG, scene_cut_threshold=20.0)
        out = enc.encode_sequence(spliced_clip())
        assert enc.scene_cuts == [3]
        assert out[3].is_intra
        assert not out[4].is_intra

    def test_no_detector_codes_cut_as_p(self):
        enc = ReferenceEncoder(CFG)
        out = enc.encode_sequence(spliced_clip())
        assert all(not f.is_intra for f in out[1:])

    def test_intra_at_cut_improves_quality(self):
        clip = spliced_clip()
        plain = ReferenceEncoder(CFG).encode_sequence(clip)
        smart = ReferenceEncoder(
            CFG, scene_cut_threshold=20.0
        ).encode_sequence(clip)
        # The refreshed GOP predicts scene B from a scene-B reference.
        assert smart[4].psnr["y"] >= plain[4].psnr["y"] - 0.2
        assert smart[3].is_intra and not plain[3].is_intra

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ReferenceEncoder(CFG, scene_cut_threshold=0.0)

    def test_smooth_content_never_cuts(self):
        clip = SyntheticSequence(width=128, height=96, seed=5, n_objects=0,
                                 noise_sigma=0.5, pan=(0.5, 1.0)).frames(6)
        enc = ReferenceEncoder(CFG, scene_cut_threshold=20.0)
        enc.encode_sequence(clip)
        assert enc.scene_cuts == []

    def test_reset_forgets_scene_cut_state(self):
        # scene_cuts indexes the sequence being coded, and frame 0 of the
        # next one is never compared with the last frame of this one.
        enc = ReferenceEncoder(CFG, scene_cut_threshold=20.0)
        enc.encode_sequence(spliced_clip())
        assert enc.scene_cuts == [3]
        enc.reset()
        assert enc.scene_cuts == [] and enc._prev_source_y is None
        again = enc.encode_sequence(spliced_clip())
        assert enc.scene_cuts == [3]
        assert [f.is_intra for f in again] == [
            True, False, False, True, False, False, False
        ]


class TestLossConcealment:
    def test_concealment_keeps_decoding(self):
        clip = SyntheticSequence(width=128, height=96, seed=7).frames(5)
        enc = StreamEncoder(CFG)
        dec = SequenceDecoder.from_header(enc.sequence_header())
        packets = [enc.encode_frame(f)[1] for f in clip]
        dec.decode_packet(packets[0])
        dec.decode_packet(packets[1])
        concealed = dec.conceal_lost_frame()          # packet 2 lost
        assert concealed.y.shape == (96, 128)
        recovered = dec.decode_packet(packets[3])     # keeps going
        assert recovered.y.shape == (96, 128)

    def test_drift_bounded_and_quality_restored_by_intra(self):
        from repro.codec.quality import psnr

        clip = SyntheticSequence(width=128, height=96, seed=7).frames(8)
        cfg = CodecConfig(width=128, height=96, search_range=8)
        enc = StreamEncoder(cfg)
        dec = SequenceDecoder.from_header(enc.sequence_header())
        stats_packets = [enc.encode_frame(f) for f in clip]
        dec.decode_packet(stats_packets[0][1])
        dec.conceal_lost_frame()                      # frame 1 lost
        drifted = dec.decode_packet(stats_packets[2][1])
        clean = stats_packets[2][0].recon
        assert not np.array_equal(drifted.y, clean.y)  # drift is real
        assert psnr(drifted.y, clean.y) > 20           # but bounded

    def test_cannot_conceal_before_first_frame(self):
        enc = StreamEncoder(CFG)
        dec = SequenceDecoder.from_header(enc.sequence_header())
        with pytest.raises(RuntimeError):
            dec.conceal_lost_frame()


class TestMotionStats:
    def test_panning_scene_has_motion(self):
        clip = SyntheticSequence(width=128, height=96, seed=3, pan=(0.0, 3.0),
                                 noise_sigma=0).frames(3)
        enc = ReferenceEncoder(CFG, keep_syntax=True)
        out = enc.encode_sequence(clip)
        syn = out[2].syntax
        assert syn is not None and syn.mv4 is not None
        mags = np.hypot(syn.mv4[..., 0], syn.mv4[..., 1])
        assert mags.mean() > 4.0   # ~3 px pan = 12 qpel
        assert (mags == 0).mean() < 0.5
        assert syn.ref4.shape == (96 // 4, 128 // 4)

    def test_static_scene_zero_motion(self):
        f = SyntheticSequence(width=128, height=96, seed=3, noise_sigma=0).frame(0)
        enc = ReferenceEncoder(CFG, keep_syntax=True)
        enc.encode_frame(f)
        out = enc.encode_frame(f.copy())
        mags = np.hypot(out.syntax.mv4[..., 0], out.syntax.mv4[..., 1])
        # The reference is the quantized+deblocked recon, so SME may find
        # tiny sub-pel minima; magnitudes stay small and many blocks are 0.
        assert (mags == 0).mean() > 0.3
        assert mags.mean() < 2.0
