"""Rate control: buffer model and closed-loop bitrate tracking."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.ratecontrol import RateControlledEncoder, RateController
from repro.video.generator import SyntheticSequence


class TestController:
    def test_on_budget_keeps_qp(self):
        rc = RateController(target_bps=100_000, fps=25, initial_qp=30)
        assert rc.update(int(rc.frame_budget)) == 30

    def test_overshoot_raises_qp(self):
        rc = RateController(target_bps=100_000, fps=25, initial_qp=30)
        qp = rc.update(int(3 * rc.frame_budget))
        assert qp > 30

    def test_undershoot_lowers_qp(self):
        rc = RateController(target_bps=100_000, fps=25, initial_qp=30)
        qp = rc.update(0)
        assert qp < 30

    def test_step_clamped(self):
        rc = RateController(target_bps=100_000, fps=25, initial_qp=30, max_step=2)
        qp = rc.update(int(100 * rc.frame_budget))
        assert qp == 32

    def test_qp_range_clamped(self):
        rc = RateController(
            target_bps=100_000, fps=25, initial_qp=48, qp_max=48
        )
        assert rc.update(int(10 * rc.frame_budget)) == 48

    def test_buffer_windup_bounded(self):
        rc = RateController(
            target_bps=100_000, fps=25, initial_qp=30, buffer_frames=4
        )
        rc.update(int(100 * rc.frame_budget))  # giant I frame
        assert abs(rc._buffer_bits) <= 4.0 * rc.frame_budget

    def test_validation(self):
        with pytest.raises(ValueError):
            RateController(target_bps=0, fps=25)
        with pytest.raises(ValueError):
            RateController(target_bps=1000, fps=25, qp_min=40, qp_max=30)
        rc = RateController(target_bps=1000, fps=25)
        with pytest.raises(ValueError):
            rc.update(-1)


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def clip(self):
        return SyntheticSequence(
            width=128, height=96, seed=19, noise_sigma=2.0
        ).frames(20)

    def test_converges_to_target(self, clip):
        cfg = CodecConfig(width=128, height=96, search_range=8)
        target = 220_000.0  # bps at 25 fps
        enc = RateControlledEncoder(cfg, target_bps=target, fps=25.0)
        out = enc.encode_sequence(clip)
        # Judge steady state (skip I frame + settle phase).
        steady = out[8:]
        steady_bps = sum(f.bits for f in steady) / len(steady) * 25.0
        assert steady_bps == pytest.approx(target, rel=0.35)

    def test_qp_rises_after_intra(self, clip):
        cfg = CodecConfig(width=128, height=96, search_range=8)
        enc = RateControlledEncoder(cfg, target_bps=150_000, fps=25.0)
        enc.encode_sequence(clip[:6])
        # The expensive I frame must push QP up within the clamp.
        assert enc.qp_history[1] > enc.qp_history[0]

    def test_tighter_budget_means_higher_qp(self, clip):
        cfg = CodecConfig(width=128, height=96, search_range=8)
        rich = RateControlledEncoder(cfg, target_bps=600_000, fps=25.0)
        poor = RateControlledEncoder(cfg, target_bps=80_000, fps=25.0)
        rich.encode_sequence(clip[:12])
        poor.encode_sequence(clip[:12])
        assert poor.qp_history[-1] > rich.qp_history[-1]

    def test_quality_follows_budget(self, clip):
        cfg = CodecConfig(width=128, height=96, search_range=8)
        rich = RateControlledEncoder(cfg, target_bps=600_000, fps=25.0)
        poor = RateControlledEncoder(cfg, target_bps=80_000, fps=25.0)
        rich_out = rich.encode_sequence(clip[:12])
        poor_out = poor.encode_sequence(clip[:12])
        assert rich_out[-1].psnr["y"] > poor_out[-1].psnr["y"]

    def test_ladder_holds_everything_but_qp(self, clip):
        """From a 2-slice CAVLC base the inner encoder's config differs
        from the base in the two QPs only, so every frame is what the
        reference encoder produces when driven over the logged QP path."""
        import dataclasses

        from repro.codec.encoder import ReferenceEncoder

        base = CodecConfig(
            width=128, height=96, search_range=4, subpel_metric="satd",
            entropy_coder="cavlc", num_slices=2, deblock_across_slices=False,
        )
        enc = RateControlledEncoder(base, target_bps=150_000, fps=25.0)
        out = enc.encode_sequence(clip[:4])
        inner = enc._enc.cfg
        assert dataclasses.replace(inner, qp_i=base.qp_i, qp_p=base.qp_p) == base

        ref = ReferenceEncoder(base)
        for qp, got in zip(enc.qp_history, out, strict=True):
            ref.cfg = base.with_qp(qp)
            want = ref.encode_frame(clip[got.index])
            assert (got.bits, got.mode_histogram) == (want.bits, want.mode_histogram)
            for plane in "yuv":
                np.testing.assert_array_equal(
                    getattr(got.recon, plane), getattr(want.recon, plane)
                )

    def test_gop_refresh_supported(self, clip):
        cfg = CodecConfig(width=128, height=96, search_range=8)
        enc = RateControlledEncoder(cfg, target_bps=200_000, fps=25.0,
                                    gop_size=6)
        out = enc.encode_sequence(clip[:13])
        assert [f.is_intra for f in out].count(True) == 3  # frames 0, 6, 12
