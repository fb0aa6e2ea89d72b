"""Reference encoder: end-to-end IPPP behaviour."""

import numpy as np
import pytest

from oracles import (
    reference_code_chroma_plane,
    reference_code_luma_plane,
    reference_deblock_plane,
)
from repro.codec.config import CodecConfig
from repro.codec.deblock import BlockInfo
from repro.codec.encoder import ReferenceEncoder, encode_rstar
from repro.codec.entropy import get_coder
from repro.codec.frames import YuvFrame
from repro.codec.interpolation import interpolate_plane
from repro.codec.mc import motion_compensate
from repro.codec.me import motion_estimate_rows
from repro.codec.sme import subpel_refine_rows
from repro.video.generator import SyntheticSequence


class TestGopStructure:
    def test_first_frame_intra_rest_inter(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        out = enc.encode_sequence(small_sequence)
        assert out[0].is_intra
        assert all(not f.is_intra for f in out[1:])
        assert [f.index for f in out] == list(range(len(out)))

    def test_inter_frames_cheaper_than_intra(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        out = enc.encode_sequence(small_sequence)
        for p in out[1:]:
            assert p.bits < out[0].bits

    def test_reset_restarts_gop(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        enc.encode_frame(small_sequence[0])
        enc.encode_frame(small_sequence[1])
        enc.reset()
        again = enc.encode_frame(small_sequence[0])
        assert again.is_intra and again.index == 0

    def test_frame_shape_checked(self, small_cfg):
        enc = ReferenceEncoder(small_cfg)
        with pytest.raises(ValueError):
            enc.encode_frame(YuvFrame.blank(64, 64))


class TestRateDistortion:
    def test_static_scene_nearly_free(self, small_cfg):
        """Identical frames ⇒ P frames cost almost nothing."""
        f = SyntheticSequence(
            width=small_cfg.width, height=small_cfg.height, seed=5, noise_sigma=0
        ).frame(0)
        enc = ReferenceEncoder(small_cfg)
        intra = enc.encode_frame(f)
        p = enc.encode_frame(f.copy())
        # The P frame still pays MB headers and codes the tiny residual
        # between the source and the quantized+deblocked reference.
        assert p.bits < intra.bits / 8
        assert p.psnr["y"] > 35

    def test_psnr_reasonable(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        for ef in enc.encode_sequence(small_sequence):
            assert ef.psnr["y"] > 30.0
            assert ef.psnr["u"] > 30.0

    def test_deterministic(self, small_cfg, small_sequence):
        a = ReferenceEncoder(small_cfg).encode_sequence(small_sequence)
        b = ReferenceEncoder(small_cfg).encode_sequence(small_sequence)
        for fa, fb in zip(a, b, strict=True):
            assert fa.bits == fb.bits
            np.testing.assert_array_equal(fa.recon.y, fb.recon.y)

    def test_mode_histogram_counts_all_mbs(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        out = enc.encode_sequence(small_sequence)
        n_mbs = small_cfg.mb_rows * small_cfg.mb_cols
        for p in out[1:]:
            assert sum(p.mode_histogram.values()) == n_mbs

    def test_lower_qp_more_bits_better_quality(self, small_sequence):
        hi_q = CodecConfig(width=128, height=96, search_range=8, qp_i=20, qp_p=21)
        lo_q = CodecConfig(width=128, height=96, search_range=8, qp_i=38, qp_p=39)
        out_hi = ReferenceEncoder(hi_q).encode_sequence(small_sequence[:3])
        out_lo = ReferenceEncoder(lo_q).encode_sequence(small_sequence[:3])
        assert sum(f.bits for f in out_hi) > sum(f.bits for f in out_lo)
        assert out_hi[-1].psnr["y"] > out_lo[-1].psnr["y"]


class TestMultiReference:
    def test_multi_ref_never_hurts_distortion(self):
        """With periodic content, 2 RFs should beat 1 RF on bits or match."""
        cfg1 = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=1)
        cfg2 = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)
        # Alternating two scenes: frame i matches frame i-2 exactly.
        a = SyntheticSequence(width=128, height=96, seed=1, noise_sigma=0).frame(0)
        b = SyntheticSequence(width=128, height=96, seed=2, noise_sigma=0).frame(0)
        seq = [a, b, a.copy(), b.copy(), a.copy()]
        bits1 = sum(f.bits for f in ReferenceEncoder(cfg1).encode_sequence(seq)[2:])
        bits2 = sum(f.bits for f in ReferenceEncoder(cfg2).encode_sequence(seq)[2:])
        assert bits2 < bits1 / 2  # 2-RF encoder finds the exact repeat

    def test_sf_store_tracks_refs(self, small_cfg, small_sequence):
        enc = ReferenceEncoder(small_cfg)
        enc.encode_sequence(small_sequence)
        assert len(enc.store.frames) == min(
            small_cfg.num_ref_frames, len(small_sequence)
        )


class TestRstarMatchesOracleComposition:
    """``encode_rstar`` on the benchmark suite's two encode configs against
    MC → int64-einsum TQ pricing every block → per-edge DBL."""

    @pytest.mark.parametrize("search_range, n_refs", [(4, 2), (16, 1)])
    def test_bits_recon_cnz_and_levels(self, search_range, n_refs):
        cfg = CodecConfig(
            width=352, height=288, search_range=search_range, num_ref_frames=n_refs
        )
        seq = SyntheticSequence(width=352, height=288, seed=17)
        # Source frames stand in for reconstructions: R* only needs references.
        refs = [seq.frame(n_refs - 1 - k) for k in range(n_refs)]  # newest first
        cur = seq.frame(n_refs)
        sfs = [interpolate_plane(r.y) for r in refs]
        chroma = [(r.u, r.v) for r in refs]
        me = motion_estimate_rows(cur.y, [r.y for r in refs], 0, cfg.mb_rows, cfg)
        sme = subpel_refine_rows(cur.y, sfs, me, 0, cfg.mb_rows, cfg)

        got = encode_rstar(cur, sme, sfs, chroma, cfg, 1, keep_syntax=True)

        qp, coder = cfg.qp_p, get_coder(cfg.entropy_coder)
        mc = motion_compensate(cur, sme, sfs, chroma, cfg, qp)
        planes = {
            "y": reference_code_luma_plane(
                cur.y.astype(np.int64) - mc.pred.y.astype(np.int64), qp, False, coder
            ),
            **{
                c: reference_code_chroma_plane(
                    getattr(cur, c).astype(np.int64)
                    - getattr(mc.pred, c).astype(np.int64), qp, False, coder,
                )
                for c in "uv"
            },
        }
        info = BlockInfo(
            mv=mc.mv4, ref=mc.ref4, cnz=planes["y"].cnz4,
            intra=np.zeros_like(planes["y"].cnz4),
        )
        assert got.bits == sum(p.bits for p in planes.values()) + mc.header_bits
        for c in "yuv":
            pre_dbl = np.clip(
                getattr(mc.pred, c).astype(np.int64) + planes[c].recon_residual, 0, 255
            ).astype(np.uint8)
            np.testing.assert_array_equal(
                getattr(got.recon, c),
                reference_deblock_plane(pre_dbl, info, qp, chroma=c != "y"),
            )
        syn = got.syntax
        np.testing.assert_array_equal(
            (syn.luma_levels != 0).any(axis=(1, 2)).reshape(72, 88), planes["y"].cnz4
        )
        for mine, theirs in (
            (syn.luma_levels, planes["y"].levels),
            (syn.u_ac, planes["u"].ac_levels), (syn.u_dc, planes["u"].dc_levels),
            (syn.v_ac, planes["v"].ac_levels), (syn.v_dc, planes["v"].dc_levels),
        ):
            np.testing.assert_array_equal(mine, theirs)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        # Not a vacuous frame: blocks are coded and DBL moved samples.
        assert planes["y"].cnz4.any() and got.bits > mc.header_bits + 9_504
