"""Residual plane coding: TQ→TQ⁻¹ bounds, cnz grids, exact rate accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quant_step, written_block_bits, written_chroma_dc_bits
from repro.codec.entropy import get_coder
from repro.codec.quant import chroma_qp
from repro.codec.residual import (
    code_chroma_plane,
    code_luma_plane,
    reconstruct,
)


class TestLumaPlane:
    @given(st.integers(min_value=0, max_value=51))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_bounded(self, qp):
        rng = np.random.default_rng(qp)
        res = rng.integers(-128, 129, (32, 32)).astype(np.int64)
        coded = code_luma_plane(res, qp, intra=False)
        assert np.abs(coded.recon_residual - res).max() <= 2.5 * quant_step(qp) + 2

    def test_zero_residual(self):
        coded = code_luma_plane(np.zeros((16, 16), dtype=np.int64), 28, False)
        assert (coded.recon_residual == 0).all()
        assert not coded.cnz4.any()
        assert coded.bits == 16  # one ue(0) bit per 4x4 block

    def test_cnz_marks_exactly_nonzero_blocks(self):
        res = np.zeros((16, 16), dtype=np.int64)
        res[4:8, 8:12] = 120  # block (1, 2)
        coded = code_luma_plane(res, 20, False)
        want = np.zeros((4, 4), dtype=bool)
        want[1, 2] = True
        np.testing.assert_array_equal(coded.cnz4, want)

    def test_bits_match_actual_writing(self, rng):
        res = rng.integers(-60, 61, (16, 32)).astype(np.int64)
        coded = code_luma_plane(res, 24, False)
        assert coded.bits == written_block_bits(get_coder("lite"), coded.levels).sum()

    def test_levels_raster_order(self):
        res = np.zeros((8, 8), dtype=np.int64)
        res[0:4, 4:8] = 90
        coded = code_luma_plane(res, 20, False)
        assert (coded.levels[1] != 0).any()
        assert (coded.levels[0] == 0).all()


class TestChromaPlane:
    @given(st.integers(min_value=0, max_value=51))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_bounded(self, qp):
        rng = np.random.default_rng(100 + qp)
        res = rng.integers(-100, 101, (16, 24)).astype(np.int64)
        coded = code_chroma_plane(res, qp, intra=False)
        bound = 2.5 * quant_step(chroma_qp(qp)) + 4
        assert np.abs(coded.recon_residual - res).max() <= bound

    def test_constant_plane_exact_dc_path(self):
        """A pure-DC chroma residual survives the Hadamard side path."""
        res = np.full((16, 16), 50, dtype=np.int64)
        coded = code_chroma_plane(res, 0, intra=False)
        assert np.abs(coded.recon_residual - 50).max() <= 1

    def test_ac_levels_have_zero_dc(self, rng):
        res = rng.integers(-90, 91, (16, 16)).astype(np.int64)
        coded = code_chroma_plane(res, 28, intra=False)
        assert (coded.ac_levels[:, 0, 0] == 0).all()

    def test_dc_levels_one_group_per_8x8(self, rng):
        # Each MB contributes one 8x8 chroma region with one 2x2 DC group.
        res = rng.integers(-90, 91, (16, 32)).astype(np.int64)
        coded = code_chroma_plane(res, 28, intra=False)
        assert coded.dc_levels.shape == ((16 // 8) * (32 // 8), 2, 2)

    @pytest.mark.parametrize("name", ["lite", "cavlc"])
    def test_bits_match_actual_writing(self, rng, name):
        """AC blocks and the DC side path, priced by the coder in use."""
        coder = get_coder(name)
        res = rng.integers(-90, 91, (16, 32)).astype(np.int64)
        coded = code_chroma_plane(res, 24, False, coder=coder)
        assert coded.bits == (
            written_block_bits(coder, coded.ac_levels).sum()
            + written_chroma_dc_bits(coder, coded.dc_levels)
        )

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            code_chroma_plane(np.zeros((12, 16), dtype=np.int64), 28, False)


class TestReconstruct:
    def test_clips_to_uint8(self):
        pred = np.array([[250, 5]], dtype=np.uint8)
        res = np.array([[20, -20]], dtype=np.int32)
        out = reconstruct(pred, res)
        assert out.dtype == np.uint8
        assert out[0, 0] == 255 and out[0, 1] == 0

    def test_additive(self):
        pred = np.full((4, 4), 100, dtype=np.uint8)
        res = np.full((4, 4), 17, dtype=np.int32)
        assert (reconstruct(pred, res) == 117).all()
