"""Residual plane coding: TQ→TQ⁻¹ bounds, cnz grids, exact rate accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    quant_step,
    reference_code_chroma_plane,
    reference_code_luma_plane,
    written_block_bits,
    written_chroma_dc_bits,
)
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


class TestRateOnCodedBlocksOnly:
    """Pricing the coded blocks plus ``uncoded ×`` the coder's price of an
    all-zero one equals pricing every block, for both coders."""

    @staticmethod
    def residual(kind: str, shape: tuple[int, int]) -> np.ndarray:
        rng = np.random.default_rng(7)
        if kind == "all_zero":
            return np.zeros(shape, dtype=np.int64)
        if kind == "fully_coded":
            return rng.integers(-255, 256, shape)
        sparse = np.zeros(shape, dtype=np.int64)  # the benchmark's regime
        for r, c in rng.integers(0, (shape[0] // 4, shape[1] // 4), (6, 2)):
            sparse[4 * r : 4 * r + 4, 4 * c : 4 * c + 4] = rng.integers(-60, 61, (4, 4))
        return sparse

    @pytest.mark.parametrize("kind", ["all_zero", "sparse", "fully_coded"])
    @pytest.mark.parametrize("name", ["lite", "cavlc"])
    def test_luma_bits_equal_pricing_every_block(self, name, kind):
        coder = get_coder(name)
        coded = code_luma_plane(self.residual(kind, (32, 48)), 26, False, coder)
        assert coded.cnz4.any() == (kind != "all_zero")
        assert coded.cnz4.all() == (kind == "fully_coded")
        assert coded.bits == int(coder.block_bits(coded.levels).sum())
        assert coded.bits == written_block_bits(coder, coded.levels).sum()

    @pytest.mark.parametrize("kind", ["all_zero", "sparse", "fully_coded"])
    @pytest.mark.parametrize("name", ["lite", "cavlc"])
    def test_chroma_bits_equal_pricing_every_block_and_group(self, name, kind):
        coder = get_coder(name)
        coded = code_chroma_plane(self.residual(kind, (32, 48)), 26, False, coder)
        assert coded.bits == (
            int(coder.block_bits(coded.ac_levels).sum())
            + coder.chroma_dc_bits(coded.dc_levels)
        )

    def test_zero_block_price_is_asked_of_the_coder(self):
        """A coder that charges 5 bits for an empty block is believed."""

        class Pricey:
            def block_bits(self, blocks):
                return np.where((blocks != 0).any(axis=(1, 2)), 100, 5)

            def chroma_dc_bits(self, dcs):
                return int(np.where((dcs != 0).any(axis=(1, 2)), 70, 3).sum())

        res = np.zeros((16, 16), dtype=np.int64)
        res[0:4, 0:4] = 200
        assert code_luma_plane(res, 20, False, Pricey()).bits == 100 + 15 * 5
        # 16×16 chroma = 4 MBs: one coded AC block, one coded DC group.
        res[0, 0] = -200
        assert code_chroma_plane(res, 20, False, Pricey()).bits == (
            100 + 15 * 5 + 70 + 3 * 3
        )


class TestMatchesReferenceComposition:
    """Plane in, ``Coded*Plane`` out: the whole stage against the int64
    einsum composition that priced every block."""

    @given(st.integers(0, 51), st.booleans(), st.sampled_from(["lite", "cavlc"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_luma_and_chroma_planes(self, qp, intra, name, seed):
        rng = np.random.default_rng(seed)
        shape = (8 * int(rng.integers(1, 5)), 8 * int(rng.integers(1, 5)))
        spread = int(rng.choice([3, 40, 255]))
        res = rng.integers(-spread, spread + 1, shape).astype(np.int16)
        coder = get_coder(name)
        got, want = (code_luma_plane(res, qp, intra, coder),
                     reference_code_luma_plane(res, qp, intra, coder))
        assert got.bits == want.bits
        for field in ("recon_residual", "cnz4", "levels"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert getattr(got, field).dtype == getattr(want, field).dtype
        got, want = (code_chroma_plane(res, qp, intra, coder),
                     reference_code_chroma_plane(res, qp, intra, coder))
        assert got.bits == want.bits
        for field in ("recon_residual", "ac_levels", "dc_levels"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert getattr(got, field).dtype == getattr(want, field).dtype

    @pytest.mark.parametrize(
        "residual, match",
        [
            (np.full((16, 16), 40000), "outside ±255"),
            (np.full((16, 16), 0.5), "integer array, got float64"),
        ],
    )
    def test_rejects_what_int16_would_wrap(self, residual, match):
        """Accepted at int64: recon 40 000, and a float residual truncated."""
        with pytest.raises(ValueError, match=match):
            code_luma_plane(residual, 28, False)
        with pytest.raises(ValueError, match=match):
            code_chroma_plane(residual, 28, False)


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
