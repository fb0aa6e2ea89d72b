"""TQ/TQ⁻¹: transform algebra, quantization round-trip bounds, the int16/int32
butterflies against the int64 matrix forms, and the widths that makes exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.codec.transform as transform_module
from oracles import (
    CF,
    CI2,
    quant_step,
    reference_chroma_dc_dequantize,
    reference_chroma_dc_quantize,
    reference_dequantize,
    reference_forward_transform,
    reference_hadamard2x2,
    reference_inverse_transform,
    reference_quantize,
)
from repro.codec.quant import mf_matrix, v_matrix
from repro.codec.transform import (
    MAX_LEVEL,
    blocks_to_plane,
    chroma_dc_dequantize,
    chroma_dc_quantize,
    dequantize,
    forward_transform,
    hadamard2x2,
    inverse_transform,
    plane_to_blocks,
    quantize,
)


def tq(blocks, qp, intra=False):
    """TQ: forward transform + quantization of ``(n, 4, 4)`` residuals."""
    return quantize(forward_transform(blocks), qp, intra)


def itq(levels, qp):
    """TQ⁻¹: dequantization + inverse transform back to residuals."""
    return inverse_transform(dequantize(levels, qp))


resid = st.integers(min_value=-255, max_value=255)


class TestBlockReshaping:
    def test_roundtrip(self, rng):
        p = rng.integers(-100, 100, (16, 24)).astype(np.int64)
        blocks = plane_to_blocks(p)
        assert blocks.shape == (24, 4, 4)
        np.testing.assert_array_equal(blocks_to_plane(blocks, 16, 24), p)

    def test_block_order_raster(self):
        p = np.zeros((8, 8), dtype=np.int64)
        p[0:4, 4:8] = 5
        blocks = plane_to_blocks(p)
        assert (blocks[1] == 5).all()
        assert (blocks[0] == 0).all()

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            plane_to_blocks(np.zeros((6, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            blocks_to_plane(np.zeros((4, 4, 4), dtype=np.int64), 8, 6)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            blocks_to_plane(np.zeros((3, 4, 4), dtype=np.int64), 8, 8)


class TestCoreTransform:
    def test_dc_of_constant_block(self):
        x = np.full((1, 4, 4), 10, dtype=np.int64)
        w = forward_transform(x)
        assert w[0, 0, 0] == 160  # 16 * 10
        assert np.abs(w[0]).sum() == 160  # all AC zero

    def test_matches_matrix_definition(self, rng):
        x = rng.integers(-50, 50, (3, 4, 4)).astype(np.int64)
        w = forward_transform(x)
        for k in range(3):
            np.testing.assert_array_equal(w[k], CF @ x[k] @ CF.T)

    def test_a_plane_is_its_own_block_stack(self, rng):
        """Plane layout: coefficient (i, j) of block (r, c) at (4r+i, 4c+j);
        leading axes stack planes, so ``(n, 4, 4)`` is n one-block planes."""
        plane = rng.integers(-255, 256, (12, 20)).astype(np.int16)
        w = forward_transform(plane)
        np.testing.assert_array_equal(
            plane_to_blocks(w), forward_transform(plane_to_blocks(plane))
        )
        for qp in (0, 27, 51):
            z = quantize(w, qp, True)
            np.testing.assert_array_equal(
                plane_to_blocks(z), quantize(plane_to_blocks(w), qp, True)
            )
            np.testing.assert_array_equal(
                plane_to_blocks(inverse_transform(dequantize(z, qp))),
                itq(plane_to_blocks(z), qp),
            )

    def test_inverse_without_quant_recovers_input(self, rng):
        """IT(T(x)) with no quantization must reproduce x exactly.

        The pair is scaled such that the inverse's (…+32)>>6 rounding undoes
        the forward gain when coefficients are unquantized *and* rescaled by
        the dequant tables at QP where MF·V = 2^15 — instead we check the
        self-consistent path at QP=0 stays within 1.
        """
        x = rng.integers(-255, 255, (8, 4, 4)).astype(np.int64)
        recon = itq(tq(x, qp=0), qp=0)
        assert np.abs(recon - x).max() <= 1

    def test_dtypes_are_the_stated_widths(self, rng):
        x = rng.integers(-255, 256, (8, 12))
        w = forward_transform(x)
        z = quantize(w, 20, False)
        assert (w.dtype, z.dtype) == (np.int16, np.int32)
        assert dequantize(z, 20).dtype == np.int32
        assert inverse_transform(dequantize(z, 20)).dtype == np.int32

    @pytest.mark.parametrize(
        "residual, match",
        [
            (np.full((16, 16), 40000), "outside ±255"),
            (np.full((4, 4), -256, dtype=np.int16), "outside ±255"),
            (np.full((4, 4), 256, dtype=np.uint16), "outside ±255"),
            (np.zeros((4, 4), dtype=np.float64), "integer array, got float64"),
            (np.zeros((6, 8), dtype=np.int64), "not 4x4-aligned"),
            (np.zeros((2, 4, 6), dtype=np.int64), "not 4x4-aligned"),
            (np.zeros(16, dtype=np.int64), "not 4x4-aligned"),
        ],
    )
    def test_rejects_what_int16_would_wrap(self, residual, match):
        """The int64 einsum took all of these (recon 40 000 for the first)."""
        with pytest.raises(ValueError, match=match):
            forward_transform(residual)

    def test_full_range_residual_accepted_at_any_integer_width(self):
        for dtype in (np.int16, np.int32, np.int64):
            x = np.array([[255, -255] * 2] * 4, dtype=dtype)
            assert forward_transform(x).dtype == np.int16


class TestQuantization:
    @given(arrays(np.int64, (2, 4, 4), elements=resid),
           st.integers(min_value=0, max_value=51))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_step(self, x, qp):
        """|TQ⁻¹(TQ(x)) − x| must stay within ~1 quantizer step."""
        recon = itq(tq(x, qp), qp)
        # Dead-zone quantization (inter offset Qstep/6) plus non-orthonormal
        # basis norms keep the worst pixel error under ~2.3 Qstep
        # (measured across all QPs); assert 2.5 with rounding slack.
        bound = 2.5 * quant_step(qp) + 2.0
        assert np.abs(recon - x).max() <= bound

    def test_zero_block_codes_to_zero(self):
        z = tq(np.zeros((1, 4, 4), dtype=np.int64), qp=28)
        assert (z == 0).all()
        assert (itq(z, 28) == 0).all()

    def test_higher_qp_coarser(self, rng):
        x = rng.integers(-200, 200, (4, 4, 4)).astype(np.int64)
        fine = np.abs(tq(x, qp=10)).sum()
        coarse = np.abs(tq(x, qp=40)).sum()
        assert coarse < fine

    def test_intra_deadzone_wider(self, rng):
        x = rng.integers(-30, 30, (16, 4, 4)).astype(np.int64)
        w = forward_transform(x)
        intra = np.abs(quantize(w, 28, intra=True)).sum()
        inter = np.abs(quantize(w, 28, intra=False)).sum()
        # The intra offset (2^qbits/3) is *larger*, so it rounds up more often.
        assert intra >= inter

    def test_quantize_sign_symmetry(self, rng):
        x = rng.integers(-200, 200, (4, 4, 4)).astype(np.int64)
        w = forward_transform(x)
        np.testing.assert_array_equal(quantize(w, 28, False), -quantize(-w, 28, False))

    def test_dequantize_scales_with_qp_period(self):
        lv = np.ones((1, 4, 4), dtype=np.int32)
        a = dequantize(lv, 10)
        b = dequantize(lv, 16)  # +6 QP = exactly one doubling
        np.testing.assert_array_equal(b, 2 * a)

    def test_qp_range_checked(self):
        x = np.zeros((1, 4, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            tq(x, qp=52)
        with pytest.raises(ValueError):
            itq(x.astype(np.int32), -1)


class TestChromaDC:
    def test_hadamard_selfinverse_up_to_scale(self, rng):
        dc = rng.integers(-500, 500, (5, 2, 2)).astype(np.int64)
        twice = hadamard2x2(hadamard2x2(dc))
        np.testing.assert_array_equal(twice, 4 * dc)

    @given(arrays(np.int64, (3, 2, 2),
                  elements=st.integers(min_value=-2000, max_value=2000)),
           st.integers(min_value=0, max_value=51))
    @settings(max_examples=40, deadline=None)
    def test_dc_roundtrip_at_dequantized_scale(self, dc, qp):
        """Hadamard+quant → Hadamard+rescale ≈ 4× identity.

        chroma_dc_dequantize returns values at the dequantized-coefficient
        scale consumed by inverse_transform (4× the forward output, matching
        dequantize() for AC) — see the pipeline-level test in
        tests/codec/test_residual.py for the end-to-end bound.
        """
        z = chroma_dc_quantize(hadamard2x2(dc), qp, intra=False)
        recon = chroma_dc_dequantize(hadamard2x2(z), qp)
        bound = 4 * (32 * quant_step(qp) + 32)
        assert np.abs(recon - 4 * dc).max() <= bound


# --- The butterflies against the matrix forms they replaced ----------------


def check_tq_matches_reference(x: np.ndarray, qp: int, intra: bool) -> None:
    """Every stage of TQ → TQ⁻¹ on an ``(n, 4, 4)`` stack, value for value."""
    w = forward_transform(x)
    np.testing.assert_array_equal(w, reference_forward_transform(x))
    z = quantize(w, qp, intra)
    np.testing.assert_array_equal(z, reference_quantize(w.astype(np.int64), qp, intra))
    d = dequantize(z, qp)
    np.testing.assert_array_equal(d, reference_dequantize(z, qp))
    np.testing.assert_array_equal(inverse_transform(d), reference_inverse_transform(d))


def check_dc_matches_reference(dc: np.ndarray, qp: int, intra: bool) -> None:
    """The chroma-DC side path on ``(n, 2, 2)`` int16 groups of block DCs."""
    t = hadamard2x2(dc)
    np.testing.assert_array_equal(t, reference_hadamard2x2(dc))
    z = chroma_dc_quantize(t, qp, intra)
    np.testing.assert_array_equal(
        z, reference_chroma_dc_quantize(t.astype(np.int64), qp, intra)
    )
    np.testing.assert_array_equal(
        chroma_dc_dequantize(hadamard2x2(z), qp),
        reference_chroma_dc_dequantize(reference_hadamard2x2(z), qp),
    )


#: The 32 residual blocks ±255 · sign(Cf[i]) ⊗ sign(Cf[j]): each drives one
#: coefficient to its largest possible magnitude.
WORST_BLOCKS = np.array(
    [s * 255 * np.outer(np.sign(CF[i]), np.sign(CF[j]))
     for i in range(4) for j in range(4) for s in (1, -1)]
)


class TestMatchesReferenceKernel:
    @given(arrays(np.int64, (6, 4, 4), elements=resid),
           st.integers(0, 51), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tq_identical_to_reference(self, x, qp, intra):
        check_tq_matches_reference(x, qp, intra)

    @given(arrays(np.int16, (5, 2, 2), elements=st.integers(-4080, 4080)),
           st.integers(0, 51), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_chroma_dc_identical_to_reference(self, dc, qp, intra):
        check_dc_matches_reference(dc, qp, intra)

    def test_narrow_quantiser_mutant_is_killed(self, mutant):
        """The quantiser multiply left in int16 must not survive the pins."""
        wide = ".astype(np.int32)"

        def edit(source: str) -> str:
            assert source.count(wide) == 1
            return source.replace(wide, ".astype(np.int16)")

        mutant(transform_module, "_quantize", edit)
        with pytest.raises(AssertionError):
            check_tq_matches_reference(WORST_BLOCKS, 0, False)
        with pytest.raises(AssertionError):
            check_dc_matches_reference(np.full((1, 2, 2), 4080, np.int16), 0, False)


class TestWidths:
    """Worst cases of every stage, exhaustively over QP, intra and inter.

    The maxima are derived from the tables with Python integers (no
    sampling), so "fits" is a proof, not an observation.
    """

    #: max |W[i, j]| = 255 · Σ|Cf[i]| · Σ|Cf[j]|.
    MAX_W = 255 * np.outer(np.abs(CF).sum(axis=1), np.abs(CF).sum(axis=1)).astype(object)
    #: Growth of the inverse butterflies: out = |Ci2|ᵀ · in · |Ci2| at most.
    ABS_CI2 = np.abs(CI2).astype(object)

    def inverse_peak(self, deq: np.ndarray) -> int:
        return int((self.ABS_CI2.T @ deq @ self.ABS_CI2).max()) + 128

    def test_forward_side_fits_int16(self):
        w = forward_transform(WORST_BLOCKS)
        assert np.abs(w).max(axis=0).tolist() == self.MAX_W.tolist()
        assert self.MAX_W.max() == 9_180 < 2**15
        # Chroma DC: the Hadamard of four block DCs of ±16 · 255.
        dc = hadamard2x2(np.full((1, 2, 2), 4_080, dtype=np.int16))
        assert dc.dtype == np.int16 and dc.max() == 16_320 < 2**15

    def test_worst_case_blocks_match_the_reference_at_every_qp(self):
        for qp in range(52):
            for intra in (False, True):
                check_tq_matches_reference(WORST_BLOCKS, qp, intra)
                check_dc_matches_reference(
                    np.array([[[4080, 4080], [4080, 4080]],
                              [[4080, -4080], [-4080, 4080]]], dtype=np.int16),
                    qp, intra,
                )

    def test_quantiser_and_inverse_fit_int32(self):
        peak = dict(product=0, level=0, dc_product=0, dc_level=0, rescaled=0, inverse=0)
        for qp in range(52):
            mf, v = mf_matrix(qp).astype(object), v_matrix(qp).astype(object)
            for intra in (False, True):
                qbits = 15 + qp // 6
                f = (1 << qbits) // (3 if intra else 6)
                product = self.MAX_W * mf + f
                level = product >> qbits
                deq = (level * v) << (qp // 6)
                f_dc = (1 << (qbits + 1)) // (3 if intra else 6)
                dc_product = 4 * self.MAX_W[0, 0] * mf[0, 0] + f_dc
                dc_level = dc_product >> (qbits + 1)
                # Decoder side: Hadamard of four DC levels, rescaled, placed
                # at (0, 0) of the block's rescaled AC coefficients.
                deq_c = deq.copy()
                deq_c[0, 0] = (4 * dc_level * v[0, 0] << (qp // 6)) >> 1
                for key, value in (
                    ("product", product.max()), ("level", level.max()),
                    ("dc_product", dc_product), ("dc_level", dc_level),
                    ("rescaled", max(deq.max(), deq_c.max())),
                    ("inverse", max(self.inverse_peak(deq), self.inverse_peak(deq_c))),
                ):
                    peak[key] = max(peak[key], int(value))
        assert peak == dict(
            product=56_272_762, level=1_632, dc_product=219_498_645,
            dc_level=3_264, rescaled=66_560, inverse=1_151_104,
        )
        assert max(peak.values()) < 2**31
        assert max(peak["level"], peak["dc_level"]) <= MAX_LEVEL

    def test_any_level_the_decoder_admits_stays_inside_int32(self):
        """±MAX_LEVEL everywhere, which no encoder emits, at every QP."""
        for qp in range(52):
            v = v_matrix(qp).astype(object)
            deq = (MAX_LEVEL * v) << (qp // 6)
            deq_c = deq.copy()
            deq_c[0, 0] = (4 * MAX_LEVEL * v[0, 0] << (qp // 6)) >> 1
            assert max(self.inverse_peak(deq), self.inverse_peak(deq_c)) < 2**31
        levels = np.full((4, 4), MAX_LEVEL, dtype=np.int32)
        levels[1::2] *= -1
        np.testing.assert_array_equal(
            inverse_transform(dequantize(levels, 51)),
            reference_inverse_transform(reference_dequantize(levels[None], 51))[0],
        )
