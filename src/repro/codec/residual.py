"""Residual coding: TQ → bit accounting → TQ⁻¹, vectorized per plane.

The inter path transforms whole residual planes at once (stacks of 4×4
blocks); the intra path reuses the same entry points per macroblock. Chroma
planes get the standard extra 2×2 Hadamard pass over the per-block DC
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.entropy import get_coder
from repro.codec.quant import chroma_qp
from repro.codec.transform import (
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


@dataclass
class CodedPlane:
    """Result of coding one residual plane.

    Attributes
    ----------
    recon_residual:
        Reconstructed residual (what the decoder would add to the
        prediction), same shape as the input, int32.
    bits:
        Exact entropy-coder bit cost of the plane's levels.
    cnz4:
        ``(H/4, W/4)`` bool grid — 4×4 blocks with any non-zero level
        (feeds DBL boundary strengths).
    levels:
        Quantized level blocks ``(n, 4, 4)`` in raster block order (the
        actual syntax elements; used by bitstream writing and tests).
    """

    recon_residual: np.ndarray
    bits: int
    cnz4: np.ndarray
    levels: np.ndarray


def decode_luma_levels(
    levels: np.ndarray, height: int, width: int, qp: int
) -> np.ndarray:
    """Decoder-side TQ⁻¹ of a luma plane's level blocks (raster order)."""
    recon_blocks = inverse_transform(dequantize(levels, qp))
    return blocks_to_plane(recon_blocks, height, width).astype(np.int32)


def code_luma_plane(
    residual: np.ndarray, qp: int, intra: bool, coder=None
) -> CodedPlane:
    """TQ + TQ⁻¹ + rate accounting for a luma residual plane.

    ``coder`` is the coefficient coder that prices the levels (see
    :func:`repro.codec.entropy.get_coder`); ``None`` means CAVLC-lite.
    """
    coder = coder or get_coder("lite")
    h, w = residual.shape
    blocks = plane_to_blocks(residual.astype(np.int64))
    coeffs = forward_transform(blocks)
    levels = quantize(coeffs, qp, intra)
    recon = decode_luma_levels(levels, h, w, qp)
    bits = int(coder.block_bits(levels).sum())
    cnz4 = (levels != 0).any(axis=(1, 2)).reshape(h // 4, w // 4)
    return CodedPlane(recon_residual=recon, bits=bits, cnz4=cnz4, levels=levels)


@dataclass
class CodedChromaPlane:
    """Result of coding one chroma residual plane (AC blocks + DC Hadamard)."""

    recon_residual: np.ndarray
    bits: int
    ac_levels: np.ndarray
    dc_levels: np.ndarray


def decode_chroma_levels(
    ac_levels: np.ndarray,
    dc_levels: np.ndarray,
    height: int,
    width: int,
    luma_qp: int,
) -> np.ndarray:
    """Decoder-side TQ⁻¹ of a chroma plane (AC blocks + 2×2 DC Hadamard).

    ``ac_levels`` are ``(n, 4, 4)`` blocks in raster order with zero DC;
    ``dc_levels`` are ``(n_mb, 2, 2)`` per-MB quantized DC groups.
    """
    qp = chroma_qp(luma_qp)
    by, bx = height // 4, width // 4
    deq = dequantize(ac_levels, qp)
    dc_recon = chroma_dc_dequantize(hadamard2x2(dc_levels), qp)
    dc_back = (
        dc_recon.reshape(by // 2, bx // 2, 2, 2).transpose(0, 2, 1, 3).reshape(by, bx)
    )
    deq[:, 0, 0] = dc_back.reshape(-1)
    recon_blocks = inverse_transform(deq)
    return blocks_to_plane(recon_blocks, height, width).astype(np.int32)


def code_chroma_plane(
    residual: np.ndarray, luma_qp: int, intra: bool, coder=None
) -> CodedChromaPlane:
    """TQ + TQ⁻¹ for a chroma residual plane with the 2×2 DC Hadamard pass.

    ``residual`` is the full chroma plane ``(H/2, W/2)``; one MB contributes
    an 8×8 region, i.e. a 2×2 group of 4×4 blocks whose DC coefficients go
    through the Hadamard/quant side path.
    """
    coder = coder or get_coder("lite")
    qp = chroma_qp(luma_qp)
    h, w = residual.shape
    if h % 8 or w % 8:
        raise ValueError(f"chroma plane {residual.shape} not 8x8-aligned")
    blocks = plane_to_blocks(residual.astype(np.int64))
    coeffs = forward_transform(blocks)

    # DC side path: group per MB (2×2 neighbouring blocks).
    by, bx = h // 4, w // 4
    dc_grid = coeffs[:, 0, 0].reshape(by, bx)
    dc_mb = (
        dc_grid.reshape(by // 2, 2, bx // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 2, 2)
    )
    dc_t = hadamard2x2(dc_mb)
    dc_levels = chroma_dc_quantize(dc_t, qp, intra)

    # AC path: zero the DC before quantization.
    ac_coeffs = coeffs.copy()
    ac_coeffs[:, 0, 0] = 0
    ac_levels = quantize(ac_coeffs, qp, intra)
    ac_levels[:, 0, 0] = 0

    recon = decode_chroma_levels(ac_levels, dc_levels, h, w, luma_qp)
    bits = int(coder.block_bits(ac_levels).sum()) + coder.chroma_dc_bits(dc_levels)
    return CodedChromaPlane(
        recon_residual=recon, bits=bits, ac_levels=ac_levels, dc_levels=dc_levels
    )


def reconstruct(pred: np.ndarray, recon_residual: np.ndarray) -> np.ndarray:
    """Clip prediction + reconstructed residual to uint8."""
    return np.clip(pred.astype(np.int32) + recon_residual, 0, 255).astype(np.uint8)
