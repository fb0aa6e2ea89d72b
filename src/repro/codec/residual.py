"""Residual coding: TQ → bit accounting → TQ⁻¹, vectorized per plane.

The inter path transforms whole residual planes at once, in plane layout
(:mod:`repro.codec.transform`); the intra path reuses the same entry
points per macroblock and per 4×4 block. Chroma planes get the standard
extra 2×2 Hadamard pass over the per-block DC coefficients. Levels leave
as ``(n, 4, 4)`` raster-order stacks — the syntax elements — and the
encoder reconstructs from them through the decoder's own ``decode_*``.

Rate accounting prices the coded blocks only: both coefficient coders
price a block (a chroma-DC group) without neighbour context, so every
all-zero one costs the same — what the coder says one costs.
"""

from __future__ import annotations

from collections.abc import Callable
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


def _stack_bits(price: Callable, stack: np.ndarray) -> tuple[int, np.ndarray]:
    """Exact cost of a stack of level blocks (or chroma-DC groups), and
    which of them are coded.

    ``price`` is the coder's ``block_bits`` (per item) or ``chroma_dc_bits``
    (a total). The coded items are priced as they are, the all-zero rest
    at the coder's own price of one all-zero item.
    """
    coded = (stack != 0).any(axis=(1, 2))
    n_coded = int(np.count_nonzero(coded))
    bits = int(np.sum(price(stack[coded]))) if n_coded else 0
    if n_coded < len(stack):
        bits += (len(stack) - n_coded) * int(np.sum(price(np.zeros_like(stack[:1]))))
    return bits, coded


def decode_luma_levels(
    levels: np.ndarray, height: int, width: int, qp: int
) -> np.ndarray:
    """Decoder-side TQ⁻¹ of a luma plane's level blocks (raster order)."""
    return inverse_transform(dequantize(blocks_to_plane(levels, height, width), qp))


def code_luma_plane(
    residual: np.ndarray, qp: int, intra: bool, coder=None
) -> CodedPlane:
    """TQ + TQ⁻¹ + rate accounting for a luma residual plane.

    ``residual`` is an integer plane within ±255. ``coder`` is the
    coefficient coder that prices the levels (see
    :func:`repro.codec.entropy.get_coder`); ``None`` means CAVLC-lite.
    """
    coder = coder or get_coder("lite")
    h, w = residual.shape
    levels = plane_to_blocks(quantize(forward_transform(residual), qp, intra))
    bits, coded = _stack_bits(coder.block_bits, levels)
    return CodedPlane(
        recon_residual=decode_luma_levels(levels, h, w, qp),
        bits=bits, cnz4=coded.reshape(h // 4, w // 4), levels=levels,
    )


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
    deq = dequantize(blocks_to_plane(ac_levels, height, width), qp)
    dc = chroma_dc_dequantize(hadamard2x2(dc_levels), qp)
    deq[::4, ::4] = (
        dc.reshape(height // 8, width // 8, 2, 2)
        .transpose(0, 2, 1, 3)
        .reshape(height // 4, width // 4)
    )
    return inverse_transform(deq)


def code_chroma_plane(
    residual: np.ndarray, luma_qp: int, intra: bool, coder=None
) -> CodedChromaPlane:
    """TQ + TQ⁻¹ for a chroma residual plane with the 2×2 DC Hadamard pass.

    ``residual`` is the full chroma plane ``(H/2, W/2)``, integer within
    ±255; one MB contributes an 8×8 region, i.e. a 2×2 group of 4×4 blocks
    whose DC coefficients go through the Hadamard/quant side path.
    """
    coder = coder or get_coder("lite")
    qp = chroma_qp(luma_qp)
    h, w = residual.shape
    if h % 8 or w % 8:
        raise ValueError(f"chroma plane {residual.shape} not 8x8-aligned")
    coeffs = forward_transform(residual)

    # DC side path: group per MB (2×2 neighbouring blocks), then zero the
    # DC positions so the AC path quantizes them to level 0.
    dc = coeffs[::4, ::4]
    dc_mb = dc.reshape(h // 8, 2, w // 8, 2).transpose(0, 2, 1, 3).reshape(-1, 2, 2)
    dc_levels = chroma_dc_quantize(hadamard2x2(dc_mb), qp, intra)
    dc[...] = 0
    ac_levels = plane_to_blocks(quantize(coeffs, qp, intra))

    ac_bits, _ = _stack_bits(coder.block_bits, ac_levels)
    dc_bits, _ = _stack_bits(coder.chroma_dc_bits, dc_levels)
    return CodedChromaPlane(
        recon_residual=decode_chroma_levels(ac_levels, dc_levels, h, w, luma_qp),
        bits=ac_bits + dc_bits, ac_levels=ac_levels, dc_levels=dc_levels,
    )


def reconstruct(pred: np.ndarray, recon_residual: np.ndarray) -> np.ndarray:
    """Clip prediction + reconstructed residual to uint8."""
    total = pred + recon_residual
    return np.minimum(np.maximum(total, 0, out=total), 255, out=total).astype(np.uint8)
