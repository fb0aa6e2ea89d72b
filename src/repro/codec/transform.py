"""TQ and TQ⁻¹: the H.264/AVC 4×4 integer transform with quantization.

Implements, vectorized over stacks of 4×4 blocks:

- forward core transform ``W = Cf · X · Cfᵀ``;
- division-free quantization ``Z = sign(W) · ((|W| · MF + f) >> qbits)``;
- rescaling ``W' = Z · V << (QP // 6)``;
- inverse core transform with the standard ``(… + 32) >> 6`` rounding;
- the 2×2 Hadamard chroma-DC pass used by inter macroblocks.

Residual planes are processed as ``(n, 4, 4)`` stacks obtained with
:func:`plane_to_blocks` / :func:`blocks_to_plane`, so TQ of a band of MB
rows is a handful of ``einsum`` calls regardless of frame size.
"""

from __future__ import annotations

import numpy as np

from repro.codec.quant import mf_matrix, v_matrix
from repro.util.validation import check_range

#: Forward core-transform matrix.
CF = np.array(
    [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]],
    dtype=np.int64,
)

#: Inverse core-transform matrix scaled by 2 (so it stays integral);
#: the inverse pass compensates with an extra >>1 folded into the >>6.
_CI2 = np.array(
    [[2, 2, 2, 2], [2, 1, -1, -2], [2, -2, -2, 2], [1, -2, 2, -1]],
    dtype=np.int64,
)


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Split an ``(H, W)`` plane (H, W multiples of 4) into ``(n, 4, 4)``.

    Blocks are ordered raster-scan by 4×4 block position; the inverse is
    :func:`blocks_to_plane`.
    """
    h, w = plane.shape
    if h % 4 or w % 4:
        raise ValueError(f"plane {plane.shape} not 4x4-aligned")
    return (
        plane.reshape(h // 4, 4, w // 4, 4).transpose(0, 2, 1, 3).reshape(-1, 4, 4)
    )


def blocks_to_plane(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reassemble ``(n, 4, 4)`` blocks into an ``(height, width)`` plane."""
    if height % 4 or width % 4:
        raise ValueError(f"target {height}x{width} not 4x4-aligned")
    n = (height // 4) * (width // 4)
    if blocks.shape != (n, 4, 4):
        raise ValueError(f"expected {(n, 4, 4)}, got {blocks.shape}")
    return (
        blocks.reshape(height // 4, width // 4, 4, 4)
        .transpose(0, 2, 1, 3)
        .reshape(height, width)
    )


def forward_transform(blocks: np.ndarray) -> np.ndarray:
    """Core transform of ``(n, 4, 4)`` residual blocks (int64 coefficients)."""
    x = blocks.astype(np.int64)
    return np.einsum("ij,njk,lk->nil", CF, x, CF)


def quantize(coeffs: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize transformed coefficients.

    ``f`` is the standard dead-zone offset: ``2**qbits / 3`` for intra and
    ``2**qbits / 6`` for inter blocks.
    """
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6
    f = (1 << qbits) // (3 if intra else 6)
    mf = mf_matrix(qp)
    mag = (np.abs(coeffs) * mf + f) >> qbits
    return (np.sign(coeffs) * mag).astype(np.int32)


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale quantized levels back to coefficient magnitude."""
    check_range("qp", qp, 0, 51)
    v = v_matrix(qp)
    return (levels.astype(np.int64) * v) << (qp // 6)


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse core transform with standard rounding: ``(·// + 32) >> 6``.

    Uses the doubled inverse matrix ``_CI2`` (integral ½ factors), which
    contributes a factor 4 compensated by shifting 8 instead of 6.
    """
    w = coeffs.astype(np.int64)
    y = np.einsum("ji,njk,kl->nil", _CI2, w, _CI2)
    return ((y + 128) >> 8).astype(np.int64)


def hadamard2x2(dc: np.ndarray) -> np.ndarray:
    """2×2 Hadamard used for chroma DC (its own inverse up to scale 4)."""
    h = np.array([[1, 1], [1, -1]], dtype=np.int64)
    return np.einsum("ij,njk,kl->nil", h, dc.astype(np.int64), h)


def chroma_dc_quantize(dc: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize Hadamard-transformed 2×2 chroma DC values."""
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6 + 1
    f = (1 << qbits) // (3 if intra else 6)
    mf00 = mf_matrix(qp)[0, 0]
    mag = (np.abs(dc) * mf00 + f) >> qbits
    return (np.sign(dc) * mag).astype(np.int32)


def chroma_dc_dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale inverse-Hadamard'd chroma-DC levels.

    Returns values at the *dequantized-coefficient* scale expected by
    :func:`inverse_transform` (4× the forward-transform output, like
    :func:`dequantize` for AC coefficients) — insert the result at the
    (0,0) position of the dequantized block before the inverse transform.
    """
    check_range("qp", qp, 0, 51)
    v00 = v_matrix(qp)[0, 0]
    return (levels.astype(np.int64) * v00 * (1 << (qp // 6))) >> 1
