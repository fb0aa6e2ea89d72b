"""TQ and TQ⁻¹: the H.264/AVC 4×4 integer transform with quantization.

A 4×4-aligned plane is its own block stack: coefficient ``(i, j)`` of
block ``(r, c)`` lives at ``(4r + i, 4c + j)`` — as residual sample,
coefficient, level and reconstructed sample alike — so no stage copies
the plane into ``(n, 4, 4)`` order (leading axes stack planes: a stack of
blocks is ``n`` one-block planes). On that layout

- the core transform ``W = Cf · X · Cfᵀ`` and its inverse (standard
  ``(… + 32) >> 6`` rounding) are two passes of slice-add butterflies,
  between the row phases ``plane[i::4]`` then the column phases
  ``plane[:, j::4]``: 64 adds per block where the matrix form has 256 MACs;
- division-free quantization ``Z = sign(W) · ((|W| · MF + f) >> qbits)``
  and rescaling ``W' = Z · V << (QP // 6)`` multiply by one ``(4, W)``
  table row broadcast down the plane;
- the 2×2 Hadamard chroma-DC pass of inter macroblocks is eight adds.

Widths (DESIGN.md "Performance: the R* block"; each bound is pinned over
QP 0–51 by ``tests/codec/test_transform.py::TestWidths``): a residual is
±255, so ``|W| ≤ 9 180`` and a chroma DC after its Hadamard ``≤ 16 320``:
the forward side is **int16**; ``|W| · MF + f ≤ 2.2 · 10⁸``: the quantiser
is **int32**; levels are ``≤ 3 264`` and TQ⁻¹ peaks at ``1 151 104`` before
its ``>> 8``: **int32**, for any level within ``±MAX_LEVEL``. The int64
matrix forms these replaced are ``tests/oracles.py::reference_*``.
"""

from __future__ import annotations

import numpy as np

from repro.codec.quant import mf_matrix, v_matrix
from repro.util.validation import check_range

#: Largest level magnitude TQ⁻¹ accepts (the quantiser emits ≤ 3 264): 12
#: bits keep ``level · V << (QP // 6)`` through both inverse butterflies
#: (×49) under 2³¹ at every QP — 4 095 · 29 · 2⁸ · 49 ≈ 1.5 · 10⁹.
MAX_LEVEL = 4095


def _aligned(a: np.ndarray, what: str) -> None:
    if a.ndim < 2 or a.shape[-2] % 4 or a.shape[-1] % 4:
        raise ValueError(f"{what} {a.shape} not 4x4-aligned")


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Split an ``(H, W)`` plane (H, W multiples of 4) into ``(n, 4, 4)``.

    Blocks are ordered raster-scan by 4×4 block position; the inverse is
    :func:`blocks_to_plane`.
    """
    _aligned(plane, "plane")
    h, w = plane.shape
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


def _phases(a: np.ndarray, cols: bool) -> list[np.ndarray]:
    """The four row (or column) phases of a plane's 4×4 blocks — rows
    ``i, i + 4, …`` (columns ``j, j + 4, …``) — as write-through views."""
    return [a[..., j::4] if cols else a[..., j::4, :] for j in range(4)]


def _both_ways(step, src: np.ndarray, dtype: type) -> np.ndarray:
    """A 1-D butterfly down the rows of ``src``'s blocks, then along their
    columns in place, into a new ``dtype`` array."""
    out = np.empty(src.shape, dtype=dtype)
    step(_phases(src, False), _phases(out, False))
    step(_phases(out, True), _phases(out, True))
    return out


def _forward_1d(x: list[np.ndarray], y: list[np.ndarray]) -> None:
    """``y[i] = Σ_j Cf[i, j] · x[j]`` over the four phases, with
    ``Cf = [[1,1,1,1],[2,1,-1,-2],[1,-1,-1,1],[1,-2,2,-1]]`` (``y`` may be ``x``)."""
    s03, s12 = x[0] + x[3], x[1] + x[2]
    d03, d12 = x[0] - x[3], x[1] - x[2]
    np.add(s03, s12, out=y[0])
    np.subtract(s03, s12, out=y[2])
    np.add(d03 + d03, d12, out=y[1])
    np.subtract(d03, d12 + d12, out=y[3])


def _inverse_1d(w: list[np.ndarray], y: list[np.ndarray]) -> None:
    """``y[i] = Σ_j Ci2[j, i] · w[j]`` with the inverse matrix doubled,
    ``Ci2 = [[2,2,2,2],[2,1,-1,-2],[2,-2,-2,2],[1,-2,2,-1]]``, so that its
    ½ entries stay integral (``y`` may be ``w``)."""
    e0, e1 = (w[0] + w[2]) * 2, (w[0] - w[2]) * 2
    o0, o1 = w[1] * 2 + w[3], w[1] - w[3] * 2
    np.add(e0, o0, out=y[0])
    np.subtract(e0, o0, out=y[3])
    np.add(e1, o1, out=y[1])
    np.subtract(e1, o1, out=y[2])


def forward_transform(residual: np.ndarray) -> np.ndarray:
    """Core transform of every 4×4 block of a residual plane, in int16.

    ``residual`` is an integer ``(…, H, W)`` array within ±255, the
    difference of two 8-bit samples (rejected otherwise: int16 would wrap
    what a wider type silently absorbed).
    """
    if residual.dtype.kind not in "iu":
        raise ValueError(f"residual must be an integer array, got {residual.dtype}")
    _aligned(residual, "residual")
    if residual.size and max(-int(residual.min()), int(residual.max())) > 255:
        raise ValueError(
            f"residual outside ±255: [{residual.min()}, {residual.max()}]"
        )
    return _both_ways(_forward_1d, residual.astype(np.int16, copy=False), np.int16)


def _quantize(coeffs: np.ndarray, mf: np.ndarray, f: int, qbits: int) -> np.ndarray:
    """``sign(W) · ((|W| · MF + f) >> qbits)``, widened to int32 first."""
    mag = np.abs(coeffs).astype(np.int32)
    mag *= mf
    mag += f
    mag >>= qbits
    mag *= np.sign(coeffs)
    return mag


def _by_position(table: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A per-coefficient-position 4×4 table tiled to one ``(4, W)`` row of
    blocks, and the ``(…, H/4, 4, W)`` view of ``a`` it broadcasts against."""
    _aligned(a, "plane")
    h, w = a.shape[-2:]
    row = table[:, None, :].repeat(w // 4, axis=1).reshape(4, w)
    return row, a.reshape(*a.shape[:-2], h // 4, 4, w)


def quantize(coeffs: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize ``(…, H, W)`` transformed coefficients to int32 levels.

    ``f`` is the standard dead-zone offset: ``2**qbits / 3`` for intra and
    ``2**qbits / 6`` for inter blocks.
    """
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6
    f = (1 << qbits) // (3 if intra else 6)
    mf, rows = _by_position(mf_matrix(qp), coeffs)
    return _quantize(rows, mf, f, qbits).reshape(coeffs.shape)


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale ``(…, H, W)`` quantized levels back to coefficient magnitude."""
    check_range("qp", qp, 0, 51)
    v, rows = _by_position(v_matrix(qp), levels)
    return ((rows * v) << (qp // 6)).reshape(levels.shape)


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse core transform with standard rounding: ``(· + 32) >> 6``.

    The doubled inverse matrix (see :func:`_inverse_1d`) contributes a
    factor 4, compensated by shifting 8 instead of 6. int32 throughout.
    """
    _aligned(coeffs, "plane")
    out = _both_ways(_inverse_1d, coeffs, np.int32)
    out += 128
    out >>= 8
    return out


def hadamard2x2(dc: np.ndarray) -> np.ndarray:
    """2×2 Hadamard of ``(…, 2, 2)`` chroma-DC groups (its own inverse up
    to scale 4), in the dtype of ``dc``."""
    s0, s1 = dc[..., 0, 0] + dc[..., 0, 1], dc[..., 1, 0] + dc[..., 1, 1]
    d0, d1 = dc[..., 0, 0] - dc[..., 0, 1], dc[..., 1, 0] - dc[..., 1, 1]
    return np.stack([s0 + s1, d0 + d1, s0 - s1, d0 - d1], axis=-1).reshape(dc.shape)


def chroma_dc_quantize(dc: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize Hadamard-transformed 2×2 chroma DC values."""
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6 + 1
    f = (1 << qbits) // (3 if intra else 6)
    return _quantize(dc, mf_matrix(qp)[0, 0], f, qbits)


def chroma_dc_dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale inverse-Hadamard'd chroma-DC levels.

    Returns values at the *dequantized-coefficient* scale expected by
    :func:`inverse_transform` (4× the forward-transform output, like
    :func:`dequantize` for AC coefficients) — insert the result at the
    (0,0) position of the dequantized block before the inverse transform.
    """
    check_range("qp", qp, 0, 51)
    v00 = int(v_matrix(qp)[0, 0])
    return (levels * (v00 << (qp // 6))) >> 1
