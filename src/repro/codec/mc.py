"""MC: partition-mode decision and motion-compensated prediction.

Per the paper (§II), MC selects the best MB-partitioning mode for each MB
"according to the adopted distortion metric and the refined MVs from the
SME", then builds the prediction so the residual can be transformed. We use
the standard Lagrangian decision: ``cost = SAD + λ·(mode/ref/MVD bits)``
with Exp-Golomb code lengths for the rate term.

Luma prediction samples the quarter-pel SF; chroma prediction uses the
standard H.264 eighth-pel bilinear interpolation on the reference chroma
planes. Everything is vectorized over the MBs that picked a given mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.entropy import se_len, ue_len
from repro.codec.frames import YuvFrame
from repro.codec.interpolation import subpel_blocks
from repro.codec.partitions import get_mode
from repro.codec.sme import SubpelField


@dataclass
class MCResult:
    """Outcome of mode decision + prediction for a full frame.

    Attributes
    ----------
    pred:
        Predicted frame (uint8 planes).
    mode_idx:
        ``(mb_rows, mb_cols)`` chosen partition-mode index into
        ``field.mode_shapes``.
    mv4, ref4:
        Per-4×4-luma-block grids ``(H/4, W/4, 2)`` / ``(H/4, W/4)`` of the
        covering partition's quarter-pel MV and reference index (consumed by
        DBL's boundary-strength derivation and by entropy coding).
    header_bits:
        Total mode + reference + MVD bits of the frame.
    distortion:
        Sum of the winning partitions' SADs (reporting only).
    """

    pred: YuvFrame
    mode_idx: np.ndarray
    mv4: np.ndarray
    ref4: np.ndarray
    header_bits: int
    distortion: int


def _mv_predictors(field: SubpelField) -> np.ndarray:
    """Per-MB MV predictor: the 16×16 MV of the left neighbour (0 at col 0).

    A simplification of the H.264 median predictor that stays raster-
    parallel (documented in DESIGN.md); used for MVD rate accounting only.
    """
    base = field.qmvs[(16, 16)][:, :, 0, :]  # (rows, cols, 2)
    pred = np.zeros_like(base)
    pred[:, 1:] = base[:, :-1]
    return pred


def decide_modes(field: SubpelField, cfg: CodecConfig, qp: int) -> np.ndarray:
    """Choose the minimum-cost partition mode per MB.

    Returns ``(nrows, mb_cols)`` indices into ``field.mode_shapes``. Ties
    break toward the earlier (larger-partition) mode, matching the encoder's
    preference for cheaper signalling.
    """
    lam = cfg.lambda_for(qp)
    pred = _mv_predictors(field)
    costs = []
    for mode_i, shape in enumerate(field.mode_shapes):
        dist = field.sads[shape].sum(axis=-1).astype(np.float64)
        mvd = field.qmvs[shape] - pred[:, :, None, :]
        mv_bits = se_len(mvd).sum(axis=(-2, -1))
        ref_bits = ue_len(field.refs[shape]).sum(axis=-1)
        mode_bits = int(ue_len(mode_i))
        costs.append(dist + lam * (mv_bits + ref_bits + mode_bits))
    cost = np.stack(costs, axis=0)
    return cost.argmin(axis=0)


#: Edge margin of a padded reference chroma plane: the largest chroma block
#: plus the bilinear tap's one extra sample — from the block size, never from
#: an MV (the parser admits components up to 2¹⁶ quarter-pels).
_CHROMA_PAD = MB_SIZE // 2 + 1


def _chroma_predict(
    padded: np.ndarray, cqy: np.ndarray, cqx: np.ndarray, ch: int, cw: int
) -> np.ndarray:
    """Eighth-pel bilinear chroma prediction, ``(n, 2, ch, cw)`` for U and V.

    ``padded`` is a reference's U and V stacked and edge-padded by
    ``P = _CHROMA_PAD`` on both axes; ``cqy/cqx`` are
    eighth-chroma-sample positions of each block's top-left corner
    (numerically equal to the luma quarter-pel position). Every sample is
    read at its position clipped into the plane: a block's integer position
    clamped to ``[−P, hh]`` (``[−P, ww]``) reads the same clipped samples —
    beyond that range all of them are the border row (column) — so one
    ``(ch + 1, cw + 1)`` patch per block and plane holds its four taps. The
    weighted sum fits uint16: at most ``8 · 8 · 255 + 32 = 16 352``.
    """
    pad = _CHROMA_PAD
    hh, ww = padded.shape[1] - 2 * pad, padded.shape[2] - 2 * pad
    iy = np.minimum(np.maximum(cqy >> 3, -pad), hh) + pad
    ix = np.minimum(np.maximum(cqx >> 3, -pad), ww) + pad
    # (2, ch + 1, cw + 1, n): the instance axis innermost, so every pass
    # below runs over rows of n blocks.
    patch = (
        sliding_window_view(padded, (ch + 1, cw + 1), axis=(1, 2))[:, iy, ix]
        .transpose(0, 2, 3, 1)
        .astype(np.uint16)
    )
    wy = (cqy & 7).astype(np.uint16)
    wx = (cqx & 7).astype(np.uint16)
    # Separable: (8 − wy)·row(y) + wy·row(y + 1), each row (8 − wx)·a + wx·b
    # — the same integer as the four-tap sum.
    rows = (8 - wx) * patch[:, :, :-1] + wx * patch[:, :, 1:]
    num = (8 - wy) * rows[:, :-1] + wy * rows[:, 1:]
    num += 32
    num >>= 6
    return num.astype(np.uint8).transpose(3, 0, 1, 2)


def _cell_partitions(mode) -> np.ndarray:
    """``(4, 4)`` index of the partition covering each 4×4 cell of an MB."""
    bh, bw = mode.shape
    table = np.empty((MB_SIZE // 4, MB_SIZE // 4), dtype=np.intp)
    for p, (oy, ox) in enumerate(mode.origins // 4):
        table[oy : oy + bh // 4, ox : ox + bw // 4] = p
    return table


def build_prediction(
    mode_idx: np.ndarray,
    mode_shapes: tuple[tuple[int, int], ...],
    qmvs: dict[tuple[int, int], np.ndarray],
    refs: dict[tuple[int, int], np.ndarray],
    sfs: list[np.ndarray],
    ref_chroma: list[tuple[np.ndarray, np.ndarray]],
    height: int,
    width: int,
) -> tuple[YuvFrame, np.ndarray, np.ndarray]:
    """Build the motion-compensated frame from per-mode MV/ref arrays.

    Shared by the encoder's MC stage and the standalone decoder — both must
    sample the SF (luma, clamped at borders) and the reference chroma
    (eighth-pel bilinear) identically for drift-free reconstruction.

    Per mode the sub-partitions of every MB that chose it are one stack:
    per reference one :func:`subpel_blocks` gather and one chroma patch
    gather for U and V, scattered through a ``(rows, 16/bh, bh, cols,
    16/bw, bw)`` view of the prediction; ``mv4``/``ref4`` take one assignment per
    mode through the cell→partition table. A reference index without an SF
    is rejected, not predicted from.

    Returns ``(pred_frame, mv4_grid, ref4_grid)``.
    """
    h, w = height, width
    mb_rows, mb_cols = h // MB_SIZE, w // MB_SIZE
    pred_y = np.zeros((h, w), dtype=np.uint8)
    pred_uv = np.zeros((2, h // 2, w // 2), dtype=np.uint8)
    mv4 = np.zeros((h // 4, w // 4, 2), dtype=np.int32)
    ref4 = np.zeros((h // 4, w // 4), dtype=np.int32)
    pad = ((0, 0), (_CHROMA_PAD, _CHROMA_PAD), (_CHROMA_PAD, _CHROMA_PAD))
    padded_chroma = [np.pad(np.stack(uv), pad, mode="edge") for uv in ref_chroma]

    for mode_i, shape in enumerate(mode_shapes):
        sel = mode_idx == mode_i
        if not sel.any():
            continue
        mode = get_mode(shape)
        bh, bw = shape
        ch, cw = bh // 2, bw // 2
        rr, cc = np.nonzero(sel)
        qmv = qmvs[shape][rr, cc]                # (n, nparts, 2)
        prefs = refs[shape][rr, cc]              # (n, nparts)
        if not 0 <= prefs.min() <= prefs.max() < len(sfs):
            bad = prefs.max() if prefs.max() >= len(sfs) else prefs.min()
            raise ValueError(
                f"refs[{shape}] names reference {bad} but only "
                f"{len(sfs)} SF(s) were given"
            )

        # Per-4×4-block metadata for DBL / entropy.
        cells = _cell_partitions(mode)
        mv4.reshape(mb_rows, 4, mb_cols, 4, 2)[rr, :, cc] = qmv[:, cells]
        ref4.reshape(mb_rows, 4, mb_cols, 4)[rr, :, cc] = prefs[:, cells]

        # Every sub-partition instance, flattened [mb, part].
        mb_r, mb_c = np.repeat(rr, mode.nparts), np.repeat(cc, mode.nparts)
        py = np.tile(mode.origins[:, 0] // bh, len(rr))
        px = np.tile(mode.origins[:, 1] // bw, len(rr))  # noqa: REP004 - block width
        # Quarter-pel (luma) = eighth-pel (chroma) block positions, unclamped.
        cqy = ((MB_SIZE * rr[:, None] + mode.origins[:, 0]) * 4 + qmv[..., 0]).ravel()
        cqx = ((MB_SIZE * cc[:, None] + mode.origins[:, 1]) * 4 + qmv[..., 1]).ravel()
        qy = np.minimum(np.maximum(cqy, 0), 4 * (h - bh))
        qx = np.minimum(np.maximum(cqx, 0), 4 * (w - bw))
        view_y = pred_y.reshape(mb_rows, MB_SIZE // bh, bh, mb_cols, -1, bw)
        view_uv = pred_uv.reshape(2, mb_rows, MB_SIZE // bh, ch, mb_cols, -1, cw)
        flat_ref = prefs.ravel()
        for ref, sf in enumerate(sfs):
            k = np.flatnonzero(flat_ref == ref)
            if not k.size:
                continue
            at = (mb_r[k], py[k], slice(None), mb_c[k], px[k])
            view_y[at] = subpel_blocks(sf, qy[k], qx[k], bh, bw)
            view_uv[(slice(None),) + at] = _chroma_predict(
                padded_chroma[ref], cqy[k], cqx[k], ch, cw
            )

    return YuvFrame(pred_y, pred_uv[0], pred_uv[1]), mv4, ref4


def motion_compensate(
    cur: YuvFrame,
    field: SubpelField,
    sfs: list[np.ndarray],
    ref_chroma: list[tuple[np.ndarray, np.ndarray]],
    cfg: CodecConfig,
    qp: int,
) -> MCResult:
    """Run mode decision and build the full-frame prediction.

    Parameters
    ----------
    cur:
        Current frame (used for geometry and distortion reporting).
    field:
        Full-frame SME output.
    sfs:
        Quarter-pel SF per reference (luma).
    ref_chroma:
        ``(u, v)`` reconstructed chroma planes per reference.
    """
    h, w = cur.y.shape
    mb_rows = h // MB_SIZE
    if field.row0 != 0 or field.nrows != mb_rows:
        raise ValueError("MC requires a full-frame SubpelField")
    mode_idx = decide_modes(field, cfg, qp)

    pred_mv = _mv_predictors(field)
    header_bits = 0
    distortion = 0
    for mode_i, shape in enumerate(field.mode_shapes):
        sel = mode_idx == mode_i
        if not sel.any():
            continue
        rr, cc = np.nonzero(sel)
        header_bits += int(ue_len(mode_i)) * len(rr)
        mvd = field.qmvs[shape][rr, cc] - pred_mv[rr, cc][:, None, :]
        header_bits += int(se_len(mvd).sum())
        header_bits += int(ue_len(field.refs[shape][rr, cc]).sum())
        distortion += int(field.sads[shape][rr, cc].sum())

    pred, mv4, ref4 = build_prediction(
        mode_idx, field.mode_shapes, field.qmvs, field.refs,
        sfs, ref_chroma, h, w,
    )
    return MCResult(
        pred=pred,
        mode_idx=mode_idx,
        mv4=mv4,
        ref4=ref4,
        header_bits=header_bits,
        distortion=distortion,
    )
