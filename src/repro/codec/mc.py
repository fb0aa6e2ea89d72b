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


def _chroma_predict(
    ref_plane: np.ndarray, cqy: np.ndarray, cqx: np.ndarray, ch: int, cw: int
) -> np.ndarray:
    """Eighth-pel bilinear chroma prediction for a stack of blocks.

    ``cqy/cqx`` are eighth-chroma-sample positions of each block's top-left
    corner (numerically equal to the luma quarter-pel position).
    """
    hh, ww = ref_plane.shape
    iy, fy = cqy >> 3, (cqy & 7).astype(np.int64)
    ix, fx = cqx >> 3, (cqx & 7).astype(np.int64)
    ry = iy[:, None] + np.arange(ch, dtype=np.int64)[None, :]
    rx = ix[:, None] + np.arange(cw, dtype=np.int64)[None, :]
    ry0 = np.clip(ry, 0, hh - 1)
    rx0 = np.clip(rx, 0, ww - 1)
    ry1 = np.clip(ry + 1, 0, hh - 1)
    rx1 = np.clip(rx + 1, 0, ww - 1)
    a = ref_plane[ry0[:, :, None], rx0[:, None, :]].astype(np.int64)
    b = ref_plane[ry0[:, :, None], rx1[:, None, :]].astype(np.int64)
    c = ref_plane[ry1[:, :, None], rx0[:, None, :]].astype(np.int64)
    d = ref_plane[ry1[:, :, None], rx1[:, None, :]].astype(np.int64)
    wy = fy[:, None, None]
    wx = fx[:, None, None]
    num = (
        (8 - wx) * (8 - wy) * a
        + wx * (8 - wy) * b
        + (8 - wx) * wy * c
        + wx * wy * d
        + 32
    )
    return (num >> 6).astype(np.uint8)


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

    Returns ``(pred_frame, mv4_grid, ref4_grid)``.
    """
    h, w = height, width
    pred_y = np.zeros((h, w), dtype=np.uint8)
    pred_u = np.zeros((h // 2, w // 2), dtype=np.uint8)
    pred_v = np.zeros((h // 2, w // 2), dtype=np.uint8)
    mv4 = np.zeros((h // 4, w // 4, 2), dtype=np.int32)
    ref4 = np.zeros((h // 4, w // 4), dtype=np.int32)
    n_refs = len(sfs)

    for mode_i, shape in enumerate(mode_shapes):
        sel = mode_idx == mode_i
        if not sel.any():
            continue
        mode = get_mode(shape)
        bh, bw = shape
        rr, cc = np.nonzero(sel)
        for p in range(mode.nparts):
            oy, ox = int(mode.origins[p, 0]), int(mode.origins[p, 1])
            base_y = rr * MB_SIZE + oy
            base_x = cc * MB_SIZE + ox
            qmv = qmvs[shape][rr, cc, p]         # (n, 2)
            prefs = refs[shape][rr, cc, p]
            qy = np.clip(4 * base_y + qmv[:, 0], 0, 4 * (h - bh)).astype(np.int64)
            qx = np.clip(4 * base_x + qmv[:, 1], 0, 4 * (w - bw)).astype(np.int64)

            # Per-4×4-block metadata for DBL / entropy.
            for cy in range(bh // 4):
                for cx in range(bw // 4):
                    g_r = (base_y // 4) + cy
                    g_c = (base_x // 4) + cx
                    mv4[g_r, g_c] = qmv
                    ref4[g_r, g_c] = prefs

            for ref in range(n_refs):
                mask = prefs == ref
                if not mask.any():
                    continue
                blocks = subpel_blocks(sfs[ref], qy[mask], qx[mask], bh, bw)
                rows = base_y[mask][:, None] + np.arange(bh)[None, :]
                cols = base_x[mask][:, None] + np.arange(bw)[None, :]
                pred_y[rows[:, :, None], cols[:, None, :]] = blocks

                cqy = (4 * base_y[mask] + qmv[mask, 0]).astype(np.int64)
                cqx = (4 * base_x[mask] + qmv[mask, 1]).astype(np.int64)
                ch, cw = bh // 2, bw // 2
                u_ref, v_ref = ref_chroma[ref]
                u_blocks = _chroma_predict(u_ref, cqy, cqx, ch, cw)
                v_blocks = _chroma_predict(v_ref, cqy, cqx, ch, cw)
                crows = (base_y[mask] // 2)[:, None] + np.arange(ch)[None, :]
                ccols = (base_x[mask] // 2)[:, None] + np.arange(cw)[None, :]
                pred_u[crows[:, :, None], ccols[:, None, :]] = u_blocks
                pred_v[crows[:, :, None], ccols[:, None, :]] = v_blocks

    return YuvFrame(pred_y, pred_u, pred_v), mv4, ref4


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
