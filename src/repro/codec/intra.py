"""Intra coding for the I frames of each GOP.

The paper's evaluation uses IPPP sequences — the intra path only bootstraps
reference frames, with all the interesting work in the inter loop. Still,
the implementation is realistic: per-MB mode decision over the Intra_16x16
luma modes (V / H / DC / Plane) and the corresponding 8×8 chroma modes,
predicted from *reconstructed* neighbours (so macroblocks are processed in
raster order) and signalled in the bitstream for the standalone decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.frames import YuvFrame
from repro.codec.entropy import get_coder, ue_len
from repro.codec.intra4 import (
    I4_DC,
    choose_mode4,
    mode_signal_bits,
    most_probable_mode,
)
from repro.codec.intra_pred import choose_mode, predict_block
from repro.codec.residual import code_chroma_plane, code_luma_plane, reconstruct
from repro.codec.slices import (
    slice_start_block_rows,
    slice_start_luma_rows,
)


def mpm_for_block(
    mode4_grid: np.ndarray,
    gy: int,
    gx: int,
    slice_grows: frozenset[int] = frozenset((0,)),
) -> int:
    """Most-probable Intra_4x4 mode from the decoded mode grid.

    Shared by the encoder, the bitstream writer and the decoder so the MPM
    context always matches. ``slice_grows`` are 4×4-grid rows where a slice
    begins (the top neighbour is treated as unavailable there).
    """
    left = int(mode4_grid[gy, gx - 1]) if gx > 0 else None
    top = int(mode4_grid[gy - 1, gx]) if (gy > 0 and gy not in slice_grows) else None
    return most_probable_mode(left, top)


@dataclass
class IntraFrameResult:
    """Reconstruction, rate and syntax elements of one intra frame.

    Level arrays are in MB raster order (for the bitstream serializer):
    ``luma_levels`` is ``(n_mb, 16, 4, 4)``; per chroma plane, ``*_ac`` is
    ``(n_mb, 4, 4, 4)`` (four AC blocks per MB, zero DC) and ``*_dc`` is
    ``(n_mb, 2, 2)``.
    """

    recon: YuvFrame
    bits: int
    cnz4: np.ndarray
    luma_levels: np.ndarray | None = None
    u_ac: np.ndarray | None = None
    u_dc: np.ndarray | None = None
    v_ac: np.ndarray | None = None
    v_dc: np.ndarray | None = None
    luma_modes: np.ndarray | None = None   # (mb_rows, mb_cols) I16 modes
    chroma_modes: np.ndarray | None = None
    mb_types: np.ndarray | None = None     # (mb_rows, mb_cols) 0=I16, 1=I4
    i4_modes: np.ndarray | None = None     # (n_mb, 16) per-block I4 modes


def intra_encode_frame(cur: YuvFrame, cfg: CodecConfig) -> IntraFrameResult:
    """Encode one I frame.

    Per MB the encoder evaluates two luma candidates and keeps the better
    SAD + λ·bits trade-off:

    - **Intra_16x16**: one V/H/DC/Plane prediction for the whole MB;
    - **Intra_4x4**: sixteen per-block directional predictions with
      MPM-based mode signalling (each block predicted from the progressive
      reconstruction, so detailed content gets sharper predictors).

    Chroma uses an 8×8 V/H/DC/Plane mode shared by U and V.
    """
    qp = cfg.qp_i
    lam = cfg.lambda_for(qp)
    coder = get_coder(cfg.entropy_coder)
    h, w = cur.y.shape
    mb_rows, mb_cols = h // MB_SIZE, w // MB_SIZE

    recon_y = np.zeros((h, w), dtype=np.uint8)
    recon_u = np.zeros((h // 2, w // 2), dtype=np.uint8)
    recon_v = np.zeros((h // 2, w // 2), dtype=np.uint8)
    cnz4 = np.zeros((h // 4, w // 4), dtype=bool)
    bits = 0
    n_mb = mb_rows * mb_cols
    luma_levels = np.zeros((n_mb, 16, 4, 4), dtype=np.int32)
    c_ac = {
        "u": np.zeros((n_mb, 4, 4, 4), dtype=np.int32),
        "v": np.zeros((n_mb, 4, 4, 4), dtype=np.int32),
    }
    c_dc = {
        "u": np.zeros((n_mb, 2, 2), dtype=np.int32),
        "v": np.zeros((n_mb, 2, 2), dtype=np.int32),
    }
    luma_modes = np.zeros((mb_rows, mb_cols), dtype=np.int32)
    chroma_modes = np.zeros((mb_rows, mb_cols), dtype=np.int32)
    mb_types = np.zeros((mb_rows, mb_cols), dtype=np.int32)
    i4_modes = np.zeros((n_mb, 16), dtype=np.int32)
    mode4_grid = np.full((h // 4, w // 4), I4_DC, dtype=np.int32)
    luma_starts = slice_start_luma_rows(cfg)
    chroma_starts = frozenset(r // 2 for r in luma_starts)
    grid_starts = slice_start_block_rows(cfg)

    for r in range(mb_rows):
        for c in range(mb_cols):
            mb = r * mb_cols + c
            y0, x0 = r * MB_SIZE, c * MB_SIZE
            cy0, cx0 = y0 // 2, x0 // 2

            cur_mb = cur.y[y0 : y0 + 16, x0 : x0 + 16]

            mb_has_top = y0 not in luma_starts

            # --- Intra_16x16 candidate (does not touch recon_y) ----------
            mode_y, pred_y = choose_mode(
                cur_mb, recon_y, y0, x0, MB_SIZE, lam, has_top=mb_has_top
            )
            coded16 = code_luma_plane(
                cur_mb.astype(np.int64) - pred_y, qp, intra=True, coder=coder
            )
            recon16 = reconstruct(pred_y, coded16.recon_residual)
            bits16 = coded16.bits + int(ue_len(mode_y)) + 1  # +1 mb_type bit
            sad16 = int(np.abs(cur_mb.astype(np.int64) - recon16).sum())

            # --- Intra_4x4 candidate (codes progressively into recon_y) --
            bits4 = 1  # mb_type bit
            levels4 = np.zeros((16, 4, 4), dtype=np.int32)
            modes4 = np.zeros(16, dtype=np.int32)
            for blk in range(16):
                by, bx = divmod(blk, 4)
                br, bc = y0 + 4 * by, x0 + 4 * bx
                gy, gx = br // 4, bc // 4
                mpm = mpm_for_block(mode4_grid, gy, gx, grid_starts)
                cur_blk = cur.y[br : br + 4, bc : bc + 4]
                mode4, pred4 = choose_mode4(
                    cur_blk, recon_y, br, bc, mpm, lam,
                    has_top=br not in luma_starts,
                )
                coded_blk = code_luma_plane(
                    cur_blk.astype(np.int64) - pred4, qp, intra=True,
                    coder=coder,
                )
                recon_y[br : br + 4, bc : bc + 4] = reconstruct(
                    pred4, coded_blk.recon_residual
                )
                levels4[blk] = coded_blk.levels[0]
                modes4[blk] = mode4
                mode4_grid[gy, gx] = mode4
                bits4 += coded_blk.bits + mode_signal_bits(mode4, mpm)
            sad4 = int(np.abs(
                cur_mb.astype(np.int64)
                - recon_y[y0 : y0 + 16, x0 : x0 + 16]
            ).sum())

            # --- MB-type decision ----------------------------------------
            if sad16 + lam * bits16 <= sad4 + lam * bits4:
                mb_types[r, c] = 0
                luma_modes[r, c] = mode_y
                recon_y[y0 : y0 + 16, x0 : x0 + 16] = recon16
                mode4_grid[y0 // 4 : y0 // 4 + 4, x0 // 4 : x0 // 4 + 4] = I4_DC
                cnz4[y0 // 4 : y0 // 4 + 4, x0 // 4 : x0 // 4 + 4] = coded16.cnz4
                bits += bits16
                luma_levels[mb] = coded16.levels
            else:
                mb_types[r, c] = 1
                i4_modes[mb] = modes4
                cnz4[y0 // 4 : y0 // 4 + 4, x0 // 4 : x0 // 4 + 4] = (
                    levels4 != 0
                ).any(axis=(1, 2)).reshape(4, 4)
                bits += bits4
                luma_levels[mb] = levels4

            # Chroma: one mode shared by U and V (H.264 behaviour), chosen
            # on the U plane.
            cur_u = cur.u[cy0 : cy0 + 8, cx0 : cx0 + 8]
            c_has_top = cy0 not in chroma_starts
            mode_c, _ = choose_mode(
                cur_u, recon_u, cy0, cx0, 8, lam, has_top=c_has_top
            )
            chroma_modes[r, c] = mode_c
            bits += int(ue_len(mode_c))
            for plane_name, plane_cur, plane_rec in (
                ("u", cur.u, recon_u), ("v", cur.v, recon_v)
            ):
                pred_c = predict_block(
                    plane_rec, cy0, cx0, 8, mode_c, has_top=c_has_top
                )
                res_c = (
                    plane_cur[cy0 : cy0 + 8, cx0 : cx0 + 8].astype(np.int64)
                    - pred_c
                )
                coded_c = code_chroma_plane(res_c, qp, intra=True, coder=coder)
                plane_rec[cy0 : cy0 + 8, cx0 : cx0 + 8] = reconstruct(
                    pred_c, coded_c.recon_residual
                )
                bits += coded_c.bits
                c_ac[plane_name][mb] = coded_c.ac_levels
                c_dc[plane_name][mb] = coded_c.dc_levels[0]

    return IntraFrameResult(
        recon=YuvFrame(recon_y, recon_u, recon_v),
        bits=bits,
        cnz4=cnz4,
        luma_levels=luma_levels,
        u_ac=c_ac["u"],
        u_dc=c_dc["u"],
        v_ac=c_ac["v"],
        v_dc=c_dc["v"],
        luma_modes=luma_modes,
        chroma_modes=chroma_modes,
        mb_types=mb_types,
        i4_modes=i4_modes,
    )
