"""Sum-of-Absolute-Differences kernels.

H.264 FSBM evaluates every displacement in the search area against every MB
partition. The standard trick (used by the paper's optimized kernels and
reproduced here in vectorized NumPy) is *SAD reuse*: compute the SAD of each
of the sixteen 4×4 cells of a macroblock once per displacement, then obtain
any of the 41 sub-partition SADs (1+2+2+4+8+8+16 across the 7 modes) as sums
of cell SADs (:class:`repro.codec.partitions.PartitionSadTree`).

Every intermediate lives at the width the data needs. ``|a − b|`` of two
``uint8`` samples is ``max(a, b) − min(a, b)``, which never leaves
``uint8``; a 4×4 cell SAD is at most ``16 · 255 = 4 080`` and the largest
sum built from cells — a whole 16×16 MB, all-0 against all-255 — is
``256 · 255 = 65 280 < 2¹⁶``, so ``uint16`` is exact for every partition
shape and any search range.
"""

from __future__ import annotations

import numpy as np

from repro.codec.config import MB_SIZE

#: Number of 4×4 cells per MB side.
CELLS = MB_SIZE // 4


def strip_cell_sads_batch(
    cur_strip: np.ndarray, ref_windows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Cell SADs for one MB row at a batch of displacements.

    Parameters
    ----------
    cur_strip:
        ``(16, W)`` uint8 current strip.
    ref_windows:
        ``(n_disp, 16, W)`` uint8 displaced reference strips (usually a
        sliding-window view — no copy).
    out:
        Optional ``(n_disp, mb_cols, 4, 4)`` uint16 destination of any
        memory layout (FSBM passes :attr:`PartitionSadTree.cells`).

    Returns
    -------
    ndarray ``(n_disp, mb_cols, 4, 4)`` uint16, indexed
    ``[disp, mb, cell_row, cell_col]``.
    """
    n, h, w = ref_windows.shape
    if (h, w) != cur_strip.shape or h != MB_SIZE or w % MB_SIZE != 0:
        raise ValueError(
            f"incompatible shapes cur={cur_strip.shape} windows={ref_windows.shape}"
        )
    if cur_strip.dtype != np.uint8 or ref_windows.dtype != np.uint8:
        raise ValueError(
            f"uint8 samples required, got cur={cur_strip.dtype} "
            f"windows={ref_windows.dtype}"
        )
    mb_cols = w // MB_SIZE
    ad = np.maximum(ref_windows, cur_strip)
    ad -= np.minimum(ref_windows, cur_strip)
    # Four pel rows -> one cell row: widen once, then contiguous slice-adds.
    pel_rows = ad.reshape(n, CELLS, 4, w)
    rows = pel_rows[:, :, 0].astype(np.uint16)
    rows += pel_rows[:, :, 1]
    rows += pel_rows[:, :, 2]
    rows += pel_rows[:, :, 3]
    # Four pel columns -> one cell column; quads is [disp, cy, mb, cx, pel].
    quads = rows.reshape(n, CELLS, mb_cols, CELLS, 4)
    cells = quads[..., 0] + quads[..., 1]
    cells += quads[..., 2]
    cells += quads[..., 3]
    cells = cells.transpose(0, 2, 1, 3)
    if out is None:
        return cells
    out[...] = cells
    return out


def strip_cell_sads(cur_strip: np.ndarray, ref_strip: np.ndarray) -> np.ndarray:
    """4×4-cell SADs ``(mb_cols, 4, 4)`` for one MB row at one displacement.

    ``cur_strip`` and ``ref_strip`` are ``(16, W)`` uint8 strips; the result
    is indexed ``[mb, cell_row, cell_col]``.
    """
    if cur_strip.shape != ref_strip.shape:
        raise ValueError(
            f"strip shape mismatch: {cur_strip.shape} vs {ref_strip.shape}"
        )
    return strip_cell_sads_batch(cur_strip, ref_strip[None])[0]
