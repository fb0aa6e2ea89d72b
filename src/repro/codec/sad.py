"""Sum-of-Absolute-Differences kernels.

H.264 FSBM evaluates every displacement in the search area against every MB
partition. The standard trick (used by the paper's optimized kernels and
reproduced here in vectorized NumPy) is *SAD reuse*: compute the SAD of each
of the sixteen 4×4 cells of a macroblock once per displacement, then obtain
any of the 41 sub-partition SADs (1+2+2+4+8+8+16 across the 7 modes) as sums
of cell SADs (:class:`repro.codec.partitions.PartitionSadTree`).

The cell SAD itself is taken apart once more: ``|a − b| = a + b − 2·min(a, b)``,
so ``SAD = A + B − 2·M`` with ``A = Σ cur``, ``B = Σ ref`` and
``M = Σ min(cur, ref)`` over the cell, and only M depends on the pairing. A is
one fold of the current strip, B a 4×4 box sum of the reference
(:func:`box_sums`: one table per reference serves every displacement), and
``minimum`` the single pass over the displaced pels (:class:`StripCellSads`).

Every intermediate lives at the width the data needs. A cell sum of ``uint8``
samples is at most ``16 · 255 = 4 080`` and ``2·M ≤ 8 160``, so A, B and 2·M
are exact in ``uint16``; ``B − 2·M`` may wrap below zero, but the arithmetic
is modulo 2¹⁶ and the SAD lies in ``[0, 4 080]``, so adding A lands on it.
Cell arrays are *cell-major*, ``[cell_row, cell_col, disp, mb]`` — the 4×4
level of the partition tree, which the kernel writes into directly.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.codec.config import MB_SIZE

#: Number of 4×4 cells per MB side.
CELLS = MB_SIZE // 4

#: One in each ``uint16`` lane of a ``uint64``: multiplying by it leaves the
#: sum of the four lanes in the top lane.
_LANE_SUM = 0x0001_0001_0001_0001

#: Index of a ``uint64``'s top ``uint16`` lane in memory.
_TOP_LANE = 3 if sys.byteorder == "little" else 0


def box_sums(plane: np.ndarray) -> np.ndarray:
    """4×4 box sums of a uint8 plane at every position.

    ``(H, W)`` uint8 → ``(H − 3, W − 3)`` uint16 with
    ``out[y, x] = plane[y : y + 4, x : x + 4].sum()`` (at most 4 080).
    """
    rows = plane[:-3].astype(np.uint16)
    for k in (1, 2, 3):
        rows += plane[k : plane.shape[0] - 3 + k]
    out = rows[:, :-3].copy()
    for k in (1, 2, 3):
        out += rows[:, k : rows.shape[1] - 3 + k]
    return out


def fold_cells(
    pels: np.ndarray,
    weight: int = 1,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    lanes: np.ndarray | None = None,
) -> np.ndarray:
    """``weight`` (1 or 2) × the sum of every 4×4 cell of a batch of strips.

    ``(n, 16, W)`` uint8 → cell-major ``(4, 4, n, W / 16)`` uint16. ``out``
    and the scratch arrays ``rows`` (``(4, n, W)`` uint16) and ``lanes``
    (``(4, n, W / 4)`` uint64) are allocated when not passed.

    Four pel rows fold into one with a widening copy and three adds. The four
    pel columns of a cell are then the ``uint16`` lanes of one ``uint64`` and
    a single multiply of the contiguous rows sums them into the top lane: a
    lane is at most ``4 · 255 = 1 020``, so no partial sum, even doubled,
    carries into the next lane. The top lanes are read through a ``uint16``
    view and copied into the cell-major ``out``.
    """
    n, _, w = pels.shape
    rows = np.empty((CELLS, n, w), dtype=np.uint16) if rows is None else rows
    lanes = np.empty((CELLS, n, w // 4), dtype=np.uint64) if lanes is None else lanes
    if out is None:
        out = np.empty((CELLS, CELLS, n, w // MB_SIZE), dtype=np.uint16)
    # [pel row of the cell, cell_row, n, x]
    pel_rows = pels.reshape(n, CELLS, 4, w).transpose(2, 1, 0, 3)
    np.copyto(rows, pel_rows[0])
    for k in (1, 2, 3):
        np.add(rows, pel_rows[k], out=rows)
    # One uint64 per cell row of 4 pels, its four column sums in the lanes.
    np.multiply(rows.view(np.uint64), np.uint64(weight * _LANE_SUM), out=lanes)
    # [cell_row, n, mb, cell_col] top lanes -> [cell_row, cell_col, n, mb].
    sums = lanes.view(np.uint16)[..., _TOP_LANE::4].reshape(CELLS, n, -1, CELLS)
    np.copyto(out, sums.transpose(0, 3, 1, 2))
    return out


class StripCellSads:
    """Cell SADs of one current MB-row strip at batches of displacements.

    The one cell-SAD kernel: :meth:`set_current` folds A once per strip;
    :meth:`cell_sads` makes the ``minimum`` pass over the displaced
    reference strips, folds it to 2·M and combines ``B − 2·M + A``. The
    batch of displacements has a shape, ``n_disp`` (an int, or a tuple such
    as FSBM's ``(dy rows, dx)``), fixed here with the window-sized
    ``minimum`` buffer and the fold's scratch, allocated once.
    """

    def __init__(self, n_disp: int | tuple[int, ...], width: int) -> None:
        if width % MB_SIZE:
            raise ValueError(f"strip width {width} not MB-aligned")
        disp = (n_disp,) if isinstance(n_disp, int) else tuple(n_disp)
        n = math.prod(disp)
        self._cells = (CELLS, CELLS, n, width // MB_SIZE)
        self._min = np.empty((*disp, MB_SIZE, width), dtype=np.uint8)
        # The same buffer as the fold reads it: one strip per displacement.
        self._strips = self._min.reshape(n, MB_SIZE, width)
        self._rows = np.empty((CELLS, n, width), dtype=np.uint16)
        self._lanes = np.empty((CELLS, n, width // 4), dtype=np.uint64)
        self._cur_sums = np.empty((CELLS, CELLS, *disp, width // MB_SIZE), dtype=np.uint16)

    def set_current(self, cur_strip: np.ndarray) -> None:
        """Take the ``(16, W)`` uint8 current strip and fold its cell sums."""
        if cur_strip.shape != self._min.shape[-2:]:
            raise ValueError(
                f"strip shape mismatch: {cur_strip.shape} vs {self._min.shape[-2:]}"
            )
        if cur_strip.dtype != np.uint8:
            raise ValueError(f"uint8 samples required, got cur={cur_strip.dtype}")
        self._cur = cur_strip
        self._cur_sums.reshape(self._cells)[...] = fold_cells(cur_strip[None])

    def cell_sads(
        self,
        ref_windows: np.ndarray,
        ref_sums: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cell SADs of the current strip against ``ref_windows``.

        ``ref_windows`` is ``(*n_disp, 16, W)`` uint8 (usually a
        sliding-window view — no copy); ``ref_sums`` its cell sums B,
        ``(4, 4, *n_disp, mb_cols)`` uint16 in any memory layout — FSBM and
        diamond search read them from box-sum tables (:func:`box_sums`).
        Returns (in ``out``, when given: FSBM
        passes :attr:`PartitionSadTree.cells`) ``(4, 4, n, mb_cols)`` uint16,
        ``[cell_row, cell_col, disp, mb]``, the ``n`` displacements of the
        batch in C order.
        """
        if ref_windows.shape != self._min.shape:
            raise ValueError(
                f"incompatible shapes windows={ref_windows.shape} "
                f"kernel={self._min.shape}"
            )
        if ref_windows.dtype != np.uint8:
            raise ValueError(f"uint8 samples required, got windows={ref_windows.dtype}")
        np.minimum(ref_windows, self._cur, out=self._min)
        out = fold_cells(self._strips, 2, out, self._rows, self._lanes)
        # Modulo 2**16: B - 2M may wrap, adding A lands in [0, 4080].
        batch = out.reshape(self._cur_sums.shape)
        np.subtract(ref_sums, batch, out=batch)
        np.add(batch, self._cur_sums, out=batch)
        return out
