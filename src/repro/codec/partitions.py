"""MB partition-mode bookkeeping and the partition-SAD tree.

H.264/AVC allows 7 inter partitionings of a 16×16 macroblock: 16×16, 16×8,
8×16, 8×8, 8×4, 4×8 and 4×4 (paper §II). Each mode tiles the MB with
``nparts`` equal rectangles — 41 sub-partitions in all.

Every sub-partition SAD is a sum of 4×4 cell SADs, and every shape is two
tiles of a smaller one, so all 41 come from one integer *tree* of pairwise
adds in which each partial sum is computed once::

    4×4 ─┬─ 8×4 (cell rows paired)
         └─ 4×8 (cell columns paired) ── 8×8 ─┬─ 16×8 ─── 16×16
                                              └─ 8×16

The root's worst case (all-0 against all-255) is ``256 · 255 = 65 280 < 2¹⁶``,
so the whole tree is exact in ``uint16``. The tree is stored partition-major,
``(41, n_disp, n_mbs)``: a level is a block of whole rows, so pairing its
tiles adds runs of ``n_disp · n_mbs`` contiguous sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codec.config import MB_SIZE, PARTITION_MODES


def _tiles(shape: tuple[int, int]) -> int:
    """How many ``(h, w)`` rectangles tile one MB."""
    return (MB_SIZE // shape[0]) * (MB_SIZE // shape[1])


#: Sub-partitions per MB over all 7 modes — rows of a :class:`PartitionSadTree`.
TOTAL_PARTS = sum(map(_tiles, PARTITION_MODES))

#: Tree edges ``(child, parent, axis)``: the parent level is the child level
#: with adjacent tiles paired along ``axis`` (0 = vertically, 1 = horizontally),
#: listed so every child is filled before it is read.
_TREE_EDGES = (
    ((4, 4), (8, 4), 0),
    ((4, 4), (4, 8), 1),
    ((4, 8), (8, 8), 0),
    ((8, 8), (16, 8), 0),
    ((8, 8), (8, 16), 1),
    ((16, 8), (16, 16), 1),
)


@dataclass(frozen=True)
class PartitionMode:
    """One of the 7 partitionings.

    Attributes
    ----------
    shape:
        ``(height, width)`` of each sub-partition in pixels.
    nparts:
        Number of sub-partitions tiling the MB.
    origins:
        ``(nparts, 2)`` int array of each sub-partition's ``(y, x)`` pixel
        offset inside the MB, in raster order.
    span:
        This mode's rows in the 41-row partition axis of a
        :class:`PartitionSadTree` (modes in canonical order, sub-partitions
        in raster order within a mode).
    """

    shape: tuple[int, int]
    nparts: int
    origins: np.ndarray
    span: slice

    @property
    def pixels(self) -> int:
        """Pixels per sub-partition."""
        return self.shape[0] * self.shape[1]


def _build_mode(shape: tuple[int, int]) -> PartitionMode:
    h, w = shape
    if MB_SIZE % h or MB_SIZE % w:
        raise ValueError(f"partition {shape} does not tile a 16x16 MB")
    tiles_y, tiles_x = MB_SIZE // h, MB_SIZE // w
    nparts = tiles_y * tiles_x
    origins = np.array(
        [(ty * h, tx * w) for ty in range(tiles_y) for tx in range(tiles_x)],
        dtype=np.int32,
    )
    first = sum(map(_tiles, PARTITION_MODES[: PARTITION_MODES.index(shape)]))
    return PartitionMode(
        shape=shape, nparts=nparts, origins=origins, span=slice(first, first + nparts)
    )


@lru_cache(maxsize=None)
def get_mode(shape: tuple[int, int]) -> PartitionMode:
    """Return the (cached) :class:`PartitionMode` for a ``(h, w)`` shape."""
    if shape not in PARTITION_MODES:
        raise ValueError(f"unknown partition shape {shape!r}")
    return _build_mode(shape)


def all_modes(
    enabled: tuple[tuple[int, int], ...] = PARTITION_MODES
) -> list[PartitionMode]:
    """Partition modes for every enabled shape, in canonical order."""
    return [get_mode(s) for s in PARTITION_MODES if s in enabled]


def total_subpartitions(
    enabled: tuple[tuple[int, int], ...] = PARTITION_MODES
) -> int:
    """Total sub-partitions evaluated per MB (41 when all modes are on)."""
    return sum(m.nparts for m in all_modes(enabled))


class PartitionSadTree:
    """SADs of all 41 sub-partitions for a batch of displacements × MBs.

    ``sads`` is ``(41, n_disp, n_mbs)`` uint16, partition-major, so every
    add of :meth:`fill` streams whole rows; rows ``get_mode(shape).span``
    hold that mode's sub-partitions in raster order. Write cell SADs
    through :attr:`cells`, then call :meth:`fill`.
    """

    def __init__(self, n_disp: int, n_mbs: int) -> None:
        self.sads = np.empty((TOTAL_PARTS, n_disp, n_mbs), dtype=np.uint16)
        # Each mode's rows as a [tile_y, tile_x, disp, mb] view of ``sads``.
        self._levels = {
            (h, w): self.sads[get_mode((h, w)).span].reshape(
                MB_SIZE // h, MB_SIZE // w, n_disp, n_mbs
            )
            for h, w in PARTITION_MODES
        }
        #: ``(4, 4, n_disp, n_mbs)`` view of the 4×4 level — the cell-major
        #: layout :class:`repro.codec.sad.StripCellSads` produces.
        self.cells = self._levels[(4, 4)]

    def fill(self) -> None:
        """Derive every coarser level from the 4×4 cells by pairwise adds."""
        for child, parent, axis in _TREE_EDGES:
            src = self._levels[child]
            if axis == 0:
                np.add(src[0::2], src[1::2], out=self._levels[parent])
            else:
                np.add(src[:, 0::2], src[:, 1::2], out=self._levels[parent])
