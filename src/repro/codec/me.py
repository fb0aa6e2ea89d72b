"""Motion Estimation: Full-Search Block-Matching (FSBM).

The ME module (paper Fig. 1) exhaustively evaluates every integer
displacement inside the search area, for every reference frame and every
sub-partition of every macroblock, and keeps the candidate with minimum SAD
per sub-partition. FSBM makes the computational load content-independent —
the property the paper leans on when it models per-device speed as a
constant "time per MB row" (the K^m parameters of Algorithm 2).

The kernel is organized exactly like the optimized implementations in the
paper's module library: one MB row at a time (the framework's distribution
unit), vectorized across the horizontal displacements and all MBs of the
row, with every intermediate at the width the data needs:

1. ``|cur − ref|`` in ``uint8`` and 4×4 cell SADs in ``uint16``
   (:func:`repro.codec.sad.strip_cell_sads_batch`);
2. all 41 sub-partition SADs from one integer tree of pairwise adds
   (:class:`repro.codec.partitions.PartitionSadTree`) — exact in ``uint16``
   because the largest possible SAD, a 16×16 MB of all-0 against all-255,
   is ``256 · 255 = 65 280 < 2¹⁶``;
3. per ``(ref, dy)``, ``SAD · 2¹⁶ + dx_index`` as a ``uint32`` key whose
   minimum over the ``dx`` axis is the row-minimum SAD *and* its smallest
   ``dx``; the keys go into a ``(n_refs · (2·sr + 1), 41, mb_cols)`` table
   ordered ref-major, then ``dy``;
4. one first-minimum ``argmin`` over that table's SADs per MB row picks
   the winner — earlier reference, then smaller ``dy``, then (already
   inside the key) smaller ``dx``.

:class:`MotionField` carries ``int64`` SADs and ``int32`` MVs/refs; the
narrow types are widened once, when the field is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.frames import pad_plane
from repro.codec.partitions import PartitionSadTree, all_modes, get_mode
from repro.codec.sad import strip_cell_sads_batch

if TYPE_CHECKING:
    from repro.codec.sme import SubpelField

_Field = TypeVar("_Field", "MotionField", "SubpelField")

#: Bits of a search key below the SAD: holds the ``dx`` index
#: (``2 · search_range + 1 <= 513``), and 65 280 · 2¹⁶ still fits ``uint32``.
_DX_BITS = 16


def check_field_arrays(motion: MotionField | SubpelField, mv_name: str) -> None:
    """Shapes and public dtypes of a motion field's per-mode arrays.

    Shared by :class:`MotionField` (``mv_name="mvs"``) and
    :class:`repro.codec.sme.SubpelField` (``"qmvs"``): vectors and ``refs``
    are int32, ``sads`` int64, all indexed ``[row - row0, mb_col, part]``.
    """
    for shape in motion.mode_shapes:
        scalar = (motion.nrows, motion.mb_cols, get_mode(shape).nparts)
        for name, want_shape, want_dtype in (
            (mv_name, scalar + (2,), np.int32),
            ("refs", scalar, np.int32),
            ("sads", scalar, np.int64),
        ):
            arr = getattr(motion, name)[shape]
            if arr.shape != want_shape:
                raise ValueError(f"{name}[{shape}] shape {arr.shape} != {want_shape}")
            if arr.dtype != want_dtype:
                raise ValueError(
                    f"{name}[{shape}] dtype {arr.dtype} != {np.dtype(want_dtype)}"
                )


def merge_field_bands(parts: list[_Field], mv_name: str) -> _Field:
    """Stitch row bands of one field type (from different devices) into one.

    Shared, like :func:`check_field_arrays`, by :class:`MotionField`
    (``mv_name="mvs"``) and :class:`repro.codec.sme.SubpelField`
    (``"qmvs"``). Bands must be contiguous and non-overlapping once sorted
    by ``row0`` and agree on ``mb_cols`` and ``mode_shapes``.
    """
    if not parts:
        raise ValueError("nothing to merge")
    parts = sorted(parts, key=lambda p: p.row0)
    first = parts[0]
    row = first.row0
    for p in parts:
        if p.row0 != row:
            raise ValueError(f"bands not contiguous at row {row} (got {p.row0})")
        if (p.mb_cols, p.mode_shapes) != (first.mb_cols, first.mode_shapes):
            raise ValueError(
                f"band at row {p.row0} has mb_cols={p.mb_cols}, modes "
                f"{p.mode_shapes}; expected {first.mb_cols}, {first.mode_shapes}"
            )
        row += p.nrows
    merged = type(first)(
        row0=first.row0,
        nrows=row - first.row0,
        mb_cols=first.mb_cols,
        mode_shapes=first.mode_shapes,
    )
    for name in (mv_name, "refs", "sads"):
        arrays = getattr(merged, name)
        for shape in first.mode_shapes:
            arrays[shape] = np.concatenate(
                [getattr(p, name)[shape] for p in parts], axis=0
            )
    return merged


@dataclass
class MotionField:
    """Best full-pel motion data for a band of MB rows.

    All per-mode arrays are indexed ``[row - row0, mb_col, part]``; motion
    vectors are ``(dy, dx)`` full-pel displacements relative to the
    co-located position, and ``refs`` holds the winning reference index.
    """

    row0: int
    nrows: int
    mb_cols: int
    mode_shapes: tuple[tuple[int, int], ...]
    mvs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    refs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    sads: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def check_consistent(self) -> None:
        """Validate array shapes and dtypes against the declared geometry.

        SME, the pickled worker results and the bitstream all rely on
        ``sads`` being int64 and ``mvs``/``refs`` int32.
        """
        check_field_arrays(self, "mvs")

    def slice_rows(self, row0: int, nrows: int) -> "MotionField":
        """A sub-band view of this field covering ``[row0, row0 + nrows)``.

        The inverse of :meth:`merge`: the process backend ships each SME
        work item only the MB rows it refines instead of the whole merged
        field (the slice pickles as a copy of just those rows).
        """
        if row0 < self.row0 or row0 + nrows > self.row0 + self.nrows:
            raise ValueError(
                f"band [{row0}, {row0 + nrows}) outside field "
                f"[{self.row0}, {self.row0 + self.nrows})"
            )
        a = row0 - self.row0
        out = MotionField(
            row0=row0, nrows=nrows, mb_cols=self.mb_cols,
            mode_shapes=self.mode_shapes,
        )
        for shape in self.mode_shapes:
            out.mvs[shape] = self.mvs[shape][a : a + nrows]
            out.refs[shape] = self.refs[shape][a : a + nrows]
            out.sads[shape] = self.sads[shape][a : a + nrows]
        return out

    @staticmethod
    def merge(parts: list["MotionField"]) -> "MotionField":
        """Stitch row-band results (from different devices) into one field.

        This is how the Video Coding Manager reassembles the per-device ME
        outputs after the MV device-to-host transfers.
        """
        return merge_field_bands(parts, "mvs")


def motion_estimate_rows(
    cur_y: np.ndarray,
    refs_y: list[np.ndarray],
    row0: int,
    nrows: int,
    cfg: CodecConfig,
    refs_prepadded: bool = False,
) -> MotionField:
    """FSBM for MB rows ``[row0, row0 + nrows)`` of the current luma plane.

    Parameters
    ----------
    cur_y:
        Current-frame luma plane, ``(H, W)`` uint8.
    refs_y:
        Reconstructed reference luma planes, newest first (list index is the
        H.264 reference index). Either raw ``(H, W)`` planes or, when
        ``refs_prepadded`` is set, planes already replicate-padded by
        ``cfg.search_range`` on each side.
    row0, nrows:
        Band of MB rows to process — the framework's distribution unit.
    cfg:
        Codec configuration (search range, enabled partitions, #refs).

    Returns
    -------
    :class:`MotionField` with, per enabled partition mode, the minimum-SAD
    displacement, winning reference index and SAD value of every
    sub-partition. Ties break toward the earlier reference, then the
    smaller ``dy``, then the smaller ``dx`` (deterministic full search).
    """
    h, w = cur_y.shape
    if h % MB_SIZE or w % MB_SIZE:
        raise ValueError(f"plane {cur_y.shape} not MB-aligned")
    mb_rows, mb_cols = h // MB_SIZE, w // MB_SIZE
    if not 0 <= row0 < mb_rows or nrows < 0 or row0 + nrows > mb_rows:
        raise ValueError(f"band [{row0}, {row0 + nrows}) outside 0..{mb_rows}")
    if not refs_y:
        raise ValueError("at least one reference frame required")
    sr = cfg.search_range
    n_refs = min(len(refs_y), cfg.num_ref_frames)
    modes = all_modes(cfg.enabled_partitions)

    padded_refs = []
    # An empty band reads no reference, so none is checked or padded.
    for ref in refs_y[:n_refs] if nrows else []:
        if refs_prepadded:
            if ref.shape != (h + 2 * sr, w + 2 * sr):
                raise ValueError(
                    f"pre-padded ref shape {ref.shape} != {(h + 2 * sr, w + 2 * sr)}"
                )
            padded_refs.append(ref)
        else:
            if ref.shape != (h, w):
                raise ValueError(f"ref shape {ref.shape} != {(h, w)}")
            padded_refs.append(pad_plane(ref, sr))

    ndx = 2 * sr + 1
    tree = PartitionSadTree(ndx, mb_cols)
    keys = np.empty(tree.sads.shape, dtype=np.uint32)
    dx_index = np.arange(ndx, dtype=np.uint32)[:, None, None]
    table = np.empty((n_refs * ndx,) + keys.shape[1:], dtype=np.uint32)
    # Per MB row: the winning table entry (ref-major, then dy) and its key.
    win_entry = np.empty((nrows,) + keys.shape[1:], dtype=np.intp)
    win_key = np.empty(win_entry.shape, dtype=np.uint32)

    for out_r in range(nrows):
        r = row0 + out_r
        cur_strip = cur_y[r * MB_SIZE : (r + 1) * MB_SIZE, :]
        for ref_idx, ref_pad in enumerate(padded_refs):
            _search_row(
                cur_strip, ref_pad, r, sr, tree, keys, dx_index,
                table[ref_idx * ndx : (ref_idx + 1) * ndx],
            )
        # First minimum of the SAD alone ⇒ earlier ref, then smaller dy; the
        # dx bits only break ties inside one (ref, dy) entry.
        np.argmin(table >> _DX_BITS, axis=0, out=win_entry[out_r])
        win_key[out_r] = np.take_along_axis(table, win_entry[out_r][None], axis=0)[0]

    # Widen once: [row, part, mb] search results -> MotionField's [row, mb, part].
    sads = (win_key >> _DX_BITS).astype(np.int64)
    dx = (win_key & ((1 << _DX_BITS) - 1)).astype(np.int32) - sr
    dy = (win_entry % ndx).astype(np.int32) - sr
    mvs = np.stack([dy, dx], axis=-1)
    refs = (win_entry // ndx).astype(np.int32)
    field_out = MotionField(
        row0=row0,
        nrows=nrows,
        mb_cols=mb_cols,
        mode_shapes=tuple(m.shape for m in modes),
    )
    for m in modes:
        for dst, src in (
            (field_out.sads, sads), (field_out.refs, refs), (field_out.mvs, mvs)
        ):
            dst[m.shape] = np.ascontiguousarray(np.moveaxis(src[:, m.span], 1, 2))
    return field_out


def _search_row(
    cur_strip: np.ndarray,
    ref_pad: np.ndarray,
    mb_row: int,
    sr: int,
    tree: PartitionSadTree,
    keys: np.ndarray,
    dx_index: np.ndarray,
    table: np.ndarray,
) -> None:
    """Exhaustive search of one MB row against one padded reference.

    Fills ``table[dy_i]`` with the minimum search key over ``dx`` for each
    vertical displacement ``dy_i - sr``; ``tree`` and ``keys`` are scratch.
    """
    w = cur_strip.shape[1]
    # Padded strip containing every vertical displacement of this MB row:
    # padded coords of pixel row (mb_row*16 + dy) are offset by +sr.
    strip = ref_pad[mb_row * MB_SIZE : mb_row * MB_SIZE + MB_SIZE + 2 * sr, :]
    # windows[dy, dx] is the reference strip displaced by (dy - sr, dx - sr).
    windows = sliding_window_view(strip, (MB_SIZE, w))  # (2sr+1, 2sr+1, 16, W)

    for dy_i in range(2 * sr + 1):
        strip_cell_sads_batch(cur_strip, windows[dy_i], out=tree.cells)
        tree.fill()
        np.left_shift(tree.sads, _DX_BITS, out=keys, dtype=np.uint32)
        keys |= dx_index
        np.min(keys, axis=0, out=table[dy_i])
