"""Motion Estimation: Full-Search Block-Matching (FSBM).

The ME module (paper Fig. 1) exhaustively evaluates every integer
displacement inside the search area, for every reference frame and every
sub-partition of every macroblock, and keeps the candidate with minimum SAD
per sub-partition. FSBM makes the computational load content-independent —
the property the paper leans on when it models per-device speed as a
constant "time per MB row" (the K^m parameters of Algorithm 2).

The kernel is organized exactly like the optimized implementations in the
paper's module library: one MB row at a time (the framework's distribution
unit), vectorized across a batch of whole ``dy`` rows of the search window,
every ``dx`` and all MBs of the row, with every intermediate at the width the
data needs and every pel of a displaced reference strip read once. A pass
takes ``nb`` ``dy`` rows, ``nb · (2·sr + 1)`` displacements
(:func:`dy_batch`: the most whose ``uint8`` windows fit
:data:`WINDOW_BUDGET`); every pass does the same work whatever the content:

1. 4×4 cell SADs as ``Σ cur + Σ ref − 2·Σ min(cur, ref)`` in ``uint16``
   (:class:`repro.codec.sad.StripCellSads`): ``Σ cur`` is folded once per MB
   row; ``Σ ref`` is read from one 4×4 box-sum table per reference
   (:func:`repro.codec.sad.box_sums` over the band's padded rows), relaid
   once per ``(MB row, reference)`` strip and handed to each pass as one
   strided view; ``minimum`` is the only pass over the
   ``(nb, 2·sr + 1, 16, W)`` window batch, a view of the sliding windows
   built once per reference per call;
2. all 41 sub-partition SADs from one integer tree of pairwise adds
   (:class:`repro.codec.partitions.PartitionSadTree`), partition-major —
   exact in ``uint16`` because the largest possible SAD, a 16×16 MB of
   all-0 against all-255, is ``256 · 255 = 65 280 < 2¹⁶``;
3. ``SAD · 2¹⁶ + (ref · (2·sr + 1) + dy_index)`` as a ``uint32`` key — each
   ``dy`` row of the batch OR-s in its own tag — folded into a running
   elementwise minimum per ``(dy row of the batch, dx)``;
4. per MB row, one minimum over the batch axis, then one first-minimum
   ``argmin`` over ``dx`` picks the winner: lexicographic
   ``(SAD, ref, dy, dx)``, i.e. earlier reference, then smaller ``dy``, then
   smaller ``dx`` — the keys are distinct per ``(ref, dy)``, so the order in
   which they are folded does not matter.

:class:`MotionField` carries ``int64`` SADs and ``int32`` MVs/refs; the
narrow types are widened once, when the field is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.frames import pad_plane
from repro.codec.partitions import PartitionSadTree, all_modes, get_mode
from repro.codec.sad import CELLS, StripCellSads, box_sums

if TYPE_CHECKING:
    from repro.codec.sme import SubpelField

_Field = TypeVar("_Field", "MotionField", "SubpelField")

#: Bits of a search key below the SAD: they hold ``ref · (2·sr + 1) + dy_index``
#: (below ``16 · 513 = 8 208`` by :class:`CodecConfig`'s range checks), and
#: ``65 280 · 2¹⁶ + 8 207`` still fits ``uint32``.
_TAG_BITS = 16

#: Byte budget of one FSBM pass's ``uint8`` window batch,
#: ``nb · (2·sr + 1) · 16 · W`` (:func:`dy_batch`). The pass's scratch — fold
#: rows and lanes, tree, keys, running minimum — is about 2.7 times as much
#: again, so a batch at the budget keeps the pass inside a 2 MB L2; DESIGN.md
#: "Performance: the FSBM kernel" has the measurement that placed it.
WINDOW_BUDGET = 512 * 1024


def dy_batch(search_range: int, width: int) -> int:
    """Whole ``dy`` rows one FSBM pass takes, for a ``width``-pel plane.

    The largest divisor ``nb`` of ``2·sr + 1`` whose window batch,
    ``nb · (2·sr + 1) · 16 · width`` bytes, fits :data:`WINDOW_BUDGET`; 1 when
    not even one row fits. A divisor, so every pass has the same shape.
    """
    ndx = 2 * search_range + 1
    fits = WINDOW_BUDGET // (ndx * MB_SIZE * width)
    return max(nb for nb in range(1, max(fits, 1) + 1) if ndx % nb == 0)


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


def padded_references(
    cur_y: np.ndarray,
    refs_y: list[np.ndarray],
    row0: int,
    nrows: int,
    cfg: CodecConfig,
    refs_prepadded: bool = False,
) -> list[np.ndarray]:
    """Validate one search call; return the padded references its band reads.

    The argument contract of :func:`motion_estimate_rows`, shared with
    :func:`repro.codec.fastme.diamond_search_rows`: an MB-aligned uint8
    plane, a band inside it, at least one reference, and each of the first
    ``cfg.num_ref_frames`` references a uint8 plane of the raw or (with
    ``refs_prepadded``) the padded shape. Raw references come back
    replicate-padded by ``cfg.search_range``. An empty band reads no
    reference, so none is checked or padded.
    """
    h, w = cur_y.shape
    if h % MB_SIZE or w % MB_SIZE:
        raise ValueError(f"plane {cur_y.shape} not MB-aligned")
    if cur_y.dtype != np.uint8:
        raise ValueError(f"uint8 samples required, got cur={cur_y.dtype}")
    mb_rows = h // MB_SIZE
    if not 0 <= row0 < mb_rows or nrows < 0 or row0 + nrows > mb_rows:
        raise ValueError(f"band [{row0}, {row0 + nrows}) outside 0..{mb_rows}")
    if not refs_y:
        raise ValueError("at least one reference frame required")
    sr = cfg.search_range
    what = "pre-padded ref" if refs_prepadded else "ref"
    want = (h + 2 * sr, w + 2 * sr) if refs_prepadded else (h, w)
    padded_refs = []
    for ref in refs_y[: cfg.num_ref_frames] if nrows else []:
        if ref.dtype != np.uint8:
            raise ValueError(f"uint8 samples required, got ref={ref.dtype}")
        if ref.shape != want:
            raise ValueError(f"{what} shape {ref.shape} != {want}")
        padded_refs.append(ref if refs_prepadded else pad_plane(ref, sr))
    return padded_refs


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
    padded_refs = padded_references(cur_y, refs_y, row0, nrows, cfg, refs_prepadded)
    w = cur_y.shape[1]
    mb_cols = w // MB_SIZE
    sr = cfg.search_range
    modes = all_modes(cfg.enabled_partitions)

    ndx = 2 * sr + 1
    nb = dy_batch(sr, w)
    kernel = StripCellSads((nb, ndx), w)
    tree = PartitionSadTree(nb * ndx, mb_cols)
    keys = np.empty(tree.sads.shape, dtype=np.uint32)
    # The keys' dy rows, [part, i, dx·mb], for the tags.
    key_rows = keys.reshape(len(keys), nb, -1)
    # Minimum key over every (ref, batch) searched so far, per (dy row of a
    # batch, dx); the batch axis is folded once per MB row.
    best = np.empty(keys.shape, dtype=np.uint32)
    row_best = np.empty((len(best), ndx, mb_cols), dtype=np.uint32)
    # The (ref, dy) tag of every dy row of every batch.
    tags = np.arange(len(padded_refs) * ndx, dtype=np.uint32).reshape(-1, ndx // nb, nb, 1)
    # One strip of a box-sum table, relaid [box row, cell_col, dx, mb]: the
    # cells of vertical displacement dy_i are rows dy_i, dy_i + 4, ... of it.
    strip_sums = np.empty((2 * sr + MB_SIZE - 3, CELLS, ndx, mb_cols), dtype=np.uint16)
    # Batch b's cell sums B, [b][cy, cx, i, dx, mb] = strip_sums[b·nb + i + 4·cy,
    # cx, dx, mb]: one strided view, no copy. The last row it reads,
    # (ndx - 1) + 12, is the strip's last.
    row, col, dx_step, mb_step = strip_sums.strides
    b_sums = as_strided(
        strip_sums,
        (ndx // nb, CELLS, CELLS, nb, ndx, mb_cols),
        (nb * row, 4 * row, col, row, dx_step, mb_step),
        writeable=False,
    )
    # Per MB row: the winning dx index and its key.
    win_dx = np.empty((nrows, len(best), mb_cols), dtype=np.intp)
    win_key = np.empty(win_dx.shape, dtype=np.uint32)

    # Per reference, over the padded rows the band reads: windows[y, dx_i] is
    # the 16-row strip at band row y displaced by dx_i - sr, and cell
    # (mb, cell_col) at dx_i reads box-sum column dx_i + 16·mb + 4·cell_col.
    band = slice(row0 * MB_SIZE, (row0 + nrows) * MB_SIZE + 2 * sr)
    views = [
        (
            sliding_window_view(ref_pad[band], (MB_SIZE, w)),
            sliding_window_view(box_sums(ref_pad[band]), ndx, axis=1)[:, ::4],
        )
        for ref_pad in padded_refs
    ]

    for out_r in range(nrows):
        # The MB row's first pel row — padded row of dy = -sr — in its band.
        band_top = out_r * MB_SIZE
        top = band.start + band_top
        kernel.set_current(cur_y[top : top + MB_SIZE])
        best.fill(np.iinfo(np.uint32).max)
        for ref_idx, (windows, columns) in enumerate(views):
            strip = columns[band_top : band_top + len(strip_sums)]
            strip_sums[...] = strip.reshape(-1, mb_cols, CELLS, ndx).transpose(0, 2, 3, 1)
            for b, d0 in enumerate(range(band_top, band_top + ndx, nb)):
                kernel.cell_sads(windows[d0 : d0 + nb], b_sums[b], tree.cells)
                tree.fill()
                np.left_shift(tree.sads, _TAG_BITS, out=keys, dtype=np.uint32)
                np.bitwise_or(key_rows, tags[ref_idx, b], out=key_rows)
                np.minimum(best, keys, out=best)
        # Keys order (SAD, ref, dy): the minimum over the batch axis, then the
        # first minimum over dx.
        np.min(best.reshape(len(best), nb, ndx, mb_cols), axis=1, out=row_best)
        np.argmin(row_best, axis=1, out=win_dx[out_r])
        np.min(row_best, axis=1, out=win_key[out_r])

    # Widen once: [row, part, mb] search results -> MotionField's [row, mb, part].
    sads = (win_key >> _TAG_BITS).astype(np.int64)
    tag = (win_key & ((1 << _TAG_BITS) - 1)).astype(np.int32)
    mvs = np.stack([tag % ndx - sr, win_dx.astype(np.int32) - sr], axis=-1)
    refs = tag // ndx
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
