"""SME: Sub-pixel Motion Estimation.

Refines the full-pel MVs produced by ME to quarter-pel accuracy using the
interpolated SF (paper §II: "By relying on the MVs from the ME and the SFs
from the INT, the SME is applied to further refine the MVs"). The standard
two-step refinement is used: the 8 half-pel neighbours of the full-pel
position are evaluated first, then the 8 quarter-pel neighbours of the best
half-pel position. Distortion is SAD (or SATD) against the current frame.

Like ME, the kernel processes MB rows (the ``s`` distribution vector of
Algorithm 2). Every sub-partition instance of the band, over *every* enabled
partition mode, is one column of a few ``(…, N)`` arrays, grouped once per
call by (mode, reference). Each ring (half-pel, then quarter-pel) is then one
pass over all of them (see :func:`_evaluate_ring`):

1. per axis the three candidate coordinates, each clamped on its own (the
   restricted-MV border policy MC shares); every clamped candidate is one
   slot of a 3×3 lattice around the centre;
2. per (mode, reference), one patch gather per instance — only the SF
   samples the lattice's slots read, a row at a time through
   :func:`~repro.codec.interpolation.sf_rows` — with the instance axis
   innermost;
3. per mode, the SAD of all its slots at the width the data needs:
   ``maximum − minimum`` in uint8, summed in uint16 (at most
   ``256 · 255 = 65 280``);
4. the 9 candidates' costs read through their slots, one first minimum over
   the candidate axis — the centre is candidate 0, so ties resolve toward
   the smaller refinement — and the winner's *clamped* displacement.

:class:`SubpelField` carries ``int64`` SADs and ``int32`` MVs/refs; the
narrow types are widened once, when the field is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.interpolation import sf_rows
from repro.codec.me import MotionField, check_field_arrays, merge_field_bands
from repro.codec.partitions import get_mode
from repro.codec.satd import block_metric, sad_blocks


def _ring(step: int) -> np.ndarray:
    """``(9, 2, 1)`` candidate offsets: the current position, then its 8 neighbours.

    Centre-first ordering makes ties resolve toward the smaller refinement,
    keeping the search deterministic and bias-free on flat content.
    """
    offs = [(dy, dx) for dy in (-step, 0, step) for dx in (-step, 0, step)]
    offs.remove((0, 0))
    return np.array([(0, 0)] + offs, dtype=np.int64)[:, :, None]


#: Stage offsets in quarter-pel units: half-pel ring then quarter-pel ring.
_HALF_RING = _ring(2)
_QUARTER_RING = _ring(1)

#: ``(3, 1, 1)`` unit offsets of one axis; patch bytes gathered per chunk.
_UNIT = np.arange(-1, 2, dtype=np.int32)[:, None, None]
_CHUNK_BYTES = 1 << 18


class _ModeBlock(NamedTuple):
    """One partition mode's instances: columns ``seg`` of the per-call arrays."""

    shape: tuple[int, int]
    seg: slice
    #: ``(sf, columns)`` runs of the mode's instances that share a reference.
    runs: list[tuple[np.ndarray, slice]]
    #: ``(bh, bw, n)`` current blocks, instance axis innermost.
    cur: np.ndarray
    #: Largest ``(qy, qx)`` at which the block still fits the SF.
    limit: tuple[int, int]


@dataclass
class SubpelField:
    """Quarter-pel motion data for a band of MB rows.

    ``qmvs[shape][r, c, p]`` is the refined ``(qdy, qdx)`` displacement in
    quarter-pel units relative to the co-located position; ``refs`` carries
    over the ME reference choice and ``sads`` the refined distortion.
    """

    row0: int
    nrows: int
    mb_cols: int
    mode_shapes: tuple[tuple[int, int], ...]
    qmvs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    refs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    sads: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def check_consistent(self) -> None:
        """Validate array shapes and dtypes against the declared geometry.

        MC, the pickled worker results and the bitstream all rely on
        ``sads`` being int64 and ``qmvs``/``refs`` int32.
        """
        check_field_arrays(self, "qmvs")

    @staticmethod
    def merge(parts: list["SubpelField"]) -> "SubpelField":
        """Stitch contiguous row bands (cross-device reassembly)."""
        return merge_field_bands(parts, "qmvs")


def subpel_refine_rows(
    cur_y: np.ndarray,
    sfs: list[np.ndarray],
    me_field: MotionField,
    row0: int,
    nrows: int,
    cfg: CodecConfig,
) -> SubpelField:
    """Refine MVs to quarter-pel for MB rows ``[row0, row0 + nrows)``.

    Parameters
    ----------
    cur_y:
        Current luma plane ``(H, W)``, uint8.
    sfs:
        One SF per reference frame (list index = reference index), each a
        uint8 plane of shape ``(4H, 4W)`` as produced by
        :mod:`repro.codec.interpolation`.
    me_field:
        Full-frame (or at least band-covering) ME output whose ``row0``/
        ``nrows`` span includes the requested band; its ``refs`` over the
        band must index ``sfs``.
    row0, nrows:
        Band of MB rows to refine (the framework's ``s`` distribution).

    Returns
    -------
    :class:`SubpelField` for the band. When ``cfg.subpel`` is false the
    full-pel MVs are returned scaled to quarter-pel units with their ME SADs
    (ablation path).
    """
    h, w = cur_y.shape
    mb_cols = w // MB_SIZE
    if row0 < me_field.row0 or row0 + nrows > me_field.row0 + me_field.nrows:
        raise ValueError(
            f"SME band [{row0},{row0 + nrows}) not covered by ME band "
            f"[{me_field.row0},{me_field.row0 + me_field.nrows})"
        )
    if cur_y.dtype != np.uint8:
        raise ValueError(f"uint8 luma required, got {cur_y.dtype}")
    for k, sf in enumerate(sfs):
        if sf.shape != (4 * h, 4 * w) or sf.dtype != np.uint8:
            raise ValueError(
                f"sfs[{k}] is {sf.dtype} {sf.shape}, expected uint8 {(4 * h, 4 * w)}"
            )
    src = slice(row0 - me_field.row0, row0 - me_field.row0 + nrows)
    shapes = me_field.mode_shapes
    for shape in shapes:
        refs = me_field.refs[shape][src]
        if refs.size and not 0 <= refs.min() <= refs.max() < len(sfs):
            bad = refs.max() if refs.max() >= len(sfs) else refs.min()
            raise ValueError(
                f"refs[{shape}] names reference {bad} but only "
                f"{len(sfs)} SF(s) were given"
            )
    out = SubpelField(row0=row0, nrows=nrows, mb_cols=mb_cols, mode_shapes=shapes)
    for shape in shapes:
        out.refs[shape] = me_field.refs[shape][src].astype(np.int32)
    if not (cfg.subpel and nrows):
        for shape in shapes:
            out.qmvs[shape] = (4 * me_field.mvs[shape][src]).astype(np.int32)
            out.sads[shape] = me_field.sads[shape][src].astype(np.int64)
        return out

    order, bounds, origin, limit, best_q, modes = _instances(
        cur_y, sfs, me_field, row0, nrows
    )
    metric = block_metric(cfg.subpel_metric)
    slot_costs = np.empty(
        (9, bounds[-1]), dtype=np.uint16 if metric is sad_blocks else np.int64
    )
    for ring in (_HALF_RING, _QUARTER_RING):
        best_q, best = _evaluate_ring(ring, best_q, origin, limit, modes, slot_costs, metric)

    # Back to [mode, part, row, mb] order, then [row, mb, part] per mode;
    # widen once, at assembly.
    qmv = np.empty((bounds[-1], 2), dtype=np.int32)
    qmv[order] = best_q.T
    cost = np.empty(bounds[-1], dtype=np.int64)
    cost[order] = best
    for k, shape in enumerate(shapes):
        seg = slice(bounds[k], bounds[k + 1])
        dims = (get_mode(shape).nparts, nrows, mb_cols)
        out.qmvs[shape] = np.moveaxis(qmv[seg].reshape(dims + (2,)), 0, 2).copy()
        out.sads[shape] = np.moveaxis(cost[seg].reshape(dims), 0, 2).copy()
    return out


def _instances(
    cur_y: np.ndarray,
    sfs: list[np.ndarray],
    me_field: MotionField,
    row0: int,
    nrows: int,
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray, np.ndarray, list[_ModeBlock]]:
    """Every sub-partition instance of the band, over every mode, as columns.

    The instances are flattened ``[mode, part, row, mb]`` and grouped by
    (mode, reference) once, so each ring gathers a contiguous run per SF (the
    SFs live in separate segments). Returns the grouping ``order`` (column →
    flat instance), the modes' column ``bounds``, the ``(2, N)`` int32
    partition origins, clamp limits and ME displacements in quarter-pel
    units, and one :class:`_ModeBlock` per mode.
    """
    h, w = cur_y.shape
    mb_cols = w // MB_SIZE
    src = slice(row0 - me_field.row0, row0 - me_field.row0 + nrows)
    shapes = me_field.mode_shapes
    n_sf = len(sfs)
    sizes = [nrows * mb_cols * get_mode(shape).nparts for shape in shapes]
    bounds = np.cumsum([0] + sizes).tolist()
    key = np.concatenate(
        [np.moveaxis(me_field.refs[shape][src], 2, 0).ravel() for shape in shapes]
    ).astype(np.int32)
    key += np.repeat(np.arange(len(shapes), dtype=np.int32) * n_sf, sizes)
    order = np.argsort(key, kind="stable")
    ends = np.searchsorted(key[order], np.arange(len(shapes) * n_sf + 1)).tolist()
    mb_y = 4 * MB_SIZE * np.arange(row0, row0 + nrows, dtype=np.int32)
    mb_x = 4 * MB_SIZE * np.arange(mb_cols, dtype=np.int32)
    origin = np.empty((2, bounds[-1]), dtype=np.int32)
    limits = [(4 * (h - bh), 4 * (w - bw)) for bh, bw in shapes]
    limit = np.repeat(np.array(limits, dtype=np.int32).T, sizes, axis=1)
    band_y = cur_y[row0 * MB_SIZE : (row0 + nrows) * MB_SIZE]
    # [y, x, row, mb]: each pel of the MB over the band's MBs, contiguous.
    pels = band_y.reshape(nrows, MB_SIZE, mb_cols, MB_SIZE).transpose(1, 3, 0, 2).copy()
    modes = []
    for k, shape in enumerate(shapes):
        mode = get_mode(shape)
        bh, bw = shape
        seg = slice(bounds[k], bounds[k + 1])
        mode_origin = origin[:, seg].reshape(2, mode.nparts, nrows, mb_cols)
        mode_origin[0] = 4 * mode.origins[:, 0, None, None] + mb_y[:, None]
        mode_origin[1] = 4 * mode.origins[:, 1, None, None] + mb_x
        runs = [
            (sf, slice(a, b))
            for sf, a, b in zip(sfs, ends[k * n_sf :], ends[k * n_sf + 1 :])
            if a < b
        ]
        # (bh, bw, n): raster sub-partitions are one reshape of ``pels``.
        cur = np.take(
            pels.reshape(MB_SIZE // bh, bh, -1, bw, nrows * mb_cols)
            .transpose(1, 3, 0, 2, 4)
            .reshape(bh, bw, -1),
            order[seg] - seg.start,
            axis=2,
        )
        modes.append(_ModeBlock(shape, seg, runs, cur, limits[k]))
    qmv = np.concatenate(
        [np.moveaxis(me_field.mvs[shape][src], 2, 0).reshape(-1, 2) for shape in shapes]
    )
    qmv = np.multiply(qmv[order].T, 4, order="C", dtype=np.int32)
    return order, bounds, origin[:, order], limit, qmv, modes


def _evaluate_ring(
    ring: np.ndarray,
    centre_q: np.ndarray,
    origin: np.ndarray,
    limit: np.ndarray,
    modes: list[_ModeBlock],
    slot_costs: np.ndarray,
    metric,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one candidate ring around ``centre_q``; return best (qmv, cost).

    ``ring`` is ``(9, 2, 1)`` offsets of one step (2: half-pel, 1:
    quarter-pel), centre first; ``centre_q``, ``origin`` and ``limit`` are
    ``(2, N)`` int32 quarter-pel ``(y, x)`` displacements, partition origins
    and the largest position at which each block still fits the SF, over the
    ``N`` instances of every mode in ``modes``; ``slot_costs`` is ``(9, N)``
    scratch, slot ``(ky, kx)`` in row ``3·ky + kx``.

    Every candidate — including the centre — is clamped on its own and
    scored on the SF samples at the clamped position, so the cost recorded
    for the winner always matches the prediction MC will later build, and
    the returned displacement is the clamped one. The first minimum over
    the centre-first candidate axis makes ties resolve toward the smaller
    offset.

    All nine clamped candidates of an instance lie on one 3×3 lattice of
    ``step``-spaced slots (DESIGN.md "Performance: the SME kernel"): per
    axis the centre is a multiple of ``2·step`` inside ``[0, L]`` or beyond
    it, ``L`` a multiple of 4, so ``clip(c + d)`` is ``clip(c) + d`` or
    ``clip(c)``, and with ``low = clip(c − step, 0, L − span)``, ``span =
    min(L, 2·step)``, it is slot ``(p − low) / step ∈ {0, 1, 2}``. One patch
    per instance covers the slots; an axis with ``L = 0`` (the block spans
    the frame) has one.
    """
    step = int(ring.max())
    shift = step.bit_length() - 1
    n = centre_q.shape[1]
    centre = origin + centre_q
    span = np.minimum(limit, 2 * step)
    low = np.maximum(centre - step, 0)
    np.minimum(low, limit - span, out=low)
    # (3, 2, n): per axis, the clamped coordinates of offsets -step, 0, +step,
    # then their slots from ``low``.
    slot = centre + step * _UNIT
    np.maximum(slot, 0, out=slot)
    np.minimum(slot, limit, out=slot)
    slot -= low
    if (slot & (step - 1)).any() or slot.min() < 0 or (slot > span).any():
        raise RuntimeError(f"SME step {step}: a clamped candidate is off its patch")
    slot >>= shift
    costs = slot_costs.reshape(3, 3, n)
    for block, seg, runs, cur, (lim_y, lim_x) in modes:
        n_y, n_x = min(lim_y, 2 * step) // step + 1, min(lim_x, 2 * step) // step + 1
        # One mode's patch at a time: it is freed before the next is gathered.
        _slot_costs(
            cur, _gather_patches(runs, low, seg, step, (n_y, n_x), block),
            costs[:n_y, :n_x, seg], metric,
        )
    # (9, n): each candidate's cost, read through its slot.
    uy, ux = (ring[:, :, 0] // step + 1).T
    cols = np.arange(n, dtype=np.int32)
    index = slot[uy, 0]
    index *= 3
    index += slot[ux, 1]
    index *= n
    index += cols
    # First minimum over the candidate axis: cost · 16 + candidate index (a
    # 16×16 SATD is below 2²⁰, so int32 holds it), in the index's buffer.
    keyed = np.left_shift(np.take(slot_costs, index), 4, out=index, dtype=np.int32)
    keyed += np.arange(len(ring), dtype=np.int32)[:, None]
    best = np.minimum.reduce(keyed, axis=0)
    win = best & 15
    best_slot = np.stack((slot[uy[win], 0, cols], slot[ux[win], 1, cols]))
    return low + (best_slot << shift) - origin, best >> 4


def _gather_patches(
    runs: list[tuple[np.ndarray, slice]],
    low: np.ndarray,
    seg: slice,
    step: int,
    lattice: tuple[int, int],
    block: tuple[int, int],
) -> np.ndarray:
    """``(n_y, n_x, bh, bw, n)`` slots of one mode's instances, columns ``seg``.

    Slot ``(ky, kx)`` of instance ``i`` is its ``block`` sampled every fourth
    SF sample from ``low[:, i] + step·(ky, kx)`` in the SF of its run. The
    patch behind the slots holds only the samples they read, gathered a row
    at a time through :func:`sf_rows`, so a position past the last at which
    the patch fits raises instead of reading past the SF:

    - half ring (``step`` 2): ``2·bh + 1`` rows at SF stride 2, every other
      byte of each, ``(PH, 1, PW, 1, n)``; slot ``(ky, kx)`` starts at
      sample ``(ky, kx)`` and steps 2;
    - quarter ring (``step`` 1): SF rows ``4i + ky`` and columns ``4j + kx``
      (``ky < n_y``, ``kx < n_x``), ``(bh, n_y, bw, n_x, n)``, one gathered
      row set per ``ky``; slot ``(ky, kx)`` is ``[:, ky, :, kx]``.
    """
    (n_y, n_x), (bh, bw) = lattice, block
    if step == 2:
        stride, shape = 2, (n_y + 2 * (bh - 1), 1, n_x + 2 * (bw - 1), 1)
    else:
        stride, shape = 4, (bh, n_y, bw, n_x)
    rows, phases_y, cols, phases_x = shape
    span = stride * (cols - 1) + phases_x
    n = seg.stop - seg.start
    patch = np.empty(shape + (n,), dtype=np.uint8)
    # Instance axis innermost; in chunks, so each transposing copy reads a
    # gather that is still in cache.
    chunk = max(1, _CHUNK_BYTES // (phases_y * rows * span))
    for sf, run in runs:
        windows = sf_rows(sf, rows, stride, span)
        for c0 in range(run.start, run.stop, chunk):
            c = slice(c0, min(c0 + chunk, run.stop))
            got = windows[low[0, c, None] + np.arange(phases_y), low[1, c, None]]
            # (m, phases_y, rows) rows of bytes -> (rows, phases_y, cols, phases_x, m).
            samples = np.ndarray(
                (c.stop - c.start, phases_y, rows, cols, phases_x), np.uint8, got, 0,
                (phases_y * rows * span, rows * span, span, stride, 1),
            )
            patch[..., c.start - seg.start : c.stop - seg.start] = samples.transpose(
                2, 1, 3, 4, 0
            )
    sr, sp, sc, sq, _ = patch.strides
    # A slot is one sample (half) or one phase (quarter) from the last; a
    # block row is two patch rows (half) or one (quarter).
    unit, pitch = ((sr, sc), 2) if step == 2 else ((sp, sq), 1)
    return np.ndarray(
        (n_y, n_x, bh, bw, n), np.uint8, patch, 0, unit + (pitch * sr, pitch * sc, 1)
    )


def _slot_costs(cur: np.ndarray, slots: np.ndarray, out: np.ndarray, metric) -> None:
    """``(n_y, n_x, n)`` slot costs of the ``(bh, bw, n)`` ``cur`` blocks into ``out``.

    ``slots`` is the ``(n_y, n_x, bh, bw, n)`` view :func:`_gather_patches`
    returns. SAD stays at the width the data needs (the FSBM idiom):
    ``|a − b|`` as ``maximum − minimum`` in uint8, summed in uint16 — a
    16×16 block of all-0 against all-255 is ``65 280 < 2¹⁶`` — over the
    instance axis, which is innermost, one row of slots at a time. Any other
    metric scores the ``(n, bh, bw)`` stacks of one slot at a time.
    """
    n_y, n_x, bh, bw, n = slots.shape
    if metric is not sad_blocks:
        for ky in range(n_y):
            for kx in range(n_x):
                out[ky, kx] = metric(
                    cur.transpose(2, 0, 1), slots[ky, kx].transpose(2, 0, 1)
                )
        return
    diff = np.empty((n_x, bh, bw, n), dtype=np.uint8)
    low = np.empty_like(diff)
    for ky in range(n_y):
        np.maximum(slots[ky], cur, out=diff)
        np.minimum(slots[ky], cur, out=low)
        diff -= low
        np.add.reduce(diff, axis=(1, 2), dtype=np.uint16, out=out[ky])
