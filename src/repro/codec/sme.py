"""SME: Sub-pixel Motion Estimation.

Refines the full-pel MVs produced by ME to quarter-pel accuracy using the
interpolated SF (paper §II: "By relying on the MVs from the ME and the SFs
from the INT, the SME is applied to further refine the MVs"). The standard
two-step refinement is used: the 8 half-pel neighbours of the full-pel
position are evaluated first, then the 8 quarter-pel neighbours of the best
half-pel position. Distortion is SAD (or SATD) against the current frame.

Like ME, the kernel processes MB rows (the ``s`` distribution vector of
Algorithm 2). Per partition mode and ring it is batched over every
sub-partition of the band *and* the ring's 9 candidates:

1. per axis the three candidate coordinates, each clamped on its own (the
   restricted-MV border policy MC shares); every clamped candidate is one
   slot of a 3×3 lattice around the centre (see :func:`_evaluate_ring`);
2. one patch gather per instance — the lattice's samples, from a
   strided-window view of the SF, the instances grouped by reference once
   per mode so each SF serves one contiguous run — laid out ``(PH, PW, n)``
   with the instance axis innermost;
3. SAD of each of the 9 slots at the width the data needs: ``maximum −
   minimum`` in uint8, summed in uint16 (at most ``256 · 255 = 65 280``),
   each ufunc over rows of ``n`` instances;
4. the 9 candidates' costs read through their slots, one first minimum over
   the candidate axis — the centre is candidate 0, so ties resolve toward
   the smaller refinement — and the winner's *clamped* displacement.

:class:`SubpelField` carries ``int64`` SADs and ``int32`` MVs/refs; the
narrow types are widened once, when the field is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.codec.config import MB_SIZE, CodecConfig
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

#: ``(3, 1, 1)`` unit offsets of one axis; instances gathered per chunk.
_UNIT = np.arange(-1, 2)[:, None, None]
_CHUNK = 256


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
    for shape in me_field.mode_shapes:
        refs = me_field.refs[shape][src]
        if refs.size and not 0 <= refs.min() <= refs.max() < len(sfs):
            bad = refs.max() if refs.max() >= len(sfs) else refs.min()
            raise ValueError(
                f"refs[{shape}] names reference {bad} but only "
                f"{len(sfs)} SF(s) were given"
            )
    out = SubpelField(
        row0=row0, nrows=nrows, mb_cols=mb_cols, mode_shapes=me_field.mode_shapes
    )
    metric = block_metric(cfg.subpel_metric)
    band_y = cur_y[row0 * MB_SIZE : (row0 + nrows) * MB_SIZE]
    for shape in me_field.mode_shapes:
        mode = get_mode(shape)
        bh, bw = shape
        refs = me_field.refs[shape][src]            # (nrows, mbc, nparts)
        out.refs[shape] = refs.astype(np.int32)
        # Every sub-partition instance of the band, flattened [row, mb, part].
        qmv = 4 * me_field.mvs[shape][src].reshape(-1, 2).astype(np.int64)
        cost = me_field.sads[shape][src].ravel()

        if cfg.subpel and nrows:
            # Group the instances by reference once, so each ring gathers a
            # contiguous run per SF (the SFs live in separate segments).
            flat_ref = refs.ravel()
            order = np.argsort(flat_ref, kind="stable")
            ends = np.searchsorted(flat_ref[order], np.arange(len(sfs) + 1))
            runs = [
                (sf, slice(a, b)) for sf, a, b in zip(sfs, ends, ends[1:]) if a < b
            ]
            # Partition origins in quarter-pel units, and the current blocks
            # as (bh, bw, n), instance axis innermost like the patches:
            # raster sub-partitions of raster MBs are one reshape of the band.
            mb_y = 4 * MB_SIZE * np.arange(row0, row0 + nrows)
            mb_x = 4 * MB_SIZE * np.arange(mb_cols)
            origin = np.empty((2, nrows, mb_cols, mode.nparts), dtype=np.int64)
            origin[0] = mb_y[:, None, None] + 4 * mode.origins[:, 0]
            origin[1] = mb_x[:, None] + 4 * mode.origins[:, 1]
            origin = origin.reshape(2, -1)[:, order]
            cur_blocks = np.take(
                band_y.reshape(nrows, MB_SIZE // bh, bh, mb_cols, -1, bw)
                .transpose(2, 5, 0, 3, 1, 4)
                .reshape(bh, bw, -1),
                order,
                axis=2,
            )
            limit = np.array([[4 * (h - bh)], [4 * (w - bw)]])
            best_q = qmv[order].T
            for ring in (_HALF_RING, _QUARTER_RING):
                best_q, best = _evaluate_ring(
                    ring, best_q, cur_blocks, runs, origin, limit, metric
                )
            qmv[order] = best_q.T
            cost = np.empty_like(best)
            cost[order] = best

        # Widen once, at assembly.
        out.qmvs[shape] = qmv.astype(np.int32).reshape(nrows, mb_cols, mode.nparts, 2)
        out.sads[shape] = cost.astype(np.int64).reshape(nrows, mb_cols, mode.nparts)
    return out


def _evaluate_ring(
    ring: np.ndarray,
    centre_q: np.ndarray,
    cur_blocks: np.ndarray,
    runs: list[tuple[np.ndarray, slice]],
    origin: np.ndarray,
    limit: np.ndarray,
    metric,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one candidate ring around ``centre_q``; return best (qmv, cost).

    ``ring`` is ``(9, 2, 1)`` offsets of one step (2: half-pel, 1:
    quarter-pel), centre first; ``centre_q`` and ``origin`` are ``(2, n)``
    quarter-pel ``(y, x)`` displacements / partition origins of the ``n``
    instances, ``cur_blocks`` their ``(bh, bw, n)`` current blocks, ``limit``
    the largest ``(qy, qx)`` at which a block still fits the SF, and ``runs``
    the ``(sf, slice)`` runs of instances that share a reference.

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
    ``clip(c)``, and with ``low = clip(c − step, 0, L − 2·step)`` it is slot
    ``(p − low) / step ∈ {0, 1, 2}``. One patch per instance covers the
    slots; an axis with ``L < 2·step`` (the block spans the frame) has one.
    """
    step = int(ring.max())
    pitch = 4 // step  # patch samples from one block row to the next
    bh, bw, n = cur_blocks.shape
    centre = origin + centre_q
    # (3, 2, n): per axis, the clamped coordinate of offsets -step, 0, +step.
    axis_pos = np.minimum(np.maximum(centre + step * _UNIT, 0), limit)
    span = np.where(limit >= 2 * step, 2 * step, 0)
    low = np.minimum(np.maximum(centre - step, 0), limit - span)
    slot, rem = np.divmod(axis_pos - low, step)
    if rem.any() or slot.min() < 0 or (step * slot > span).any():
        raise RuntimeError(
            f"SME {bh}x{bw} step {step}: a clamped candidate is off its patch"
        )
    n_y, n_x = (span[:, 0] // step + 1).tolist()
    patch = np.empty(
        (n_y + pitch * (bh - 1), n_x + pitch * (bw - 1), n), dtype=np.uint8
    )
    for sf, run in runs:
        windows = sliding_window_view(
            sf, (step * (patch.shape[0] - 1) + 1, step * (patch.shape[1] - 1) + 1)
        )[:, :, ::step, ::step]
        # Instance axis innermost; in chunks, so each transposing copy reads
        # a gather that is still in cache.
        for c0 in range(run.start, run.stop, _CHUNK):
            c = slice(c0, min(c0 + _CHUNK, run.stop))
            patch[:, :, c] = windows[low[0, c], low[1, c]].transpose(1, 2, 0)
    slot_costs = np.empty((n_y * n_x, n), dtype=np.int64)
    for ky in range(n_y):
        for kx in range(n_x):
            cand = patch[
                ky : ky + pitch * (bh - 1) + 1 : pitch,
                kx : kx + pitch * (bw - 1) + 1 : pitch,
            ]
            slot_costs[ky * n_x + kx] = _slot_cost(cur_blocks, cand, metric)
    # (9, n): each candidate's cost, read through its slot.
    uy, ux = (ring[:, :, 0] // step + 1).T
    cols = np.arange(n)
    keyed = np.take(slot_costs, (slot[uy, 0] * n_x + slot[ux, 1]) * n + cols)
    # First minimum over the candidate axis: cost · 16 + candidate index.
    keyed <<= 4
    keyed += np.arange(len(ring))[:, None]
    best = np.minimum.reduce(keyed, axis=0)
    win = best & 15
    best_pos = np.stack((axis_pos[uy[win], 0, cols], axis_pos[ux[win], 1, cols]))
    return best_pos - origin, best >> 4


def _slot_cost(cur_blocks: np.ndarray, cand: np.ndarray, metric) -> np.ndarray:
    """``(n,)`` costs of a ``(bh, bw, n)`` candidate view against ``cur_blocks``.

    SAD stays at the width the data needs (the FSBM idiom): ``|a − b|`` as
    ``maximum − minimum`` in uint8, summed in uint16 — a 16×16 block of
    all-0 against all-255 is ``65 280 < 2¹⁶`` — over the instance axis, which
    is innermost. Any other metric scores the ``(n, bh, bw)`` stacks.
    """
    if metric is not sad_blocks:
        return metric(cur_blocks.transpose(2, 0, 1), cand.transpose(2, 0, 1))
    diff = np.maximum(cand, cur_blocks)
    diff -= np.minimum(cand, cur_blocks)
    return diff.sum(axis=(0, 1), dtype=np.uint16)
