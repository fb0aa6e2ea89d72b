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

1. all candidate positions at once as ``(9, 2, n)`` arrays, each clamped on
   its own (the restricted-MV border policy MC shares);
2. one block gather per reference through
   :func:`repro.codec.interpolation.subpel_blocks` — whole ``(bh, bw)``
   blocks from a strided-window view of the SF, one index pair per block —
   into a ``(9, n, bh, bw)`` uint8 stack (the instances are grouped by
   reference once per mode, so each SF serves one contiguous run);
3. SAD at the width the data needs: ``maximum − minimum`` in uint8, summed
   in uint16 (at most ``256 · 255 = 65 280``);
4. one first-minimum ``argmin`` over the candidate axis — the centre is
   candidate 0, so ties resolve toward the smaller refinement — and the
   winner's *clamped* displacement.

:class:`SubpelField` carries ``int64`` SADs and ``int32`` MVs/refs; the
narrow types are widened once, when the field is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.interpolation import subpel_blocks
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
            # Partition origins in quarter-pel units, and the current blocks:
            # raster sub-partitions of raster MBs are one reshape of the band.
            mb_y = 4 * MB_SIZE * np.arange(row0, row0 + nrows)
            mb_x = 4 * MB_SIZE * np.arange(mb_cols)
            origin = np.empty((2, nrows, mb_cols, mode.nparts), dtype=np.int64)
            origin[0] = mb_y[:, None, None] + 4 * mode.origins[:, 0]
            origin[1] = mb_x[:, None] + 4 * mode.origins[:, 1]
            origin = origin.reshape(2, -1)[:, order]
            cur_blocks = (
                band_y.reshape(nrows, MB_SIZE // bh, bh, mb_cols, -1, bw)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(-1, bh, bw)[order]
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

    ``ring`` is ``(9, 2, 1)`` offsets, centre first; ``centre_q`` and
    ``origin`` are ``(2, n)`` quarter-pel ``(y, x)`` displacements /
    partition origins of the ``n`` instances, ``limit`` the largest
    ``(qy, qx)`` at which a block still fits the SF, and ``runs`` the
    ``(sf, slice)`` runs of instances that share a reference.

    Every candidate — including the centre — is clamped on its own and
    scored on the SF samples at the clamped position, so the cost recorded
    for the winner always matches the prediction MC will later build, and
    the returned displacement is the clamped one. The first minimum over
    the centre-first candidate axis makes ties resolve toward the smaller
    offset.
    """
    bh, bw = cur_blocks.shape[1:]
    # (9, 2, n) candidate positions under the restricted-MV border policy.
    pos = origin + centre_q + ring
    np.maximum(pos, 0, out=pos)
    np.minimum(pos, limit, out=pos)
    costs = np.concatenate(
        [
            _candidate_costs(
                cur_blocks[run],
                subpel_blocks(sf, pos[:, 0, run], pos[:, 1, run], bh, bw),
                metric,
            )
            for sf, run in runs
        ],
        axis=1,
    )
    win = costs.argmin(axis=0)[None]  # (1, n): first minimum per instance
    best_pos = np.take_along_axis(pos, win[:, None], axis=0)[0]
    return best_pos - origin, np.take_along_axis(costs, win, axis=0)[0]


def _candidate_costs(cur_blocks: np.ndarray, cand: np.ndarray, metric) -> np.ndarray:
    """``(9, n)`` costs of a ``(9, n, bh, bw)`` candidate stack.

    SAD stays at the width the data needs (the FSBM idiom): ``|a − b|`` as
    ``maximum − minimum`` in uint8, summed in uint16 — a 16×16 block of
    all-0 against all-255 is ``65 280 < 2¹⁶``. Any other metric scores the
    stack one candidate at a time.
    """
    if metric is not sad_blocks:
        return np.stack([metric(cur_blocks, blocks) for blocks in cand])
    diff = np.maximum(cand, cur_blocks)
    diff -= np.minimum(cand, cur_blocks, out=cand)  # cand is a gathered copy
    return diff.reshape(*diff.shape[:2], -1).sum(axis=-1, dtype=np.uint16)
