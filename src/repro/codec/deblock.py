"""DBL: H.264/AVC in-loop deblocking filter, every edge of a direction at once.

Boundary strengths (bS) of all edges of the 4×4-block grid come from two
whole-grid expressions per frame (:func:`boundary_strengths`), shared by
Y, U and V. A plane is filtered in two passes — all vertical edges, then
all horizontal edges, the order of the per-edge kernel this replaced
(``tests/oracles.py::reference_deblock_plane``) — on an int16 copy (no
intermediate exceeds ``8 · 255 + 4``) whose taps, for *all* edges of a
direction, are the strided views ``a[4 + j : L - 3 + j : 4]``, ``j = -4 … 3``.

Edges must be filtered one after another only where one reads what an
earlier one wrote. Chroma edges read ``p1 p0 q0 q1`` and write ``p0 q0``,
four samples apart: none does. A luma edge *k* sees the writes of edge
*k − 1* only, and only on its p side::

    column       4k-4   4k-3   4k-2   4k-1 | 4k     4k+1   4k+2   4k+3
    tap of k     p3     p2     p1     p0   | q0     q1     q2     q3
    k-1 writes   q0′    q1′    q2′ (bS 4 only)

bS 4 occurs on macroblock edges only, so two strong edges are never
adjacent and every chain ends after one link: a strong edge's q side and
a normal edge's q1′ are functions of unfiltered samples (q1′ is clipped
to ``tc0``, not ``tc``; its on/off test reads p1, which only a strong
neighbour moves). Four phases per direction, each over every edge at
once, reproduce the sequential result: :func:`_filter_luma`. The paper
maps DBL to one device because of these neighbouring-MB dependencies;
here they order the phases, not the edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.frames import YuvFrame
from repro.codec.quant import chroma_qp
from repro.util.validation import check_range

# --- Standard clipping tables (index = clip3(0, 51, QP + offset)) ---------

ALPHA_TABLE = np.array(
    [0] * 16
    + [4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28, 32, 36,
       40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203,
       226, 255, 255],
    dtype=np.int32,
)

BETA_TABLE = np.array(
    [0] * 16
    + [2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11,
       11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18],
    dtype=np.int32,
)

#: tc0[bS - 1][index] for bS in 1..3.
TC0_TABLE = np.array(
    [
        [0] * 16
        + [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
           1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4],
        [0] * 16
        + [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1,
           1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 6, 7],
        [0] * 16
        + [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
           2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 8,
           ],
    ],
    dtype=np.int32,
)


@dataclass
class BlockInfo:
    """Per-4×4-block metadata used for boundary-strength derivation.

    Arrays are indexed on the 4×4-block grid ``(H/4, W/4)``:

    - ``mv``: ``(..., 2)`` quarter-pel motion vector of the covering
      partition (zero for intra blocks);
    - ``ref``: reference index (−1 for intra);
    - ``cnz``: non-zero coded-coefficient flag;
    - ``intra``: intra-coded flag.
    """

    mv: np.ndarray
    ref: np.ndarray
    cnz: np.ndarray
    intra: np.ndarray

    def __post_init__(self) -> None:
        g = self.ref.shape
        if self.mv.shape != (*g, 2) or self.cnz.shape != g or self.intra.shape != g:
            raise ValueError("inconsistent BlockInfo array shapes")


#: ``tc0`` looked up by bS itself (rows 0 and 4 are never read unmasked).
_TC0_BY_BS = TC0_TABLE[[0, 0, 1, 2, 2]].astype(np.int16)


def _strengths_across_columns(
    mv: np.ndarray, ref: np.ndarray, cnz: np.ndarray, intra: np.ndarray
) -> np.ndarray:
    """bS between horizontally adjacent blocks: ``(rows, cols − 1)`` uint8."""
    moved = (np.abs(mv[:, 1:] - mv[:, :-1]) >= 4).any(axis=-1)
    bs = ((ref[:, 1:] != ref[:, :-1]) | moved).astype(np.uint8)
    bs[cnz[:, 1:] | cnz[:, :-1]] = 2
    either_intra = intra[:, 1:] | intra[:, :-1]
    bs[either_intra] = 3
    # Every fourth grid line is a macroblock edge: intra there is bS 4.
    bs[:, 3::4][either_intra[:, 3::4]] = 4
    return bs


def boundary_strengths(
    info: BlockInfo, skip_luma_rows: frozenset[int] = frozenset()
) -> tuple[np.ndarray, np.ndarray]:
    """bS of every edge of the 4×4-block grid, as two uint8 grids.

    ``bs_v[r, k - 1]`` is the vertical edge between block columns ``k − 1``
    and ``k`` in block row ``r`` (shape ``(H/4, W/4 − 1)``); ``bs_h[k - 1, c]``
    the horizontal edge between block rows ``k − 1`` and ``k`` (shape
    ``(H/4 − 1, W/4)``). 4 = intra at a macroblock edge, 3 = intra inside,
    2 = coded coefficients, 1 = different reference or an MV component
    ≥ 1 pel apart, 0 = not filtered. Horizontal edges on a luma pixel row
    in ``skip_luma_rows`` get 0 (see :func:`deblock_plane`).
    """
    bs_v = _strengths_across_columns(info.mv, info.ref, info.cnz, info.intra)
    bs_h = _strengths_across_columns(
        info.mv.swapaxes(0, 1), info.ref.T, info.cnz.T, info.intra.T
    ).T
    for row in skip_luma_rows:
        if row % 4 == 0 and 0 < row // 4 <= bs_h.shape[0]:
            bs_h[row // 4 - 1] = 0
    return bs_v, bs_h


def _clip3(lo: np.ndarray | int, hi: np.ndarray | int, x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def _filter_chroma(
    taps: list[np.ndarray], bs: np.ndarray, alpha: int, beta: int, tc0: np.ndarray
) -> None:
    """Filter all chroma edges of one direction in place: ``taps`` are the
    write-through views ``p1 p0 q0 q1`` of every edge, ``bs`` its strength
    per sample, ``tc0`` the bS → tc0 row of this QP."""
    p1, p0, q0, q1 = taps
    filt = (
        (bs > 0)
        & (np.abs(p0 - q0) < alpha)
        & (np.abs(p1 - p0) < beta)
        & (np.abs(q1 - q0) < beta)
    )
    tc = tc0[bs] + 1
    delta = _clip3(-tc, tc, ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3)
    p0n = _clip3(0, 255, p0 + delta)
    q0n = _clip3(0, 255, q0 - delta)
    strong = bs == 4
    if strong.any():
        np.copyto(p0n, (2 * p1 + p0 + q1 + 2) >> 2, where=strong)
        np.copyto(q0n, (2 * q1 + q0 + p1 + 2) >> 2, where=strong)
    np.copyto(p0, p0n, where=filt)
    np.copyto(q0, q0n, where=filt)


def _strong_side(
    s3: np.ndarray, s2: np.ndarray, s1: np.ndarray, s0: np.ndarray,
    o0: np.ndarray, o1: np.ndarray, strong: np.ndarray, wide: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """The bS 4 filter on one side of the edges: samples ``s0 … s3`` of
    that side (``s0`` at the edge), ``o0 o1`` of the other, written to the
    ``out`` views of ``s0 s1 s2`` — three taps where ``wide``, else ``s0``."""
    s0n = np.where(wide, (s2 + 2 * s1 + 2 * s0 + 2 * o0 + o1 + 4) >> 3,
                   (2 * s1 + s0 + o1 + 2) >> 2)
    s1n = (s2 + s1 + s0 + o0 + 2) >> 2
    s2n = (2 * s3 + 3 * s2 + s1 + s0 + o0 + 4) >> 3
    np.copyto(out[0], s0n, where=strong)
    np.copyto(out[1], s1n, where=wide)
    np.copyto(out[2], s2n, where=wide)


def _filter_luma(
    taps: list[np.ndarray], bs: np.ndarray, alpha: int, beta: int, tc0: np.ndarray
) -> None:
    """Filter all luma edges of one direction in place, in dependency order.

    ``taps`` are the write-through views ``p3 … q3`` of every edge. Phases
    A and D are skipped without a bS 4 edge, i.e. on every P frame.
    """
    p3, p2, p1, p0, q0, q1, q2, q3 = taps
    # A and B overwrite q0 q1; C and D still need them unfiltered. Everything
    # else read before phase A is unfiltered too (p0 is written last, by
    # its own edge).
    q0_in, q1_in = q0.copy(), q1.copy()
    gap = np.abs(p0 - q0_in)
    on = (bs > 0) & (gap < alpha) & (np.abs(q1_in - q0_in) < beta)  # but for p1
    aq = np.abs(q2 - q0_in) < beta
    mid = (p0 + q0_in + 1) >> 1
    tc0 = tc0[bs]
    strong = bs == 4
    any_strong = bool(strong.any())

    if any_strong:
        # A — q0′ q1′ q2′ of strong edges: no strong neighbour, so p1 and
        # every other input is unfiltered.
        strong &= on & (np.abs(p1 - p0) < beta)
        small_gap = strong & (gap < (alpha >> 2) + 2)
        _strong_side(q3, q2, q1_in, q0_in, p0, p1, strong, small_gap & aq, (q0, q1, q2))

    # Only a strong neighbour's q2′ (phase A) moves an edge's p1 before the
    # edge itself does: the on/off test of the normal edges is final now.
    normal = on & (np.abs(p1 - p0) < beta) & (bs < 4)

    # B — q1′ of normal edges: clipped to tc0, it needs neither ap nor tc.
    dq1 = _clip3(-tc0, tc0, (q2 + mid - 2 * q1_in) >> 1)
    np.copyto(q1, q1_in + dq1, where=normal & aq)

    # C — p1′ p0′ q0′ of normal edges: p2 is the previous edge's final q1′.
    ap = np.abs(p2 - p0) < beta
    tc = tc0 + ap + aq
    delta = _clip3(-tc, tc, ((q0_in - p0) * 4 + (p1 - q1_in) + 4) >> 3)
    dp1 = _clip3(-tc0, tc0, (p2 + mid - 2 * p1) >> 1)
    p0n = _clip3(0, 255, p0 + delta)
    np.copyto(p1, p1 + dp1, where=normal & ap)
    np.copyto(p0, p0n, where=normal)
    np.copyto(q0, _clip3(0, 255, q0_in - delta), where=normal)

    if any_strong:
        # D — p0′ p1′ p2′ of strong edges: p3 p2 are the previous edge's
        # final q0′ q1′ (and ap, from phase C, already saw that p2).
        _strong_side(p3, p2, p1, p0, q0_in, q1_in, strong, small_gap & ap, (p0, p1, p2))


def _filter_plane(
    plane: np.ndarray, bs_v: np.ndarray, bs_h: np.ndarray, qp: int, chroma: bool
) -> np.ndarray:
    """Filter one plane given the luma-grid strengths of its frame."""
    check_range("qp", qp, 0, 51)
    if plane.dtype != np.uint8 or plane.ndim != 2:
        raise ValueError(
            f"plane must be a 2-D uint8 array, got {plane.dtype} {plane.shape}"
        )
    h, w = plane.shape
    if h % 4 or w % 4:
        raise ValueError(f"plane {plane.shape} not 4x4-aligned")
    # One chroma sample spans two luma samples: a chroma 4×4 edge is every
    # second luma grid line, and one luma block covers 2 chroma samples.
    per_block = 2 if chroma else 4
    if (bs_v.shape[0] * per_block, bs_h.shape[1] * per_block) != (h, w):
        raise ValueError(
            f"BlockInfo grid {(bs_v.shape[0], bs_h.shape[1])} does not cover "
            f"{'chroma' if chroma else 'luma'} plane {plane.shape} "
            f"(expected {(h // per_block, w // per_block)})"
        )
    if chroma:
        bs_v, bs_h = bs_v[:, 1::2], bs_h[1::2]
        reach, index, filt = 2, chroma_qp(qp), _filter_chroma
    else:
        reach, index, filt = 4, qp, _filter_luma
    alpha, beta = int(ALPHA_TABLE[index]), int(BETA_TABLE[index])
    tc0 = _TC0_BY_BS[:, index]
    a = plane.astype(np.int16)
    offsets = range(-reach, reach)
    filt([a[:, 4 + j : w - 3 + j : 4] for j in offsets],
         np.repeat(bs_v, per_block, axis=0), alpha, beta, tc0)
    filt([a[4 + j : h - 3 + j : 4] for j in offsets],
         np.repeat(bs_h, per_block, axis=1), alpha, beta, tc0)
    return a.astype(np.uint8)


def deblock_plane(
    plane: np.ndarray,
    info: BlockInfo,
    qp: int,
    chroma: bool = False,
    skip_luma_rows: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Deblock one plane: all vertical edges, then all horizontal edges.

    ``plane`` is a uint8 luma ``(H, W)`` or chroma ``(H/2, W/2)`` plane,
    4×4-aligned; ``info`` the per-4×4-luma-block metadata on the
    ``(H/4, W/4)`` grid (chroma reuses the co-located luma bS); ``qp`` the
    slice QP (chroma QP derived internally when ``chroma``).
    ``skip_luma_rows`` are luma pixel rows whose horizontal edge is not
    filtered — the slice boundaries when ``deblock_across_slices`` is off,
    which is what makes the filter slice-parallel. Returns a uint8 copy.
    """
    bs_v, bs_h = boundary_strengths(info, skip_luma_rows)
    return _filter_plane(plane, bs_v, bs_h, qp, chroma)


def deblock_frame(
    recon: YuvFrame,
    mv4: np.ndarray,
    ref4: np.ndarray,
    cnz4: np.ndarray,
    intra4: np.ndarray,
    qp: int,
    skip_luma_rows: frozenset[int] = frozenset(),
) -> YuvFrame:
    """Apply DBL to all three planes, deriving the bS grids once.

    The one frame-level DBL, for encoder, decoder and both backends.
    ``skip_luma_rows`` carries the slice boundaries when cross-slice
    filtering is disabled (see :mod:`repro.codec.slices`).
    """
    info = BlockInfo(mv=mv4, ref=ref4, cnz=cnz4, intra=intra4)
    bs_v, bs_h = boundary_strengths(info, skip_luma_rows)
    return YuvFrame(
        _filter_plane(recon.y, bs_v, bs_h, qp, chroma=False),
        _filter_plane(recon.u, bs_v, bs_h, qp, chroma=True),
        _filter_plane(recon.v, bs_v, bs_h, qp, chroma=True),
    )
