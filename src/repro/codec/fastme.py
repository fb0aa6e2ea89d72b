"""Fast motion estimation: diamond search (DS).

A content-adaptive ME used as an *ablation* against the paper's FSBM. The
paper deliberately uses Full-Search Block-Matching because its per-MB-row
cost is content-independent — which is exactly what makes the K^m
"seconds per MB row" characterization of Algorithm 2 a faithful model.
Diamond search is 1–2 orders of magnitude cheaper but its cost varies with
motion content, so per-row times stop being a stable device property. The
benchmarks quantify both effects: the R-D cost of DS vs FSBM (small) and
the per-row workload variance (large), motivating the paper's choice.

Algorithm: classic DS (Zhu & Ma) — iterate the Large Diamond Search
Pattern from the co-located position until the best point is the centre,
then one Small Diamond step. Sub-partition MVs are chosen per partition
over the set of *visited* candidates (their 4×4 cell SADs are reused, like
FSBM's SAD-reuse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.me import MotionField, padded_references
from repro.codec.partitions import PartitionSadTree, all_modes
from repro.codec.sad import StripCellSads, box_sums

#: Large diamond: centre + 8 points at L1 distance 2.
LDSP = ((0, 0), (-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1))
#: Small diamond: centre + 4 points at L1 distance 1.
SDSP = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass
class FastMEStats:
    """Workload accounting: candidates evaluated per MB row.

    ``candidates_per_row[r]`` counts SAD evaluations in row ``r`` — for
    FSBM this would be ``mb_cols * (2*search_range+1)**2 * n_refs``
    exactly; for DS it depends on the content.
    """

    candidates_per_row: list[int]

    @property
    def total(self) -> int:
        return sum(self.candidates_per_row)

    def row_variation(self) -> float:
        """(max-min)/max of the per-row workload (0 = content-independent)."""
        if not self.candidates_per_row or max(self.candidates_per_row) == 0:
            return 0.0
        mx, mn = max(self.candidates_per_row), min(self.candidates_per_row)
        return (mx - mn) / mx


def diamond_search_rows(
    cur_y: np.ndarray,
    refs_y: list[np.ndarray],
    row0: int,
    nrows: int,
    cfg: CodecConfig,
) -> tuple[MotionField, FastMEStats]:
    """Diamond-search ME over MB rows ``[row0, row0 + nrows)``.

    Returns a :class:`MotionField` (same contract as
    :func:`repro.codec.me.motion_estimate_rows`) plus workload statistics.
    MVs are bounded by ``cfg.search_range`` like FSBM's.
    """
    padded = padded_references(cur_y, refs_y, row0, nrows, cfg)
    # The padded rows the band reads and their 4×4 box sums, as FSBM builds them.
    band = slice(row0 * MB_SIZE, (row0 + nrows) * MB_SIZE + 2 * cfg.search_range)
    strips = [(ref_pad[band], box_sums(ref_pad[band])) for ref_pad in padded]
    mb_cols = cur_y.shape[1] // MB_SIZE
    sr = cfg.search_range
    modes = all_modes(cfg.enabled_partitions)

    out = MotionField(
        row0=row0, nrows=nrows, mb_cols=mb_cols,
        mode_shapes=tuple(m.shape for m in modes),
    )
    for m in modes:
        out.mvs[m.shape] = np.zeros((nrows, mb_cols, m.nparts, 2), dtype=np.int32)
        out.refs[m.shape] = np.zeros((nrows, mb_cols, m.nparts), dtype=np.int32)
        out.sads[m.shape] = np.full(
            (nrows, mb_cols, m.nparts), np.iinfo(np.int64).max, dtype=np.int64
        )
    stats = FastMEStats(candidates_per_row=[0] * nrows)
    kernel = StripCellSads(1, MB_SIZE)

    for r in range(row0, row0 + nrows):
        out_r = r - row0
        cur_strip = cur_y[r * MB_SIZE : (r + 1) * MB_SIZE, :]
        for c in range(mb_cols):
            kernel.set_current(cur_strip[:, c * MB_SIZE : (c + 1) * MB_SIZE])
            for ref_idx, (ref_band, box) in enumerate(strips):
                visited: dict[tuple[int, int], np.ndarray] = {}
                n_evals = _search_mb(kernel, ref_band, box, out_r, c, sr, visited)
                stats.candidates_per_row[out_r] += n_evals
                _commit_best(out, out_r, c, ref_idx, visited, modes)
    return out, stats


def _cells_at(
    kernel: StripCellSads,
    ref_band: np.ndarray,
    box: np.ndarray,
    band_row: int,
    mb_col: int,
    sr: int,
    dy: int,
    dx: int,
) -> np.ndarray:
    """4×4 cell SADs of the kernel's MB at one displacement.

    ``ref_band`` is the padded reference's rows the band reads and ``box``
    their :func:`repro.codec.sad.box_sums`: the candidate's cell sums B are
    read from it, not folded from its pels.
    """
    y0 = band_row * MB_SIZE + sr + dy
    x0 = mb_col * MB_SIZE + sr + dx
    ref_mb = ref_band[y0 : y0 + MB_SIZE, x0 : x0 + MB_SIZE]
    ref_sums = box[y0 : y0 + MB_SIZE : 4, x0 : x0 + MB_SIZE : 4]
    return kernel.cell_sads(ref_mb[None], ref_sums[:, :, None, None])[:, :, 0, 0]


def _search_mb(
    kernel: StripCellSads,
    ref_band: np.ndarray,
    box: np.ndarray,
    band_row: int,
    mb_col: int,
    sr: int,
    visited: dict[tuple[int, int], np.ndarray],
) -> int:
    """Run LDSP/SDSP from (0,0); fills ``visited`` with cell-SAD grids."""

    def evaluate(dy: int, dx: int) -> int:
        key = (dy, dx)
        if key not in visited:
            visited[key] = _cells_at(kernel, ref_band, box, band_row, mb_col, sr, dy, dx)
        return int(visited[key].sum())

    cy, cx = 0, 0
    best = evaluate(0, 0)
    # LDSP iterations (bounded to keep worst case finite).
    for _ in range(2 * sr):
        best_off = (0, 0)
        for dy, dx in LDSP[1:]:
            ny, nx = cy + dy, cx + dx
            if abs(ny) > sr or abs(nx) > sr:
                continue
            s = evaluate(ny, nx)
            if s < best:
                best = s
                best_off = (dy, dx)
        if best_off == (0, 0):
            break
        cy += best_off[0]
        cx += best_off[1]
    # Final SDSP refinement.
    for dy, dx in SDSP[1:]:
        ny, nx = cy + dy, cx + dx
        if abs(ny) <= sr and abs(nx) <= sr:
            evaluate(ny, nx)
    return len(visited)


def _commit_best(
    out: MotionField,
    out_r: int,
    c: int,
    ref_idx: int,
    visited: dict[tuple[int, int], np.ndarray],
    modes,
) -> None:
    """Per partition, pick the best displacement among visited candidates."""
    offsets = list(visited.keys())
    tree = PartitionSadTree(len(offsets), 1)
    tree.cells[..., 0] = np.stack([visited[k] for k in offsets], axis=-1)
    tree.fill()
    for mode in modes:
        psads = tree.sads[mode.span, :, 0]  # (nparts, n_vis)
        best_i = psads.argmin(axis=1)
        for p in range(mode.nparts):
            s = psads[p, best_i[p]]
            if s < out.sads[mode.shape][out_r, c, p]:
                out.sads[mode.shape][out_r, c, p] = s
                out.refs[mode.shape][out_r, c, p] = ref_idx
                out.mvs[mode.shape][out_r, c, p] = offsets[best_i[p]]
