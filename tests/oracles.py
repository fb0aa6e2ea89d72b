"""Slow reference twins of production hot paths, kept as test oracles.

Production has one DES loop, one solve path and one FSBM kernel; these are
the straightforward versions the equivalence tests diff them against, bit
for bit:

- :func:`reference_run` — Kahn's algorithm over per-op dicts with a
  ``list.pop(0)`` ready queue, the textbook form of
  :meth:`Simulator.run`'s index-based loop;
- :func:`make_cold` — turns a framework into a *cold* scheduler: every
  LP reaches HiGHS (no solve memo), every frame re-solves (no exact
  decision reuse), every transfer K is re-derived (no version-keyed
  table), and the DES runs :func:`reference_run`;
- :func:`reference_fsbm` — full search as one wide-integer pass per
  ``(row, ref, dy)``: int32 absolute differences, a multi-axis reduce to
  4×4 cells, one float64 cell-membership matmul per partition mode
  (:func:`reference_partition_sads`) and a strict ``<`` masked update of
  the running best — the kernel :func:`motion_estimate_rows` replaced;
- :func:`reference_sme` — sub-pel refinement one candidate at a time:
  per-pixel fancy-index gathers from the SF, a boolean reference mask per
  candidate, int32 SADs reduced to int64 and a strict ``<`` masked update
  of the running best — the kernel :func:`subpel_refine_rows` replaced;
- :func:`quant_step` — the nominal Qstep(QP) that TQ→TQ⁻¹ round-trip
  error is bounded by;
- :func:`sad` — plain int32 SAD of two blocks, the reference the cell-SAD
  kernels and FSBM results are checked against;
- :func:`subpel_block` / :func:`clamp_qpos` — one block at one clamped
  quarter-pel position, the scalar form of
  :func:`repro.codec.interpolation.subpel_blocks`;
- :func:`written_block_bits` / :func:`written_chroma_dc_bits` — rate
  accounting by writing every block with the coder and counting, which
  both coders' ``block_bits`` / ``chroma_dc_bits`` must equal;
- :func:`validate_schedule` — no two ops overlap on one resource, the
  plain check DES and orchestration tests hold every timeline to.

All are built only from what ``src/`` already exposes
(:meth:`LoadBalancer.use_lp_cache`, instance attributes,
``PartitionMode.origins``); nothing in ``src/`` knows they exist.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.codec.bitstream import BitWriter
from repro.codec.config import MB_SIZE, CodecConfig
from repro.codec.frames import pad_plane
from repro.codec.me import MotionField
from repro.codec.partitions import all_modes, get_mode
from repro.codec.satd import block_metric
from repro.codec.sme import SubpelField
from repro.core.framework import FevesFramework
from repro.core.load_balancing import LPSolveCache
from repro.hw.des import Op, OpRecord, Simulator


def reference_run(sim: Simulator) -> list[OpRecord]:
    """Dict-based Kahn evaluation of ``sim``'s issued ops."""
    ops: list[Op] = [op for r in sim.resources for op in r.ops]
    # Effective predecessor sets: explicit deps + previous op in queue.
    preds: dict[Op, list[Op]] = {}
    for r in sim.resources:
        for i, op in enumerate(r.ops):
            p = list(op.deps)
            if i > 0:
                p.append(r.ops[i - 1])
            preds[op] = p
    for op in ops:
        for d in op.deps:
            if d not in preds:
                raise RuntimeError(
                    f"op {op.label!r} depends on {d.label!r}, which is not "
                    "issued on any resource of this simulator"
                )

    indeg = {op: len(preds[op]) for op in ops}
    succs: dict[Op, list[Op]] = {op: [] for op in ops}
    for op, ps in preds.items():
        for p in ps:
            succs[p].append(op)

    # FIFO keeps evaluation deterministic.
    ready = [op for op in ops if indeg[op] == 0]
    done = 0
    while ready:
        op = ready.pop(0)
        t0 = max((p.end for p in preds[op]), default=0.0)
        op.start = t0
        op.end = t0 + op.duration
        if op.thunk is not None:
            op.thunk(op)
        done += 1
        for s in succs[op]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if done != len(ops):
        stuck = [op.label for op in ops if op.start is None][:8]
        raise RuntimeError(f"dependency cycle involving ops: {stuck}")

    records = [
        OpRecord(
            label=op.label,
            resource=op.resource.name,
            category=op.category,
            start=op.start,
            end=op.end,
        )
        for op in ops
    ]
    records.sort(key=lambda rec: (rec.start, rec.resource, rec.label))
    return records


class PassThroughLPCache(LPSolveCache):
    """An :class:`LPSolveCache` that remembers nothing."""

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> np.ndarray | None:
        self.misses += 1
        res = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        return res.x if res.success else None


def make_cold(fw: FevesFramework) -> FevesFramework:
    """Strip every scheduling shortcut from ``fw`` (in place).

    The fixed-point seed is deliberately left alone: it is solver state,
    not a cache — a cold solver carries it from frame to frame too.
    """
    balancer = fw.balancer
    balancer.use_lp_cache(PassThroughLPCache())
    warm_solve = balancer.solve

    def cold_solve(*args, **kwargs):
        balancer._cache_decision = None  # no decision reuse, exact or rtol
        return warm_solve(*args, **kwargs)

    balancer.solve = cold_solve
    balancer._kt_lookup = lambda perf: (
        lambda name, buf, dr: perf.k_transfer(name, buf, dr, balancer.sizes)
    )
    sim = fw.manager.sim
    sim.run = lambda: reference_run(sim)
    return fw


def cell_membership(shape: tuple[int, int]) -> np.ndarray:
    """``(nparts, 16)`` 0/1 matrix: which 4×4 cells each sub-partition covers."""
    mode = get_mode(shape)
    mat = np.zeros((mode.nparts, 16), dtype=np.float64)
    for p, (oy, ox) in enumerate(mode.origins):
        for cy in range(oy // 4, (oy + shape[0]) // 4):
            for cx in range(ox // 4, (ox + shape[1]) // 4):
                mat[p, cy * 4 + cx] = 1.0
    return mat


def reference_partition_sads(
    cell_sads: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Cell SADs ``(..., 4, 4)`` -> int64 partition SADs ``(..., nparts)``."""
    flat = cell_sads.reshape(*cell_sads.shape[:-2], 16)
    return (flat @ cell_membership(shape).T).astype(np.int64)


def reference_fsbm(
    cur_y: np.ndarray,
    refs_y: list[np.ndarray],
    row0: int,
    nrows: int,
    cfg: CodecConfig,
    refs_prepadded: bool = False,
) -> MotionField:
    """Full-search ME of MB rows ``[row0, row0 + nrows)``, the slow way.

    Same contract as :func:`repro.codec.me.motion_estimate_rows` on valid
    input: ties break toward the earlier reference, then the smaller
    ``dy``, then the smaller ``dx``.
    """
    w = cur_y.shape[1]
    mb_cols = w // MB_SIZE
    sr = cfg.search_range
    modes = all_modes(cfg.enabled_partitions)
    refs = refs_y[: cfg.num_ref_frames]
    if not refs_prepadded:
        refs = [pad_plane(ref, sr) for ref in refs]

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

    for out_r in range(nrows):
        y0 = (row0 + out_r) * MB_SIZE
        cur = cur_y[y0 : y0 + MB_SIZE].astype(np.int32)
        for ref_idx, ref_pad in enumerate(refs):
            for dy in range(-sr, sr + 1):
                rows = ref_pad[y0 + sr + dy : y0 + sr + dy + MB_SIZE].astype(np.int32)
                # (ndx, 16, W): the reference strip at every dx.
                shifted = np.stack([rows[:, k : k + w] for k in range(2 * sr + 1)])
                cells = (
                    np.abs(shifted - cur)
                    .reshape(-1, 4, 4, mb_cols, 4, 4)
                    .sum(axis=(2, 5))
                    .transpose(0, 2, 1, 3)
                )  # (ndx, mb_cols, 4, 4)
                for m in modes:
                    psads = reference_partition_sads(cells, m.shape)
                    best_dx_i = psads.argmin(axis=0)  # first min => smaller dx
                    best_sad = np.take_along_axis(psads, best_dx_i[None], axis=0)[0]
                    improved = best_sad < out.sads[m.shape][out_r]  # strict
                    out.sads[m.shape][out_r][improved] = best_sad[improved]
                    out.refs[m.shape][out_r][improved] = ref_idx
                    out.mvs[m.shape][out_r, :, :, 0][improved] = dy
                    out.mvs[m.shape][out_r, :, :, 1][improved] = (
                        best_dx_i[improved] - sr
                    )
    return out


def quant_step(qp: int) -> float:
    """Effective quantizer step size Qstep(QP) ≈ 0.625 · 2^(QP/6).

    Bounds reconstruction error in tests: the TQ→TQ⁻¹ round trip must not
    deviate from the input by more than about one step.
    """
    base = (0.625, 0.6875, 0.8125, 0.875, 1.0, 1.125)
    return base[qp % 6] * (1 << (qp // 6))


def sad(a: np.ndarray, b: np.ndarray) -> int:
    """Plain SAD between two equally-shaped uint8 blocks."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def subpel_block(sf: np.ndarray, qy: int, qx: int, bh: int, bw: int) -> np.ndarray:
    """Sample a ``(bh, bw)`` pixel block at quarter-pel position ``(qy, qx)``.

    ``(qy, qx)`` are quarter-pel coordinates of the block's top-left sample;
    they must satisfy ``0 <= qy <= 4*(H - bh)`` (use :func:`clamp_qpos`).
    """
    return sf[qy : qy + 4 * bh : 4, qx : qx + 4 * bw : 4]


def clamp_qpos(qy: int, qx: int, bh: int, bw: int, height: int, width: int) -> tuple[int, int]:
    """Clamp a quarter-pel block position so the block fits inside the SF."""
    qy = max(0, min(qy, 4 * (height - bh)))
    qx = max(0, min(qx, 4 * (width - bw)))
    return qy, qx


def _written_bits(write, item: np.ndarray) -> int:
    w = BitWriter()
    write(w, item)
    return w.bit_count


def written_block_bits(coder, blocks: np.ndarray) -> np.ndarray:
    """Per-block cost of an ``(n, 4, 4)`` level stack: write each, count."""
    return np.array(
        [_written_bits(coder.write_block, b) for b in blocks], dtype=np.int64
    )


def written_chroma_dc_bits(coder, dcs: np.ndarray) -> int:
    """Total cost of ``(nmb, 2, 2)`` chroma-DC groups: write each, count."""
    return sum(_written_bits(coder.write_chroma_dc, dc) for dc in dcs)


def _ring(step: int) -> list[tuple[int, int]]:
    """Candidate offsets: the current position first, then its 8 neighbours."""
    offs = [(dy, dx) for dy in (-step, 0, step) for dx in (-step, 0, step)]
    offs.remove((0, 0))
    return [(0, 0)] + offs


#: Stage offsets in quarter-pel units: half-pel ring then quarter-pel ring.
_HALF_RING = _ring(2)
_QUARTER_RING = _ring(1)


def _gather_blocks(
    sf: np.ndarray, qys: np.ndarray, qxs: np.ndarray, bh: int, bw: int
) -> np.ndarray:
    """Gather ``(n, bh, bw)`` pixel blocks at quarter-pel positions."""
    rows = qys[:, None] + 4 * np.arange(bh, dtype=np.int64)[None, :]
    cols = qxs[:, None] + 4 * np.arange(bw, dtype=np.int64)[None, :]
    return sf[rows[:, :, None], cols[:, None, :]]


def _block_sads(cur_blocks: np.ndarray, cand_blocks: np.ndarray) -> np.ndarray:
    """SADs between matching ``(n, bh, bw)`` block stacks."""
    diff = cur_blocks.astype(np.int32) - cand_blocks.astype(np.int32)
    return np.abs(diff).sum(axis=(1, 2)).astype(np.int64)


def reference_sme(
    cur_y: np.ndarray,
    sfs: list[np.ndarray],
    me_field: MotionField,
    row0: int,
    nrows: int,
    cfg: CodecConfig,
) -> SubpelField:
    """Quarter-pel refinement of MB rows ``[row0, row0 + nrows)``, the slow way.

    Same contract as :func:`repro.codec.sme.subpel_refine_rows` on valid
    input — the kernel it replaced, verbatim.

    Parameters
    ----------
    cur_y:
        Current luma plane ``(H, W)``.
    sfs:
        One SF per reference frame (list index = reference index), each of
        shape ``(4H, 4W)`` as produced by :mod:`repro.codec.interpolation`.
    me_field:
        Full-frame (or at least band-covering) ME output whose ``row0``/
        ``nrows`` span includes the requested band.
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
    out = SubpelField(
        row0=row0, nrows=nrows, mb_cols=mb_cols, mode_shapes=me_field.mode_shapes
    )
    for shape in me_field.mode_shapes:
        nparts = get_mode(shape).nparts
        out.qmvs[shape] = np.zeros((nrows, mb_cols, nparts, 2), dtype=np.int32)
        out.refs[shape] = np.zeros((nrows, mb_cols, nparts), dtype=np.int32)
        out.sads[shape] = np.zeros((nrows, mb_cols, nparts), dtype=np.int64)
    if nrows == 0:
        return out

    n_refs = len(sfs)
    for shape in me_field.mode_shapes:
        mode = get_mode(shape)
        bh, bw = shape
        src = slice(row0 - me_field.row0, row0 - me_field.row0 + nrows)
        mvs = me_field.mvs[shape][src]      # (nrows, mbc, nparts, 2)
        refs = me_field.refs[shape][src]
        sads = me_field.sads[shape][src]
        out.refs[shape][:] = refs

        # Flatten every sub-partition instance of the band.
        rr, cc, pp = np.meshgrid(
            np.arange(nrows), np.arange(mb_cols), np.arange(mode.nparts),
            indexing="ij",
        )
        rr, cc, pp = rr.ravel(), cc.ravel(), pp.ravel()
        oy = mode.origins[pp, 0]
        ox = mode.origins[pp, 1]
        base_y = (row0 + rr) * MB_SIZE + oy          # partition origin, pixels
        base_x = cc * MB_SIZE + ox
        cur_blocks = _stack_cur_blocks(cur_y, base_y, base_x, bh, bw)

        flat_mv = mvs.reshape(-1, 2)
        flat_ref = refs.ravel()
        # Start at the full-pel position in quarter units.
        best_q = 4 * flat_mv.astype(np.int64)
        best_sad = sads.ravel().astype(np.int64).copy()

        if cfg.subpel:
            metric = block_metric(cfg.subpel_metric)
            for ring in (_HALF_RING, _QUARTER_RING):
                best_q, best_sad = _evaluate_ring(
                    ring, best_q, cur_blocks, sfs, flat_ref,
                    base_y, base_x, bh, bw, h, w, n_refs, metric,
                )

        out.qmvs[shape][rr, cc, pp] = best_q.astype(np.int32)
        out.sads[shape][rr, cc, pp] = best_sad
    return out


def _stack_cur_blocks(
    cur_y: np.ndarray, base_y: np.ndarray, base_x: np.ndarray, bh: int, bw: int
) -> np.ndarray:
    """Gather the current-frame blocks of every sub-partition instance."""
    rows = base_y[:, None] + np.arange(bh, dtype=np.int64)[None, :]
    cols = base_x[:, None] + np.arange(bw, dtype=np.int64)[None, :]
    return cur_y[rows[:, :, None], cols[:, None, :]]


def _evaluate_ring(
    ring: list[tuple[int, int]],
    centre_q: np.ndarray,
    cur_blocks: np.ndarray,
    sfs: list[np.ndarray],
    flat_ref: np.ndarray,
    base_y: np.ndarray,
    base_x: np.ndarray,
    bh: int,
    bw: int,
    height: int,
    width: int,
    n_refs: int,
    metric=_block_sads,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one candidate ring around ``centre_q``; return best (qmv, sad).

    Every candidate — including the centre — is scored on SF samples after
    border clamping, so the SAD recorded for the winner always matches the
    prediction MC will later build. Strict-improvement updates plus
    centre-first ring order make ties resolve toward the smaller offset.
    """
    n = centre_q.shape[0]
    best_q = np.empty_like(centre_q)
    best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    first = True
    for qdy_off, qdx_off in ring:
        qy = 4 * base_y + centre_q[:, 0] + qdy_off
        qx = 4 * base_x + centre_q[:, 1] + qdx_off
        # Clamp block positions inside the SF (restricted-MV border policy).
        qy = np.clip(qy, 0, 4 * (height - bh))
        qx = np.clip(qx, 0, 4 * (width - bw))
        sad_k = np.empty(n, dtype=np.int64)
        for ref in range(n_refs):
            mask = flat_ref == ref
            if not mask.any():
                continue
            blocks = _gather_blocks(sfs[ref], qy[mask], qx[mask], bh, bw)
            sad_k[mask] = metric(cur_blocks[mask], blocks)
        eff_qdy = qy - 4 * base_y  # effective displacement after clamping
        eff_qdx = qx - 4 * base_x
        better = sad_k < best if not first else np.ones(n, dtype=bool)
        best[better] = sad_k[better]
        best_q[better, 0] = eff_qdy[better]
        best_q[better, 1] = eff_qdx[better]
        first = False
    return best_q, best


def validate_schedule(records: list[OpRecord]) -> None:
    """Assert no two ops overlap on the same resource.

    Zero-duration ops (barriers) occupy no time and cannot overlap.

    :meth:`Simulator.run` emits records globally sorted by (start,
    resource, label), so each resource's sub-sequence normally arrives
    sorted by (start, end); that is detected in one vectorized pass and
    the stable re-sort (``np.lexsort``) runs only on input that really
    is unsorted, e.g. hand-built records in tests. Overlaps are found by
    one vectorized comparison of consecutive intervals.
    """
    by_res: dict[str, list[OpRecord]] = {}
    for rec in records:
        if rec.duration > 0:
            by_res.setdefault(rec.resource, []).append(rec)
    eps = 1e-12
    for name, recs in by_res.items():
        if len(recs) < 2:
            continue
        starts = np.array([r.start for r in recs])
        ends = np.array([r.end for r in recs])
        ds = np.diff(starts)
        in_order = bool(
            np.all((ds > 0) | ((ds == 0) & (np.diff(ends) >= 0)))
        )
        if not in_order:
            order = np.lexsort((ends, starts))
            starts = starts[order]
            ends = ends[order]
            recs = [recs[i] for i in order]
        bad = np.nonzero(starts[1:] < ends[:-1] - eps)[0]
        if bad.size:
            i = int(bad[0])
            a, b = recs[i], recs[i + 1]
            raise AssertionError(
                f"overlap on {name}: {a.label}[{a.start:.6f},{a.end:.6f}] vs "
                f"{b.label}[{b.start:.6f},{b.end:.6f}]"
            )
