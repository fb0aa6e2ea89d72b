"""Slow reference twins of production hot paths, kept as test oracles.

Production has one DES loop, one solve path and one kernel per codec
stage; these are the straightforward versions the equivalence tests diff
them against, bit for bit. Index — oracle: what it does; what replaced it
(the DESIGN.md section that describes the replacement); the property that
diffs the two:

- :func:`reference_run` — Kahn's algorithm over per-op dicts with a
  ``list.pop(0)`` ready queue; replaced by :meth:`Simulator.run`'s one
  forward pass in issue order ("Issue-order DES" under "Performance: the
  scheduling hot path"); ``tests/hw/test_des_fast.py``.
- :func:`make_cold` — a *cold* scheduler: every LP reaches HiGHS (no solve
  memo), every frame re-solves, every transfer K is re-derived, every
  activity subset is solved (:func:`solve_every_subset`: τtot floor ≡ 0)
  and the DES runs :func:`reference_run`; :func:`log_subsets` records which
  subsets a balancer solved, with their floors; replaced by the decision
  cache, the K table and subset pruning ("Performance: the scheduling hot
  path"); ``tests/sanitizers/test_fast_path_equivalence.py``,
  ``tests/core/test_fast_path.py``, ``tests/core/test_subset_pruning.py``,
  ``tests/sanitizers/test_pruning_equivalence.py``.
- :class:`PassThroughLPCache` — every LP, densified (:func:`densify`),
  through ``scipy.optimize.linprog``; replaced by the direct HiGHS call of
  ``LPSolveCache._cold_solve``; ``tests/sanitizers/test_lp_solver_equivalence.py``.
- :func:`reference_build_lp` — the LP as dense rows, one ``np.zeros`` row
  per constraint, rebuilt per Δ iteration; replaced by the column form
  of :meth:`LoadBalancer._build_lp`, built once per subset ("LP solve
  reuse"); ``tests/core/test_lp_build.py``.
- :func:`reference_cold_solve` — the dense LP turned into columns and
  copied into a ``HighsLp``; replaced by the column arrays handed to
  ``passModel`` as they are (same section);
  ``tests/sanitizers/test_lp_solver_equivalence.py``.
- :func:`reference_select_rstar_device` — the R* mapping as a ``networkx``
  stage/device graph and ``single_source_dijkstra``; replaced by the
  ``heapq`` Dijkstra of :func:`repro.core.rstar.select_rstar_device`;
  ``tests/core/test_rstar_dijkstra.py``.
- :func:`reference_round_preserving_sum` — largest-remainder rounding as
  NumPy ``clip`` / ``sum`` / ``floor`` / stable ``argsort`` calls; replaced
  by the same IEEE operations on Python floats in
  :func:`repro.core.distribution.round_preserving_sum`;
  ``tests/core/test_distribution.py``.
- :func:`reference_fsbm` — full search as one wide-integer pass per
  ``(row, ref, dy)``: int32 absolute differences, a reduce to 4×4 cells,
  one float64 cell-membership matmul per partition mode
  (:func:`reference_partition_sads`) and a strict ``<`` masked update;
  replaced by :func:`motion_estimate_rows` ("Performance: the FSBM
  kernel"); ``tests/codec/test_me.py``, ``tests/codec/test_partitions.py``.
- :func:`reference_strip_cell_sads_batch` — 4×4 cell SADs as ``maximum −
  minimum`` over the window batch and six adds per cell; replaced by
  :class:`repro.codec.sad.StripCellSads` (``Σcur + Σref − 2·Σmin``, same
  section); ``tests/codec/test_sad.py``.
- :func:`reference_sme` — sub-pel refinement one candidate at a time:
  per-pixel fancy-index gathers, a boolean reference mask per candidate,
  int32 SADs reduced to int64 and a strict ``<`` masked update; replaced
  by :func:`subpel_refine_rows` ("Performance: the SME kernel" — its
  per-candidate block gathers then gave way to one patch per instance and
  ring, and the per-mode rings to one pass per ring over every mode; the
  property diffs today's kernel against this one);
  ``tests/codec/test_sme.py``.
- :func:`reference_build_prediction` — MC one partition and one 4×4 cell
  at a time, one gather per ``(partition, reference)``, int64 chroma taps
  from four per-pixel gathers; replaced by
  :func:`repro.codec.mc.build_prediction` ("Performance: the R* block",
  MC); ``tests/codec/test_mc.py``.
- :func:`reference_deblock_plane` — DBL one edge at a time, each a
  ``boundary_strength`` call and a ``_filter_edge_luma`` /
  ``_filter_edge_chroma`` call on int32 lines that read what the previous
  edge wrote; replaced by the whole-plane phases of
  :func:`repro.codec.deblock.deblock_plane` ("Performance: the R* block");
  ``tests/codec/test_deblock.py``, ``tests/codec/test_encoder.py``.
- :func:`reference_forward_transform` / :func:`reference_inverse_transform`
  / :func:`reference_hadamard2x2` and the ``reference_*`` quantisers — TQ
  and TQ⁻¹ as int64 three-operand ``einsum`` products over ``(n, 4, 4)``
  stacks, with :func:`reference_code_luma_plane` /
  :func:`reference_code_chroma_plane` pricing *every* block; replaced by
  the int16/int32 butterflies of :mod:`repro.codec.transform` and the
  coded-blocks-only rate of :mod:`repro.codec.residual` (same section);
  ``tests/codec/test_transform.py``, ``tests/codec/test_residual.py``,
  ``tests/codec/test_encoder.py``.

Plain references, not replaced kernels:

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
from repro.codec.deblock import ALPHA_TABLE, BETA_TABLE, TC0_TABLE, BlockInfo
from repro.codec.entropy import get_coder
from repro.codec.frames import YuvFrame, pad_plane
from repro.codec.interpolation import subpel_blocks
from repro.codec.me import MotionField
from repro.codec.partitions import all_modes, get_mode
from repro.codec.quant import chroma_qp, mf_matrix, v_matrix
from repro.codec.residual import CodedChromaPlane, CodedPlane
from repro.codec.sad import CELLS
from repro.codec.satd import block_metric
from repro.codec.sme import SubpelField
from repro.codec.transform import blocks_to_plane, plane_to_blocks
from repro.core.distribution import Distribution
from repro.core.framework import FevesFramework
from repro.core.load_balancing import RESIDUAL_TOL, ColumnLP, LPSolveCache, _hs
from repro.core.rstar import RSTAR_STAGES, RStarDecision, _migration_cost
from repro.hw.des import Op, OpRecord, Simulator
from repro.hw.interconnect import BufferSizes
from repro.hw.topology import Platform
from repro.util.validation import check_range


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


def densify(lp: ColumnLP):
    """``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` of a column-form LP whose
    rows are ``≤`` rows (lower bound −inf) or ``=`` rows: ``linprog``'s
    dense form, what the LP build emitted before it emitted columns."""
    a = np.zeros((len(lp.row_upper), len(lp.c)))
    for j in range(len(lp.c)):
        span = slice(lp.start[j], lp.start[j + 1])
        a[lp.index[span], j] = lp.value[span]
    ub = lp.row_lower == -np.inf
    bounds = [
        (None if lo == -np.inf else lo, None if hi == np.inf else hi)
        for lo, hi in zip(lp.col_lower.tolist(), lp.col_upper.tolist(), strict=True)
    ]
    return lp.c, a[ub], lp.row_upper[ub], a[~ub], lp.row_upper[~ub], bounds


class PassThroughLPCache(LPSolveCache):
    """An :class:`LPSolveCache` that remembers nothing and asks SciPy's
    public ``linprog`` — the wrapper the cold solve replaced — for the
    LP densified (:func:`densify`)."""

    def solve(self, lp: ColumnLP) -> np.ndarray | None:
        self.misses += 1
        c, a_ub, b_ub, a_eq, b_eq, bounds = densify(lp)
        res = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        return res.x if res.success else None


def reference_build_lp(
    balancer, perf, rstar_device, needs_rf, sigma_r_prev, dm, dl, parked
):
    """The dense LP build :meth:`LoadBalancer._build_lp` replaced: one
    ``np.zeros`` row per constraint, every Δ term in place. Returns
    ``(c, a_ub, b_ub, a_eq, b_eq, bounds, taus_idx)``, None if a K is missing."""
    devices = balancer.platform.devices
    d = len(devices)
    n = balancer.codec_cfg.mb_rows
    # σ variables for active non-R* accelerators.
    sigma_devs = [
        i
        for i, dev in enumerate(devices)
        if dev.is_accelerator and dev.name != rstar_device and i not in parked
    ]
    nv = 3 * d + 3 + len(sigma_devs)
    i_m = lambda i: i                    # noqa: E731
    i_l = lambda i: d + i                # noqa: E731
    i_s = lambda i: 2 * d + i            # noqa: E731
    i_t1, i_t2, i_tt = 3 * d, 3 * d + 1, 3 * d + 2
    i_sig = {dev_i: 3 * d + 3 + k for k, dev_i in enumerate(sigma_devs)}

    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []

    def add(coef: dict[int, float], rhs: float) -> None:
        row = np.zeros(nv)
        for k, v in coef.items():
            row[k] += v
        a_ub.append(row)
        b_ub.append(rhs)

    kt = balancer._kt_lookup(perf)

    for i, dev in enumerate(devices):
        name = dev.name
        if i in parked:
            continue  # zero bounds below; no constraints needed
        km = perf.k_compute(name, "me")
        kl = perf.k_compute(name, "int")
        ks = perf.k_compute(name, "sme")
        if km is None or kl is None or ks is None:
            return None
        # (2)-style compute capacity before τ1: INT + ME share the engine.
        add({i_m(i): km, i_l(i): kl, i_t1: -1.0}, 0.0)
        # (3)-style: SME fits in τ1..τ2.
        add({i_s(i): ks, i_t1: 1.0, i_t2: -1.0}, 0.0)

        if not dev.is_accelerator:
            if name == rstar_device:
                trs = perf.rstar_frame_s(name) or 0.0
                add({i_t2: 1.0, i_tt: -1.0}, -trs)
            continue

        k_cf = kt(name, "cf", "h2d")
        k_cff = kt(name, "cf_full", "h2d")
        k_rf_hd = kt(name, "rf", "h2d")
        k_rf_dh = kt(name, "rf", "d2h")
        k_sf_hd = kt(name, "sf", "h2d")
        k_sf_dh = kt(name, "sf", "d2h")
        k_mv_hd = kt(name, "mv", "h2d")
        k_mv_dh = kt(name, "mv", "d2h")
        if None in (k_cf, k_cff, k_rf_hd, k_rf_dh, k_sf_hd, k_sf_dh, k_mv_hd, k_mv_dh):
            return None
        rf_rows = n if needs_rf.get(name, True) else 0
        fixed1 = (
            rf_rows * k_rf_hd
            + dm[i] * k_cf
            + sigma_r_prev.get(name, 0) * k_sf_hd
        )
        single = dev.copy_h2d is dev.copy_d2h
        if single:
            # (4)–(6)/(10)–(12): one engine moves everything before τ1.
            add(
                {i_m(i): k_cf + k_mv_dh, i_l(i): k_sf_dh, i_t1: -1.0},
                -fixed1,
            )
        else:
            add({i_m(i): k_cf, i_t1: -1.0}, -fixed1)          # h2d engine
            add({i_m(i): k_mv_dh, i_l(i): k_sf_dh, i_t1: -1.0}, 0.0)  # d2h
        # Critical paths through compute: RF→CF→ME→MV_out, RF→INT→SF_out.
        add({i_m(i): k_cf + km + k_mv_dh, i_t1: -1.0}, -rf_rows * k_rf_hd)
        add({i_l(i): kl + k_sf_dh, i_t1: -1.0}, -rf_rows * k_rf_hd)

        fixed2 = dl[i] * k_sf_hd + dm[i] * k_mv_hd
        if name == rstar_device:
            # (8): MC inputs stream in during SME on the R* accelerator.
            add(
                {
                    i_m(i): -k_cff,
                    i_l(i): -k_sf_hd,
                    i_t1: 1.0,
                    i_t2: -1.0,
                },
                -(fixed2 + n * k_cff + n * k_sf_hd - dm[i] * k_cff - dl[i] * k_sf_hd),
            )
            # Path: Δ in, SME compute (MVs stay local).
            add({i_s(i): ks, i_t1: 1.0, i_t2: -1.0}, -fixed2)
            # (9): missing MVs in, R* block, RF back to host.
            trs = perf.rstar_frame_s(name) or 0.0
            add(
                {i_s(i): -k_mv_hd, i_t2: 1.0, i_tt: -1.0},
                -(n * k_mv_hd + trs + n * k_rf_dh),
            )
        else:
            # (13): Δ in, SME, SME MVs out, all within τ1..τ2.
            add(
                {i_s(i): ks + k_mv_dh, i_t1: 1.0, i_t2: -1.0},
                -fixed2,
            )
            if single:
                add({i_s(i): k_mv_dh, i_t1: 1.0, i_t2: -1.0}, -fixed2)
            # Steady-state SF maintenance ((14)/(15) made endogenous):
            # σ_i fits in the τ2..τtot window, never exceeds what is
            # still missing, and the remainder (the next frame's σʳ
            # backlog) must fit the phase-1 copy engine alongside the
            # regular phase-1 traffic.
            sig = i_sig[i]
            add({sig: k_sf_hd, i_t2: 1.0, i_tt: -1.0}, 0.0)     # (14)
            add({sig: 1.0, i_l(i): 1.0}, float(n - dl[i]))      # σ ≤ missing
            backlog_fixed = rf_rows * k_rf_hd + dm[i] * k_cf + (n - dl[i]) * k_sf_hd
            if single:
                add(
                    {
                        i_m(i): k_cf + k_mv_dh,
                        i_l(i): k_sf_dh - k_sf_hd,
                        sig: -k_sf_hd,
                        i_t1: -1.0,
                    },
                    -backlog_fixed,
                )
            else:
                add(
                    {
                        i_m(i): k_cf,
                        i_l(i): -k_sf_hd,
                        sig: -k_sf_hd,
                        i_t1: -1.0,
                    },
                    -backlog_fixed,
                )

    # τ ordering.
    add({i_t1: 1.0, i_t2: -1.0}, 0.0)
    add({i_t2: 1.0, i_tt: -1.0}, 0.0)

    a_eq = np.zeros((3, nv))
    a_eq[0, 0:d] = 1.0
    a_eq[1, d : 2 * d] = 1.0
    a_eq[2, 2 * d : 3 * d] = 1.0
    b_eq = np.array([n, n, n], dtype=float)

    bounds = [(0.0, float(n))] * (3 * d) + [(0.0, None)] * 3
    bounds += [(0.0, float(n))] * len(sigma_devs)
    # sorted(): `parked` is a set; the pinned bounds are disjoint so
    # order cannot change the LP, but deterministic iteration keeps
    # the constraint build reproducible by construction (REP102).
    for i in sorted(parked):
        for idx in (i_m(i), i_l(i), i_s(i)):
            bounds[idx] = (0.0, 0.0)
    c = np.zeros(nv)
    c[i_tt] = 1.0
    return (
        c,
        np.array(a_ub),
        np.array(b_ub),
        a_eq,
        b_eq,
        bounds,
        (i_t1, i_t2, i_tt),
    )


def reference_cold_solve(highs, c, a_ub, b_ub, a_eq, b_eq, bounds) -> np.ndarray | None:
    """The dense hand-off ``LPSolveCache._cold_solve`` replaced: the dense
    LP turned into columns by ``vstack``/``nonzero`` and copied into a
    ``HighsLp``, with the same checks around the HiGHS run on ``highs``."""
    for name, arr in zip(
        ("c", "a_ub", "b_ub", "a_eq", "b_eq"), (c, a_ub, b_ub, a_eq, b_eq), strict=True
    ):
        if not np.isfinite(arr).all():
            raise ValueError(f"LP input {name} must not contain inf or nan")
    n_ub = len(b_ub)
    lo = np.array([-np.inf if low is None else low for low, _ in bounds])
    hi = np.array([np.inf if high is None else high for _, high in bounds])
    # Rows as HiGHS wants them: lower ≤ a x ≤ upper, matrix column-wise.
    upper = np.concatenate((b_ub, b_eq))
    lower = np.concatenate((np.full(n_ub, -np.inf), b_eq))
    by_col = np.vstack((a_ub, a_eq)).T
    col, row = np.nonzero(by_col)
    start = np.zeros(len(c) + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=len(c)), out=start[1:])
    lp = _hs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(upper)
    lp.a_matrix_.format_ = _hs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = row.astype(np.int32)
    lp.a_matrix_.value_ = by_col[col, row]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lo, hi
    lp.row_lower_, lp.row_upper_ = lower, upper
    if (
        highs.passModel(lp) == _hs.HighsStatus.kError
        or highs.run() == _hs.HighsStatus.kError
        or highs.getModelStatus() != _hs.HighsModelStatus.kOptimal
    ):
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = upper - np.array(solution.row_value)
    if not (
        (x >= lo - RESIDUAL_TOL).all()
        and (x <= hi + RESIDUAL_TOL).all()
        and (slack[:n_ub] >= -RESIDUAL_TOL).all()
        and (np.abs(slack[n_ub:]) <= RESIDUAL_TOL).all()
    ):  # written so that a NaN anywhere fails
        return None
    x.setflags(write=False)  # shared across hits — must stay frozen
    return x



def solve_every_subset(balancer) -> None:
    """Switch subset pruning off: a τtot floor of 0 rules nothing out."""
    balancer._tau_floor = lambda perf, rstar_device, active: 0.0


def log_subsets(balancer, log: list) -> None:
    """Append ``(parked ∪ dead, result, floor)`` per activity subset solved.

    ``floor`` is the class's ``_tau_floor`` at solve time, whatever an
    instance attribute (:func:`solve_every_subset`) answers in the loop.
    """
    inner = balancer._solve_with_fixed_point
    devices = balancer.platform.devices

    def logged(perf, rstar_device, needs_rf, sigma_r_prev, parked):
        result = inner(perf, rstar_device, needs_rf, sigma_r_prev, parked)
        active = [dev for i, dev in enumerate(devices) if i not in parked]
        floor = type(balancer)._tau_floor(balancer, perf, rstar_device, active)
        log.append((parked, result, floor))
        return result

    balancer._solve_with_fixed_point = logged


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
    solve_every_subset(balancer)
    sim = fw.manager.sim
    sim.run = lambda: reference_run(sim)
    return fw


def reference_select_rstar_device(
    platform: Platform,
    rstar_estimates: dict[str, float],
    cfg: CodecConfig,
) -> RStarDecision:
    """Dijkstra over the stage/device graph, by ``networkx``."""
    import networkx as nx

    devices = [d.name for d in platform.devices if d.name in rstar_estimates]
    if not devices:
        raise ValueError("no device has an R* estimate")
    sizes = BufferSizes(width=cfg.width, height=cfg.height)
    payload = float(sizes.rf_frame) * 2.0  # residual + partial reconstruction

    g = nx.DiGraph()
    g.add_node("src")
    g.add_node("sink")
    prev_nodes: list[tuple[str, str]] = []
    for si, (stage, share) in enumerate(RSTAR_STAGES):
        nodes = [(stage, d) for d in devices]
        for stage_d in nodes:
            _, d = stage_d
            stage_cost = rstar_estimates[d] * share
            if si == 0:
                g.add_edge("src", stage_d, weight=stage_cost)
            else:
                for prev in prev_nodes:
                    _, pd = prev
                    w = stage_cost + _migration_cost(platform, pd, d, payload)
                    g.add_edge(prev, stage_d, weight=w)
        prev_nodes = nodes
    for stage_d in prev_nodes:
        g.add_edge(stage_d, "sink", weight=0.0)

    length, path = nx.single_source_dijkstra(g, "src", "sink", weight="weight")
    stage_path = tuple(n for n in path if n not in ("src", "sink"))

    # Collapse to one device (the paper's single-device assignment): the
    # device carrying the largest share of stage time along the path.
    share_by_dev: dict[str, float] = {}
    for (stage, dev), (_, frac) in zip(stage_path, RSTAR_STAGES, strict=True):
        share_by_dev[dev] = share_by_dev.get(dev, 0.0) + frac
    best = max(share_by_dev.items(), key=lambda kv: (kv[1], -devices.index(kv[0])))
    return RStarDecision(device=best[0], path=stage_path, total_s=float(length))


def reference_round_preserving_sum(fractions: np.ndarray, total: int) -> tuple[int, ...]:
    """Largest-remainder rounding to integers summing to ``total``, by NumPy."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    frac = np.atleast_1d(np.asarray(fractions, dtype=np.float64))
    if frac.size == 0:
        if total != 0:
            raise ValueError(f"cannot distribute {total} rows over zero devices")
        return ()
    if (frac < -1e-6).any():
        raise ValueError(f"negative fractions: {frac}")
    frac = np.clip(frac, 0.0, None)
    if total == 0:
        return (0,) * len(frac)
    if len(frac) == 1:
        return (total,)
    s = frac.sum()
    if s == 0:
        return tuple(Distribution.equidistant(total, len(frac)).rows)
    with np.errstate(invalid="ignore", over="ignore"):
        frac = frac * (total / s)
    if not np.isfinite(frac).all():  # guard subnormal inputs overflowing
        return tuple(Distribution.equidistant(total, len(frac)).rows)
    floor = np.floor(frac).astype(int)
    # Float error can make the scaled sum land a hair above ``total``;
    # floors then already cover it and there is nothing left to hand out.
    short = max(0, total - int(floor.sum()))
    # Stable sort: equal remainders go to the lower device index, keeping
    # the rounded vector deterministic across numpy versions.
    order = np.argsort(-(frac - floor), kind="stable")
    out = floor.copy()
    for k in range(short):
        out[order[k % len(out)]] += 1
    return tuple(int(x) for x in out)


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


def reference_strip_cell_sads_batch(
    cur_strip: np.ndarray, ref_windows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Cell SADs for one MB row at a batch of displacements.

    Parameters
    ----------
    cur_strip:
        ``(16, W)`` uint8 current strip.
    ref_windows:
        ``(n_disp, 16, W)`` uint8 displaced reference strips (usually a
        sliding-window view — no copy).
    out:
        Optional ``(n_disp, mb_cols, 4, 4)`` uint16 destination of any
        memory layout.

    Returns
    -------
    ndarray ``(n_disp, mb_cols, 4, 4)`` uint16, indexed
    ``[disp, mb, cell_row, cell_col]``.
    """
    n, h, w = ref_windows.shape
    if (h, w) != cur_strip.shape or h != MB_SIZE or w % MB_SIZE != 0:
        raise ValueError(
            f"incompatible shapes cur={cur_strip.shape} windows={ref_windows.shape}"
        )
    if cur_strip.dtype != np.uint8 or ref_windows.dtype != np.uint8:
        raise ValueError(
            f"uint8 samples required, got cur={cur_strip.dtype} "
            f"windows={ref_windows.dtype}"
        )
    mb_cols = w // MB_SIZE
    ad = np.maximum(ref_windows, cur_strip)
    ad -= np.minimum(ref_windows, cur_strip)
    # Four pel rows -> one cell row: widen once, then contiguous slice-adds.
    pel_rows = ad.reshape(n, CELLS, 4, w)
    rows = pel_rows[:, :, 0].astype(np.uint16)
    rows += pel_rows[:, :, 1]
    rows += pel_rows[:, :, 2]
    rows += pel_rows[:, :, 3]
    # Four pel columns -> one cell column; quads is [disp, cy, mb, cx, pel].
    quads = rows.reshape(n, CELLS, mb_cols, CELLS, 4)
    cells = quads[..., 0] + quads[..., 1]
    cells += quads[..., 2]
    cells += quads[..., 3]
    cells = cells.transpose(0, 2, 1, 3)
    if out is None:
        return cells
    out[...] = cells
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


def _chroma_predict(
    ref_plane: np.ndarray, cqy: np.ndarray, cqx: np.ndarray, ch: int, cw: int
) -> np.ndarray:
    """Eighth-pel bilinear chroma prediction for a stack of blocks.

    ``cqy/cqx`` are eighth-chroma-sample positions of each block's top-left
    corner (numerically equal to the luma quarter-pel position).
    """
    hh, ww = ref_plane.shape
    iy, fy = cqy >> 3, (cqy & 7).astype(np.int64)
    ix, fx = cqx >> 3, (cqx & 7).astype(np.int64)
    ry = iy[:, None] + np.arange(ch, dtype=np.int64)[None, :]
    rx = ix[:, None] + np.arange(cw, dtype=np.int64)[None, :]
    ry0 = np.clip(ry, 0, hh - 1)
    rx0 = np.clip(rx, 0, ww - 1)
    ry1 = np.clip(ry + 1, 0, hh - 1)
    rx1 = np.clip(rx + 1, 0, ww - 1)
    a = ref_plane[ry0[:, :, None], rx0[:, None, :]].astype(np.int64)
    b = ref_plane[ry0[:, :, None], rx1[:, None, :]].astype(np.int64)
    c = ref_plane[ry1[:, :, None], rx0[:, None, :]].astype(np.int64)
    d = ref_plane[ry1[:, :, None], rx1[:, None, :]].astype(np.int64)
    wy = fy[:, None, None]
    wx = fx[:, None, None]
    num = (
        (8 - wx) * (8 - wy) * a
        + wx * (8 - wy) * b
        + (8 - wx) * wy * c
        + wx * wy * d
        + 32
    )
    return (num >> 6).astype(np.uint8)


def reference_build_prediction(
    mode_idx: np.ndarray,
    mode_shapes: tuple[tuple[int, int], ...],
    qmvs: dict[tuple[int, int], np.ndarray],
    refs: dict[tuple[int, int], np.ndarray],
    sfs: list[np.ndarray],
    ref_chroma: list[tuple[np.ndarray, np.ndarray]],
    height: int,
    width: int,
) -> tuple[YuvFrame, np.ndarray, np.ndarray]:
    """Build the motion-compensated frame from per-mode MV/ref arrays, the slow way.

    Same contract as :func:`repro.codec.mc.build_prediction` on valid input
    (every reference index has an SF) — the kernel it replaced, verbatim:
    a Python loop over partitions and their 4×4 cells, one gather per
    ``(partition, reference)`` and int64 chroma taps from four per-pixel
    fancy-index gathers.

    Returns ``(pred_frame, mv4_grid, ref4_grid)``.
    """
    h, w = height, width
    pred_y = np.zeros((h, w), dtype=np.uint8)
    pred_u = np.zeros((h // 2, w // 2), dtype=np.uint8)
    pred_v = np.zeros((h // 2, w // 2), dtype=np.uint8)
    mv4 = np.zeros((h // 4, w // 4, 2), dtype=np.int32)
    ref4 = np.zeros((h // 4, w // 4), dtype=np.int32)
    n_refs = len(sfs)

    for mode_i, shape in enumerate(mode_shapes):
        sel = mode_idx == mode_i
        if not sel.any():
            continue
        mode = get_mode(shape)
        bh, bw = shape
        rr, cc = np.nonzero(sel)
        for p in range(mode.nparts):
            oy, ox = int(mode.origins[p, 0]), int(mode.origins[p, 1])
            base_y = rr * MB_SIZE + oy
            base_x = cc * MB_SIZE + ox
            qmv = qmvs[shape][rr, cc, p]         # (n, 2)
            prefs = refs[shape][rr, cc, p]
            qy = np.clip(4 * base_y + qmv[:, 0], 0, 4 * (h - bh)).astype(np.int64)
            qx = np.clip(4 * base_x + qmv[:, 1], 0, 4 * (w - bw)).astype(np.int64)

            # Per-4×4-block metadata for DBL / entropy.
            for cy in range(bh // 4):
                for cx in range(bw // 4):
                    g_r = (base_y // 4) + cy
                    g_c = (base_x // 4) + cx
                    mv4[g_r, g_c] = qmv
                    ref4[g_r, g_c] = prefs

            for ref in range(n_refs):
                mask = prefs == ref
                if not mask.any():
                    continue
                blocks = subpel_blocks(sfs[ref], qy[mask], qx[mask], bh, bw)
                rows = base_y[mask][:, None] + np.arange(bh)[None, :]
                cols = base_x[mask][:, None] + np.arange(bw)[None, :]
                pred_y[rows[:, :, None], cols[:, None, :]] = blocks

                cqy = (4 * base_y[mask] + qmv[mask, 0]).astype(np.int64)
                cqx = (4 * base_x[mask] + qmv[mask, 1]).astype(np.int64)
                ch, cw = bh // 2, bw // 2
                u_ref, v_ref = ref_chroma[ref]
                u_blocks = _chroma_predict(u_ref, cqy, cqx, ch, cw)
                v_blocks = _chroma_predict(v_ref, cqy, cqx, ch, cw)
                crows = (base_y[mask] // 2)[:, None] + np.arange(ch)[None, :]
                ccols = (base_x[mask] // 2)[:, None] + np.arange(cw)[None, :]
                pred_u[crows[:, :, None], ccols[:, None, :]] = u_blocks
                pred_v[crows[:, :, None], ccols[:, None, :]] = v_blocks

    return YuvFrame(pred_y, pred_u, pred_v), mv4, ref4


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


# --- DBL: the per-edge kernel of PRs ≤ 18, verbatim ---------------------------


def boundary_strength(
    info: BlockInfo, axis: int, edge_idx: int, mb_edge: bool
) -> np.ndarray:
    """bS along one edge of the 4×4-block grid.

    Parameters
    ----------
    axis:
        0 for a horizontal edge (between block rows), 1 for vertical.
    edge_idx:
        Index of the *q*-side block row/column (edge lies between
        ``edge_idx - 1`` and ``edge_idx``).
    mb_edge:
        Whether this edge coincides with a macroblock boundary (affects the
        intra bS: 4 at MB edges, 3 inside).

    Returns
    -------
    int32 array of bS values along the edge (length = perpendicular size).
    """
    if axis == 0:
        p = (slice(edge_idx - 1, edge_idx), slice(None))
        q = (slice(edge_idx, edge_idx + 1), slice(None))
        squeeze = 0
    else:
        p = (slice(None), slice(edge_idx - 1, edge_idx))
        q = (slice(None), slice(edge_idx, edge_idx + 1))
        squeeze = 1
    intra_pq = info.intra[p] | info.intra[q]
    cnz_pq = info.cnz[p] | info.cnz[q]
    ref_diff = info.ref[p] != info.ref[q]
    mv_diff = (np.abs(info.mv[p] - info.mv[q]) >= 4).any(axis=-1)
    bs = np.zeros_like(intra_pq, dtype=np.int32)
    bs[ref_diff | mv_diff] = 1
    bs[cnz_pq] = 2
    bs[intra_pq] = 4 if mb_edge else 3
    return np.squeeze(bs, axis=squeeze)


def _clip3(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def _filter_edge_luma(
    lines: np.ndarray, bs: np.ndarray, qp: int
) -> np.ndarray:
    """Filter one luma edge.

    ``lines`` has shape ``(n, 8)`` — for each of the *n* positions along the
    edge, samples ``p3 p2 p1 p0 q0 q1 q2 q3`` perpendicular to it. Returns
    the filtered lines (same shape). ``bs`` has shape ``(n,)``.
    """
    check_range("qp", qp, 0, 51)
    idx = int(np.clip(qp, 0, 51))
    alpha = int(ALPHA_TABLE[idx])
    beta = int(BETA_TABLE[idx])
    s = lines.astype(np.int32)
    p3, p2, p1, p0 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    q0, q1, q2, q3 = s[:, 4], s[:, 5], s[:, 6], s[:, 7]

    filt = (
        (bs > 0)
        & (np.abs(p0 - q0) < alpha)
        & (np.abs(p1 - p0) < beta)
        & (np.abs(q1 - q0) < beta)
    )
    ap = np.abs(p2 - p0) < beta
    aq = np.abs(q2 - q0) < beta
    out = s.copy()

    # --- normal filter (bS 1..3) ------------------------------------------
    normal = filt & (bs < 4)
    if normal.any():
        tc0 = TC0_TABLE[np.clip(bs, 1, 3) - 1, idx]
        tc = tc0 + ap.astype(np.int32) + aq.astype(np.int32)
        delta = _clip3(-tc, tc, ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3)
        p0n = np.clip(p0 + delta, 0, 255)
        q0n = np.clip(q0 - delta, 0, 255)
        dp1 = _clip3(-tc0, tc0, (p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1)
        dq1 = _clip3(-tc0, tc0, (q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1)
        out[:, 3] = np.where(normal, p0n, out[:, 3])
        out[:, 4] = np.where(normal, q0n, out[:, 4])
        out[:, 2] = np.where(normal & ap, p1 + dp1, out[:, 2])
        out[:, 5] = np.where(normal & aq, q1 + dq1, out[:, 5])

    # --- strong filter (bS 4) ----------------------------------------------
    strong = filt & (bs == 4)
    if strong.any():
        small_gap = np.abs(p0 - q0) < ((alpha >> 2) + 2)
        sp = strong & small_gap & ap
        wq = strong & small_gap & aq
        p0s = (p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) >> 3
        p1s = (p2 + p1 + p0 + q0 + 2) >> 2
        p2s = (2 * p3 + 3 * p2 + p1 + p0 + q0 + 4) >> 3
        q0s = (q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) >> 3
        q1s = (q2 + q1 + q0 + p0 + 2) >> 2
        q2s = (2 * q3 + 3 * q2 + q1 + q0 + p0 + 4) >> 3
        p0w = (2 * p1 + p0 + q1 + 2) >> 2
        q0w = (2 * q1 + q0 + p1 + 2) >> 2
        out[:, 3] = np.where(sp, p0s, np.where(strong, p0w, out[:, 3]))
        out[:, 2] = np.where(sp, p1s, out[:, 2])
        out[:, 1] = np.where(sp, p2s, out[:, 1])
        out[:, 4] = np.where(wq, q0s, np.where(strong, q0w, out[:, 4]))
        out[:, 5] = np.where(wq, q1s, out[:, 5])
        out[:, 6] = np.where(wq, q2s, out[:, 6])

    return np.clip(out, 0, 255)


def _filter_edge_chroma(lines: np.ndarray, bs: np.ndarray, qp: int) -> np.ndarray:
    """Filter one chroma edge: ``lines`` is ``(n, 4)`` = ``p1 p0 q0 q1``."""
    idx = int(np.clip(chroma_qp(qp), 0, 51))
    alpha = int(ALPHA_TABLE[idx])
    beta = int(BETA_TABLE[idx])
    s = lines.astype(np.int32)
    p1, p0, q0, q1 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    filt = (
        (bs > 0)
        & (np.abs(p0 - q0) < alpha)
        & (np.abs(p1 - p0) < beta)
        & (np.abs(q1 - q0) < beta)
    )
    out = s.copy()
    normal = filt & (bs < 4)
    if normal.any():
        tc = TC0_TABLE[np.clip(bs, 1, 3) - 1, idx] + 1
        delta = _clip3(-tc, tc, ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3)
        out[:, 1] = np.where(normal, np.clip(p0 + delta, 0, 255), out[:, 1])
        out[:, 2] = np.where(normal, np.clip(q0 - delta, 0, 255), out[:, 2])
    strong = filt & (bs == 4)
    if strong.any():
        out[:, 1] = np.where(strong, (2 * p1 + p0 + q1 + 2) >> 2, out[:, 1])
        out[:, 2] = np.where(strong, (2 * q1 + q0 + p1 + 2) >> 2, out[:, 2])
    return np.clip(out, 0, 255)


def reference_deblock_plane(
    plane: np.ndarray,
    info: BlockInfo,
    qp: int,
    chroma: bool = False,
    skip_luma_rows: frozenset[int] = frozenset(),
) -> np.ndarray:
    """The per-edge DBL kernel :func:`repro.codec.deblock.deblock_plane` replaced.

    Deblock one plane in place-order: vertical edges, then horizontal —
    one ``boundary_strength`` and one ``_filter_edge_*`` call per edge, each
    edge reading what the previous one wrote.

    Parameters
    ----------
    plane:
        uint8 luma ``(H, W)`` or chroma ``(H/2, W/2)`` plane.
    info:
        Per-4×4-luma-block metadata (chroma reuses the co-located luma bS).
    qp:
        Slice QP (chroma QP derived internally when ``chroma``).
    skip_luma_rows:
        Luma pixel rows whose horizontal edge is not filtered — the slice
        boundaries when ``deblock_across_slices`` is off, which is what
        makes the filter slice-parallel.

    Returns
    -------
    Filtered plane (uint8 copy).
    """
    out = plane.astype(np.int32).copy()
    h, w = out.shape
    # Chroma: one chroma sample = 2 luma samples; chroma block edges every
    # 4 chroma px ⇒ every 8 luma px ⇒ every 2nd luma 4×4-grid line, and one
    # luma grid line spans 2 chroma samples.
    grid_step = 2 if chroma else 1
    samples_per_block = 2 if chroma else 4
    taps = 2 if chroma else 4

    # Vertical edges (filter across columns), left to right.
    for bx in range(1, w // 4):
        gx = bx * grid_step
        mb_edge = (gx % 4) == 0
        bs = boundary_strength(info, axis=1, edge_idx=gx, mb_edge=mb_edge)
        # Expand bS from block granularity to sample rows.
        bs_rows = np.repeat(bs, samples_per_block)[:h]
        x0 = bx * 4
        cols = out[:, x0 - taps : x0 + taps]
        if chroma:
            filtered = _filter_edge_chroma(cols, bs_rows, qp)
        else:
            filtered = _filter_edge_luma(cols, bs_rows, qp)
        out[:, x0 - taps : x0 + taps] = filtered

    # Horizontal edges (filter across rows), top to bottom.
    for by in range(1, h // 4):
        gy = by * grid_step
        luma_row = by * 4 * (2 if chroma else 1)
        if luma_row in skip_luma_rows:
            continue  # slice boundary with cross-slice filtering disabled
        mb_edge = (gy % 4) == 0
        bs = boundary_strength(info, axis=0, edge_idx=gy, mb_edge=mb_edge)
        bs_cols = np.repeat(bs, samples_per_block)[:w]
        y0 = by * 4
        rows = out[y0 - taps : y0 + taps, :].T
        if chroma:
            filtered = _filter_edge_chroma(rows, bs_cols, qp)
        else:
            filtered = _filter_edge_luma(rows, bs_cols, qp)
        out[y0 - taps : y0 + taps, :] = filtered.T

    return out.astype(np.uint8)


# --- TQ/TQ⁻¹: the int64 matrix (einsum) forms of PRs ≤ 18, verbatim -------------

#: Forward core-transform matrix.
CF = np.array(
    [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]],
    dtype=np.int64,
)

#: Inverse core-transform matrix scaled by 2 (so it stays integral);
#: the inverse pass compensates with an extra >>1 folded into the >>6.
CI2 = np.array(
    [[2, 2, 2, 2], [2, 1, -1, -2], [2, -2, -2, 2], [1, -2, 2, -1]],
    dtype=np.int64,
)


def reference_forward_transform(blocks: np.ndarray) -> np.ndarray:
    """Core transform of ``(n, 4, 4)`` residual blocks (int64 coefficients)."""
    x = blocks.astype(np.int64)
    return np.einsum("ij,njk,lk->nil", CF, x, CF)


def reference_inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse core transform with standard rounding: ``(·// + 32) >> 6``.

    Uses the doubled inverse matrix ``CI2`` (integral ½ factors), which
    contributes a factor 4 compensated by shifting 8 instead of 6.
    """
    w = coeffs.astype(np.int64)
    y = np.einsum("ji,njk,kl->nil", CI2, w, CI2)
    return ((y + 128) >> 8).astype(np.int64)


def reference_hadamard2x2(dc: np.ndarray) -> np.ndarray:
    """2×2 Hadamard used for chroma DC (its own inverse up to scale 4)."""
    h = np.array([[1, 1], [1, -1]], dtype=np.int64)
    return np.einsum("ij,njk,kl->nil", h, dc.astype(np.int64), h)


def reference_quantize(coeffs: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize transformed coefficients.

    ``f`` is the standard dead-zone offset: ``2**qbits / 3`` for intra and
    ``2**qbits / 6`` for inter blocks.
    """
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6
    f = (1 << qbits) // (3 if intra else 6)
    mf = mf_matrix(qp)
    mag = (np.abs(coeffs) * mf + f) >> qbits
    return (np.sign(coeffs) * mag).astype(np.int32)


def reference_dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale quantized levels back to coefficient magnitude."""
    check_range("qp", qp, 0, 51)
    v = v_matrix(qp)
    return (levels.astype(np.int64) * v) << (qp // 6)


def reference_chroma_dc_quantize(dc: np.ndarray, qp: int, intra: bool) -> np.ndarray:
    """Quantize Hadamard-transformed 2×2 chroma DC values."""
    check_range("qp", qp, 0, 51)
    qbits = 15 + qp // 6 + 1
    f = (1 << qbits) // (3 if intra else 6)
    mf00 = mf_matrix(qp)[0, 0]
    mag = (np.abs(dc) * mf00 + f) >> qbits
    return (np.sign(dc) * mag).astype(np.int32)


def reference_chroma_dc_dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Rescale inverse-Hadamard'd chroma-DC levels.

    Returns values at the *dequantized-coefficient* scale expected by
    :func:`reference_inverse_transform` (4× the forward-transform output, like
    :func:`reference_dequantize` for AC coefficients) — insert the result at the
    (0,0) position of the dequantized block before the inverse transform.
    """
    check_range("qp", qp, 0, 51)
    v00 = v_matrix(qp)[0, 0]
    return (levels.astype(np.int64) * v00 * (1 << (qp // 6))) >> 1


def reference_decode_luma_levels(
    levels: np.ndarray, height: int, width: int, qp: int
) -> np.ndarray:
    """Decoder-side TQ⁻¹ of a luma plane's level blocks (raster order)."""
    recon_blocks = reference_inverse_transform(reference_dequantize(levels, qp))
    return blocks_to_plane(recon_blocks, height, width).astype(np.int32)


def reference_code_luma_plane(
    residual: np.ndarray, qp: int, intra: bool, coder=None
) -> CodedPlane:
    """TQ + TQ⁻¹ + rate accounting for a luma residual plane.

    ``coder`` is the coefficient coder that prices the levels (see
    :func:`repro.codec.entropy.get_coder`); ``None`` means CAVLC-lite.
    """
    coder = coder or get_coder("lite")
    h, w = residual.shape
    blocks = plane_to_blocks(residual.astype(np.int64))
    coeffs = reference_forward_transform(blocks)
    levels = reference_quantize(coeffs, qp, intra)
    recon = reference_decode_luma_levels(levels, h, w, qp)
    bits = int(coder.block_bits(levels).sum())
    cnz4 = (levels != 0).any(axis=(1, 2)).reshape(h // 4, w // 4)
    return CodedPlane(recon_residual=recon, bits=bits, cnz4=cnz4, levels=levels)


def reference_decode_chroma_levels(
    ac_levels: np.ndarray,
    dc_levels: np.ndarray,
    height: int,
    width: int,
    luma_qp: int,
) -> np.ndarray:
    """Decoder-side TQ⁻¹ of a chroma plane (AC blocks + 2×2 DC Hadamard).

    ``ac_levels`` are ``(n, 4, 4)`` blocks in raster order with zero DC;
    ``dc_levels`` are ``(n_mb, 2, 2)`` per-MB quantized DC groups.
    """
    qp = chroma_qp(luma_qp)
    by, bx = height // 4, width // 4
    deq = reference_dequantize(ac_levels, qp)
    dc_recon = reference_chroma_dc_dequantize(reference_hadamard2x2(dc_levels), qp)
    dc_back = (
        dc_recon.reshape(by // 2, bx // 2, 2, 2).transpose(0, 2, 1, 3).reshape(by, bx)
    )
    deq[:, 0, 0] = dc_back.reshape(-1)
    recon_blocks = reference_inverse_transform(deq)
    return blocks_to_plane(recon_blocks, height, width).astype(np.int32)


def reference_code_chroma_plane(
    residual: np.ndarray, luma_qp: int, intra: bool, coder=None
) -> CodedChromaPlane:
    """TQ + TQ⁻¹ for a chroma residual plane with the 2×2 DC Hadamard pass.

    ``residual`` is the full chroma plane ``(H/2, W/2)``; one MB contributes
    an 8×8 region, i.e. a 2×2 group of 4×4 blocks whose DC coefficients go
    through the Hadamard/quant side path.
    """
    coder = coder or get_coder("lite")
    qp = chroma_qp(luma_qp)
    h, w = residual.shape
    if h % 8 or w % 8:
        raise ValueError(f"chroma plane {residual.shape} not 8x8-aligned")
    blocks = plane_to_blocks(residual.astype(np.int64))
    coeffs = reference_forward_transform(blocks)

    # DC side path: group per MB (2×2 neighbouring blocks).
    by, bx = h // 4, w // 4
    dc_grid = coeffs[:, 0, 0].reshape(by, bx)
    dc_mb = (
        dc_grid.reshape(by // 2, 2, bx // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 2, 2)
    )
    dc_t = reference_hadamard2x2(dc_mb)
    dc_levels = reference_chroma_dc_quantize(dc_t, qp, intra)

    # AC path: zero the DC before quantization.
    ac_coeffs = coeffs.copy()
    ac_coeffs[:, 0, 0] = 0
    ac_levels = reference_quantize(ac_coeffs, qp, intra)
    ac_levels[:, 0, 0] = 0

    recon = reference_decode_chroma_levels(ac_levels, dc_levels, h, w, luma_qp)
    bits = int(coder.block_bits(ac_levels).sum()) + coder.chroma_dc_bits(dc_levels)
    return CodedChromaPlane(
        recon_residual=recon, bits=bits, ac_levels=ac_levels, dc_levels=dc_levels
    )
