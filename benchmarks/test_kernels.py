"""Kernel microbenchmarks: wall-clock throughput of the NumPy codec kernels.

Not a paper figure — the simulator supplies the *modelled* device speeds —
but the practical numbers a contributor watches when optimizing the
vectorized kernels (and the reason real mode is kept to small geometries).
Uses pytest-benchmark's statistics properly: each kernel is timed on a CIF
(352×288) workload.
"""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.deblock import BlockInfo, deblock_plane
from repro.codec.fastme import diamond_search_rows
from repro.codec.interpolation import interpolate_plane
from repro.codec.mc import build_prediction, decide_modes
from repro.codec.me import dy_batch, motion_estimate_rows
from repro.codec.partitions import get_mode, total_subpartitions
from repro.codec.residual import code_luma_plane
from repro.codec.sme import subpel_refine_rows
from repro.video.generator import SyntheticSequence

W, H = 352, 288
CFG = CodecConfig(width=W, height=H, search_range=8, num_ref_frames=1)


@pytest.fixture(scope="module")
def frames():
    seq = SyntheticSequence(width=W, height=H, seed=5, noise_sigma=1.5)
    return seq.frame(0), seq.frame(1)


def _clip(n_refs: int):
    """``n_refs`` references, newest first, and the frame after them."""
    seq = SyntheticSequence(width=W, height=H, seed=5, noise_sigma=1.5)
    return [seq.frame(n_refs - 1 - k) for k in range(n_refs)], seq.frame(n_refs)


def _mpps(benchmark, pixels: int) -> None:
    """Attach a megapixels/s metric to the benchmark stats."""
    benchmark.extra_info["mpixel_per_s"] = pixels / 1e6 / benchmark.stats["mean"]


@pytest.mark.parametrize(
    "search_range,n_refs", [(4, 1), (8, 1), (16, 1), (4, 2)]
)
def test_kernel_me_fsbm(benchmark, search_range, n_refs):
    """``(16, 1)`` and ``(4, 2)`` are the benchmark suite's two encode
    configs (enc_sa32, enc_sa8_rf2)."""
    cfg = CodecConfig(
        width=W, height=H, search_range=search_range, num_ref_frames=n_refs
    )
    refs, cur = _clip(n_refs)
    result = benchmark(motion_estimate_rows, cur.y, [r.y for r in refs], 0, cfg.mb_rows, cfg)
    assert result.nrows == cfg.mb_rows
    _mpps(benchmark, W * H)
    benchmark.extra_info["dy_batch"] = dy_batch(search_range, W)
    # The benchmark suite's codec.me.gsad_per_s formula (computed, not
    # counted): pixels x (2*sr)^2 candidates x references, per second.
    benchmark.extra_info["gsad_per_s"] = (
        W * H * (2 * search_range) ** 2 * n_refs / benchmark.stats["mean"] / 1e9
    )


@pytest.mark.parametrize("search_range,n_refs", [(8, 1), (4, 2)])
def test_kernel_fastme(benchmark, search_range, n_refs):
    """Diamond search, the content-adaptive ablation FSBM is compared with
    (benchmarks/test_fsbm_vs_fastme.py), on the same frames."""
    cfg = CodecConfig(
        width=W, height=H, search_range=search_range, num_ref_frames=n_refs
    )
    refs, cur = _clip(n_refs)
    result, stats = benchmark(
        diamond_search_rows, cur.y, [r.y for r in refs], 0, cfg.mb_rows, cfg
    )
    assert result.nrows == cfg.mb_rows
    _mpps(benchmark, W * H)
    benchmark.extra_info["kcand_per_s"] = stats.total / 1e3 / benchmark.stats["mean"]


def test_kernel_interpolation(benchmark, frames):
    ref, _ = frames
    sf = benchmark(interpolate_plane, ref.y)
    assert sf.shape == (4 * H, 4 * W)
    _mpps(benchmark, W * H)


@pytest.mark.parametrize("metric", ["sad", "satd"])
@pytest.mark.parametrize("search_range,n_refs", [(16, 1), (4, 2)])
def test_kernel_sme(benchmark, search_range, n_refs, metric):
    """The benchmark suite's two encode configs (enc_sa32, enc_sa8_rf2)."""
    cfg = CodecConfig(
        width=W, height=H, search_range=search_range, num_ref_frames=n_refs,
        subpel_metric=metric,
    )
    seq = SyntheticSequence(width=W, height=H, seed=5, noise_sigma=1.5)
    refs = [seq.frame(n_refs - 1 - k).y for k in range(n_refs)]  # newest first
    cur = seq.frame(n_refs).y
    me = motion_estimate_rows(cur, refs, 0, cfg.mb_rows, cfg)
    sfs = [interpolate_plane(ref) for ref in refs]
    result = benchmark(subpel_refine_rows, cur, sfs, me, 0, cfg.mb_rows, cfg)
    assert result.nrows == cfg.mb_rows
    _mpps(benchmark, W * H)
    # Candidates scored: every sub-partition of every MB, two rings of 9.
    n_cand = cfg.mb_rows * cfg.mb_cols * total_subpartitions() * 18
    benchmark.extra_info["mcand_per_s"] = n_cand / 1e6 / benchmark.stats["mean"]


@pytest.mark.parametrize("search_range,n_refs", [(16, 1), (4, 2)])
def test_kernel_mc(benchmark, search_range, n_refs):
    """MC's prediction on the benchmark suite's two encode configs."""
    cfg = CodecConfig(
        width=W, height=H, search_range=search_range, num_ref_frames=n_refs
    )
    seq = SyntheticSequence(width=W, height=H, seed=5, noise_sigma=1.5)
    refs = [seq.frame(n_refs - 1 - k) for k in range(n_refs)]  # newest first
    cur = seq.frame(n_refs)
    me = motion_estimate_rows(cur.y, [r.y for r in refs], 0, cfg.mb_rows, cfg)
    sfs = [interpolate_plane(r.y) for r in refs]
    field = subpel_refine_rows(cur.y, sfs, me, 0, cfg.mb_rows, cfg)
    mode_idx = decide_modes(field, cfg, cfg.qp_p)
    pred, _, _ = benchmark(
        build_prediction, mode_idx, field.mode_shapes, field.qmvs, field.refs,
        sfs, [(r.u, r.v) for r in refs], H, W,
    )
    assert pred.y.shape == (H, W)
    _mpps(benchmark, W * H)
    # Sub-partition blocks predicted (luma and both chroma planes each).
    n_blocks = sum(
        get_mode(shape).nparts * int((mode_idx == i).sum())
        for i, shape in enumerate(field.mode_shapes)
    )
    benchmark.extra_info["mblocks_per_s"] = n_blocks / 1e6 / benchmark.stats["mean"]


def test_kernel_tq(benchmark, frames):
    ref, cur = frames
    residual = cur.y.astype(np.int64) - ref.y.astype(np.int64)
    coded = benchmark(code_luma_plane, residual, 28, False)
    assert coded.levels.shape[0] == (H // 4) * (W // 4)
    _mpps(benchmark, W * H)


def test_kernel_deblock(benchmark, frames):
    ref, _ = frames
    rng = np.random.default_rng(0)
    info = BlockInfo(
        mv=rng.integers(-8, 9, (H // 4, W // 4, 2)).astype(np.int32),
        ref=np.zeros((H // 4, W // 4), dtype=np.int32),
        cnz=rng.random((H // 4, W // 4)) < 0.4,
        intra=np.zeros((H // 4, W // 4), dtype=bool),
    )
    out = benchmark(deblock_plane, ref.y, info, 36)
    assert out.shape == ref.y.shape
    _mpps(benchmark, W * H)


def test_kernel_relative_costs(frames):
    """Sanity: FSBM still costs more than INT or TQ at ``sr=8``.

    It no longer dominates a frame: since the uint8/uint16 FSBM kernel, ME
    and SME are the same order of magnitude, and since the whole-plane DBL
    and int16/int32 TQ the R* block is a fraction of either, most of it MC
    (DESIGN.md "Performance: the R* block").
    """
    import time

    ref, cur = frames

    def clock(fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0

    t_me = clock(motion_estimate_rows, cur.y, [ref.y], 0, CFG.mb_rows, CFG)
    t_int = clock(interpolate_plane, ref.y)
    residual = cur.y.astype(np.int64) - ref.y.astype(np.int64)
    t_tq = clock(code_luma_plane, residual, 28, False)
    assert t_me > t_int
    assert t_me > t_tq
