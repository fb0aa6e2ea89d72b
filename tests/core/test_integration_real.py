"""Integration: FEVES collaborative output ≡ reference encoder, bit-exact.

This is the repository's strongest correctness statement: splitting ME, INT
and SME across any platform's devices — under any load-balancing decision,
GPU- or CPU-centric R* mapping, single or dual copy engines — must produce
exactly the reconstruction and bit count of the sequential reference
encoder. Any error in band splitting, stitching, Δ bookkeeping or
synchronization shows up here.
"""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.encoder import ReferenceEncoder
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.presets import get_platform
from repro.video.generator import SyntheticSequence


def encode_both(platform_name, cfg, frames, fw_kwargs=None):
    ref_out = ReferenceEncoder(cfg).encode_sequence(frames)
    fw = FevesFramework(
        get_platform(platform_name),
        cfg,
        FrameworkConfig(**(fw_kwargs or {})),
    )
    fev_out = fw.encode(frames)
    return ref_out, fev_out, fw


def assert_identical(ref_out, fev_out):
    assert len(ref_out) == len(fev_out)
    for r, o in zip(ref_out, fev_out, strict=True):
        e = o.encoded
        assert e is not None
        assert r.bits == e.bits, f"frame {r.index}: bits differ"
        np.testing.assert_array_equal(r.recon.y, e.recon.y)
        np.testing.assert_array_equal(r.recon.u, e.recon.u)
        np.testing.assert_array_equal(r.recon.v, e.recon.v)


@pytest.fixture(scope="module")
def frames():
    seq = SyntheticSequence(width=128, height=96, seed=13, noise_sigma=1.5)
    return seq.frames(5)


@pytest.fixture(scope="module")
def cfg():
    return CodecConfig(width=128, height=96, search_range=8, num_ref_frames=2)


class TestBitExactness:
    @pytest.mark.parametrize("platform", ["SysNF", "SysNFF", "SysHK"])
    def test_platforms_match_reference(self, platform, cfg, frames):
        ref_out, fev_out, _ = encode_both(platform, cfg, frames)
        assert_identical(ref_out, fev_out)

    def test_cpu_centric_matches(self, cfg, frames):
        ref_out, fev_out, fw = encode_both(
            "SysHK", cfg, frames, {"centric": "cpu"}
        )
        assert fw.rstar_device == "CPU_H"
        assert_identical(ref_out, fev_out)

    def test_single_ref_config(self, frames):
        cfg1 = CodecConfig(width=128, height=96, search_range=8, num_ref_frames=1)
        ref_out, fev_out, _ = encode_both("SysNFF", cfg1, frames)
        assert_identical(ref_out, fev_out)

    def test_many_refs_with_warmup(self):
        cfg4 = CodecConfig(width=128, height=96, search_range=4, num_ref_frames=4)
        seq = SyntheticSequence(width=128, height=96, seed=21, noise_sigma=1.0)
        frames = seq.frames(7)
        ref_out, fev_out, _ = encode_both("SysHK", cfg4, frames)
        assert_identical(ref_out, fev_out)

    def test_partition_subset(self, frames):
        cfg_sub = CodecConfig(
            width=128, height=96, search_range=8,
            enabled_partitions=((16, 16), (8, 8)),
        )
        ref_out, fev_out, _ = encode_both("SysNF", cfg_sub, frames)
        assert_identical(ref_out, fev_out)

    def test_subpel_disabled(self, frames):
        cfg_fp = CodecConfig(width=128, height=96, search_range=8, subpel=False)
        ref_out, fev_out, _ = encode_both("SysHK", cfg_fp, frames)
        assert_identical(ref_out, fev_out)

    def test_noise_does_not_change_output(self, cfg, frames):
        """Load noise moves work between devices but never changes bits."""
        from repro.hw.noise import GaussianJitter, NoiseModel

        ref_out, fev_out, _ = encode_both(
            "SysNFF", cfg, frames,
            {"noise": NoiseModel(jitter=GaussianJitter(sigma=0.2, seed=3))},
        )
        assert_identical(ref_out, fev_out)


class TestRealModeReports:
    def test_timing_reports_accompany_frames(self, cfg, frames):
        _, fev_out, fw = encode_both("SysHK", cfg, frames)
        for o in fev_out[1:]:
            assert o.report.tau_tot > 0
        assert len(fw.reports) == len(frames) - 1

    def test_distributions_actually_split_work(self, cfg, frames):
        # At this toy frame size the LP may concentrate a single module on
        # one device (per-transfer latency dominates), but across the three
        # distributed modules several devices must be computing.
        _, _, fw = encode_both("SysNFF", cfg, frames)
        final = fw.reports[-1].decision
        busy = {
            i
            for dist in (final.m, final.l, final.s)
            for i, r in enumerate(dist.rows)
            if r > 0
        }
        assert len(busy) >= 2
