"""Intra frame coding, GOP reference store and quality metrics."""

import math

import numpy as np
import pytest

from repro.codec.frames import YuvFrame
from repro.codec.gop import ReferenceStore
from repro.codec.intra import intra_encode_frame
from repro.codec.intra_pred import MODE_DC, predict_block
from repro.codec.quality import frame_psnr, mse, psnr


def _dc_predict(recon, r0, c0, size):
    """The (uniform) value of the DC prediction at (r0, c0)."""
    pred = predict_block(recon, r0, c0, size, MODE_DC)
    assert (pred == pred[0, 0]).all()
    return int(pred[0, 0])


class TestDcPredict:
    def test_no_neighbours_gives_128(self):
        recon = np.zeros((32, 32), dtype=np.uint8)
        assert _dc_predict(recon, 0, 0, 16) == 128

    def test_top_only(self):
        # Block at column 0 has no left neighbour: prediction = top mean.
        recon = np.zeros((32, 32), dtype=np.uint8)
        recon[15, 0:16] = 100
        assert _dc_predict(recon, 16, 0, 16) == 100

    def test_top_and_left_average(self):
        recon = np.zeros((32, 32), dtype=np.uint8)
        recon[15, 16:32] = 100  # top row
        recon[16:32, 15] = 50   # left col
        assert _dc_predict(recon, 16, 16, 16) == 75


class TestIntraFrame:
    def test_flat_frame_reconstructs_exactly(self, tiny_cfg):
        f = YuvFrame.blank(tiny_cfg.width, tiny_cfg.height, value=90)
        result = intra_encode_frame(f, tiny_cfg)
        np.testing.assert_array_equal(result.recon.y, f.y)
        # Only the first MB (predicted from the 128 fallback) codes residual;
        # every other MB predicts exactly from reconstructed neighbours.
        assert not result.cnz4[:, 4:].any()
        assert not result.cnz4[4:, :].any()

    def test_textured_frame_quality(self, small_cfg, rng):
        from tests.conftest import random_frame

        f = random_frame(rng, small_cfg.width, small_cfg.height)
        result = intra_encode_frame(f, small_cfg)
        # Random noise is the worst case; still expect > 25 dB at QP 27.
        assert psnr(f.y, result.recon.y) > 25.0
        assert result.bits > 0

    def test_smooth_frame_cheap(self, small_cfg):
        f = YuvFrame.blank(small_cfg.width, small_cfg.height)
        smooth = intra_encode_frame(f, small_cfg).bits
        rng = np.random.default_rng(0)
        from tests.conftest import random_frame

        noisy_bits = intra_encode_frame(
            random_frame(rng, small_cfg.width, small_cfg.height), small_cfg
        ).bits
        assert smooth < noisy_bits / 10


class TestReferenceStore:
    def test_reset_starts_fresh(self):
        store = ReferenceStore(max_refs=3)
        store.reset(YuvFrame.blank(32, 32))
        assert store.num_active == 1
        assert store.sfs == []

    def test_push_and_eviction(self):
        store = ReferenceStore(max_refs=2)
        store.reset(YuvFrame.blank(32, 32, value=1))
        store.push_sf(np.zeros((128, 128), dtype=np.uint8))
        store.push(YuvFrame.blank(32, 32, value=2))
        store.push_sf(np.ones((128, 128), dtype=np.uint8))
        store.push(YuvFrame.blank(32, 32, value=3))
        assert store.num_active == 2
        assert store.frames[0].y[0, 0] == 3
        assert len(store.frames) == 2
        assert len(store.sfs) == 1  # SF of newest frame pending

    def test_push_sf_misalignment_detected(self):
        store = ReferenceStore(max_refs=2)
        store.reset(YuvFrame.blank(32, 32))
        store.push_sf(np.zeros((128, 128), dtype=np.uint8))
        with pytest.raises(RuntimeError, match="misaligned"):
            store.push_sf(np.zeros((128, 128), dtype=np.uint8))

    def test_active_sfs_requires_interpolation(self):
        store = ReferenceStore(max_refs=1)
        store.reset(YuvFrame.blank(32, 32))
        with pytest.raises(RuntimeError, match="not interpolated"):
            store.active_sfs()

    def test_max_refs_validation(self):
        with pytest.raises(ValueError):
            ReferenceStore(max_refs=0)
        with pytest.raises(ValueError):
            ReferenceStore(max_refs=17)

    def test_warmup_ramp(self):
        """num_active grows by one per pushed frame up to the window size."""
        store = ReferenceStore(max_refs=4)
        store.reset(YuvFrame.blank(32, 32))
        for expected in (2, 3, 4, 4):
            store.push_sf(np.zeros((128, 128), dtype=np.uint8))
            store.push(YuvFrame.blank(32, 32))
            assert store.num_active == expected


class TestQuality:
    def test_psnr_identical_is_inf(self):
        a = np.full((8, 8), 7, dtype=np.uint8)
        assert math.isinf(psnr(a, a))

    def test_known_mse(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 2, dtype=np.uint8)
        assert mse(a, b) == 4.0
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / 4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_frame_psnr_keys(self):
        f = YuvFrame.blank(32, 32)
        out = frame_psnr(f, f.copy())
        assert set(out) == {"y", "u", "v"}
