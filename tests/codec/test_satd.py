"""SATD metric and its use in SME."""

import numpy as np
import pytest

from repro.codec.satd import H4, block_metric, sad_blocks, satd_blocks


class TestSatd:
    def test_zero_for_identical(self, rng):
        a = rng.integers(0, 256, (5, 8, 8), dtype=np.uint8)
        np.testing.assert_array_equal(satd_blocks(a, a), 0)

    def test_dc_difference_value(self):
        """Constant offset d: only the DC coefficient survives — SATD =
        |16·d| / 2 per 4×4 tile."""
        a = np.zeros((1, 4, 4), dtype=np.uint8)
        b = np.full((1, 4, 4), 3, dtype=np.uint8)
        assert satd_blocks(a, b)[0] == 16 * 3 // 2

    def test_tiles_accumulate(self):
        a = np.zeros((1, 8, 8), dtype=np.uint8)
        b = np.full((1, 8, 8), 3, dtype=np.uint8)
        assert satd_blocks(a, b)[0] == 4 * (16 * 3 // 2)

    def test_hadamard_is_orthogonal_scaled(self):
        np.testing.assert_array_equal(H4 @ H4.T, 4 * np.eye(4, dtype=np.int64))

    def test_structured_vs_noise(self, rng):
        """SATD compresses a flat (DC) error into one coefficient but
        spreads white noise across all 16 — matching how the codec's
        transform will see them."""
        a = np.zeros((1, 4, 4), dtype=np.uint8)
        dc = np.full((1, 4, 4), 4, dtype=np.uint8)           # SAD 64
        noise = rng.permutation(np.repeat([0, 8], 8)).reshape(1, 4, 4).astype(np.uint8)  # SAD 64
        assert sad_blocks(a, dc)[0] == sad_blocks(a, noise)[0]
        assert satd_blocks(a, dc)[0] < satd_blocks(a, noise)[0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            satd_blocks(np.zeros((1, 4, 4)), np.zeros((1, 4, 8)))
        with pytest.raises(ValueError):
            satd_blocks(np.zeros((1, 6, 4)), np.zeros((1, 6, 4)))

    def test_factory(self):
        assert block_metric("sad") is sad_blocks
        assert block_metric("satd") is satd_blocks
        with pytest.raises(ValueError):
            block_metric("ssd")


class TestSatdInSme:
    def test_config_validation(self):
        from repro.codec.config import CodecConfig

        with pytest.raises(ValueError, match="subpel_metric"):
            CodecConfig(subpel_metric="mse")

    def test_satd_pipeline_bit_exact_collaborative(self):
        """The metric flows through reference + framework identically."""
        from repro.codec.config import CodecConfig
        from repro.codec.encoder import ReferenceEncoder
        from repro.core.config import FrameworkConfig
        from repro.core.framework import FevesFramework
        from repro.hw.presets import get_platform
        from repro.video.generator import moving_objects_sequence

        cfg = CodecConfig(width=128, height=96, search_range=8,
                          subpel_metric="satd")
        clip = moving_objects_sequence(width=128, height=96, count=4, seed=7)
        ref = ReferenceEncoder(cfg).encode_sequence(clip)
        fw = FevesFramework(get_platform("SysHK"), cfg,
                            FrameworkConfig())
        out = fw.encode(clip)
        for r, o in zip(ref, out, strict=True):
            assert r.bits == o.encoded.bits
            np.testing.assert_array_equal(r.recon.y, o.encoded.recon.y)

    def test_metrics_give_different_refinements(self):
        from repro.codec.config import CodecConfig
        from repro.codec.encoder import ReferenceEncoder
        from repro.video.generator import moving_objects_sequence

        clip = moving_objects_sequence(width=128, height=96, count=3, seed=7)
        outs = {}
        for metric in ("sad", "satd"):
            cfg = CodecConfig(width=128, height=96, search_range=8,
                              subpel_metric=metric)
            outs[metric] = ReferenceEncoder(cfg).encode_sequence(clip)
        # Different cost surfaces ⇒ at least some MVs differ.
        assert any(
            a.bits != b.bits for a, b in zip(outs["sad"], outs["satd"], strict=True)
        )
