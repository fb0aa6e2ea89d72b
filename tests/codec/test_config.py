"""CodecConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.codec.config import MB_SIZE, PARTITION_MODES, CodecConfig


class TestValidation:
    def test_defaults_are_paper_settings(self):
        cfg = CodecConfig()
        assert cfg.width == 1920
        assert cfg.qp_i == 27 and cfg.qp_p == 28
        assert cfg.enabled_partitions == PARTITION_MODES

    def test_width_must_be_mb_aligned(self):
        with pytest.raises(ValueError, match="width"):
            CodecConfig(width=100, height=96)

    def test_height_must_be_mb_aligned(self):
        with pytest.raises(ValueError, match="height"):
            CodecConfig(width=128, height=100)

    def test_search_range_bounds(self):
        with pytest.raises(ValueError, match="search_range"):
            CodecConfig(search_range=0)
        with pytest.raises(ValueError, match="search_range"):
            CodecConfig(search_range=300)

    def test_num_ref_frames_bounds(self):
        with pytest.raises(ValueError, match="num_ref_frames"):
            CodecConfig(num_ref_frames=0)
        with pytest.raises(ValueError, match="num_ref_frames"):
            CodecConfig(num_ref_frames=17)

    def test_qp_bounds(self):
        with pytest.raises(ValueError, match="qp_i"):
            CodecConfig(qp_i=52)
        with pytest.raises(ValueError, match="qp_p"):
            CodecConfig(qp_p=-1)

    def test_16x16_partition_mandatory(self):
        with pytest.raises(ValueError, match="16x16"):
            CodecConfig(enabled_partitions=((8, 8),))

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError, match="unknown partition"):
            CodecConfig(enabled_partitions=((16, 16), (5, 5)))

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            CodecConfig(enabled_partitions=())


class TestDerived:
    def test_sa_side_is_twice_range(self):
        assert CodecConfig(search_range=16).sa_side == 32
        assert CodecConfig(search_range=128).sa_side == 256

    def test_mb_grid(self):
        cfg = CodecConfig(width=1920, height=1088)
        assert cfg.mb_cols == 120
        assert cfg.mb_rows == 68
        assert cfg.mb_rows * MB_SIZE == 1088

    def test_with_qp_changes_only_the_two_qps(self):
        """A QP ladder is a ladder only if everything but QP is held
        fixed: from a config with *every* field off its default, each
        other field survives; the I slice sits one step below, floored."""
        base = CodecConfig(
            width=64, height=48, search_range=5, num_ref_frames=3,
            qp_i=11, qp_p=13, enabled_partitions=((16, 16), (8, 8)),
            subpel=False, subpel_metric="satd", entropy_coder="cavlc",
            num_slices=2, deblock_across_slices=False,
        )
        defaults = CodecConfig()
        assert all(
            getattr(base, f.name) != getattr(defaults, f.name)
            for f in dataclasses.fields(CodecConfig)
        )
        rung = base.with_qp(30)
        assert (rung.qp_i, rung.qp_p) == (29, 30)
        assert dataclasses.replace(rung, qp_i=11, qp_p=13) == base
        assert base.with_qp(0).qp_i == 0
        with pytest.raises(ValueError, match="qp must be in"):
            base.with_qp(52)

    def test_lambda_standard_formula(self):
        cfg = CodecConfig()
        assert cfg.lambda_for(12) == pytest.approx(0.85)
        assert cfg.lambda_for(18) == pytest.approx(0.85 * 4)

    def test_frozen(self):
        cfg = CodecConfig()
        with pytest.raises(AttributeError):
            cfg.width = 640  # type: ignore[misc]
