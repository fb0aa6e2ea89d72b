"""Diamond-search fast ME: correctness and the content-dependence property."""

import numpy as np
import pytest

from repro.codec.config import CodecConfig
from repro.codec.fastme import diamond_search_rows
from repro.codec.me import motion_estimate_rows


@pytest.fixture
def cfg():
    return CodecConfig(width=64, height=64, search_range=8, num_ref_frames=1)


class TestCorrectness:
    def test_zero_motion_found(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        field, stats = diamond_search_rows(ref, [ref], 0, 4, cfg)
        assert (field.sads[(16, 16)] == 0).all()
        assert (field.mvs[(16, 16)] == 0).all()

    def test_small_translation_found_on_natural_content(self, cfg):
        """DS descends SAD gradients — needs spatially-correlated content
        (on white noise there is no gradient, and getting stuck in local
        minima is expected DS behaviour)."""
        yy, xx = np.mgrid[0:64, 0:64]
        ref = (128 + 60 * np.sin(xx / 5.0) + 50 * np.cos(yy / 7.0)).astype(np.uint8)
        cur = np.roll(ref, shift=(2, -1), axis=(0, 1))
        field, _ = diamond_search_rows(cur, [ref], 0, 4, cfg)
        inner = field.mvs[(16, 16)][1:-1, 1:-1, 0]
        assert (inner[..., 0] == -2).all()
        assert (inner[..., 1] == 1).all()

    def test_never_better_than_full_search(self, rng, cfg):
        """DS is a heuristic: its SAD ≥ FSBM's optimal SAD, always."""
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ds, _ = diamond_search_rows(cur, [ref], 0, 4, cfg)
        fs = motion_estimate_rows(cur, [ref], 0, 4, cfg)
        for shape in fs.mode_shapes:
            assert (ds.sads[shape] >= fs.sads[shape]).all()

    def test_mvs_bounded_by_search_range(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ds, _ = diamond_search_rows(cur, [ref], 0, 4, cfg)
        for shape in ds.mode_shapes:
            assert (np.abs(ds.mvs[shape]) <= cfg.search_range).all()

    def test_field_contract_matches_fsbm(self, rng, cfg):
        """The output plugs into SME exactly like the FSBM field."""
        from repro.codec.interpolation import interpolate_plane
        from repro.codec.sme import subpel_refine_rows

        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        ds, _ = diamond_search_rows(cur, [ref], 0, 4, cfg)
        sme = subpel_refine_rows(cur, [interpolate_plane(ref)], ds, 0, 4, cfg)
        assert sme.qmvs[(16, 16)].shape == (4, 4, 1, 2)


class TestWorkloadProperty:
    def test_far_cheaper_than_full_search(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = np.roll(ref, shift=(1, 1), axis=(0, 1))
        _, stats = diamond_search_rows(cur, [ref], 0, 4, cfg)
        fsbm_cands = 4 * 4 * (2 * cfg.search_range + 1) ** 2  # 16 MBs
        assert stats.total < fsbm_cands / 10

    def test_content_dependent_load(self, cfg):
        """The paper's rationale for FSBM: DS cost varies with motion.

        A frame where some rows moved far and others are static must show
        per-row workload variation, whereas FSBM's is exactly zero.
        """
        rng = np.random.default_rng(4)
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        cur = ref.copy()
        cur[0:32] = np.roll(ref[0:32], shift=(0, 7), axis=(0, 1))  # big motion
        _, stats = diamond_search_rows(cur, [ref], 0, 4, cfg)
        assert stats.row_variation() > 0.1
        assert stats.candidates_per_row[0] > stats.candidates_per_row[3]

    def test_stats_accounting(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        _, stats = diamond_search_rows(ref, [ref], 0, 4, cfg)
        assert len(stats.candidates_per_row) == 4
        assert stats.total == sum(stats.candidates_per_row)
        # Static content: exactly LDSP(9) + SDSP(4) per MB.
        assert all(c == 4 * 13 for c in stats.candidates_per_row)

    def test_zero_rows(self, rng, cfg):
        ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        field, stats = diamond_search_rows(ref, [ref], 1, 0, cfg)
        assert field.nrows == 0
        assert stats.total == 0


class TestSharesTheFsbmContract:
    """Bad arguments are named by the helper both searches validate through,
    not swallowed (no reference) or left to die inside the cell kernel."""

    @pytest.mark.parametrize(
        "shape,refs_like,row0,nrows,message",
        [
            ((64, 64), [], 0, 2, "at least one reference frame required"),
            ((60, 64), [(60, 64)], 0, 2, "not MB-aligned"),
            ((64, 64), [(64, 64)], 3, 3, r"band \[3, 6\) outside 0\.\.4"),
            ((64, 64), [(16, 16)], 0, 2, r"ref shape \(16, 16\) != \(64, 64\)"),
            ((64, 64), [(64, 64), (64, 48)], 0, 0, None),  # empty band: no ref read
        ],
    )
    def test_same_errors_as_full_search(
        self, rng, cfg, shape, refs_like, row0, nrows, message
    ):
        cur = rng.integers(0, 256, shape, dtype=np.uint8)
        refs = [rng.integers(0, 256, s, dtype=np.uint8) for s in refs_like]
        if message is None:
            field, stats = diamond_search_rows(cur, refs, row0, nrows, cfg)
            assert field.nrows == stats.total == 0
            assert motion_estimate_rows(cur, refs, row0, nrows, cfg).nrows == 0
            return
        with pytest.raises(ValueError, match=message):
            diamond_search_rows(cur, refs, row0, nrows, cfg)
        with pytest.raises(ValueError, match=message):
            motion_estimate_rows(cur, refs, row0, nrows, cfg)

    def test_samples_must_be_uint8(self, rng, cfg):
        cur = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        for search in (diamond_search_rows, motion_estimate_rows):
            with pytest.raises(ValueError, match="uint8 samples required.*int32"):
                search(cur.astype(np.int32), [cur], 0, 1, cfg)
            with pytest.raises(ValueError, match="uint8 samples required.*int16"):
                search(cur, [cur.astype(np.int16)], 0, 1, cfg)
