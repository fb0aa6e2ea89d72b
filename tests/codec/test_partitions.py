"""Partition-mode bookkeeping: tiling, and the SAD tree vs the matmul oracle."""

import numpy as np
import pytest

from repro.codec.config import PARTITION_MODES
from repro.codec.partitions import (
    TOTAL_PARTS,
    PartitionSadTree,
    all_modes,
    get_mode,
    total_subpartitions,
)

from oracles import reference_partition_sads


def tree_sads(cells: np.ndarray, shape) -> np.ndarray:
    """``(..., 4, 4)`` cell SADs -> ``(..., nparts)`` through the tree."""
    batch = cells.reshape(-1, 4, 4)
    tree = PartitionSadTree(len(batch), 1)
    tree.cells[..., 0] = np.moveaxis(batch, 0, -1)
    tree.fill()
    got = tree.sads[get_mode(shape).span, :, 0].T
    return got.reshape(*cells.shape[:-2], -1)


EXPECTED_NPARTS = {
    (16, 16): 1,
    (16, 8): 2,
    (8, 16): 2,
    (8, 8): 4,
    (8, 4): 8,
    (4, 8): 8,
    (4, 4): 16,
}


class TestModes:
    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_npart_counts(self, shape):
        assert get_mode(shape).nparts == EXPECTED_NPARTS[shape]

    def test_total_is_41(self):
        assert total_subpartitions() == 41

    def test_spans_tile_the_partition_axis(self):
        spans = [get_mode(s).span for s in PARTITION_MODES]
        assert spans[0].start == 0 and spans[-1].stop == TOTAL_PARTS == 41
        for a, b in zip(spans, spans[1:]):
            assert a.stop == b.start
        for s in PARTITION_MODES:
            assert get_mode(s).span.stop - get_mode(s).span.start == get_mode(s).nparts

    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_cells_partition_the_mb(self, shape):
        # A unit SAD in any one 4x4 cell lands in exactly one sub-partition.
        one_hot = np.eye(16, dtype=np.uint16).reshape(16, 4, 4)
        got = tree_sads(one_hot, shape)  # (16 cells, nparts)
        np.testing.assert_array_equal(got.sum(axis=1), np.ones(16))
        np.testing.assert_array_equal(got, reference_partition_sads(one_hot, shape))

    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_cells_per_partition(self, shape):
        # All-ones cells: every sub-partition counts the cells it covers.
        h, w = shape
        got = tree_sads(np.ones((4, 4), dtype=np.uint16), shape)
        np.testing.assert_array_equal(
            got, np.full(get_mode(shape).nparts, (h // 4) * (w // 4))
        )

    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_origins_raster_order_and_disjoint(self, shape):
        mode = get_mode(shape)
        seen = set()
        for oy, ox in mode.origins:
            assert 0 <= oy < 16 and 0 <= ox < 16
            assert (oy, ox) not in seen
            seen.add((oy, ox))
        assert sorted(seen) == [tuple(o) for o in mode.origins]

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            get_mode((2, 2))

    def test_all_modes_respects_enabled_subset(self):
        modes = all_modes(((16, 16), (8, 8)))
        assert [m.shape for m in modes] == [(16, 16), (8, 8)]

    def test_mode_cached(self):
        assert get_mode((16, 16)) is get_mode((16, 16))


class TestAggregation:
    def test_16x16_sums_all_cells(self, rng):
        cells = rng.integers(0, 100, (4, 4)).astype(np.uint16)
        got = tree_sads(cells, (16, 16))
        assert got.shape == (1,)
        assert got[0] == cells.sum()

    def test_h16_w8_splits_left_right(self, rng):
        # Shapes are (height, width): (16, 8) = full height, half width.
        cells = rng.integers(0, 100, (4, 4)).astype(np.uint16)
        got = tree_sads(cells, (16, 8))
        assert got[0] == cells[:, :2].sum()
        assert got[1] == cells[:, 2:].sum()

    def test_h8_w16_splits_top_bottom(self, rng):
        cells = rng.integers(0, 100, (4, 4)).astype(np.uint16)
        got = tree_sads(cells, (8, 16))
        assert got[0] == cells[:2].sum()
        assert got[1] == cells[2:].sum()

    def test_4x4_identity(self, rng):
        cells = rng.integers(0, 100, (4, 4)).astype(np.uint16)
        got = tree_sads(cells, (4, 4))
        np.testing.assert_array_equal(got, cells.reshape(16))

    def test_batch_dimensions_preserved(self, rng):
        cells = rng.integers(0, 100, (3, 5, 4, 4)).astype(np.uint16)
        got = tree_sads(cells, (8, 8))
        assert got.shape == (3, 5, 4)
        assert got.sum() == cells.sum()

    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_partition_sads_conserve_total(self, rng, shape):
        cells = rng.integers(0, 100, (4, 4)).astype(np.uint16)
        got = tree_sads(cells, shape)
        assert got.sum() == cells.sum()

    @pytest.mark.parametrize("shape", PARTITION_MODES)
    def test_tree_matches_matmul_oracle(self, rng, shape):
        # Full 4x4-cell range (16 * 255), displacement x MB batch.
        tree = PartitionSadTree(7, 5)
        assert tree.sads.shape == (TOTAL_PARTS, 7, 5)
        cells = rng.integers(0, 4081, (7, 5, 4, 4)).astype(np.uint16)
        tree.cells[...] = cells.transpose(2, 3, 0, 1)
        tree.fill()
        got = tree.sads[get_mode(shape).span].transpose(1, 2, 0)
        assert got.dtype == np.uint16
        np.testing.assert_array_equal(got, reference_partition_sads(cells, shape))

    def test_worst_case_is_exact_in_uint16(self):
        # All-0 against all-255: every cell 4080, the MB 65 280 < 2**16.
        cells = np.full((4, 4), 16 * 255, dtype=np.uint16)
        for h, w in PARTITION_MODES:
            np.testing.assert_array_equal(
                tree_sads(cells, (h, w)), np.full(256 // (h * w), h * w * 255)
            )
