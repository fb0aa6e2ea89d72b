"""SAD kernels: cross-checks against naive implementations + properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import sad
from repro.codec.sad import strip_cell_sads, strip_cell_sads_batch

u8 = st.integers(min_value=0, max_value=255)


def naive_cell_sads(cur_mb: np.ndarray, ref_mb: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.int64)
    for cy in range(4):
        for cx in range(4):
            a = cur_mb[4 * cy : 4 * cy + 4, 4 * cx : 4 * cx + 4].astype(np.int64)
            b = ref_mb[4 * cy : 4 * cy + 4, 4 * cx : 4 * cx + 4].astype(np.int64)
            out[cy, cx] = np.abs(a - b).sum()
    return out


class TestSad:
    def test_identical_blocks_zero(self, rng):
        a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert sad(a, a) == 0

    def test_known_value(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.full((2, 2), 3, dtype=np.uint8)
        assert sad(a, b) == 12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sad(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    @given(
        arrays(np.uint8, (8, 8), elements=u8),
        arrays(np.uint8, (8, 8), elements=u8),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_nonnegative(self, a, b):
        assert sad(a, b) == sad(b, a) >= 0

    @given(arrays(np.uint8, (8, 8), elements=u8))
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_equal(self, a):
        assert sad(a, a) == 0
        b = a.copy()
        b[0, 0] = (int(b[0, 0]) + 1) % 256
        assert sad(a, b) > 0


class TestStripCellSads:
    def test_matches_naive_per_mb(self, rng):
        cur = rng.integers(0, 256, (16, 64), dtype=np.uint8)
        ref = rng.integers(0, 256, (16, 64), dtype=np.uint8)
        got = strip_cell_sads(cur, ref)
        assert got.shape == (4, 4, 4)
        for mb in range(4):
            want = naive_cell_sads(
                cur[:, 16 * mb : 16 * mb + 16], ref[:, 16 * mb : 16 * mb + 16]
            )
            np.testing.assert_array_equal(got[mb], want)

    def test_cells_sum_to_full_sad(self, rng):
        cur = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        ref = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        cells = strip_cell_sads(cur, ref)
        for mb in range(2):
            assert cells[mb].sum() == sad(
                cur[:, 16 * mb : 16 * mb + 16], ref[:, 16 * mb : 16 * mb + 16]
            )

    def test_bad_strip_shape(self, rng):
        with pytest.raises(ValueError):
            strip_cell_sads(
                rng.integers(0, 256, (16, 20), dtype=np.uint8),
                rng.integers(0, 256, (16, 20), dtype=np.uint8),
            )


class TestBatch:
    def test_batch_matches_single(self, rng):
        cur = rng.integers(0, 256, (16, 48), dtype=np.uint8)
        windows = rng.integers(0, 256, (5, 16, 48), dtype=np.uint8)
        batch = strip_cell_sads_batch(cur, windows)
        assert batch.shape == (5, 3, 4, 4)
        assert batch.dtype == np.uint16
        for k in range(5):
            np.testing.assert_array_equal(batch[k], strip_cell_sads(cur, windows[k]))
            for mb in range(3):
                want = naive_cell_sads(
                    cur[:, 16 * mb : 16 * mb + 16], windows[k][:, 16 * mb : 16 * mb + 16]
                )
                np.testing.assert_array_equal(batch[k, mb], want)

    def test_out_of_any_layout_is_filled(self, rng):
        cur = rng.integers(0, 256, (16, 48), dtype=np.uint8)
        windows = rng.integers(0, 256, (5, 16, 48), dtype=np.uint8)
        out = np.zeros((5, 4, 4, 3), dtype=np.uint16).transpose(0, 3, 1, 2)
        got = strip_cell_sads_batch(cur, windows, out=out)
        assert got is out
        np.testing.assert_array_equal(out, strip_cell_sads_batch(cur, windows))

    def test_extreme_difference_is_exact(self):
        # uint8 abs-diff must not wrap: 0 vs 255 is 255 per pel, 4080 per cell.
        cur = np.zeros((16, 32), dtype=np.uint8)
        windows = np.full((2, 16, 32), 255, dtype=np.uint8)
        for a, b in ((cur, windows), (windows[0], 255 - windows)):
            np.testing.assert_array_equal(
                strip_cell_sads_batch(a, b), np.full((2, 2, 4, 4), 16 * 255)
            )

    def test_requires_uint8(self, rng):
        cur = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        windows = rng.integers(0, 256, (3, 16, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="uint8"):
            strip_cell_sads_batch(cur.astype(np.int32), windows)
        with pytest.raises(ValueError, match="uint8"):
            strip_cell_sads_batch(cur, windows.astype(np.int16))

    def test_incompatible_shapes(self, rng):
        with pytest.raises(ValueError):
            strip_cell_sads_batch(
                rng.integers(0, 256, (16, 32), dtype=np.uint8),
                rng.integers(0, 256, (3, 16, 48), dtype=np.uint8),
            )
