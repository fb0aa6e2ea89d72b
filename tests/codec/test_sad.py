"""SAD kernels: the Σcur + Σref − 2·Σmin identity against the direct kernel."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import reference_strip_cell_sads_batch, sad
from repro.codec import sad as sad_module
from repro.codec.sad import box_sums, fold_cells

u8 = st.integers(min_value=0, max_value=255)


def cell_sads(
    cur_strip: np.ndarray, ref_windows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The production kernel on one batch, cell-major ``[cy, cx, disp, mb]``,
    with B read from box-sum tables as FSBM reads it."""
    kernel = sad_module.StripCellSads(len(ref_windows), cur_strip.shape[1])
    kernel.set_current(cur_strip)
    return kernel.cell_sads(ref_windows, table_ref_sums(ref_windows), out)


def per_mb(cells: np.ndarray) -> np.ndarray:
    """Cell-major ``[cy, cx, disp, mb]`` -> the oracle's ``[disp, mb, cy, cx]``."""
    return cells.transpose(2, 3, 0, 1)


def naive_cell_sads(cur_mb: np.ndarray, ref_mb: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.int64)
    for cy in range(4):
        for cx in range(4):
            a = cur_mb[4 * cy : 4 * cy + 4, 4 * cx : 4 * cx + 4].astype(np.int64)
            b = ref_mb[4 * cy : 4 * cy + 4, 4 * cx : 4 * cx + 4].astype(np.int64)
            out[cy, cx] = np.abs(a - b).sum()
    return out


def table_ref_sums(ref_windows: np.ndarray) -> np.ndarray:
    """B read from box-sum tables the way FSBM does: cell ``(cy, mb, cx)`` of
    a window is the box at row ``4·cy``, column ``16·mb + 4·cx``."""
    n, _, w = ref_windows.shape
    boxes = np.stack([box_sums(win) for win in ref_windows])  # (n, 13, W - 3)
    return boxes[:, ::4, ::4].reshape(n, 4, w // 16, 4).transpose(1, 3, 0, 2)


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
        got = per_mb(cell_sads(cur, ref[None]))[0]
        assert got.shape == (4, 4, 4)
        for mb in range(4):
            want = naive_cell_sads(
                cur[:, 16 * mb : 16 * mb + 16], ref[:, 16 * mb : 16 * mb + 16]
            )
            np.testing.assert_array_equal(got[mb], want)

    def test_cells_sum_to_full_sad(self, rng):
        cur = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        ref = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        cells = per_mb(cell_sads(cur, ref[None]))[0]
        for mb in range(2):
            assert cells[mb].sum() == sad(
                cur[:, 16 * mb : 16 * mb + 16], ref[:, 16 * mb : 16 * mb + 16]
            )

    def test_bad_strip_shape(self, rng):
        with pytest.raises(ValueError, match="MB-aligned"):
            sad_module.StripCellSads(1, 20)
        kernel = sad_module.StripCellSads(1, 32)
        with pytest.raises(ValueError, match="strip shape mismatch"):
            kernel.set_current(rng.integers(0, 256, (4, 32), dtype=np.uint8))


@st.composite
def strip_batches(draw):
    """A current strip and a batch of reference strips: uniform noise, one
    constant level each, or two levels (where most cells tie or saturate)."""
    mb_cols = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "constant", "two-level"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = ((16, 16 * mb_cols), (n, 16, 16 * mb_cols))
    if kind == "random":
        cur, windows = (rng.integers(0, 256, s, dtype=np.uint8) for s in shapes)
    elif kind == "constant":
        cur, windows = (np.full(s, rng.integers(0, 256), np.uint8) for s in shapes)
    else:
        lo, hi = sorted(draw(st.tuples(u8, u8)))
        cur, windows = (
            np.where(rng.random(s) < 0.5, lo, hi).astype(np.uint8) for s in shapes
        )
    return cur, windows


def check_matches_reference(batch) -> None:
    cur, windows = batch
    want = reference_strip_cell_sads_batch(cur, windows)
    got = cell_sads(cur, windows)
    assert got.dtype == np.uint16
    np.testing.assert_array_equal(per_mb(got), want)


class TestMatchesReferenceKernel:
    @given(strip_batches())
    @settings(max_examples=100, deadline=None)
    def test_identical_to_reference_cell_sads(self, batch):
        """A + B − 2·M, with B read from box-sum tables, equals the
        ``maximum − minimum`` kernel cell for cell."""
        check_matches_reference(batch)

    @given(
        st.integers(4, 24), st.integers(4, 40), st.integers(0, 2**32 - 1),
        st.sampled_from([2, 256]),
    )
    @settings(max_examples=50, deadline=None)
    def test_box_sums_match_naive(self, h, w, seed, levels):
        plane = (
            np.random.default_rng(seed).integers(0, levels, (h, w)) * (255 // (levels - 1))
        ).astype(np.uint8)
        got = box_sums(plane)
        assert got.dtype == np.uint16 and got.shape == (h - 3, w - 3)
        for y in range(h - 3):
            for x in range(w - 3):
                assert got[y, x] == int(plane[y : y + 4, x : x + 4].sum(dtype=np.int64))

    def test_undoubled_minimum_mutant_is_killed(self, mutant):
        """SAD = A + B − 2·M: the property must notice M counted once."""
        doubled = "fold_cells(self._strips, 2,"

        def edit(source: str) -> str:
            assert source.count(doubled) == 1
            return source.replace(doubled, "fold_cells(self._strips, 1,")

        mutant(sad_module, "StripCellSads", edit)
        run = settings(
            max_examples=50, deadline=None, derandomize=True, database=None,
            phases=[Phase.generate],
        )(given(strip_batches())(check_matches_reference))
        with pytest.raises(AssertionError):
            run()


class TestBatch:
    def test_batch_matches_single(self, rng):
        cur = rng.integers(0, 256, (16, 48), dtype=np.uint8)
        windows = rng.integers(0, 256, (5, 16, 48), dtype=np.uint8)
        batch = per_mb(cell_sads(cur, windows))
        assert batch.shape == (5, 3, 4, 4)
        assert batch.dtype == np.uint16
        for k in range(5):
            np.testing.assert_array_equal(
                batch[k], per_mb(cell_sads(cur, windows[k : k + 1]))[0]
            )
            for mb in range(3):
                want = naive_cell_sads(
                    cur[:, 16 * mb : 16 * mb + 16], windows[k][:, 16 * mb : 16 * mb + 16]
                )
                np.testing.assert_array_equal(batch[k, mb], want)

    def test_out_of_any_layout_is_filled(self, rng):
        cur = rng.integers(0, 256, (16, 48), dtype=np.uint8)
        windows = rng.integers(0, 256, (5, 16, 48), dtype=np.uint8)
        out = np.zeros((5, 3, 4, 4), dtype=np.uint16).transpose(2, 3, 0, 1)
        got = cell_sads(cur, windows, out=out)
        assert got is out
        np.testing.assert_array_equal(out, cell_sads(cur, windows))

    def test_extreme_difference_is_exact(self):
        # 0 vs 255 is 255 per pel, 4 080 per cell, whichever side is bright
        # (A or B is 4 080, the other one and M are 0).
        cur = np.zeros((16, 32), dtype=np.uint8)
        windows = np.full((2, 16, 32), 255, dtype=np.uint8)
        for a, b in ((cur, windows), (windows[0], 255 - windows)):
            np.testing.assert_array_equal(
                cell_sads(a, b), np.full((4, 4, 2, 2), 16 * 255)
            )

    def test_wrap_below_zero_before_cur_is_added(self):
        """Checkerboard against its inverse: B = 8 · 255 = 2 040 and 2·M = 0 in
        every cell; against itself: 2·M = 4 080 > B, so B − 2·M wraps modulo
        2¹⁶ and adding A = 2 040 brings it back to exactly 0."""
        board = (np.indices((16, 32)).sum(axis=0) % 2 * 255).astype(np.uint8)
        windows = np.stack([board, 255 - board])
        got = cell_sads(board, windows)
        np.testing.assert_array_equal(got[:, :, 0], 0)
        np.testing.assert_array_equal(got[:, :, 1], 16 * 255)
        np.testing.assert_array_equal(
            per_mb(got), reference_strip_cell_sads_batch(board, windows)
        )

    def test_requires_uint8(self, rng):
        cur = rng.integers(0, 256, (16, 32), dtype=np.uint8)
        windows = rng.integers(0, 256, (3, 16, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="uint8"):
            cell_sads(cur.astype(np.int32), windows)
        kernel = sad_module.StripCellSads(3, 32)
        kernel.set_current(cur)
        with pytest.raises(ValueError, match="uint8"):
            kernel.cell_sads(windows.astype(np.int16), table_ref_sums(windows))

    def test_incompatible_shapes(self, rng):
        kernel = sad_module.StripCellSads(3, 32)
        kernel.set_current(rng.integers(0, 256, (16, 32), dtype=np.uint8))
        for shape in ((3, 16, 48), (2, 16, 32)):
            windows = rng.integers(0, 256, shape, dtype=np.uint8)
            with pytest.raises(ValueError, match="incompatible shapes"):
                kernel.cell_sads(windows, table_ref_sums(windows))


class TestFoldWidths:
    """The lane fold: four uint16 lanes of a uint64 summed by one multiply."""

    def test_lane_sums_are_carry_free_at_the_maximum(self):
        # Every lane at 4 · 255 = 1 020: the cell is 4 · 1 020 = 4 080, doubled
        # 8 160 < 2**16, and no partial sum of the multiply reaches 2**16.
        assert 2 * 4 * 1020 < 2**16
        full = np.full((2, 16, 32), 255, dtype=np.uint8)
        for weight in (1, 2):
            got = fold_cells(full, weight)
            assert got.dtype == np.uint16 and got.shape == (4, 4, 2, 2)
            np.testing.assert_array_equal(got, weight * 4080)

    def test_a_full_lane_does_not_carry_into_its_neighbour(self):
        # Cells alternate all-255 / all-0 along the row: a carry out of a
        # saturated cell's lanes would show in the empty cell next to it.
        strip = np.zeros((1, 16, 32), dtype=np.uint8)
        strip[:, :, 0::8] = strip[:, :, 1::8] = 255
        strip[:, :, 2::8] = strip[:, :, 3::8] = 255
        got = fold_cells(strip, 2)
        np.testing.assert_array_equal(got[:, 0::2], 8160)
        np.testing.assert_array_equal(got[:, 1::2], 0)

    @given(arrays(np.uint8, (3, 16, 32), elements=u8))
    @settings(max_examples=50, deadline=None)
    def test_fold_matches_plain_sums(self, pels):
        want = pels.reshape(3, 4, 4, 2, 4, 4).sum(axis=(2, 5), dtype=np.int64)
        np.testing.assert_array_equal(fold_cells(pels), want.transpose(1, 3, 0, 2))
