"""INT: 6-tap/bilinear SF generation — conformance and band exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import clamp_qpos, subpel_block
from repro.codec.interpolation import (
    PAD,
    interpolate_plane,
    interpolate_rows,
    subpel_blocks,
)


class TestIntegerPositions:
    def test_integer_samples_preserved(self, rng):
        y = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        sf = interpolate_plane(y)
        assert sf.shape == (128, 128)
        np.testing.assert_array_equal(sf[0::4, 0::4], y)

    def test_constant_plane_constant_sf(self):
        y = np.full((32, 32), 77, dtype=np.uint8)
        sf = interpolate_plane(y)
        assert (sf == 77).all()

    def test_sf_is_16x_the_area(self, rng):
        y = rng.integers(0, 256, (16, 48), dtype=np.uint8)
        sf = interpolate_plane(y)
        assert sf.size == 16 * y.size


class TestSixTapFilter:
    def test_halfpel_horizontal_hand_value(self):
        """b = (E - 5F + 20G + 20H - 5I + J + 16) >> 5 on a known ramp."""
        y = np.zeros((16, 16), dtype=np.uint8)
        y[:, :] = np.arange(16, dtype=np.uint8)[None, :] * 10
        sf = interpolate_plane(y)
        # At interior column x=7: taps 50,60,70,80,90,100.
        e, f, g, h, i, j = 50, 60, 70, 80, 90, 100
        want = (e - 5 * f + 20 * g + 20 * h - 5 * i + j + 16) >> 5
        assert sf[0, 4 * 7 + 2] == want

    def test_halfpel_vertical_matches_transpose(self, rng):
        y = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        sf = interpolate_plane(y)
        sf_t = interpolate_plane(np.ascontiguousarray(y.T))
        # h of y == b of y.T (vertical filter == horizontal on transpose).
        np.testing.assert_array_equal(sf[2::4, 0::4], sf_t[0::4, 2::4].T)

    def test_quarter_positions_are_averages(self, rng):
        y = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        sf = interpolate_plane(y)
        g = sf[0::4, 0::4].astype(np.uint16)
        b = sf[0::4, 2::4].astype(np.uint16)
        np.testing.assert_array_equal(sf[0::4, 1::4], (g + b + 1) >> 1)
        h = sf[2::4, 0::4].astype(np.uint16)
        np.testing.assert_array_equal(sf[1::4, 0::4], (g + h + 1) >> 1)
        j = sf[2::4, 2::4].astype(np.uint16)
        np.testing.assert_array_equal(sf[2::4, 1::4], (h + j + 1) >> 1)


class TestBandExactness:
    @given(
        row0=st.integers(min_value=0, max_value=3),
        nrows=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=24, deadline=None)
    def test_band_equals_plane_rows(self, row0, nrows):
        """Distributed INT must be bit-exact with full-plane interpolation."""
        if row0 + nrows > 4:
            nrows = 4 - row0
        rng = np.random.default_rng(7)
        y = rng.integers(0, 256, (64, 48), dtype=np.uint8)
        full = interpolate_plane(y)
        band = interpolate_rows(y, row0, nrows)
        np.testing.assert_array_equal(
            band, full[64 * row0 : 64 * (row0 + nrows), :]
        )

    def test_stitched_bands_equal_plane(self, rng):
        y = rng.integers(0, 256, (96, 32), dtype=np.uint8)
        full = interpolate_plane(y)
        stitched = np.concatenate(
            [interpolate_rows(y, 0, 2), interpolate_rows(y, 2, 1),
             interpolate_rows(y, 3, 3)],
            axis=0,
        )
        np.testing.assert_array_equal(stitched, full)

    def test_band_out_of_range(self, rng):
        y = rng.integers(0, 256, (64, 32), dtype=np.uint8)
        with pytest.raises(ValueError):
            interpolate_rows(y, 3, 2)

    def test_pad_constant_documented(self):
        assert PAD == 4  # 6-tap reach + the +1 quarter-pel neighbour


class TestSampling:
    def test_subpel_block_at_integer_position(self, rng):
        y = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        sf = interpolate_plane(y)
        blk = subpel_block(sf, 4 * 8, 4 * 4, 8, 8)
        np.testing.assert_array_equal(blk, y[8:16, 4:12])

    def test_subpel_block_fractional(self, rng):
        y = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        sf = interpolate_plane(y)
        blk = subpel_block(sf, 4 * 8 + 2, 4 * 4, 4, 4)
        np.testing.assert_array_equal(blk, sf[34 : 34 + 16 : 4, 16 : 16 + 16 : 4])

    def test_clamp_qpos(self):
        assert clamp_qpos(-3, 5, 8, 8, 32, 32) == (0, 5)
        assert clamp_qpos(4 * 30, 4 * 30, 8, 8, 32, 32) == (4 * 24, 4 * 24)
        assert clamp_qpos(10, 10, 8, 8, 32, 32) == (10, 10)

    @pytest.mark.parametrize("bh,bw", [(16, 16), (8, 4), (4, 4)])
    def test_subpel_blocks_matches_subpel_block(self, rng, bh, bw):
        """All 16 phases, the clamp limits 0 and 4·(H − bh), any index shape."""
        h, w = 32, 48
        sf = rng.integers(0, 256, (4 * h, 4 * w), dtype=np.uint8)
        top, left = 4 * (h - bh), 4 * (w - bw)
        phases = [(20 + fy, 12 + fx) for fy in range(4) for fx in range(4)]
        limits = [(0, 0), (0, left), (top, 0), (top, left), (top - 1, left - 1)]
        qys, qxs = np.array(phases + limits).T
        got = subpel_blocks(sf, qys, qxs, bh, bw)
        assert got.dtype == np.uint8 and got.shape == (len(qys), bh, bw)
        for blk, qy, qx in zip(got, qys, qxs):
            np.testing.assert_array_equal(blk, subpel_block(sf, qy, qx, bh, bw))
        # Index arrays of any (equal) shape; the SF itself is not copied.
        stacked = subpel_blocks(sf, qys.reshape(3, 7), qxs.reshape(3, 7), bh, bw)
        np.testing.assert_array_equal(stacked.reshape(got.shape), got)

    def test_subpel_blocks_rejects_blocks_past_the_sf(self, rng):
        """The last block that fits starts at ``4·(16 − 8) + 3``; one further
        on either axis raises instead of reading beyond the SF's buffer."""
        sf = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        last = 4 * (16 - 8) + 3
        np.testing.assert_array_equal(
            subpel_blocks(sf, np.array([last]), np.array([last]), 8, 8)[0],
            sf[last::4, last::4],
        )
        for qy, qx in ((last + 1, 0), (0, last + 1)):
            with pytest.raises(IndexError):
                subpel_blocks(sf, np.array([qy]), np.array([qx]), 8, 8)


def _j_int64(y: np.ndarray) -> np.ndarray:
    """Centre half-pels ``j`` recomputed in int64: both 6-tap passes unrounded."""
    taps = np.array([1, -5, 20, 20, -5, 1], dtype=np.int64)
    g = np.pad(y, PAD, mode="edge").astype(np.int64)
    h, w = y.shape
    b_raw = sum(t * g[:, PAD + o : PAD + o + w] for t, o in zip(taps, range(-2, 4)))
    j_raw = sum(t * b_raw[PAD + o : PAD + o + h] for t, o in zip(taps, range(-2, 4)))
    return j_raw


def _extreme_planes() -> dict[str, np.ndarray]:
    """0/255 planes that drive ``|j_raw|`` to its extremes."""
    yy, xx = np.mgrid[:48, :48]
    # 255 under every positive tap (offsets -2, 0, 1, 3 of each 6-sample run).
    peak = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
    planes = {
        "checkerboard": (yy + xx) % 2,
        "checkerboard2": (yy // 2 + xx // 2) % 2,
        "rows": yy % 2,
        "columns": xx % 2,
        "stripes2": (xx // 2) % 2,
        "stripes3": (yy // 3) % 2,
        "peak": peak[yy % 6] & peak[xx % 6],
        "trough": ~(peak[yy % 6] & peak[xx % 6]),
    }
    return {k: (255 * v).astype(np.uint8) for k, v in planes.items()}


class TestCentreHalfPelWidth:
    """``j`` accumulates in int32: |j_raw| <= 42 · 10 710 + 10 · 2 550 < 2¹⁹."""

    @pytest.mark.parametrize("name", list(_extreme_planes()))
    def test_int32_pass_equals_int64(self, name):
        y = _extreme_planes()[name]
        j_raw = _j_int64(y)
        assert np.abs(j_raw).max() < 2**19
        want = np.clip((j_raw + 512) >> 10, 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(interpolate_plane(y)[2::4, 2::4], want)

    def test_planes_reach_the_bound(self):
        """The peak plane puts 42 · 255 under the positive taps of both passes."""
        j_raw = _j_int64(_extreme_planes()["peak"])
        assert j_raw.max() == 42 * 42 * 255
        assert _j_int64(_extreme_planes()["trough"]).min() < -(2**17)
