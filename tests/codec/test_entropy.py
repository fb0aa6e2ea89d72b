"""Entropy coding: Exp-Golomb and CAVLC-lite round trips + exact lengths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import written_block_bits, written_chroma_dc_bits
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.entropy import (
    ZIGZAG_4X4,
    LiteCoder,
    get_coder,
    read_se,
    read_ue,
    se_len,
    ue_len,
    write_se,
    write_ue,
    zigzag_scan,
    zigzag_unscan,
)

_lite = LiteCoder()
block_bits, write_block, read_block = _lite.block_bits, _lite.write_block, _lite.read_block
write_chroma_dc, read_chroma_dc = _lite.write_chroma_dc, _lite.read_chroma_dc

levels = st.integers(min_value=-512, max_value=512)


class TestExpGolomb:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_ue_roundtrip_and_length(self, k):
        w = BitWriter()
        write_ue(w, k)
        assert w.bit_count == ue_len(k)
        r = BitReader(w.to_bytes())
        assert read_ue(r) == k

    @given(st.integers(min_value=-10**5, max_value=10**5))
    @settings(max_examples=100, deadline=None)
    def test_se_roundtrip_and_length(self, v):
        w = BitWriter()
        write_se(w, v)
        assert w.bit_count == se_len(v)
        r = BitReader(w.to_bytes())
        assert read_se(r) == v

    def test_known_ue_codes(self):
        # Classic table: 0→1, 1→010, 2→011, 3→00100 …
        for k, want_len in [(0, 1), (1, 3), (2, 3), (3, 5), (6, 5), (7, 7)]:
            assert ue_len(k) == want_len

    def test_se_mapping(self):
        # signed order: 0, 1, −1, 2, −2 → ue 0,1,2,3,4
        for v, want in [(0, 1), (1, 3), (-1, 3), (2, 5), (-2, 5)]:
            assert se_len(v) == want

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            write_ue(BitWriter(), -1)
        with pytest.raises(ValueError):
            ue_len(np.array([-1]))

    def test_vectorized_lengths(self):
        ks = np.array([0, 1, 2, 3, 10])
        np.testing.assert_array_equal(ue_len(ks), [1, 3, 3, 5, 7])


class TestZigzag:
    def test_order_matches_standard(self):
        assert ZIGZAG_4X4[:6] == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))

    def test_scan_unscan_roundtrip(self, rng):
        b = rng.integers(-9, 9, (7, 4, 4)).astype(np.int64)
        np.testing.assert_array_equal(zigzag_unscan(zigzag_scan(b)), b)

    def test_scan_visits_every_cell_once(self):
        assert sorted(ZIGZAG_4X4) == [(i, j) for i in range(4) for j in range(4)]


class TestBlockCoding:
    @given(arrays(np.int64, (4, 4), elements=levels))
    @settings(max_examples=80, deadline=None)
    def test_block_roundtrip(self, block):
        w = BitWriter()
        write_block(w, block)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(read_block(r), block)

    @given(arrays(np.int64, (4, 4), elements=levels))
    @settings(max_examples=80, deadline=None)
    def test_block_bits_matches_written(self, block):
        w = BitWriter()
        write_block(w, block)
        assert block_bits(block[None])[0] == w.bit_count

    def test_zero_block_is_one_bit(self):
        z = np.zeros((1, 4, 4), dtype=np.int64)
        assert block_bits(z)[0] == 1  # ue(0)

    def test_denser_blocks_cost_more(self):
        sparse = np.zeros((4, 4), dtype=np.int64)
        sparse[0, 0] = 3
        dense = np.full((4, 4), 3, dtype=np.int64)
        assert block_bits(dense[None])[0] > block_bits(sparse[None])[0]

    def test_batch_bits(self, rng):
        blocks = rng.integers(-5, 6, (10, 4, 4)).astype(np.int64)
        bits = block_bits(blocks)
        assert bits.shape == (10,)
        for k in range(10):
            w = BitWriter()
            write_block(w, blocks[k])
            assert bits[k] == w.bit_count


class TestChromaDC:
    @given(arrays(np.int64, (2, 2), elements=levels))
    @settings(max_examples=60, deadline=None)
    def test_chroma_dc_roundtrip(self, dc):
        w = BitWriter()
        write_chroma_dc(w, dc)
        r = BitReader(w.to_bytes())
        np.testing.assert_array_equal(read_chroma_dc(r), dc)


def level_stacks(*shape):
    """Stacks of level blocks of one ``shape``: all-zero, a single ±1,
    sparse small levels, dense large magnitudes (past CAVLC's escape)."""
    n = int(np.prod(shape))

    @st.composite
    def single(draw):
        flat = np.zeros(n, dtype=np.int64)
        flat[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, 1]))
        return flat.reshape(1, *shape)

    return st.one_of(
        st.just(np.zeros((2, *shape), dtype=np.int64)),
        single(),
        arrays(np.int64, (4, *shape),
               elements=st.sampled_from([0, 0, 0, 0, 1, -1, 2, -9])),
        arrays(np.int64, (3, *shape),
               elements=st.integers(-40_000, 40_000).filter(bool)),
    )


@pytest.mark.parametrize("name", ["lite", "cavlc"])
class TestAccountingEqualsWriteAndCount:
    """Both coders' rate accounting against the write-and-count oracle —
    every frame's ``EncodedFrame.bits`` is a sum of these — and the
    ``write → read`` round trip, for 4×4 blocks and 2×2 chroma-DC groups."""

    @given(level_stacks(4, 4))
    @settings(max_examples=60, deadline=None)
    def test_block_bits(self, name, blocks):
        coder = get_coder(name)
        np.testing.assert_array_equal(
            coder.block_bits(blocks), written_block_bits(coder, blocks)
        )

    @given(level_stacks(2, 2))
    @settings(max_examples=60, deadline=None)
    def test_chroma_dc_bits(self, name, dcs):
        coder = get_coder(name)
        assert coder.chroma_dc_bits(dcs) == written_chroma_dc_bits(coder, dcs)

    @given(level_stacks(4, 4))
    @settings(max_examples=60, deadline=None)
    def test_block_roundtrip(self, name, blocks):
        coder = get_coder(name)
        w = BitWriter()
        for block in blocks:
            coder.write_block(w, block)
        r = BitReader(w.to_bytes())
        for block in blocks:
            np.testing.assert_array_equal(coder.read_block(r), block)

    @given(level_stacks(2, 2))
    @settings(max_examples=60, deadline=None)
    def test_chroma_dc_roundtrip(self, name, dcs):
        coder = get_coder(name)
        w = BitWriter()
        for dc in dcs:
            coder.write_chroma_dc(w, dc)
        r = BitReader(w.to_bytes())
        for dc in dcs:
            np.testing.assert_array_equal(coder.read_chroma_dc(r), dc)
