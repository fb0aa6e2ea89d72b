"""Bit-level writer/reader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import BitReader, BitWriter


class TestBitWriter:
    def test_bit_count_tracks_everything(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bits(5, 3)
        assert w.bit_count == 4

    def test_byte_padding(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        data = w.to_bytes()
        assert data == bytes([0b10100000])

    def test_multi_byte(self):
        w = BitWriter()
        w.write_bits(0xABCD, 16)
        assert w.to_bytes() == bytes([0xAB, 0xCD])

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_value_too_wide(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(8, 3)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(-1, 4)

    def test_to_bytes_idempotent(self):
        w = BitWriter()
        w.write_bits(0b11, 2)
        assert w.to_bytes() == w.to_bytes()


class TestBitReader:
    def test_read_bits(self):
        r = BitReader(bytes([0b10110000]))
        assert r.read_bit() == 1
        assert r.read_bits(3) == 0b011
        assert r.read_bits(4) == 0  # exactly four bits consumed so far

    def test_eof(self):
        r = BitReader(b"")
        with pytest.raises(EOFError):
            r.read_bit()

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_bit_sequence(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.to_bytes())
        assert [r.read_bit() for _ in bits] == bits

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=32, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_values(self, value, width):
        w = BitWriter()
        w.write_bits(value, width)
        r = BitReader(w.to_bytes())
        assert r.read_bits(width) == value
