"""Bit-level I/O for the entropy coder.

A minimal MSB-first bit writer/reader pair. The writer tracks exact bit
counts (the encoder's rate figures) and can emit a byte-aligned buffer; the
reader exists so tests can prove every syntax element round-trips.
"""

from __future__ import annotations


class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bit_count = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._acc = (self._acc << 1) | bit
        self._nacc += 1
        self.bit_count += 1
        if self._nacc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Append ``nbits`` bits of ``value`` (MSB first)."""
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if value < 0 or (nbits < 63 and value >= (1 << nbits)):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for i in range(nbits - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def to_bytes(self) -> bytes:
        """Byte-aligned contents (zero-padded in the final byte)."""
        out = bytearray(self._bytes)
        if self._nacc:
            out.append(self._acc << (8 - self._nacc))
        return bytes(out)


class BitReader:
    """MSB-first bit consumer over a byte buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    def read_bit(self) -> int:
        byte_i, bit_i = divmod(self._pos, 8)
        if byte_i >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._pos += 1
        return (self._data[byte_i] >> (7 - bit_i)) & 1

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value
