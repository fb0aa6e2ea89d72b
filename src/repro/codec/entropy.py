"""Entropy coding: Exp-Golomb codes and a CAVLC-style coefficient coder.

H.264 Baseline uses Exp-Golomb for header/MV syntax and CAVLC for residual
coefficients. We implement Exp-Golomb exactly; for coefficients we use a
simplified but fully decodable "CAVLC-lite" scheme (documented in DESIGN.md):
zig-zag scan, ``ue(total_coeffs)``, then per non-zero coefficient
``ue(run_before)`` followed by ``se(level)``. Bit counts therefore track the
real coder's behaviour (few large low-frequency levels cheap, dense blocks
expensive) without the nC-context VLC tables.

All length functions are vectorized so the mode-decision rate term costs a
couple of array ops per frame.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter

#: Zig-zag scan order of a 4×4 block (frame coding).
ZIGZAG_4X4: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (2, 0),
    (1, 1), (0, 2), (0, 3), (1, 2),
    (2, 1), (3, 0), (3, 1), (2, 2),
    (1, 3), (2, 3), (3, 2), (3, 3),
)

_ZZ_ROWS = np.array([p[0] for p in ZIGZAG_4X4])
_ZZ_COLS = np.array([p[1] for p in ZIGZAG_4X4])


# --- Exp-Golomb ------------------------------------------------------------

def ue_len(k: np.ndarray | int) -> np.ndarray | int:
    """Bit length of the unsigned Exp-Golomb code of ``k`` (vectorized)."""
    kk = np.asarray(k, dtype=np.int64)
    if (kk < 0).any():
        raise ValueError("ue operand must be non-negative")
    length = 2 * np.floor(np.log2(kk + 1)).astype(np.int64) + 1
    return int(length) if np.isscalar(k) else length


def se_to_ue(v: np.ndarray | int) -> np.ndarray | int:
    """Map a signed value to its unsigned Exp-Golomb index."""
    vv = np.asarray(v, dtype=np.int64)
    mapped = np.where(vv > 0, 2 * vv - 1, -2 * vv)
    return int(mapped) if np.isscalar(v) else mapped


def se_len(v: np.ndarray | int) -> np.ndarray | int:
    """Bit length of the signed Exp-Golomb code of ``v`` (vectorized)."""
    return ue_len(se_to_ue(v))


def write_ue(w: BitWriter, k: int) -> None:
    """Write an unsigned Exp-Golomb code."""
    if k < 0:
        raise ValueError("ue operand must be non-negative")
    kp1 = k + 1
    nbits = kp1.bit_length()
    w.write_bits(0, nbits - 1)      # prefix zeros
    w.write_bits(kp1, nbits)        # info bits (leading 1 included)


def read_ue(r: BitReader) -> int:
    """Read an unsigned Exp-Golomb code."""
    zeros = 0
    while r.read_bit() == 0:
        zeros += 1
        if zeros > 63:
            raise ValueError("malformed Exp-Golomb code")
    info = (1 << zeros) | r.read_bits(zeros)
    return info - 1


def write_se(w: BitWriter, v: int) -> None:
    """Write a signed Exp-Golomb code."""
    write_ue(w, int(se_to_ue(v)))


def read_se(r: BitReader) -> int:
    """Read a signed Exp-Golomb code."""
    k = read_ue(r)
    if k % 2:
        return (k + 1) // 2
    return -(k // 2)


# --- CAVLC-lite coefficient coding -----------------------------------------

def zigzag_scan(block: np.ndarray) -> np.ndarray:
    """Scan a 4×4 block into a 16-vector (or a stack ``(n,4,4)``→``(n,16)``)."""
    if block.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing 4x4, got {block.shape}")
    return block[..., _ZZ_ROWS, _ZZ_COLS]


def zigzag_unscan(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_scan`."""
    if vec.shape[-1] != 16:
        raise ValueError(f"expected trailing 16, got {vec.shape}")
    out = np.zeros((*vec.shape[:-1], 4, 4), dtype=vec.dtype)
    out[..., _ZZ_ROWS, _ZZ_COLS] = vec
    return out


def _write_levels(w: BitWriter, vec: np.ndarray) -> None:
    """Encode one scanned level vector (16 zig-zag levels or 4 chroma DCs)."""
    nz = np.nonzero(vec)[0]
    write_ue(w, len(nz))
    prev = -1
    for idx in nz:
        write_ue(w, int(idx - prev - 1))  # run of zeros before this coeff
        write_se(w, int(vec[idx]))
        prev = idx


def _read_levels(r: BitReader, n: int) -> np.ndarray:
    """Decode a length-``n`` level vector written by :func:`_write_levels`."""
    total = read_ue(r)
    if total > n:
        raise ValueError(f"invalid total_coeffs {total}")
    vec = np.zeros(n, dtype=np.int64)
    pos = -1
    for _ in range(total):
        run = read_ue(r)
        pos += run + 1
        if pos >= n:
            raise ValueError("coefficient index out of block")
        level = read_se(r)
        if abs(level) > 1 << 30:
            raise ValueError("coefficient level out of range")
        vec[pos] = level
    return vec


def _levels_bits(vecs: np.ndarray) -> np.ndarray:
    """Exact bit cost of each row of an ``(m, n)`` stack of level vectors.

    Vectorized equivalent of writing each row with :func:`_write_levels`
    and measuring — rate accounting without materializing a bitstream.
    The ue index of every syntax element of a row — ``total_coeffs``, then
    per scan position the zero run before it and its level mapped se → ue,
    both 0 where the level is 0 — goes through one length pass; what the
    zero-level positions contributed (one bit each) is taken out again.
    """
    m, n = vecs.shape
    nz = vecs != 0
    total = nz.sum(axis=1)
    idx = np.arange(n)
    # Scan index of the last non-zero level at or before each position.
    last = np.maximum.accumulate(np.where(nz, idx, -1), axis=1)
    k = np.empty((m, 2 * n + 1), dtype=np.int64)
    k[:, 0] = total
    runs, levels = k[:, 1 : n + 1], k[:, n + 1 :]
    runs[:, 0] = 0
    np.subtract(idx[1:] - 1, last[:, :-1], out=runs[:, 1:])
    runs *= nz
    mag = np.abs(vecs)
    np.subtract(mag + mag, vecs > 0, out=levels)  # se → ue: 2|v| − [v > 0]
    # ue_len(k) = 2·⌊log2(k + 1)⌋ + 1 = 2e − 1 where k + 1 = f · 2^e, ½ ≤ f < 1.
    e = np.frexp(k + 1)[1]
    return 2 * e.sum(axis=1) - (2 * n + 1) - 2 * (n - total)


class LiteCoder:
    """The default CAVLC-lite coefficient coder.

    A 4×4 block is its 16 zig-zag levels, a chroma-DC group its 4 levels
    in raster order; both go through the same three length-``n`` routines.
    """

    def write_block(self, w: BitWriter, block: np.ndarray) -> None:
        _write_levels(w, zigzag_scan(np.asarray(block, dtype=np.int64)))

    def read_block(self, r: BitReader) -> np.ndarray:
        return zigzag_unscan(_read_levels(r, 16))

    def write_chroma_dc(self, w: BitWriter, dc: np.ndarray) -> None:
        _write_levels(w, np.asarray(dc, dtype=np.int64).reshape(-1))

    def read_chroma_dc(self, r: BitReader) -> np.ndarray:
        return _read_levels(r, 4).reshape(2, 2)

    def block_bits(self, blocks: np.ndarray) -> np.ndarray:
        """Bit cost of each block of an ``(n, 4, 4)`` stack."""
        return _levels_bits(zigzag_scan(np.asarray(blocks, dtype=np.int64)))

    def chroma_dc_bits(self, dcs: np.ndarray) -> int:
        """Total bit cost of the ``(nmb, 2, 2)`` chroma-DC level groups."""
        return int(_levels_bits(np.asarray(dcs, dtype=np.int64).reshape(-1, 4)).sum())


def get_coder(name: str):
    """Coefficient-coder factory: ``"lite"`` or ``"cavlc"``."""
    if name == "cavlc":
        from repro.codec.cavlc import CavlcCoder

        return CavlcCoder()
    if name != "lite":
        raise ValueError(f"unknown entropy coder {name!r}; expected lite|cavlc")
    return LiteCoder()
