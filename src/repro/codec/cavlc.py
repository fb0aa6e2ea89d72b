"""CAVLC-structured coefficient coder (table-free variant).

Implements the *algorithmic* structure of H.264 CAVLC (spec §9.2) — the
part that gives CAVLC its efficiency on transform coefficients:

- **trailing ones**: up to three trailing ±1 coefficients cost one sign
  bit each instead of a level code;
- **adaptive level codes**: levels are coded as unary prefix + fixed
  suffix whose length adapts upward as large magnitudes appear (the spec's
  ``suffixLength`` state machine, including the first-level ``−2``
  adjustment when magnitude ≥ 2 is guaranteed);
- **total_zeros / run_before**: zero runs are coded against the known
  remaining-zeros budget, so high-frequency tails cost almost nothing.

Where the spec uses context-selected VLC tables (coeff_token by nC,
total_zeros, run_before) we substitute self-describing codes (documented
in DESIGN.md): ``ue(total)`` + 2-bit trailing-ones count, ``ue`` for
total_zeros, and minimal-width FLC for run_before bounded by zeros-left.
Everything round-trips exactly; bit costs track real CAVLC behaviour
(trailing-one-heavy blocks cheap, dense high-magnitude blocks expensive).

Select with ``CodecConfig(entropy_coder="cavlc")``.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.entropy import (
    read_ue,
    write_ue,
    zigzag_scan,
    zigzag_unscan,
)

#: Escape threshold for the unary level prefix (spec: 15).
_PREFIX_ESCAPE = 15
#: Maximum adaptive suffix length (spec: 6).
_MAX_SUFFIX = 6


def _flc_width(maxval: int) -> int:
    """Bits needed for a fixed-length code of values in [0, maxval]."""
    return max(1, int(maxval).bit_length()) if maxval > 0 else 0


def _write_level(w: BitWriter, level: int, suffix_length: int) -> None:
    """Unary-prefix / adaptive-suffix level code (spec 9.2.2.1 layout)."""
    level_code = (abs(level) - 1) * 2 + (1 if level < 0 else 0)
    prefix = level_code >> suffix_length
    if prefix < _PREFIX_ESCAPE:
        w.write_bits(0, prefix)
        w.write_bit(1)
        if suffix_length:
            w.write_bits(level_code & ((1 << suffix_length) - 1), suffix_length)
    else:
        # Escape: 15 zeros + marker, then the remainder as Exp-Golomb
        # (the spec uses a growing FLC; ue() is our unbounded substitute).
        w.write_bits(0, _PREFIX_ESCAPE)
        w.write_bit(1)
        write_ue(w, level_code - (_PREFIX_ESCAPE << suffix_length))


def _read_level(r: BitReader, suffix_length: int) -> int:
    prefix = 0
    while r.read_bit() == 0:
        prefix += 1
        if prefix > 64:
            raise ValueError("malformed level prefix")
    if prefix < _PREFIX_ESCAPE:
        level_code = prefix << suffix_length
        if suffix_length:
            level_code |= r.read_bits(suffix_length)
    else:
        level_code = (_PREFIX_ESCAPE << suffix_length) + read_ue(r)
    if level_code > 1 << 31:
        raise ValueError("coefficient level out of range")
    mag = level_code // 2 + 1
    return -mag if level_code & 1 else mag


def _encode_coeffs(w: BitWriter, scanned: np.ndarray, n_coeffs: int) -> None:
    """Encode one scanned coefficient vector of length ``n_coeffs``."""
    vec = [int(v) for v in scanned[:n_coeffs]]
    nz = [i for i, v in enumerate(vec) if v != 0]
    total = len(nz)
    write_ue(w, total)
    if total == 0:
        return

    # Trailing ones: ±1 coefficients at the high-frequency end (max 3).
    t1s = 0
    for idx in reversed(nz):
        if abs(vec[idx]) == 1 and t1s < 3:
            t1s += 1
        else:
            break
    w.write_bits(t1s, 2)
    for idx in reversed(nz[total - t1s:]) if t1s else []:
        w.write_bit(1 if vec[idx] < 0 else 0)

    # Remaining levels, highest frequency first, adaptive suffix.
    remaining = nz[: total - t1s]
    suffix_length = 1 if total > 10 and t1s < 3 else 0
    first = True
    for idx in reversed(remaining):
        level = vec[idx]
        if first and t1s < 3:
            # Magnitude ≥ 2 is guaranteed here; shift the alphabet down.
            level = level - 1 if level > 0 else level + 1
        _write_level(w, level, suffix_length)
        if suffix_length == 0:
            suffix_length = 1
        if abs(vec[idx]) > (3 << (suffix_length - 1)) and suffix_length < _MAX_SUFFIX:
            suffix_length += 1
        first = False

    # total_zeros: zeros below the last significant coefficient.
    last = nz[-1]
    total_zeros = last + 1 - total
    write_ue(w, total_zeros)

    # run_before per coefficient (highest frequency first), FLC bounded by
    # the zeros still unaccounted for; the final run is implied.
    zeros_left = total_zeros
    prev = last
    for idx in reversed(nz[:-1]):
        if zeros_left == 0:
            break
        run = prev - idx - 1
        width = _flc_width(zeros_left)
        w.write_bits(run, width)
        zeros_left -= run
        prev = idx
    # (the run before the first coefficient is whatever zeros remain)


def _decode_coeffs(r: BitReader, n_coeffs: int) -> np.ndarray:
    vec = np.zeros(n_coeffs, dtype=np.int64)
    total = read_ue(r)
    if total > n_coeffs:
        raise ValueError(f"invalid total_coeffs {total}")
    if total == 0:
        return vec
    t1s = r.read_bits(2)
    if t1s > min(3, total):
        raise ValueError(f"invalid trailing_ones {t1s}")
    t1_signs = [r.read_bit() for _ in range(t1s)]

    levels: list[int] = []  # highest frequency first
    suffix_length = 1 if total > 10 and t1s < 3 else 0
    first = True
    for _ in range(total - t1s):
        level = _read_level(r, suffix_length)
        if first and t1s < 3:
            level = level + 1 if level > 0 else level - 1
        if suffix_length == 0:
            suffix_length = 1
        if abs(level) > (3 << (suffix_length - 1)) and suffix_length < _MAX_SUFFIX:
            suffix_length += 1
        levels.append(level)
        first = False

    total_zeros = read_ue(r)
    if total + total_zeros > n_coeffs:
        raise ValueError("total_zeros out of range")

    # Reconstruct scan positions: trailing ones first (highest), then the
    # coded levels, separated by run_before values.
    magnitudes: list[int] = []
    for sign in t1_signs:
        magnitudes.append(-1 if sign else 1)
    magnitudes.extend(levels)  # highest-frequency first ordering overall

    pos = total + total_zeros - 1  # scan index of the last significant coeff
    zeros_left = total_zeros
    out_positions: list[int] = []
    for k in range(total):
        out_positions.append(pos)
        if k == total - 1:
            break
        if zeros_left > 0:
            width = _flc_width(zeros_left)
            run = r.read_bits(width)
            if run > zeros_left:
                raise ValueError("run_before exceeds zeros_left")
        else:
            run = 0
        zeros_left -= run
        pos = pos - run - 1
    for p, mag in zip(out_positions, magnitudes, strict=True):
        vec[p] = mag
    return vec


class CavlcCoder:
    """Coefficient coder with the CAVLC structure (see module docstring)."""

    def write_block(self, w: BitWriter, block: np.ndarray) -> None:
        _encode_coeffs(w, zigzag_scan(np.asarray(block, dtype=np.int64)), 16)

    def read_block(self, r: BitReader) -> np.ndarray:
        return zigzag_unscan(_decode_coeffs(r, 16))

    def write_chroma_dc(self, w: BitWriter, dc: np.ndarray) -> None:
        _encode_coeffs(w, np.asarray(dc, dtype=np.int64).reshape(-1), 4)

    def read_chroma_dc(self, r: BitReader) -> np.ndarray:
        return _decode_coeffs(r, 4).reshape(2, 2)

    def block_bits(self, blocks: np.ndarray) -> np.ndarray:
        """Exact per-block bit cost (counting pass; not vectorized)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        out = np.zeros(blocks.shape[0], dtype=np.int64)
        for i in range(blocks.shape[0]):
            w = BitWriter()
            self.write_block(w, blocks[i])
            out[i] = w.bit_count
        return out

    def chroma_dc_bits(self, dcs: np.ndarray) -> int:
        total = 0
        for dc in np.asarray(dcs, dtype=np.int64).reshape(-1, 2, 2):
            w = BitWriter()
            self.write_chroma_dc(w, dc)
            total += w.bit_count
        return total
