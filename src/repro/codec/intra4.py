"""Intra_4x4 prediction: per-block directional modes.

The H.264 tool that makes I frames competitive on detailed content: each
4×4 luma block picks its own prediction direction from already-
reconstructed neighbour samples, and the chosen mode is signalled against
the *most probable mode* (the minimum of the left and top blocks' modes —
1 bit when the prediction hits, a fixed-length remainder otherwise, the
spec's exact signalling structure).

Five of the nine spec modes are implemented (documented in DESIGN.md):
``0=V, 1=H, 2=DC, 3=DDL (diagonal down-left), 4=DDR (diagonal down-right)``
— the remaining four diagonals follow the same machinery and are omitted.
Encoder and decoder share every formula, so the closed decoding loop stays
bit-exact.

Block scan order is raster within the MB (blocks above and to the left are
always reconstructed first); the top-right neighbour is available unless
the block sits in the last block-column of its MB with blocks above still
undecoded — the same reachability the spec's z-scan rules encode.
"""

from __future__ import annotations

import numpy as np

#: Implemented Intra_4x4 modes.
I4_V, I4_H, I4_DC, I4_DDL, I4_DDR = 0, 1, 2, 3, 4
N_I4_MODES = 5

#: Bits to signal a non-MPM mode (alphabet of N_I4_MODES − 1 remainders).
REM_BITS = 2


def neighbours4(
    recon: np.ndarray, r0: int, c0: int, has_top: bool | None = None
) -> tuple[np.ndarray | None, np.ndarray | None, int | None, np.ndarray | None]:
    """Collect (top[4], left[4], corner, top_right[4]) for a 4×4 block.

    ``None`` marks unavailable sample groups. ``top_right`` falls back to
    replicating ``top[3]`` when the diagonal samples are not decodable yet
    (spec behaviour), and is ``None`` only when ``top`` itself is.
    """
    h, w = recon.shape
    if has_top is None:
        has_top = r0 > 0
    top = recon[r0 - 1, c0 : c0 + 4].astype(np.int64) if has_top else None
    left = recon[r0 : r0 + 4, c0 - 1].astype(np.int64) if c0 > 0 else None
    corner = int(recon[r0 - 1, c0 - 1]) if (has_top and c0 > 0) else None
    top_right: np.ndarray | None = None
    if top is not None:
        tr_decodable = (
            c0 + 8 <= w and (r0 % 16 == 0 or c0 % 16 != 12)
        )
        if tr_decodable:
            top_right = recon[r0 - 1, c0 + 4 : c0 + 8].astype(np.int64)
        else:
            top_right = np.full(4, int(top[3]), dtype=np.int64)
    return top, left, corner, top_right


def available_modes4(top, left, corner) -> list[int]:
    """Modes usable with the given neighbour availability (DC first)."""
    modes = [I4_DC]
    if top is not None:
        modes.append(I4_V)
        modes.append(I4_DDL)
    if left is not None:
        modes.append(I4_H)
    if top is not None and left is not None and corner is not None:
        modes.append(I4_DDR)
    return modes


def predict4(
    mode: int,
    top: np.ndarray | None,
    left: np.ndarray | None,
    corner: int | None,
    top_right: np.ndarray | None,
) -> np.ndarray:
    """Build the 4×4 prediction for one mode (int32, clipped)."""
    if mode == I4_DC:
        parts = [p for p in (top, left) if p is not None]
        if not parts:
            return np.full((4, 4), 128, dtype=np.int32)
        samples = np.concatenate(parts)
        dc = int((samples.sum() + len(samples) // 2) // len(samples))
        return np.full((4, 4), dc, dtype=np.int32)
    if mode == I4_V:
        if top is None:
            raise ValueError("V needs top samples")
        return np.broadcast_to(top.astype(np.int32), (4, 4)).copy()
    if mode == I4_H:
        if left is None:
            raise ValueError("H needs left samples")
        return np.broadcast_to(left.astype(np.int32)[:, None], (4, 4)).copy()
    if mode == I4_DDL:
        if top is None or top_right is None:
            raise ValueError("DDL needs top + top-right samples")
        t = np.concatenate([top, top_right])  # t[0..7]
        pred = np.zeros((4, 4), dtype=np.int32)
        for y in range(4):
            for x in range(4):
                if x == 3 and y == 3:
                    pred[y, x] = (t[6] + 3 * t[7] + 2) >> 2
                else:
                    pred[y, x] = (t[x + y] + 2 * t[x + y + 1] + t[x + y + 2] + 2) >> 2
        return pred
    if mode == I4_DDR:
        if top is None or left is None or corner is None:
            raise ValueError("DDR needs top + left + corner samples")
        pred = np.zeros((4, 4), dtype=np.int32)
        for y in range(4):
            for x in range(4):
                if x > y:
                    k = x - y
                    a = corner if k - 2 < 0 else top[k - 2]
                    b = corner if k - 1 < 0 else top[k - 1]
                    pred[y, x] = (a + 2 * b + top[k] + 2) >> 2
                elif x < y:
                    k = y - x
                    a = corner if k - 2 < 0 else left[k - 2]
                    b = corner if k - 1 < 0 else left[k - 1]
                    pred[y, x] = (a + 2 * b + left[k] + 2) >> 2
                else:
                    pred[y, x] = (top[0] + 2 * corner + left[0] + 2) >> 2
        return pred
    raise ValueError(f"unknown Intra_4x4 mode {mode}")


def most_probable_mode(left_mode: int | None, top_mode: int | None) -> int:
    """Spec MPM rule: min of the neighbour modes, DC when either missing."""
    if left_mode is None or top_mode is None:
        return I4_DC
    return min(left_mode, top_mode)


def mode_signal_bits(mode: int, mpm: int) -> int:
    """Cost of signalling ``mode`` against the most probable mode."""
    return 1 if mode == mpm else 1 + REM_BITS


def encode_mode(w, mode: int, mpm: int) -> None:
    """Write the MPM-predicted mode signal."""
    if mode == mpm:
        w.write_bit(1)
        return
    w.write_bit(0)
    rem = mode if mode < mpm else mode - 1
    w.write_bits(rem, REM_BITS)


def decode_mode(r, mpm: int) -> int:
    """Read the MPM-predicted mode signal."""
    if r.read_bit() == 1:
        return mpm
    rem = r.read_bits(REM_BITS)
    mode = rem if rem < mpm else rem + 1
    if mode >= N_I4_MODES:
        raise ValueError(f"invalid Intra_4x4 mode {mode}")
    return mode


def choose_mode4(
    cur_block: np.ndarray,
    recon: np.ndarray,
    r0: int,
    c0: int,
    mpm: int,
    lam: float,
    has_top: bool | None = None,
) -> tuple[int, np.ndarray]:
    """Best mode for one 4×4 block: SAD + λ·signal bits."""
    top, left, corner, top_right = neighbours4(recon, r0, c0, has_top)
    best = None
    for mode in available_modes4(top, left, corner):
        pred = predict4(mode, top, left, corner, top_right)
        sad = int(np.abs(cur_block.astype(np.int64) - pred).sum())
        cost = sad + lam * mode_signal_bits(mode, mpm)
        if best is None or cost < best[0]:
            best = (cost, mode, pred)
    assert best is not None
    return best[1], best[2]
