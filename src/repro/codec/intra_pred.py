"""Intra prediction modes: Vertical, Horizontal, DC and Plane.

The H.264 Intra_16x16 luma modes and the corresponding 8×8 chroma modes.
Prediction always works from *reconstructed* neighbour samples (top row,
left column, top-left corner), so encoder and decoder derive identical
predictors from their own reconstruction loops.

Mode numbering follows the Intra_16x16 convention:
``0=V, 1=H, 2=DC, 3=Plane`` (chroma reuses the same numbering here).
Availability: DC always works (falls back to 128 with no neighbours),
V needs the row above, H the column left, Plane both plus the corner.
"""

from __future__ import annotations

import numpy as np

#: Mode indices.
MODE_V, MODE_H, MODE_DC, MODE_PLANE = 0, 1, 2, 3


def available_modes(has_top: bool, has_left: bool) -> list[int]:
    """Intra modes usable at a block position, cheapest-to-signal first."""
    modes = [MODE_DC]
    if has_top:
        modes.append(MODE_V)
    if has_left:
        modes.append(MODE_H)
    if has_top and has_left:
        modes.append(MODE_PLANE)
    return modes


def _dc_value(top: np.ndarray | None, left: np.ndarray | None) -> int:
    parts = [p for p in (top, left) if p is not None]
    if not parts:
        return 128
    samples = np.concatenate(parts).astype(np.int64)
    return int((samples.sum() + len(samples) // 2) // len(samples))


def _plane(top: np.ndarray, left: np.ndarray, corner: int, size: int) -> np.ndarray:
    """H.264 plane prediction (8.3.3.4 structure) for a size×size block."""
    half = size // 2
    # Gradient accumulators use the corner sample for the extreme tap.
    top_ext = np.concatenate(([corner], top)).astype(np.int64)   # index 0 = p[-1,-1]
    left_ext = np.concatenate(([corner], left)).astype(np.int64)
    h_acc = 0
    v_acc = 0
    for x in range(1, half + 1):
        h_acc += x * (int(top_ext[half + x]) - int(top_ext[half - x]))
        v_acc += x * (int(left_ext[half + x]) - int(left_ext[half - x]))
    if size == 16:
        b = (5 * h_acc + 32) >> 6
        c = (5 * v_acc + 32) >> 6
    else:  # size == 8 (chroma)
        b = (17 * h_acc + 16) >> 5
        c = (17 * v_acc + 16) >> 5
    a = 16 * (int(top[size - 1]) + int(left[size - 1]))
    yy, xx = np.mgrid[0:size, 0:size]
    pred = (a + b * (xx - (half - 1)) + c * (yy - (half - 1)) + 16) >> 5
    return np.clip(pred, 0, 255).astype(np.int32)


def predict_block(
    recon: np.ndarray,
    r0: int,
    c0: int,
    size: int,
    mode: int,
    has_top: bool | None = None,
    has_left: bool | None = None,
) -> np.ndarray:
    """Build the ``size``×``size`` intra prediction at (r0, c0).

    ``has_top``/``has_left`` override neighbour availability (used at
    slice boundaries, where prediction must not cross even though samples
    exist). Raises ``ValueError`` when the mode's neighbours are
    unavailable.
    """
    if has_top is None:
        has_top = r0 > 0
    if has_left is None:
        has_left = c0 > 0
    top = recon[r0 - 1, c0 : c0 + size].astype(np.int64) if has_top else None
    left = recon[r0 : r0 + size, c0 - 1].astype(np.int64) if has_left else None

    if mode == MODE_DC:
        return np.full((size, size), _dc_value(top, left), dtype=np.int32)
    if mode == MODE_V:
        if top is None:
            raise ValueError("V prediction needs the row above")
        return np.broadcast_to(top.astype(np.int32), (size, size)).copy()
    if mode == MODE_H:
        if left is None:
            raise ValueError("H prediction needs the column left")
        return np.broadcast_to(
            left.astype(np.int32)[:, None], (size, size)
        ).copy()
    if mode == MODE_PLANE:
        if top is None or left is None:
            raise ValueError("Plane prediction needs both neighbours")
        corner = int(recon[r0 - 1, c0 - 1])
        return _plane(top, left, corner, size)
    raise ValueError(f"unknown intra mode {mode}")


def choose_mode(
    cur_block: np.ndarray,
    recon: np.ndarray,
    r0: int,
    c0: int,
    size: int,
    lam: float,
    has_top: bool | None = None,
    has_left: bool | None = None,
) -> tuple[int, np.ndarray]:
    """Pick the minimum-cost mode: SAD(cur − pred) + λ·signal_bits.

    Returns ``(mode, prediction)``. Deterministic tie-breaking via the
    availability ordering (DC first).
    """
    from repro.codec.entropy import ue_len

    if has_top is None:
        has_top = r0 > 0
    if has_left is None:
        has_left = c0 > 0
    best_mode = -1
    best_pred: np.ndarray | None = None
    best_cost = None
    for mode in available_modes(has_top, has_left):
        pred = predict_block(recon, r0, c0, size, mode, has_top, has_left)
        sad = np.abs(cur_block.astype(np.int64) - pred).sum()
        cost = float(sad) + lam * float(ue_len(mode))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_mode = mode
            best_pred = pred
    assert best_pred is not None
    return best_mode, best_pred
