"""Distortion / quality metrics for encoded output."""

from __future__ import annotations

import math

import numpy as np

from repro.codec.frames import YuvFrame


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between two planes."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """PSNR in dB between two planes (``inf`` for identical planes)."""
    m = mse(a, b)
    if m <= 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / m)


def frame_psnr(a: YuvFrame, b: YuvFrame) -> dict[str, float]:
    """Per-plane PSNR of two frames: keys ``y``, ``u``, ``v``."""
    return {
        "y": psnr(a.y, b.y),
        "u": psnr(a.u, b.u),
        "v": psnr(a.v, b.v),
    }
