"""Bjøntegaard-Delta rate metric (BD-rate).

The standard tool for comparing two encoders' R-D curves (VCEG-M33): fit a
cubic polynomial to each curve in (log-rate, PSNR) space and integrate the
gap over the overlapping interval. Used here to quantify the cost of codec
ablations (partition subsets, disabling sub-pel refinement, fast ME).
"""

from __future__ import annotations

import math

import numpy as np

from repro.codec.stats import RdPoint


def _prepare(points: list[RdPoint]) -> tuple[np.ndarray, np.ndarray]:
    if len(points) < 4:
        raise ValueError("BD metrics need at least 4 R-D points")
    pts = sorted(points, key=lambda p: p.bits)
    rates = np.array([math.log10(p.bits) for p in pts])
    psnrs = np.array([p.psnr_y for p in pts])
    if not np.all(np.diff(psnrs) > 0):
        raise ValueError("R-D points must be monotone (higher rate, higher PSNR)")
    return rates, psnrs


def bd_rate(anchor: list[RdPoint], test: list[RdPoint]) -> float:
    """Average bitrate difference (%) of ``test`` vs ``anchor`` at equal PSNR.

    Negative = the test encoder needs fewer bits (better).
    """
    ra, pa = _prepare(anchor)
    rt, pt = _prepare(test)
    # Integrate log-rate as a function of PSNR over the common interval.
    lo = max(pa.min(), pt.min())
    hi = min(pa.max(), pt.max())
    if hi <= lo:
        raise ValueError("R-D curves do not overlap in PSNR")
    fa = np.polynomial.polynomial.Polynomial.fit(pa, ra, 3)
    ft = np.polynomial.polynomial.Polynomial.fit(pt, rt, 3)
    int_a = (fa.integ()(hi) - fa.integ()(lo)) / (hi - lo)
    int_t = (ft.integ()(hi) - ft.integ()(lo)) / (hi - lo)
    return (10.0 ** (int_t - int_a) - 1.0) * 100.0
