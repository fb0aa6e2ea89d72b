"""Distribution vectors: MB-row workload splits across devices.

The framework distributes each computationally intensive module at MB-row
granularity: ``m`` for ME, ``l`` for INT and ``s`` for SME (paper §III.A).
A distribution assigns each device a *contiguous band* of rows in device
enumeration order — bands are prefix intervals, which is what makes the
Data Access Management offsets (``m_{i-1}``, ``s_{i-1}`` … in Fig. 5) well
defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Distribution:
    """Rows-per-device assignment for one module, in device order."""

    rows: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.rows):
            raise ValueError(f"negative row counts: {self.rows}")
        if sum(self.rows) != self.total:
            raise ValueError(
                f"distribution {self.rows} sums to {sum(self.rows)}, "
                f"expected {self.total}"
            )

    @property
    def n_devices(self) -> int:
        return len(self.rows)

    def band(self, i: int) -> tuple[int, int]:
        """``(row0, row0 + nrows)`` half-open band of device ``i``."""
        start = sum(self.rows[:i])
        return start, start + self.rows[i]

    def bands(self) -> list[tuple[int, int]]:
        """All device bands in order."""
        return [self.band(i) for i in range(self.n_devices)]

    @classmethod
    def equidistant(cls, total: int, n_devices: int) -> "Distribution":
        """The initialization-phase split: as equal as integer rows allow."""
        if n_devices < 1:
            raise ValueError("need at least one device")
        base = total // n_devices
        extra = total % n_devices
        rows = tuple(base + (1 if i < extra else 0) for i in range(n_devices))
        return cls(rows=rows, total=total)

    @classmethod
    def single_device(cls, total: int, n_devices: int, device: int) -> "Distribution":
        """All rows on one device (single-device baselines)."""
        rows = [0] * n_devices
        rows[device] = total
        return cls(rows=tuple(rows), total=total)


def round_preserving_sum(fractions: np.ndarray, total: int) -> tuple[int, ...]:
    """Largest-remainder rounding of non-negative reals to integers summing
    to ``total`` (converts the LP's continuous solution to whole MB rows).

    Degenerate inputs are handled rather than rejected: LP outputs may be
    negative within the solver's feasibility tolerance (~1e-7 for HiGHS,
    looser than a naive zero check), so values above ``-1e-6`` are clamped
    to zero and only genuinely negative inputs raise. A zero-sum vector
    (all devices idle, or ``total == 0``) falls back to an equidistant
    split, a single entry gets everything, and remainder ties break toward
    the lower device index deterministically.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    frac: list[float] = np.asarray(fractions, dtype=np.float64).ravel().tolist()
    n = len(frac)
    if n == 0:
        if total != 0:
            raise ValueError(f"cannot distribute {total} rows over zero devices")
        return ()
    if any(f < -1e-6 for f in frac):
        raise ValueError(f"negative fractions: {frac}")
    if total == 0:
        return (0,) * n
    if n == 1:
        return (total,)
    frac = [0.0 if f < 0.0 else f for f in frac]
    s = 0.0
    for f in frac:  # left to right, as NumPy adds fewer than eight values
        s += f
    if s == 0:
        return Distribution.equidistant(total, n).rows
    scale = total / s
    frac = [f * scale for f in frac]
    if not all(math.isfinite(f) for f in frac):  # guard subnormal inputs overflowing
        return Distribution.equidistant(total, n).rows
    out = [math.floor(f) for f in frac]
    # Float error can make the scaled sum land a hair above ``total``;
    # floors then already cover it and there is nothing left to hand out.
    short = max(0, total - sum(out))
    # Stable sort: equal remainders go to the lower device index.
    order = sorted(range(n), key=lambda i: out[i] - frac[i])
    for k in range(short):
        out[order[k % n]] += 1
    return tuple(out)


def missing_segments(
    need: tuple[int, int], have: tuple[int, int]
) -> list[tuple[int, int]]:
    """Sub-intervals of ``need`` not covered by ``have`` (≤ 2 segments).

    This is the geometric core of MS_BOUNDS/LS_BOUNDS: the rows a device
    must additionally fetch when two modules' bands over the same buffer
    differ (paper Fig. 5's upper/bottom region pairs).
    """
    out: list[tuple[int, int]] = []
    if need[0] >= need[1]:
        return out
    if have[0] >= have[1]:
        return [need]
    if need[0] < have[0]:
        out.append((need[0], min(need[1], have[0])))
    if need[1] > have[1]:
        out.append((max(need[0], have[1]), need[1]))
    return out
